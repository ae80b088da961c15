"""Losses, optimizers, metrics and the full-batch training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .algebra import write_atomic
from .tensor import ShapeError, Tensor, no_grad, zero_grad

BCE_CLAMP = 1e-7  # predictions are clamped to [eps, 1 - eps] before the logs


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during fit."""


def _as_array(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def bce_loss(pred, target):
    """Mean binary cross-entropy, -[y log p + (1 - y) log(1 - p)], one tape node.

    Targets must be 0 or 1; see tensor.binary_cross_entropy for the rest.
    """
    y = _as_array(target)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("binary cross-entropy targets must be 0 or 1")
    return T.binary_cross_entropy(pred, target, BCE_CLAMP)


def accuracy(pred, target):
    """Fraction of thresholded predictions matching binary targets.

    pred and target must have the same shape, with at least one entry;
    nothing broadcasts. The threshold is inclusive: a prediction of
    exactly 0.5 counts as class 1.
    """
    pred = _as_array(pred)
    target = _as_array(target)
    if pred.shape != target.shape:
        raise ShapeError(f"accuracy: pred shape {pred.shape} and target shape "
                         f"{target.shape} differ")
    hits = (pred >= 0.5) == (target >= 0.5)
    if hits.size == 0:
        raise ValueError("accuracy needs at least one prediction, got none")
    # the count over the size, the value np.mean gives, without its overhead
    return float(np.count_nonzero(hits) / hits.size)


def _real(name, value):
    """value as a float; it must pass tensor._is_real, as a table coefficient does."""
    if not T._is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _positive(name, value):
    """value as a float, which must be finite and > 0."""
    value = _real(name, value)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _decay(name, value):
    """value as a float in [0, 1), the range of an Adam moment decay."""
    value = _real(name, value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")
    return value


class _Flat:
    """An optimizer's parameters packed as one flat array per dtype.

    Each parameter's data is a reshaped view into its dtype's flat array,
    and its entry in each per-parameter state dict (Adam's moments) a view
    into a flat state array of that dtype. So each ufunc of an update rule
    runs once per dtype over all parameters, and being elementwise it
    rounds every entry as it would one parameter at a time. While the same
    parameters come back in the same order, each p.data still the view
    last handed out, a step only concatenates the gradients. Anything else
    (a parameter gained, lost or moved, or a p.data rebound by a load, by
    another optimizer or by hand) re-packs from the current p.data and
    state, so a parameter keeps its own state and starts from its value.
    """

    def __init__(self, *states):
        self.states = states   # per-parameter dicts packed along, in this order
        self.params = []       # the parameters in the order last stepped
        self.views = []        # the p.data view each was last handed
        # per dtype: its parameters, their (position, span, shape), and
        # [flat data, *flat states]
        self.groups = []

    def arrays(self, params):
        """[flat data, flat gradient, *flat states] for each dtype.

        Every parameter needs a gradient of its own shape. The flat data is
        read only; the flat states are the parameters' state, to update in
        place.
        """
        params = list(params)
        for p in params:
            g = p.grad
            if g is None:
                raise RuntimeError("parameter has no gradient; run backward first")
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match "
                                 f"parameter shape {p.data.shape}")
        if len(params) != len(self.views) or any(
                p is not q or p.data is not view
                for p, q, view in zip(params, self.params, self.views)):
            self._pack(params)
        return [[data, np.concatenate([p.grad for p in members], axis=None), *states]
                for members, _, (data, *states) in self.groups]

    def _pack(self, params):
        if len(set(map(id, params))) != len(params):
            raise ValueError("a parameter appears more than once in the list")
        by_dtype = {}
        for i, p in enumerate(params):
            by_dtype.setdefault(p.data.dtype, []).append(i)
        self.groups = []
        for dtype, positions in by_dtype.items():
            members = [params[i] for i in positions]
            spans, start = [], 0
            for i, p in zip(positions, members):
                spans.append((i, slice(start, start + p.data.size), p.data.shape))
                start += p.data.size
            flats = [np.concatenate([p.data for p in members], axis=None)]
            for state in self.states:
                flat = np.concatenate([state.get(p, np.zeros_like(p.data)) for p in members],
                                      axis=None, dtype=dtype)
                for p, (_, span, shape) in zip(members, spans):
                    state[p] = flat[span].reshape(shape)
                flats.append(flat)
            self.groups.append((members, spans, flats))
        self.params = params
        self.views = []        # until rebind hands them out

    def rebind(self, new):
        """Make new, one flat array per dtype in the order of arrays(), the
        parameters' data: each p.data becomes a reshaped view of it."""
        views = [None] * len(self.params)
        for (members, spans, flats), data in zip(self.groups, new):
            flats[0] = data
            for p, (i, span, shape) in zip(members, spans):
                views[i] = p.data = data[span].reshape(shape)
        self.views = views


class SGD:
    """Plain gradient descent, w <- w - lr * g, on flat arrays (see _Flat)."""

    def __init__(self, lr=0.01):
        self.lr = _positive("lr", lr)
        self._flat = _Flat()

    def step(self, params):
        self._flat.rebind([data - self.lr * g for data, g in self._flat.arrays(params)])


class Adam:
    """Adam (Kingma & Ba, 2015): at step t, with c1, c2 = 1 - beta1**t, 1 - beta2**t,

        m += (g - m) * (1 - beta1);  v += (g * g - v) * (1 - beta2)
        p.data = p.data - lr * (m / c1) / (sqrt(v / c2) + eps)

    The moments are updated in place, and p.data is rebound to a new array,
    never written. Each ufunc runs once per dtype over all parameters: the
    parameters, their gradients and their moments are flat arrays, and
    _m[p] and _v[p] views into the flat moments (see _Flat).
    """

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-7):
        self.lr = _positive("lr", lr)
        self.beta1 = _decay("beta1", beta1)
        self.beta2 = _decay("beta2", beta2)
        self.eps = _positive("eps", eps)
        self.step_count = 0
        # keyed by the parameter itself, whose strong reference keeps its id unique
        self._m: dict[Tensor, np.ndarray] = {}
        self._v: dict[Tensor, np.ndarray] = {}
        self._flat = _Flat(self._m, self._v)

    def step(self, params):
        groups = self._flat.arrays(params)
        self.step_count += 1
        t = self.step_count
        a1, a2 = 1.0 - self.beta1, 1.0 - self.beta2
        c1, c2 = 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t
        new = []
        for data, g, m, v in groups:
            m += (g - m) * a1
            v += (g * g - v) * a2
            new.append(data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps))
        self._flat.rebind(new)


@dataclass
class TrainHistory:
    """Per-epoch records; validation columns present only when tracked."""

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def __len__(self):
        return len(self.loss)

    @property
    def has_validation(self):
        return bool(self.val_loss)

    def to_csv(self, path):
        """Write one row per epoch with 9 significant digits."""
        header = "epoch,loss,accuracy"
        if self.has_validation:
            header += ",val_loss,val_accuracy"
        lines = [header]
        for i in range(len(self)):
            row = [str(i + 1), f"{self.loss[i]:.9g}", f"{self.accuracy[i]:.9g}"]
            if self.has_validation:
                row += [f"{self.val_loss[i]:.9g}", f"{self.val_accuracy[i]:.9g}"]
            lines.append(",".join(row))
        write_atomic(path, "\n".join(lines) + "\n")


def _check_data(x, y):
    """x as a float array (float32 kept) and y in x's dtype, checked together.

    Bad data fails here, naming the argument, rather than later as a
    shape error inside the loss or as a diverged loss.
    """
    name = "x"
    try:
        x = T._coerce(x)
        name = "y"
        y = T._coerce(y, x.dtype)
    except (TypeError, ValueError) as exc:   # ragged, strings, objects, complex
        raise ValueError(f"{name}: {exc}") from exc
    if x.ndim == 0 or y.ndim == 0:
        raise ValueError(f"x and y need a batch axis, got shapes {x.shape} and {y.shape}")
    if x.shape[0] == 0:
        raise ValueError(f"x has no rows, shape {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    for name, arr in (("x", x), ("y", y)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains NaN or Inf")
    return x, y


def _check_target(pred, y):
    """y must have the trailing shape of the model's output."""
    if pred.data.shape[1:] != y.shape[1:]:
        raise ValueError(f"y has trailing shape {y.shape[1:]} but the model "
                         f"outputs {pred.data.shape[1:]}")


def evaluate(model, x, y, loss_fn=bce_loss):
    """Loss and accuracy on held-out data, without gradient recording."""
    x, y = _check_data(x, y)
    with no_grad():
        pred = model.forward(Tensor(x))
        _check_target(pred, y)
        loss = loss_fn(pred, Tensor(y))
    return float(loss.data), accuracy(pred, y)


def fit(model, x, y, epochs, optimizer, loss_fn=bce_loss,
        validation=None, batch_size=None, verbose=False):
    """Train by gradient descent and record per-epoch history.

    Full batch by default; pass batch_size for sequential mini-batches.
    The loss/accuracy recorded for an epoch are measured on the forward
    passes of that epoch, before the following update is visible. An
    unbuilt model is built at the first step from its own seeds, so a
    Sequential(..., seed=s) makes the whole run deterministic. validation,
    an (x, y) pair, is checked in one place: it is evaluated at that first
    step too, before any update, so bad data, or a set the model or loss
    refuses, fails, prefixed "validation: ", with no weight moved.
    """
    T._positive_int("epochs", epochs)
    if batch_size is not None:
        T._positive_int("batch_size", batch_size)
    x, y = _check_data(x, y)
    if validation is not None:
        if not (isinstance(validation, (tuple, list)) and len(validation) == 2):
            size = f" of {len(validation)}" if isinstance(validation, (tuple, list)) else ""
            raise ValueError(f"validation must be an (x, y) pair, got a "
                             f"{type(validation).__name__}{size}")
    count = x.shape[0]
    step = batch_size or count
    bounds = [(i, min(i + step, count)) for i in range(0, count, step)]

    history = TrainHistory()
    params = None
    for epoch in range(epochs):
        total = 0.0
        preds = np.zeros(y.shape)
        for lo, hi in bounds:
            out = model.forward(Tensor(x[lo:hi]))
            _check_target(out, y)
            loss = loss_fn(out, Tensor(y[lo:hi]))
            if not np.isfinite(loss.data):
                raise TrainingDiverged(
                    f"loss became {float(loss.data)} at epoch {epoch + 1}")
            if params is None:   # the first step: the model is built, no weight moved
                params = model.params()
                if validation is not None:
                    try:
                        evaluate(model, *validation, loss_fn=loss_fn)
                    except ValueError as exc:   # a shape or target the model or loss refuses
                        raise type(exc)(f"validation: {exc}") from exc
            loss.backward()
            optimizer.step(params)
            zero_grad(params)
            total += float(loss.data) * (hi - lo)
            preds[lo:hi] = out.data
        history.loss.append(total / count)
        history.accuracy.append(accuracy(preds, y))
        if validation is not None:
            val_loss, val_acc = evaluate(model, *validation, loss_fn=loss_fn)
            history.val_loss.append(val_loss)
            history.val_accuracy.append(val_acc)
        if verbose:
            line = (f"epoch {epoch + 1}/{epochs}  loss {history.loss[-1]:.6f}  "
                    f"acc {history.accuracy[-1]:.4f}")
            if validation is not None:
                line += (f"  val_loss {history.val_loss[-1]:.6f}  "
                         f"val_acc {history.val_accuracy[-1]:.4f}")
            print(line)
    return history
