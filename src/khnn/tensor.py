"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed compute core: enough operations for block-matrix
dense layers, N-d convolution (N in {1, 2, 3}), activations, pooling
and a binary-cross-entropy training loop. Each operation records its
parents and a backward rule on the output tensor; ``backward()`` on a
scalar walks the recorded graph newest tensor first. Every tensor is
numbered at creation, after its parents, so a tensor's gradient is
complete by the time the walk reaches it.

Shape rules are strict. Elementwise operations accept equal shapes or a
Python scalar; anything else must be reshaped explicitly (``add_bias``
is the one documented exception, broadcasting a vector over the last
axis). Arrays are float64 by default; float32 is allowed for speed.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operands whose shapes do not fit the operation."""


_grad_enabled = True
_creation_order = itertools.count()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used by predict)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _coerce(data, dtype=None):
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A dense real array, optionally participating in the gradient tape.

    Only leaves hold a gradient: tensors made with ``requires_grad=True``
    rather than by an operation. On a leaf, ``grad`` accumulates across
    ``backward()`` calls until reset with ``zero_grad``, mirroring the
    usual step/zero optimizer cycle. On an operation's result it stays
    None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._seq = next(_creation_order)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    # Python scalars go to add() as they are, so they keep this tensor's dtype
    def __sub__(self, other):
        return add(self, -other if np.isscalar(other) else neg(_wrap(other)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return mean(self, axis=axis)

    def backward(self):
        """Accumulate d(self)/d(t) into t.grad for every leaf t of the tape.

        One pass pops pending tensors newest first. All consumers of a
        tensor are newer than it, so its gradient is complete when it is
        popped: a leaf adds it to ``grad``, any other tensor runs its
        backward rule once. Gradients of intermediate results are freed
        as soon as they are consumed; none is stored on them.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise RuntimeError("tensor is not connected to a gradient tape")

        flowing = {self: np.ones_like(self.data)}
        pending = [(-self._seq, self)]
        while pending:
            node = heapq.heappop(pending)[1]
            g = flowing.pop(node)
            if node._backward is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent in flowing:
                    # out-of-place: backward rules may hand the same array
                    # to several parents, so stored buffers are never mutated
                    flowing[parent] = flowing[parent] + pg
                else:
                    flowing[parent] = pg
                    heapq.heappush(pending, (-parent._seq, parent))


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ "
                         "(only Python scalar operands broadcast)")


# ---------------------------------------------------------------------------
# elementwise

def add(a, b):
    if not isinstance(b, Tensor) and np.isscalar(b):
        a = _wrap(a)
        return _result(a.data + b, (a,), lambda g: (g,))
    a, b = _wrap(a), _wrap(b)
    _check_same_shape("add", a, b)
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def add_bias(x, bias):
    """x + bias with bias broadcast over the last axis."""
    x, bias = _wrap(x), _wrap(bias)
    if bias.data.ndim != 1 or x.data.shape[-1] != bias.data.shape[0]:
        raise ShapeError(f"add_bias: bias {bias.data.shape} does not fit "
                         f"last axis of {x.data.shape}")
    axes = tuple(range(x.data.ndim - 1))
    return _result(x.data + bias.data, (x, bias),
                   lambda g: (g, g.sum(axis=axes)))


def mul(a, b):
    if not isinstance(b, Tensor) and np.isscalar(b):
        a = _wrap(a)
        return _result(a.data * b, (a,), lambda g: (g * b,))
    a, b = _wrap(a), _wrap(b)
    _check_same_shape("mul", a, b)
    return _result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def neg(x):
    x = _wrap(x)
    return _result(-x.data, (x,), lambda g: (-g,))


def tanh(x):
    x = _wrap(x)
    t = np.tanh(x.data)
    return _result(t, (x,), lambda g: (g * (1.0 - t * t),))


def sigmoid(x):
    x = _wrap(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _result(s, (x,), lambda g: (g * s * (1.0 - s),))


def log(x):
    x = _wrap(x)
    return _result(np.log(x.data), (x,), lambda g: (g / x.data,))


def clip(x, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only inside the interval."""
    x = _wrap(x)
    mask = (x.data >= lo) & (x.data <= hi)
    return _result(np.clip(x.data, lo, hi), (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions and shape ops

def tensor_sum(x, axis=None):
    x = _wrap(x)
    out = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full_like(x.data, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return _result(out, (x,), backward)


sum = tensor_sum  # noqa: A001 - numpy-style namespaced reduction


def mean(x, axis=None):
    x = _wrap(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    out = x.data.mean(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full_like(x.data, g / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape) / count,)

    return _result(out, (x,), backward)


def reduce_max(x, axis=None):
    """Max reduction; ties route the gradient to the first maximum."""
    x = _wrap(x)
    data = x.data.reshape(-1) if axis is None else x.data
    axis = 0 if axis is None else axis
    if not (_grad_enabled and x.requires_grad):
        return Tensor(data.max(axis=axis))
    # one pass: the max is read off at the argmax the backward needs anyway
    idx = np.expand_dims(data.argmax(axis=axis), axis)
    out = np.take_along_axis(data, idx, axis=axis).squeeze(axis)

    def backward(g):
        dx = np.zeros_like(data)
        np.put_along_axis(dx, idx, np.expand_dims(g, axis), axis=axis)
        return (dx.reshape(x.data.shape),)

    return _result(out, (x,), backward)


def reshape(x, *shape):
    x = _wrap(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}") from exc
    return _result(out, (x,), lambda g: (g.reshape(x.data.shape),))


def flatten(x):
    """Collapse all non-batch axes: (B, ...) -> (B, prod(...))."""
    x = _wrap(x)
    if x.data.ndim < 2:
        raise ShapeError(f"flatten needs a batch axis, got shape {x.data.shape}")
    return reshape(x, (x.data.shape[0], -1))


def global_max_pool(x):
    """Max over all spatial axes of (B, S1..Sd, C), keeping batch and channel."""
    x = _wrap(x)
    if x.data.ndim < 3:
        raise ShapeError(f"global_max_pool needs (B, spatial..., C), got {x.data.shape}")
    b, c = x.data.shape[0], x.data.shape[-1]
    flat = reshape(x, (b, -1, c))
    return reduce_max(flat, axis=1)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul is 2-D only, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    return _result(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.T if a.requires_grad else None,
                              a.data.T @ g if b.requires_grad else None))


def permute(x, axes):
    """Reorder the axes of x as np.transpose does, into a C-contiguous copy.

    A later reshape then never yields a strided view, so the BLAS path of
    what follows does not depend on the axis sizes.
    """
    x, axes = _wrap(x), tuple(axes)
    return _result(np.ascontiguousarray(x.data.transpose(axes)), (x,),
                   lambda g: (g.transpose([axes.index(i) for i in range(len(axes))]),))


# ---------------------------------------------------------------------------
# convolution

def _conv_geometry(x_shape, k_shape, stride, padding):
    d = len(k_shape) - 2
    if d not in (1, 2, 3):
        raise ShapeError(f"conv kernel must have 1-3 spatial axes, got shape {k_shape}")
    if len(x_shape) != d + 2:
        raise ShapeError(f"conv input {x_shape} does not match kernel {k_shape}")
    if x_shape[-1] != k_shape[-2]:
        raise ShapeError(f"conv: input channels {x_shape[-1]} != kernel "
                         f"in-channels {k_shape[-2]}")
    spatial = x_shape[1:-1]
    ksize = k_shape[:-2]
    if isinstance(stride, int):
        stride = (stride,) * d
    stride = tuple(int(s) for s in stride)
    if len(stride) != d or any(s < 1 for s in stride):
        raise ShapeError(f"stride {stride} does not fit {d} spatial axes")

    if padding == "valid":
        pads = tuple((0, 0) for _ in range(d))
        out = tuple((s - k) // st + 1 for s, k, st in zip(spatial, ksize, stride))
    elif padding == "same":
        out = tuple(-(-s // st) for s, st in zip(spatial, stride))
        pads = []
        for s, k, st, o in zip(spatial, ksize, stride, out):
            total = max((o - 1) * st + k - s, 0)
            pads.append((total // 2, total - total // 2))
        pads = tuple(pads)
    else:
        raise ShapeError(f"unknown padding {padding!r} (use 'valid' or 'same')")

    padded = tuple(s + lo + hi for s, (lo, hi) in zip(spatial, pads))
    if any(k > p for k, p in zip(ksize, padded)):
        raise ShapeError(f"kernel {ksize} larger than padded input {padded}")
    if any(o < 1 for o in out):
        raise ShapeError(f"conv output would be empty: input {spatial}, kernel {ksize}")
    return stride, pads, out


def _im2col(xp, ksize, stride, out_spatial):
    """Patch matrix (B*prod(O), prod(K)*C) of the padded input xp.

    Row (b, o) holds the patch under output position o, ordered
    (K1..Kd, C) to match kernel.reshape(-1, C_out).
    """
    d = len(ksize)
    win = np.lib.stride_tricks.sliding_window_view(xp, ksize, axis=tuple(range(1, d + 1)))
    # the view has one window per input position; keep every stride-th,
    # exactly out_spatial of them per axis
    win = win[(slice(None), *(slice(0, (o - 1) * st + 1, st)
                              for o, st in zip(out_spatial, stride)))]
    win = np.moveaxis(win, d + 1, -1)           # (B, O.., C, K..) -> (B, O.., K.., C)
    return win.reshape(-1, int(np.prod(ksize)) * xp.shape[-1])


def conv_nd(x, kernel, stride=1, padding="valid"):
    """Cross-correlation, channels last.

    x: (B, S1..Sd, C_in), kernel: (K1..Kd, C_in, C_out) with d in {1,2,3}.
    'valid' keeps positions where the kernel fits; 'same' zero-pads so the
    output spatial size is ceil(S / stride). The output has x's dtype.

    Lowered by im2col to one GEMM, (B*prod(O), prod(K)*C_in) @
    (prod(K)*C_in, C_out); the backward is one GEMM per operand, with
    the input gradient scattered back over the patches (col2im).
    """
    x, kernel = _wrap(x), _wrap(kernel)
    stride, pads, out_spatial = _conv_geometry(x.data.shape, kernel.data.shape,
                                               stride, padding)
    xp = x.data
    if any(lo or hi for lo, hi in pads):
        xp = np.pad(x.data, ((0, 0), *pads, (0, 0)))

    kdata = kernel.data
    ksize, c_out = kdata.shape[:-2], kdata.shape[-1]
    kmat = kdata.reshape(-1, c_out)
    out_shape = (x.data.shape[0], *out_spatial, c_out)
    out = (_im2col(xp, ksize, stride, out_spatial) @ kmat).astype(xp.dtype, copy=False)

    def backward(g):
        # the patch matrix is rebuilt here rather than kept on the tape:
        # holding it would keep a prod(K)-fold copy of the input per conv
        g = g.reshape(-1, c_out)
        dx = dk = None
        if kernel.requires_grad:
            dk = (_im2col(xp, ksize, stride, out_spatial).T @ g).reshape(kdata.shape)
        if x.requires_grad:
            # col2im, channels first: each offset's block of the patch
            # gradients is then contiguous and adds in long runs
            c_in = xp.shape[-1]
            dcols = (kmat @ g.T).reshape(*ksize, c_in, *out_shape[:-1])
            dxp = np.zeros((c_in, *xp.shape[:-1]), dtype=xp.dtype)
            for off in itertools.product(*(range(k) for k in ksize)):
                patch = tuple(slice(o, o + (n - 1) * st + 1, st)
                              for o, n, st in zip(off, out_spatial, stride))
                dxp[(slice(None), slice(None), *patch)] += dcols[off]
            inner = tuple(slice(lo, lo + s) for (lo, _), s
                          in zip(pads, x.data.shape[1:-1]))
            dx = dxp[(slice(None), slice(None), *inner)]   # drop the padding
            dx = np.ascontiguousarray(np.moveaxis(dx, 0, -1))
        return dx, dk

    return _result(out.reshape(out_shape), (x, kernel), backward)


# ---------------------------------------------------------------------------
# gradient checking

def finite_diff_check(f, t, eps=1e-6):
    """Max relative error between tape gradients and central differences.

    f takes the tensor and returns a scalar Tensor; it must be pure so
    it can be re-evaluated under coordinate perturbations. The relative
    error denominator is max(|analytic|, |numeric|, 1e-8) per coordinate,
    so small coordinates against a large f read high from rounding alone:
    a correct coordinate near 1e-3 against an f of order 10 can exceed
    1e-6. Callers gating on such a bound must scale their inputs so that
    no coordinate is that small relative to f.
    """
    t.grad = None
    out = f(t)
    if out.data.size != 1:
        raise ShapeError("finite_diff_check needs a scalar-valued function")
    out.backward()
    analytic = t.grad.copy()

    worst = 0.0
    flat = t.data.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = float(f(t).data)
        flat[i] = saved - eps
        lo = float(f(t).data)
        flat[i] = saved
        numeric = (hi - lo) / (2.0 * eps)
        a = analytic.reshape(-1)[i]
        denom = max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, abs(a - numeric) / denom)
    t.grad = None
    return worst
