"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed compute core: enough operations for block-matrix
dense layers, N-d convolution (N in {1, 2, 3}), activations, pooling
and a binary-cross-entropy training loop. Each operation records its
parents and a backward rule on the output tensor; ``backward()`` on a
scalar walks the recorded graph newest tensor first. Every tensor is
numbered at creation, after its parents, so a tensor's gradient is
complete by the time the walk reaches it.

Layer primitives (``expand_blocks``, ``linear``, a dense layer's
activation(x @ w + bias), ``add_bias``, a conv's activation(x + bias),
``conv_nd``, ``global_max_pool`` and ``conv_global_max_pool``, a
convolution pooled to one value per channel) and the loss
``binary_cross_entropy`` are single operations with their own backward
rule, one tape node each, not chains of generic ones. ``linear`` and
``add_bias`` share one bias-and-activation rule, and ``_ACTIVATION_RULES``
is the one table of activations. The loss's backward is the closed form
of its clip/log chain.

Shape rules are strict. Elementwise operations accept equal shapes or a
Python scalar; anything else must be reshaped explicitly (``add_bias``
is the one documented exception, broadcasting a vector over the last
axis). Arrays are float64 by default; float32 is allowed for speed.
"""

from __future__ import annotations

import _thread
import heapq
import itertools
import math
import numbers
import os
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
    """data as a float array: float32 and float64 kept, other reals and
    bools made float64, or made dtype, which must be float32 or float64, if
    given. Complex data, strings and objects (``'1.5'``, ``2**70``) are
    refused."""
    arr = np.asarray(data)
    if dtype is not None:
        dtype = _float_dtype(dtype)
    if arr.dtype not in (np.float32, np.float64) or dtype is not None:
        if arr.dtype.kind == "c":
            raise ValueError("complex data is refused: an algebra element is a row of real "
                             "coordinates, so a complex number is 2 wide over 'complex'")
        out = arr.astype(np.float64 if dtype is None else dtype, copy=False)
        # after the cast, so that numpy's own message names what it cannot read
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"data must hold real numbers, got dtype {arr.dtype}")
        arr = out
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
                    # one op with the bits of zeros_like(data) += g: data's
                    # dtype, and -0.0 made +0.0
                    node.grad = np.add(g, 0.0, dtype=node.data.dtype)
                else:
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
    """An op's output as a tensor, on the tape if any parent requires grad.

    parents is a tuple. An op's own float output skips _coerce: a numpy
    scalar from a full reduction becomes a 0-d array. Anything else, such
    as the output of an op given a complex or object scalar operand, goes
    through _coerce, which refuses it.
    """
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype.char in "fd" else _coerce(data)
    out.grad = None
    out._seq = next(_creation_order)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


# ---------------------------------------------------------------------------
# argument rules, each stated once for every module

def _is_int(value):
    """True for an int of any size, numpy ints included, and not a bool."""
    # int first: the common case skips the slower abstract-class check
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _is_real(value):
    """True for one real number: a 0-d value that numpy stores as an int, uint
    or float. So bools, strings, None, Fractions and ints beyond 64 bits are not."""
    try:
        value = np.asarray(value)
    except ValueError:   # a ragged sequence
        return False
    return value.ndim == 0 and value.dtype.kind in "iuf"


def _float_dtype(dtype):
    """dtype as a numpy dtype, which must be float32 or float64."""
    out = np.dtype(dtype)
    if out not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    return out


def _positive_int(name, value):
    """value as an int; it must be a positive int, and not a bool."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")
    return int(value)


def _check_activation(name, allow_none=False):
    """name, which must name an activation, or be None where allow_none."""
    known = isinstance(name, str) and name in _ACTIVATION_RULES
    if not (known or (name is None and allow_none)):
        raise ValueError(f"unknown activation {name!r}; choose from "
                         f"{sorted(_ACTIVATION_RULES)}" + (" or None" if allow_none else ""))
    return name


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


# an activation's forward on data, and its backward rule from the output;
# tanh, sigmoid and the tail of add_bias and linear all run these
def _tanh_rule(z):
    t = np.tanh(z)
    return t, lambda g: g * (1.0 - t * t)


# the largest exponent whose exp is finite, by dtype; in float32,
# exp(log(max)) already overflows, so its bound is one ulp lower
_EXP_MAX = {np.dtype(np.float64): np.log(np.finfo(np.float64).max),
            np.dtype(np.float32): np.nextafter(np.log(np.finfo(np.float32).max), np.float32(0))}


def _sigmoid_rule(z):
    # the exponent clamped where exp would overflow: s is then tiny but not
    # 0, with no warning, and every z whose exp(-z) is finite keeps its bits
    s = 1.0 / (1.0 + np.exp(np.minimum(-z, _EXP_MAX[z.dtype])))
    return s, lambda g: g * s * (1.0 - s)


# the one table of activations: each name is also the name of its op below
_ACTIVATION_RULES = {"tanh": _tanh_rule, "sigmoid": _sigmoid_rule}


def tanh(x):
    x = _wrap(x)
    t, rule = _tanh_rule(x.data)
    return _result(t, (x,), lambda g: (rule(g),))


def sigmoid(x):
    x = _wrap(x)
    s, rule = _sigmoid_rule(x.data)
    return _result(s, (x,), lambda g: (rule(g),))


def _tail(op, z, bias, activation):
    """(activation(z + bias), its backward rule g -> (dz, dbias)): the tail
    of every weighted layer, after op's product z.

    The rule runs the activation's rule, then sums over the leading axes
    for the bias, and only if the bias records.
    """
    if bias.data.ndim != 1 or z.shape[-1:] != bias.data.shape:
        raise ShapeError(f"{op}: bias {bias.data.shape} does not fit "
                         f"last axis of {z.shape}")
    out, rule = z + bias.data, None
    if _check_activation(activation, allow_none=True) is not None:
        out, rule = _ACTIVATION_RULES[activation](out)
    axes = tuple(range(z.ndim - 1))

    def backward(g):
        if rule is not None:
            g = rule(g)
        return g, (g.sum(axis=axes) if bias.requires_grad else None)

    return out, backward


def add_bias(x, bias, activation=None):
    """activation(x + bias) as one operation, bias broadcast over the last axis.

    activation is None, "tanh" or "sigmoid". A conv layer's tail: value,
    dtype and gradients equal those of add_bias then tanh or sigmoid bit
    for bit.
    """
    x, bias = _wrap(x), _wrap(bias)
    out, tail = _tail("add_bias", x.data, bias, activation)
    # a closure of add_bias's own, so that the node is named for its op
    return _result(out, (x, bias), lambda g: tail(g))


def log(x):
    x = _wrap(x)
    return _result(np.log(x.data), (x,), lambda g: (g / x.data,))


def clip(x, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only inside the interval."""
    x = _wrap(x)
    mask = (x.data >= lo) & (x.data <= hi)
    return _result(np.clip(x.data, lo, hi), (x,), lambda g: (g * mask,))


def binary_cross_entropy(pred, target, eps):
    """-mean(y log p + (1 - y) log(1 - p)), p = clip(pred, eps, 1 - eps), one node.

    Value, dtype and gradient equal those of that chain of clip, log, mul,
    add, mean and neg bit for bit: the forward runs the chain's operations
    in its order, and the backward sums the closed form in the order the
    chain's walk does, masked where clip stops the gradient. target is
    data; a target that requires grad is refused.
    """
    pred, target = _wrap(pred), _wrap(target)
    if target.requires_grad:
        raise ValueError("binary_cross_entropy: target requires grad; "
                         "it must be data")
    _check_same_shape("binary_cross_entropy", pred, target)
    x, y = pred.data, target.data
    lo, hi = eps, 1.0 - eps
    p = np.minimum(np.maximum(x, lo), hi)    # np.clip's values, NaN kept, in two ufuncs
    # a - b is a + (-b) exactly, so these equal the chain's neg then add
    q, y_off = 1.0 - p, 1.0 - y
    terms = y * np.log(p) + y_off * np.log(q)
    # terms.mean() as np.mean runs it: one pairwise sum, then the division.
    # np.mean divides by an intp, so a float32 sum is divided in float64
    # and rounded back; that double rounding equals this one float32
    # division for any size below 2**24
    mean = np.add.reduce(terms, axis=None) / terms.size

    def backward(g):
        # the mean's gradient: one scalar in terms' dtype, as np.full_like
        # would fill an array with it
        s = terms.dtype.type(-g / terms.size)
        # the walk reaches the log(1 - p) branch first; its share is negated
        # and added, which is this subtraction exactly, as addition commutes
        dp = (s * y) / p - (s * y_off) / q
        # p == x exactly where lo <= x <= hi: where clip passes the gradient
        return (dp * (p == x),)

    return _result(-mean, (pred,), backward)


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


def mean(x, axis=None):
    x = _wrap(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    out = x.data.mean(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full_like(x.data, g / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape) / count,)

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
    # an explicit width: numpy cannot infer -1 from a zero batch
    return reshape(x, (x.data.shape[0], math.prod(x.data.shape[1:])))


def _check_pool_shape(shape, batch=True):
    """A pool input, (B, S1..Sd, C), or its trailing shape where not batch,
    needs d >= 1 and each S and C >= 1; B may be 0."""
    trailing = shape[1:] if batch else shape
    if len(trailing) < 2 or 0 in trailing:
        raise ShapeError(f"GlobalMaxPool needs spatial axes and channels, each of "
                         f"size >= 1, got {'input' if batch else 'trailing'} shape "
                         f"{tuple(shape)}")


def global_max_pool(x):
    """Max over the spatial axes of (B, S1..Sd, C); ties route to the first max."""
    x = _wrap(x)
    _check_pool_shape(x.data.shape)
    b, c = x.data.shape[0], x.data.shape[-1]
    flat = x.data.reshape(b, math.prod(x.data.shape[1:-1]), c)
    # one pass: the max is read off at the argmax the backward needs
    idx = flat.argmax(axis=1)
    out = np.take_along_axis(flat, idx[:, None], axis=1)[:, 0]

    def backward(g):
        dx = np.zeros_like(flat)
        np.put_along_axis(dx, idx[:, None], g[:, None], axis=1)
        return (dx.reshape(x.data.shape),)

    return _result(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra

def _check_matmul(op, a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{op} is 2-D only, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"{op}: inner dims differ, {a.data.shape} @ {b.data.shape}")


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_matmul("matmul", a, b)
    return _result(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.T if a.requires_grad else None,
                              a.data.T @ g if b.requires_grad else None))


def linear(x, w, bias, activation=None):
    """activation(x @ w + bias) as one operation, a dense layer's forward.

    x is (B, I), w (I, U) and bias (U,); activation is None, "tanh" or
    "sigmoid". Value, dtype and gradients equal those of the chain
    matmul, add_bias and tanh or sigmoid bit for bit: the forward runs the
    chain's numpy operations in its order, and the backward runs the
    chain's rules in the order its walk does, activation, bias, product.
    The bias and activation are add_bias's tail, run on the product.
    """
    x, w, bias = _wrap(x), _wrap(w), _wrap(bias)
    _check_matmul("linear", x, w)
    out, tail = _tail("linear", x.data @ w.data, bias, activation)

    def backward(g):
        g, db = tail(g)
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None, db)

    return _result(out, (x, w, bias), backward)


def expand_blocks(x, table, axes, shape):
    """Blocks E[..., j, k] = sum_i x[..., i] * table[i, j, k], transposed by axes.

    x holds (..., n) elements; table, a constant (n, n, n) array, is cast
    to x's dtype and viewed as (n, n*n) for one GEMM. The result is a
    C-contiguous copy of the given shape, so a later reshape never hands
    BLAS a strided view.
    """
    x, n = _wrap(x), len(table)
    *lead, width = x.data.shape
    if width != n:
        raise ShapeError(f"expand_blocks: element width {width} != table dim {n}")
    table = np.asarray(table, dtype=x.data.dtype).reshape(n, n * n)
    blocks = (x.data.reshape(-1, n) @ table).reshape(*lead, n, n)
    placed = np.ascontiguousarray(blocks.transpose(axes))
    inverse = sorted(range(len(axes)), key=axes.__getitem__)

    def backward(g):
        g = g.reshape(placed.shape).transpose(inverse).reshape(-1, n * n)
        return ((g @ table.T).reshape(x.data.shape),)

    return _result(placed.reshape(shape), (x,), backward)


# ---------------------------------------------------------------------------
# convolution

def _per_axis(name, value, d):
    """An int, or a sequence of d ints, as a d-tuple of positive ints."""
    if np.ndim(value) == 0:
        value = (value,) * d
    value = tuple(_positive_int(name, v) for v in value)
    if len(value) != d:
        raise ShapeError(f"{name} {value} does not fit {d} spatial axes")
    return value


def _conv_options(stride, padding, d):
    """stride as a d-tuple of positive ints, and padding, checked."""
    if padding not in ("valid", "same"):
        raise ShapeError(f"unknown padding {padding!r} (use 'valid' or 'same')")
    return _per_axis("stride", stride, d), padding


def _conv_geometry(spatial, ksize, stride, padding):
    """(stride, pads, out) of a conv over spatial sizes with kernel ksize.

    An axis of size S is padded by t in all, t // 2 before and the rest
    after: t = 0 for 'valid' and max((ceil(S/st) - 1)*st + K - S, 0) for
    'same'. Then out = (S + t - K)//st + 1, which is ceil(S/st) for 'same'.
    """
    stride, padding = _conv_options(stride, padding, len(ksize))
    totals = [0 if padding == "valid" else max((-(-s // st) - 1) * st + k - s, 0)
              for s, k, st in zip(spatial, ksize, stride)]
    padded = tuple(s + t for s, t in zip(spatial, totals))
    if any(k > p for k, p in zip(ksize, padded)):
        raise ShapeError(f"kernel {ksize} larger than padded input {padded}")
    pads = tuple((t // 2, t - t // 2) for t in totals)
    out = tuple((p - k) // st + 1 for p, k, st in zip(padded, ksize, stride))
    return stride, pads, out


def _lowering(x, kernel, stride, padding):
    """(xp, windows, kmat, stride, out_spatial, inner) of a checked convolution.

    xp is the zero-padded input data, windows its strided patch view
    (B, O1..Od, K1..Kd, C), kmat the kernel as a (prod(K)*C_in, C_out)
    matrix, and inner the slices of xp's spatial axes that hold x itself.
    windows.reshape(-1, len(kmat)) is the im2col patch matrix.
    """
    x_shape, k_shape = x.data.shape, kernel.data.shape
    d = len(k_shape) - 2
    if d not in (1, 2, 3):
        raise ShapeError(f"conv kernel must have 1-3 spatial axes, got shape {k_shape}")
    if len(x_shape) != d + 2:
        raise ShapeError(f"conv input {x_shape} does not match kernel {k_shape}")
    if x_shape[-1] != k_shape[-2]:
        raise ShapeError(f"conv: input channels {x_shape[-1]} != kernel "
                         f"in-channels {k_shape[-2]}")
    ksize = k_shape[:-2]
    stride, pads, out_spatial = _conv_geometry(x_shape[1:-1], ksize, stride, padding)
    xp = x.data
    if any(lo or hi for lo, hi in pads):
        xp = np.pad(x.data, ((0, 0), *pads, (0, 0)))
    kmat = kernel.data.reshape(-1, kernel.data.shape[-1])
    win = np.lib.stride_tricks.sliding_window_view(xp, ksize, axis=tuple(range(1, d + 1)))
    # the view has one window per input position; keep every stride-th,
    # exactly out_spatial of them per axis
    win = win[(slice(None), *(slice(0, (o - 1) * st + 1, st)
                              for o, st in zip(out_spatial, stride)))]
    windows = np.moveaxis(win, d + 1, -1)       # (B, O.., C, K..) -> (B, O.., K.., C)
    inner = tuple(slice(lo, lo + s) for (lo, _), s in zip(pads, x_shape[1:-1]))
    return xp, windows, kmat, stride, out_spatial, inner


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
    xp, windows, kmat, stride, out_spatial, inner = _lowering(x, kernel, stride, padding)
    ksize, c_out = kernel.data.shape[:-2], kmat.shape[1]
    out_shape = (x.data.shape[0], *out_spatial, c_out)
    out = (windows.reshape(-1, len(kmat)) @ kmat).astype(xp.dtype, copy=False)

    def backward(g):
        # the patch matrix is rebuilt here rather than kept on the tape:
        # holding it would keep a prod(K)-fold copy of the input per conv
        g = g.reshape(-1, c_out)
        dx = dk = None
        if kernel.requires_grad:
            dk = (windows.reshape(-1, len(kmat)).T @ g).reshape(kernel.data.shape)
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
            dx = dxp[(slice(None), slice(None), *inner)]   # drop the padding
            dx = np.ascontiguousarray(np.moveaxis(dx, 0, -1))
        return dx, dk

    return _result(out.reshape(out_shape), (x, kernel), backward)


# conv_global_max_pool runs its GEMM over blocks of about this many output
# positions, so each block's conv output stays in cache while it is pooled;
# a block comes out channels first, (C_out, b*P), and is pooled along its rows
_POOL_BLOCK_ROWS = 800

# conv_global_max_pool shares its chunks (two blocks each) with a thread of
# its own only from this many chunks on. train-synth-images' 50-image
# validation forward has 7 chunks; on a 2-core VM its split read 0.86-1.04
# of serial time at the default 32 output channels, but 1.00-1.28 at 4-16
# (--filters 1, 2, 4), where the thread costs more than it saves. A count
# of chunks cannot serve both widths, and 8 keeps the narrow ones serial
_SPLIT_MIN_CHUNKS = 8


def _two_cpus():
    """Whether this process may run on at least two CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _pool_chunks(windows, kmat, positions, step, starts, pooled, idx):
    """Conv and pool the chunks of two blocks that begin at the images in starts.

    A chunk's patches are copied in one call and each of its blocks runs
    its own GEMM, of the same operands and shape as in an unchunked loop,
    into one buffer; one argmax and one take then pool both blocks. The
    flat pooled and idx are block-major: the block at image lo holds its
    (C_out, b) results from C_out*lo on, whichever call pooled it. Each
    call makes its own scratch, once rather than per chunk (a fresh copy
    per block cost page faults whenever the allocator handed it back to
    the OS), so two calls may draw their starts from one iterator at once.
    """
    batch, kc, c_out = len(windows), len(kmat), kmat.shape[1]
    chunk = 2 * step
    buf = np.empty((chunk, *windows.shape[1:]), dtype=windows.dtype)
    z = np.empty(c_out * chunk * positions, dtype=pooled.dtype)
    base = np.arange(c_out * chunk) * positions      # each z row's first entry
    at = np.empty(c_out * chunk, dtype=np.intp)
    for lo in starts:
        n = min(chunk, batch - lo)
        np.copyto(buf[:n], windows[lo:lo + n])
        for b in range(0, n, step):
            e = min(b + step, n)
            cols = buf[b:e].reshape(-1, kc)
            np.matmul(kmat.T, cols.T,
                      out=z[c_out * b * positions:c_out * e * positions].reshape(c_out, -1))
        rows = c_out * n
        win = idx[c_out * lo:c_out * (lo + n)]
        z[:rows * positions].reshape(rows, positions).argmax(axis=1, out=win)
        np.add(base[:rows], win, out=at[:rows])
        # every index is in range; "clip" spares take the bounds check and
        # the copy of its out that the default "raise" makes
        np.take(z, at[:rows], out=pooled[c_out * lo:c_out * (lo + n)], mode="clip")


def _pool_kept(done, raised, *args):
    """_pool_chunks(*args) on a helper thread: keep what it raises, then release done."""
    try:
        _pool_chunks(*args)
    except BaseException as error:
        raised.append(error)
    finally:
        done.release()


def _unblock(flat, c_out, batch, step):
    """The (C_out, B) C-contiguous array of _pool_chunks' block-major results."""
    out = np.empty((c_out, batch), dtype=flat.dtype)
    full = batch - batch % step
    out[:, :full] = (flat[:c_out * full].reshape(full // step, c_out, step)
                     .transpose(1, 0, 2).reshape(c_out, full))
    out[:, full:] = flat[c_out * full:].reshape(c_out, batch - full)
    return out


def conv_global_max_pool(x, kernel, stride=1, padding="valid"):
    """global_max_pool(conv_nd(x, kernel, stride, padding)) as one operation.

    Maps (B, S1..Sd, C_in) to (B, C_out). The forward runs conv_nd's
    im2col GEMM block by block over the batch and pools each block
    channels first: the block comes out as (C_out, b*P), so the P
    positions of each (channel, image) pair are one contiguous row, and
    only each row's maximum and its position are kept; the conv output
    itself is never held. Ties route to the first maximum, as in
    global_max_pool. The backward touches only the B*C_out winning
    positions: the kernel gradient gathers their patches, and the input
    gradient scatters the matching kernel columns back over them.

    The blocks go in chunks of two. When the process may run on two
    CPUs and there are enough chunks, a helper thread started for the
    call pools chunks beside the caller, each thread taking the next
    chunk not yet taken; restricting the CPU affinity to one CPU keeps
    the op on the calling thread. Each block's GEMM is the same either
    way, so the output is bit for bit the same.
    """
    x, kernel = _wrap(x), _wrap(kernel)
    xp, windows, kmat, stride, out_spatial, inner = _lowering(x, kernel, stride, padding)
    ksize, c_out = kernel.data.shape[:-2], kmat.shape[1]
    batch, positions = xp.shape[0], int(np.prod(out_spatial))
    # a step of at least 1, even for a zero batch, which then has no chunk
    step = max(1, min(_POOL_BLOCK_ROWS // positions, batch))
    starts = range(0, batch, 2 * step)
    # the block-major maxima and their positions, filled by _pool_chunks
    flat = np.empty(c_out * batch, dtype=xp.dtype), np.empty(c_out * batch, dtype=np.intp)
    # one iterator of chunks for both threads, each taking the next chunk
    # when it is free, so a helper that starts late or shares its core
    # takes fewer; next() on it is atomic under the GIL
    args = windows, kmat, positions, step, iter(starts), *flat
    done, raised = None, []
    if len(starts) >= _SPLIT_MIN_CHUNKS and _two_cpus():
        done = _thread.allocate_lock()
        done.acquire()
        try:
            # not threading.Thread, whose start() waits until the new thread
            # runs: with the other core busy, a call at synth's shape then
            # took 0.5-1.8 ms longer
            _thread.start_new_thread(_pool_kept, (done, raised, *args))
        except RuntimeError:
            # no thread starts at interpreter shutdown (Python 3.12 on) or
            # past the OS's thread limit; the caller then pools every chunk
            done = None
    try:
        _pool_chunks(*args)
    finally:
        if done is not None:
            done.acquire()      # both threads stop before anything is raised
    if raised:
        raise raised[0]
    # the (C_out, B) storage, transposed: the GEMM of a Dense after the op
    # reads this layout, and its bits depend on it
    pooled, idx = (_unblock(f, c_out, batch, step).T for f in flat)

    def backward(g):
        # (b, position) of every channel's maximum, one spatial index array per axis
        rows = np.arange(batch)[:, None]
        pos = np.unravel_index(idx, out_spatial)
        dx = dk = None
        if kernel.requires_grad:
            patches = windows[(rows, *pos)].reshape(batch, c_out, len(kmat))
            dk = np.einsum("bcp,bc->pc", patches, g).reshape(kernel.data.shape)
        if x.requires_grad:
            # flat index into xp of every (b, c_out, patch entry) pair
            corner = np.ravel_multi_index(
                (rows, *(p * st for p, st in zip(pos, stride)), 0), xp.shape)
            within = np.ravel_multi_index(np.indices((*ksize, xp.shape[-1])),
                                          xp.shape[1:]).reshape(-1)
            flat = corner[:, :, None] + within
            dxp = np.bincount(flat.reshape(-1), (g[:, :, None] * kmat.T).reshape(-1),
                              minlength=xp.size)
            dxp = dxp.reshape(xp.shape).astype(xp.dtype, copy=False)
            dx = dxp[(slice(None), *inner)]
        return dx, dk

    return _result(pooled, (x, kernel), backward)


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
