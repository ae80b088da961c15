"""Dense and convolutional layers over structure-constants algebras.

A hyper layer holds one algebra element per (output unit, input element)
slot and multiplies with the weight on the left: out_a = sum_b w[a,b] * x_b.
The whole layer is lowered to an ordinary real computation by expanding
each weight element into its left-multiplication matrix: a HyperDense
with u units over m input elements becomes an (m*n, u*n) matrix W, used
as x @ W, and a HyperConv a real kernel with n-times-wider channel blocks.
Every weighted layer ends in one tape node for its bias and activation: a
dense layer, HyperDense or Dense, runs its product, bias and activation as
one tensor.linear node, and a HyperConv its conv op, then one
tensor.add_bias node with its activation. A Sequential runs each layer
through _join(x, after), which also runs the layer after it where the two
form one node: a HyperConv followed by GlobalMaxPool runs conv_global_max_pool
in place of conv_nd, and a weighted layer with no activation of its own,
followed by an Activation, runs that activation in its own tail node.
Otherwise the Activation layer runs the tensor op of its name.

Output widths follow the units*n / filters*n convention: a layer with u
units over an n-dimensional algebra emits u*n real scalars.

Each layer states its shapes once, in output_shape(in_shape), and a layer
with weights their layout in param_shapes(in_shape) -> (weight shape, bias
shape); both check the input. A model builds all its layers in one pass
at its first forward, a lone layer from the first input it sees, called or
through forward. A built layer then rejects input that would size other
weights, naming itself. Only layers with weights take a seed, None or an
int >= 0, and a dtype; one built without a generator draws from its seed,
and a model spawns one for each other layer.
Weights draw from a uniform distribution with limit
sqrt(6 / (fan_in + fan_out)), each fan being the lowered real kernel's
receptive field (prod(kernel_size), 1 for dense layers) times its input
or output channels, as in Keras. Biases start at zero.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .algebra import StructureConstants, predefined
from .tensor import ShapeError, Tensor


def _resolve_algebra(algebra):
    if algebra is None:
        return predefined("quaternions")
    if isinstance(algebra, StructureConstants):
        return algebra
    return predefined(algebra)


def glorot_uniform(shape, fan_in, fan_out, rng):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _check_seed(seed):
    """seed, which must be None or an int >= 0 (numpy ints too, bools not)."""
    if seed is not None and not (T._is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be None or an int >= 0, got {seed!r}")
    return seed


class Layer:
    """Base layer: build once from the input shape, then forward."""

    file_tag = None         # the layer's "kind" in model files
    shape_key = "in_shape"  # the config() key recording the built input shape
    seed = None             # a weightless layer has none, so a model always spawns for it
    built, in_shape, out_shape = False, None, None   # until build()

    @property
    def name(self):
        return type(self).__name__

    def build(self, in_shape, rng=None):
        """Record the input and output shapes; rng seeds any weights."""
        self.out_shape = self.output_shape(tuple(in_shape))
        self.in_shape = tuple(in_shape)
        self.built = True

    def output_shape(self, in_shape):
        """Trailing output shape for an input of trailing shape in_shape."""
        return tuple(in_shape)

    def forward(self, x):
        raise NotImplementedError

    def _join(self, x, after):
        """Run on x, and also after (the next layer or None) where the two
        form one tape node; return the output and the layers run, 1 or 2."""
        return self.forward(x), 1

    def params(self):
        return []

    def param_count(self):
        return int(sum(p.data.size for p in self.params()))

    def config(self):
        """Model-file settings: constructor arguments and the built input shape."""
        return {"in_shape": self.in_shape}

    @classmethod
    def from_config(cls, config, **algebra):
        """The unbuilt layer a config() dict describes, and its recorded shape or None.

        A shape record is a non-empty list of ints >= 0 under "in_shape" and
        one such int under the other keys; bools and floats are refused.
        """
        args = dict(config)
        key = cls.shape_key
        recorded = args.pop(key, None)
        layer = cls(**args, **algebra)
        if recorded is None:
            return layer, None
        many = key == "in_shape"
        entries = recorded if many else [recorded]
        if not (isinstance(entries, list) and entries
                and all(T._is_int(e) and e >= 0 for e in entries)):
            form = "a non-empty list of ints" if many else "an int"
            raise ValueError(f"{key} must be {form} >= 0, got {recorded!r}")
        return layer, layer._shape_from(recorded)

    def _shape_from(self, recorded):
        return tuple(recorded)

    def __call__(self, x):
        if not self.built:
            self.build(x.data.shape[1:])
        return self.forward(x)


class _Affine(Layer):
    """A layer computing activation(linear(x) + bias): a dense layer runs
    it as one tensor.linear node, a conv as its conv op and one
    tensor.add_bias node that applies the activation too. Each subclass
    lowers in _run(x, activation). forward runs it with the layer's own
    activation; _join runs a layer that has none with the activation of
    an Activation layer after it.

    The bias spans the output channels, so it gives the output width.
    """

    kernel_size = ()   # spatial extent of the kernel; dense layers have none

    def __init__(self, activation, seed, dtype):
        self.seed = _check_seed(seed)
        self.dtype = T._float_dtype(dtype)
        self.activation = T._check_activation(activation, allow_none=True)
        self.weights = None
        self.bias = None

    def build(self, in_shape, rng=None):
        """Build for in_shape, drawing the weights from rng, else from self.seed."""
        super().build(in_shape)
        rng = np.random.default_rng(self.seed) if rng is None else rng
        weight_shape, bias_shape = self.param_shapes(self.in_shape)
        receptive = math.prod(self.kernel_size)
        fan_in, fan_out = receptive * self.in_shape[-1], receptive * bias_shape[0]
        self.weights = Tensor(glorot_uniform(weight_shape, fan_in, fan_out, rng),
                              requires_grad=True, dtype=self.dtype)
        self.bias = Tensor(np.zeros(bias_shape), requires_grad=True, dtype=self.dtype)

    def output_shape(self, in_shape):
        return self.param_shapes(in_shape)[1]

    def _flat_width(self, in_shape):
        """The width of a flat (batch, width) input."""
        if len(in_shape) != 1 or in_shape[0] < 1:
            raise ShapeError(f"{self.name} expects flat (batch, width) input, "
                             f"width >= 1, got trailing shape {tuple(in_shape)}")
        return in_shape[0]

    def _check_input(self, x):
        """Build for x's shape if unbuilt, as calling the layer does. Else
        reject x, naming the cause, unless it fits the layer and sizes the
        built weights (a conv's other spatial sizes do)."""
        shape = x.data.shape[1:]
        if not self.built:
            self.build(shape)
        if shape == self.in_shape:
            return
        try:
            self.output_shape(shape)
            needs = self.param_shapes(shape)
            if needs == (self.weights.data.shape, self.bias.data.shape):
                return
            cause = f"it needs weights {needs[0]}, not {self.weights.data.shape}"
        except ShapeError as exc:
            cause = str(exc)
        raise ShapeError(f"{self.name} built for input {self.in_shape}, "
                         f"got input shape {x.data.shape}: {cause}")

    def forward(self, x):
        return self._run(x, self.activation)

    def _join(self, x, after):
        if self.activation is None and isinstance(after, Activation):
            return self._run(x, after.activation), 2
        return super()._join(x, after)

    def params(self):
        return [self.weights, self.bias] if self.built else []


def assemble_block_matrix(weights, algebra):
    """Expand (u, m, n) weight elements into the real (m*n, u*n) matrix W.

    Block (b, a) of W is the transposed left-multiplication matrix of
    weights[a, b], so x @ W, with each row of x holding m stacked
    coordinate vectors, equals the per-element algebra products.
    """
    u, m, n = weights.data.shape
    # (a, b, j, k) -> (b, j, a, k)
    return T.expand_blocks(weights, algebra.tensor, (1, 2, 0, 3), (m * n, u * n))


def assemble_conv_kernel(weights, algebra):
    """Expand (K.., G, F, n) weight elements into a (K.., G*n, F*n) kernel.

    At every spatial offset the (input group g, filter f) channel block
    is the transposed left-multiplication matrix of weights[offset, g, f],
    the same orientation as assemble_block_matrix, so conv_nd over the
    result equals the algebra-valued convolution.
    """
    *ksize, groups, filters, n = weights.data.shape
    d = len(ksize)
    # (K.., g, f, j, k) -> (K.., g, j, f, k)
    return T.expand_blocks(weights, algebra.tensor, (*range(d), d, d + 2, d + 1, d + 3),
                           (*ksize, groups * n, filters * n))


class HyperDense(_Affine):
    """Dense layer whose weights are algebra elements.

    Input width must be a multiple of the algebra dimension n; each row
    is read as m = width/n elements and the output is units*n wide.
    """

    file_tag = "hyper_dense"
    shape_key = "in_elems"

    def __init__(self, units, algebra=None, activation=None, input_shape=None,
                 seed=None, dtype=np.float64):
        super().__init__(activation, seed, dtype)
        self.units = T._positive_int("units", units)
        self.algebra = _resolve_algebra(algebra)
        if input_shape is not None:
            self.build(input_shape)

    def param_shapes(self, in_shape):
        """(units, m, n) weight elements and a units*n bias, for m*n inputs."""
        n = self.algebra.dim
        width = self._flat_width(in_shape)
        if width % n != 0:
            raise ShapeError(f"{self.name}: input width {width} is not a multiple "
                             f"of algebra dim {n}")
        return (self.units, width // n, n), (self.units * n,)

    def _run(self, x, activation):
        self._check_input(x)
        return T.linear(x, assemble_block_matrix(self.weights, self.algebra),
                        self.bias, activation)

    def config(self):
        elems = self.in_shape[0] // self.algebra.dim if self.built else None
        return {"units": self.units, "activation": self.activation,
                "in_elems": elems, "dtype": self.dtype.name}

    def _shape_from(self, elems):
        return (elems * self.algebra.dim,)


class _HyperConv(_Affine):
    """Shared machinery for the 1D/2D/3D hypercomplex convolutions."""

    ndim = None

    def __init__(self, filters, kernel_size, algebra=None, stride=1,
                 padding="valid", activation=None, seed=None, dtype=np.float64):
        super().__init__(activation, seed, dtype)
        self.filters = T._positive_int("filters", filters)
        self.kernel_size = T._per_axis("kernel_size", kernel_size, self.ndim)
        self.stride, self.padding = T._conv_options(stride, padding, self.ndim)
        self.algebra = _resolve_algebra(algebra)

    def param_shapes(self, in_shape):
        """(K.., G, filters, n) weights and a filters*n bias, for G*n channels."""
        n = self.algebra.dim
        if len(in_shape) != self.ndim + 1 or in_shape[-1] < 1:
            raise ShapeError(f"{self.name} expects (batch, {self.ndim} spatial axes, "
                             f"channels >= 1), got trailing shape {tuple(in_shape)}")
        channels = in_shape[-1]
        if channels % n != 0:
            raise ShapeError(f"{self.name}: {channels} input channels are not a "
                             f"multiple of algebra dim {n}")
        return (*self.kernel_size, channels // n, self.filters, n), (self.filters * n,)

    def output_shape(self, in_shape):
        (width,) = self.param_shapes(in_shape)[1]
        _, _, out_spatial = T._conv_geometry(in_shape[:-1], self.kernel_size,
                                             self.stride, self.padding)
        return (*out_spatial, width)

    def _join(self, x, after):
        """A conv followed by GlobalMaxPool runs as one conv_global_max_pool
        node for conv_nd and global_max_pool, pooling before the bias, so
        the add_bias node acts on (B, F) only.

        Pooling first keeps the values: rounding is monotone, so
        max(z + b) == max(z) + b, and tanh and sigmoid are non-decreasing.
        Only the gradient can move, at a tie: rounding in z + b or in the
        activation can make two entries equal that z tells apart. The
        layer-by-layer chain then routes the gradient to the first of
        them, the pooled path to the larger z.
        """
        if isinstance(after, GlobalMaxPool):
            return self._run(x, self.activation, pooled=True), 2
        return super()._join(x, after)

    def _run(self, x, activation, pooled=False):
        self._check_input(x)
        kernel = assemble_conv_kernel(self.weights, self.algebra)
        conv = T.conv_global_max_pool if pooled else T.conv_nd
        return T.add_bias(conv(x, kernel, stride=self.stride, padding=self.padding),
                          self.bias, activation)

    def config(self):
        return {"filters": self.filters, "kernel_size": self.kernel_size,
                "stride": self.stride, "padding": self.padding,
                "activation": self.activation, "in_shape": self.in_shape,
                "dtype": self.dtype.name}


class HyperConv1D(_HyperConv):
    ndim = 1
    file_tag = "hyper_conv1d"


class HyperConv2D(_HyperConv):
    ndim = 2
    file_tag = "hyper_conv2d"


class HyperConv3D(_HyperConv):
    ndim = 3
    file_tag = "hyper_conv3d"


class Dense(_Affine):
    """Ordinary real dense layer, y = x @ W + b."""

    file_tag = "dense"
    shape_key = "in_width"

    def __init__(self, units, activation=None, seed=None, dtype=np.float64):
        super().__init__(activation, seed, dtype)
        self.units = T._positive_int("units", units)

    def param_shapes(self, in_shape):
        """A (width, units) weight matrix and a units-wide bias."""
        return (self._flat_width(in_shape), self.units), (self.units,)

    def _run(self, x, activation):
        self._check_input(x)
        return T.linear(x, self.weights, self.bias, activation)

    def config(self):
        return {"units": self.units, "activation": self.activation,
                "in_width": self.in_shape[0] if self.built else None,
                "dtype": self.dtype.name}

    def _shape_from(self, width):
        return (width,)


class Activation(Layer):
    file_tag = "activation"

    def __init__(self, activation):
        self.activation = T._check_activation(activation)

    def forward(self, x):
        # each name in the activation table is also the name of its op
        return getattr(T, self.activation)(x)

    def config(self):
        return {"activation": self.activation}


class GlobalMaxPool(Layer):
    """Global max over all spatial axes, (B, S.., C) -> (B, C).

    Each spatial axis and C must be >= 1; an empty one is a ShapeError
    naming the layer and the shape.
    """

    file_tag = "global_max_pool"

    def output_shape(self, in_shape):
        T._check_pool_shape(in_shape, batch=False)
        return (in_shape[-1],)

    def forward(self, x):
        return T.global_max_pool(x)


class Flatten(Layer):
    file_tag = "flatten"

    def output_shape(self, in_shape):
        if not in_shape:
            raise ShapeError("Flatten needs a feature axis, got trailing shape ()")
        return (math.prod(in_shape),)

    def forward(self, x):
        return T.flatten(x)
