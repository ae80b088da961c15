"""Property-based checks over drawn geometries, dtypes and algebras.

The examples are fixed by the derandomized profile in conftest.py, so
every run checks the same cases.
"""

import copy
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays, from_dtype  # noqa: E402

from khnn import tensor as T  # noqa: E402
from khnn.algebra import (AlgebraError, StructureConstants, algebra_from_doc,  # noqa: E402
                          algebra_to_doc, check_unit, load_algebra, predefined, predefined_names,
                          save_algebra)
from khnn.layers import (Activation, Dense, Flatten, GlobalMaxPool,  # noqa: E402
                         HyperConv1D, HyperConv2D, HyperConv3D, HyperDense,
                         assemble_conv_kernel)
from khnn.model import ModelLoadError, Sequential, load_model, save_model  # noqa: E402
from khnn.tensor import Tensor  # noqa: E402
from khnn.training import BCE_CLAMP, Adam, bce_loss, evaluate, fit  # noqa: E402

from conftest import naive_conv_nd, naive_hyperconv, naive_hyperdense  # noqa: E402

CONV_BY_D = {1: HyperConv1D, 2: HyperConv2D, 3: HyperConv3D}
DATA = Path(__file__).parent / "data"


@st.composite
def conv_cases(draw, max_kernel=3, max_channels=3):
    """(x, kernel, stride, padding) for a random 1-3 D geometry.

    'same' inputs may be smaller than the kernel; 'valid' ones fit it.
    """
    d = draw(st.integers(1, 3))
    padding = draw(st.sampled_from(["valid", "same"]))
    ksize = tuple(draw(st.integers(1, max_kernel)) for _ in range(d))
    stride = tuple(draw(st.integers(1, 2)) for _ in range(d))
    extra = 3 if d < 3 else 1
    spatial = tuple(draw(st.integers(1 if padding == "same" else k, k + extra))
                    for k in ksize)
    batch = draw(st.integers(1, 2))
    c_in = draw(st.integers(1, max_channels))
    c_out = draw(st.integers(1, max_channels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((batch, *spatial, c_in))
    kernel = rng.standard_normal((*ksize, c_in, c_out))
    return x, kernel, stride, padding


class TestConvProperties:
    @given(conv_cases(), st.sampled_from([np.float64, np.float32]))
    def test_matches_naive_loops(self, case, dtype):
        x, kernel, stride, padding = case
        x, kernel = x.astype(dtype), kernel.astype(dtype)
        out = T.conv_nd(Tensor(x), Tensor(kernel), stride=stride, padding=padding)
        # the reference runs in float64 on the same (exactly embedded) values
        expected = naive_conv_nd(x.astype(np.float64), kernel.astype(np.float64),
                                 stride=stride, padding=padding)
        assert out.data.dtype == dtype
        assert out.data.shape == expected.shape
        tol = 1e-12 if dtype == np.float64 else 1e-5
        npt.assert_allclose(out.data, expected, rtol=tol, atol=tol)

    @given(conv_cases(max_kernel=2, max_channels=2))
    def test_gradients_both_operands(self, case):
        # both operands record, so one backward runs the kernel GEMM and
        # the col2im scatter for the input together. Positive values and a
        # kernel scaled by its fan-in keep tanh unsaturated and every
        # gradient coordinate clear of zero, where central differences
        # cannot reach a 1e-6 relative error
        x, kernel, stride, padding = case
        fan_in = kernel[..., 0].size
        x = Tensor(0.5 + np.abs(x) % 1.0, requires_grad=True)
        k = Tensor((0.5 + np.abs(kernel) % 1.0) / fan_in, requires_grad=True)

        def loss_x(t):
            return T.tensor_sum(T.tanh(T.conv_nd(t, k, stride=stride, padding=padding)))

        def loss_k(t):
            return T.tensor_sum(T.tanh(T.conv_nd(x, t, stride=stride, padding=padding)))

        assert T.finite_diff_check(loss_x, x) < 1e-6
        assert T.finite_diff_check(loss_k, k) < 1e-6


def tape_nodes(root):
    """Every tensor reachable from root through recorded parents."""
    seen, todo = {}, [root]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t._parents)
    return list(seen.values())


def reference_leaf_grads(root):
    """Leaf gradients by an independent walk that sums every node's gradient.

    Accumulates into a dict rather than .grad, in the reverse of a
    depth-first finishing order.
    """
    order, done = [], set()

    def visit(t):
        if id(t) in done or not t.requires_grad:
            return
        done.add(id(t))
        for p in t._parents:
            visit(p)
        order.append(t)

    visit(root)
    grads = {id(root): np.ones_like(root.data)}
    for t in reversed(order):
        g = grads.get(id(t))
        if g is None or t._backward is None:
            continue
        for p, pg in zip(t._parents, t._backward(g)):
            if pg is not None and p.requires_grad:
                grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg
    return grads


class TestLeafOnlyGradients:
    @given(st.integers(0, 2**32 - 1))
    def test_intermediates_hold_no_grad(self, seed):
        rng = np.random.default_rng(seed)
        model = Sequential([HyperConv2D(2, (2, 2), algebra="complex"),
                            GlobalMaxPool(), Dense(1)], seed=seed)
        x = rng.standard_normal((3, 4, 4, 2))
        y = (rng.random((3, 1)) < 0.5).astype(np.float64)
        loss = bce_loss(T.sigmoid(model.forward(Tensor(x))), Tensor(y))
        expected = reference_leaf_grads(loss)
        loss.backward()

        nodes = tape_nodes(loss)
        leaves = [t for t in nodes if t.requires_grad and t._backward is None]
        assert {id(p) for p in model.params()} == {id(t) for t in leaves}
        for t in nodes:
            if t._backward is not None:
                assert t.grad is None
        for t in leaves:
            npt.assert_array_equal(t.grad, expected[id(t)])


def bce_chain(pred, target):
    """The loss as a chain of elementwise tape ops, the fused op's reference."""
    p = T.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    on = T.mul(target, T.log(p))
    off = T.mul(1.0 - target, T.log(1.0 - p))
    return T.neg(T.mean(T.add(on, off)))


@st.composite
def bce_cases(draw):
    """(pred, target) of drawn dtypes, pred on and around both clamp edges."""
    pred_dtype, target_dtype = (draw(st.sampled_from([np.float32, np.float64]))
                                for _ in range(2))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    # the edges as numpy compares them, in pred's dtype
    lo, hi = pred_dtype(BCE_CLAMP), pred_dtype(1.0 - BCE_CLAMP)
    below, above = pred_dtype(-np.inf), pred_dtype(np.inf)
    edges = [-1.5, -0.0, 0.0, np.nextafter(lo, below), lo, np.nextafter(lo, above),
             np.nextafter(hi, below), hi, np.nextafter(hi, above), 1.0, 2.5]
    size = shape[0] * shape[1]
    pred = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)),
                         min_size=size, max_size=size))
    target = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size))
    return (np.array(pred, dtype=pred_dtype).reshape(shape),
            np.array(target, dtype=target_dtype).reshape(shape))


def bits_differ(a, b):
    """'' if a and b hold the same dtype, shape and bits, else where they differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"dtype/shape {a.dtype}{a.shape} != {b.dtype}{b.shape}"
    def as_bytes(arr):
        return arr.reshape(-1).view(np.uint8).reshape(arr.size, -1)

    where = np.flatnonzero((as_bytes(a) != as_bytes(b)).any(axis=1))
    return "" if where.size == 0 else f"bits differ at flat indices {where.tolist()}"


class TestFusedBceLoss:
    @settings(max_examples=200)
    @given(bce_cases())
    def test_equals_the_elementwise_chain_bit_for_bit(self, case):
        x, y = case
        results = []
        for loss_fn in (bce_chain, lambda pred, target: bce_loss(pred, target)):
            pred = Tensor(x.copy(), requires_grad=True)
            loss = loss_fn(pred, Tensor(y))
            # the gradient reaching pred before the leaf casts it to pred's dtype
            arriving = reference_leaf_grads(loss)[id(pred)]
            loss.backward()
            results.append((loss.data, arriving, pred.grad))
        for name, fused, chain in zip(("value", "gradient", "pred.grad"), *results[::-1]):
            assert bits_differ(fused, chain) == "", (
                f"{name}: {bits_differ(fused, chain)} for pred {x!r}, target {y!r}")


def linear_chain(x, w, bias, activation):
    """A dense layer as the chain of tape ops that linear fuses."""
    out = T.add_bias(T.matmul(x, w), bias)
    return {"tanh": T.tanh, "sigmoid": T.sigmoid}[activation](out) if activation else out


@st.composite
def linear_cases(draw):
    """(x, w, bias, activation, whether x records) of drawn shapes and dtypes."""
    dtypes = [draw(st.sampled_from([np.float32, np.float64])) for _ in range(3)]
    batch, width, units = (draw(st.integers(1, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # at 2, tanh and sigmoid saturate in float32 but exp does not overflow
    scale = draw(st.sampled_from([0.01, 0.1, 1.0, 2.0]))
    x, w, bias = ((rng.standard_normal(shape) * scale).astype(dtype)
                  for shape, dtype in zip(((batch, width), (width, units), (units,)), dtypes))
    return (x, w, bias, draw(st.sampled_from([None, "tanh", "sigmoid"])),
            draw(st.booleans()))


class TestLinear:
    @settings(max_examples=150)
    @given(linear_cases(), st.integers(0, 2**32 - 1))
    def test_equals_the_chain_bit_for_bit(self, case, seed):
        x, w, bias, activation, x_records = case
        results = []
        for op in (T.linear, linear_chain):
            leaves = [Tensor(x.copy(), requires_grad=x_records),
                      Tensor(w.copy(), requires_grad=True), Tensor(bias.copy(), requires_grad=True)]
            out = op(*leaves, activation)
            weights = np.random.default_rng(seed).uniform(0.5, 1.5, out.data.shape)
            loss = T.tensor_sum(T.mul(out, Tensor(weights, dtype=out.data.dtype)))
            # the gradients reaching the leaves, before a leaf casts to its dtype
            arriving = reference_leaf_grads(loss)
            loss.backward()
            results.append([out.data, *(arriving.get(id(t)) for t in leaves),
                            *(t.grad for t in leaves)])
        names = ["value", "x arriving", "w arriving", "bias arriving", "x.grad", "w.grad",
                 "bias.grad"]
        for name, fused, chain in zip(names, *results):
            if chain is None:
                assert fused is None and name.startswith("x") and not x_records, name
                continue
            assert bits_differ(fused, chain) == "", (
                f"{name}: {bits_differ(fused, chain)} for {activation}, "
                f"dtypes {x.dtype}, {w.dtype}, {bias.dtype}")


@st.composite
def add_bias_cases(draw):
    """(x, bias, activation, whether x records): x 2-5-D, x and bias each
    float32 or float64."""
    shape = tuple(draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 5))))
    dtypes = [draw(st.sampled_from([np.float32, np.float64])) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # at 100 and 1000, sigmoid's exponent is clamped in float32, at 1000 in
    # float64 too
    scale = draw(st.sampled_from([0.01, 1.0, 2.0, 100.0, 1000.0]))
    x, bias = ((rng.standard_normal(s) * scale).astype(dtype)
               for s, dtype in zip((shape, shape[-1:]), dtypes))
    return (x, bias, draw(st.sampled_from([None, "tanh", "sigmoid"])),
            draw(st.booleans()))


class TestAddBias:
    @settings(max_examples=100)
    @given(add_bias_cases(), st.integers(0, 2**32 - 1))
    def test_activation_equals_the_two_node_chain_bit_for_bit(self, case, seed):
        x, bias, activation, x_records = case

        def chain(x, bias, activation):
            out = T.add_bias(x, bias)
            return getattr(T, activation)(out) if activation else out

        results = []
        for op in (T.add_bias, chain):
            leaves = [Tensor(x.copy(), requires_grad=x_records),
                      Tensor(bias.copy(), requires_grad=True)]
            out = op(*leaves, activation)
            weights = np.random.default_rng(seed).uniform(0.5, 1.5, out.data.shape)
            loss = T.tensor_sum(T.mul(out, Tensor(weights, dtype=out.data.dtype)))
            # the gradients reaching the leaves, before a leaf casts to its dtype
            arriving = reference_leaf_grads(loss)
            loss.backward()
            results.append([out.data, *(arriving.get(id(t)) for t in leaves),
                            *(t.grad for t in leaves)])
        names = ["value", "x arriving", "bias arriving", "x.grad", "bias.grad"]
        for name, fused, two_nodes in zip(names, *results):
            if two_nodes is None:
                assert fused is None and name.startswith("x") and not x_records, name
                continue
            assert bits_differ(fused, two_nodes) == "", (
                f"{name}: {bits_differ(fused, two_nodes)} for {activation}, "
                f"shape {x.shape}, dtypes {x.dtype}, {bias.dtype}")


def algebra_tensors(bound):
    """(n, n, n) structure tensors, n <= 4, with entries in [-bound, bound].

    Unit rows may be anything here, so the drawn tensors are mostly not
    unital.
    """
    return st.integers(1, 4).flatmap(lambda n: arrays(
        np.float64, (n, n, n),
        elements=st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0]),
                           st.floats(-bound, bound, allow_nan=False))))


# entries within [-1, 1] keep every block product's rounding far below 1e-12
layer_algebras = algebra_tensors(1.0).map(
    lambda t: StructureConstants.from_tensor(t, name="drawn"))


class TestHyperLayerProperties:
    @given(layer_algebras, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_hyperdense_matches_naive(self, algebra, units, elems, batch, seed):
        rng = np.random.default_rng(seed)
        layer = HyperDense(units, algebra=algebra, input_shape=(elems * algebra.dim,),
                           seed=seed)
        layer.bias.data = rng.standard_normal(layer.bias.data.shape)
        x = rng.standard_normal((batch, elems * algebra.dim))
        expected = naive_hyperdense(algebra, layer.weights.data, layer.bias.data, x)
        npt.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-12, atol=1e-12)

    @given(layer_algebras, conv_cases(max_channels=2), st.integers(0, 2**32 - 1))
    def test_hyperconv_matches_naive(self, algebra, case, seed):
        # conv_cases supplies the geometry: its channel counts become the
        # number of input element groups and of filters
        x, kernel, stride, padding = case
        n, groups, filters = algebra.dim, kernel.shape[-2], kernel.shape[-1]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((*x.shape[:-1], groups * n))
        layer = CONV_BY_D[x.ndim - 2](filters, kernel.shape[:-2], algebra=algebra,
                                      stride=stride, padding=padding)
        layer.build(x.shape[1:], rng)
        layer.bias.data = rng.standard_normal(layer.bias.data.shape)
        out = layer(Tensor(x)).data
        expected = naive_hyperconv(algebra, layer.weights.data, layer.bias.data, x,
                                   stride=stride, padding=padding)
        npt.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


ACTIVATIONS = {"tanh": T.tanh, "sigmoid": T.sigmoid}


def unfused_forward(model, x):
    """model's layers one at a time: each conv as conv_nd, add_bias and activation.

    Sequential.forward runs a conv directly followed by GlobalMaxPool as
    one conv_global_max_pool; this chain pools the whole conv output.
    """
    for layer in model.layers:
        if isinstance(layer, tuple(CONV_BY_D.values())):
            kernel = assemble_conv_kernel(layer.weights, layer.algebra)
            x = T.add_bias(T.conv_nd(x, kernel, stride=layer.stride,
                                     padding=layer.padding), layer.bias)
            if layer.activation:
                x = ACTIVATIONS[layer.activation](x)
        elif isinstance(layer, GlobalMaxPool):
            x = T.global_max_pool(x)
        else:
            x = layer.forward(x)
    return x


def leaf_grads(out, leaves, weights):
    """Gradients of sum(out * weights) for every leaf, which start clear."""
    T.zero_grad(leaves)
    T.tensor_sum(T.mul(out, Tensor(weights, dtype=out.data.dtype))).backward()
    return [leaf.grad for leaf in leaves]


@st.composite
def pooled_stacks(draw):
    """(model, x): one or two hyper convs, GlobalMaxPool and a Dense head.

    The model is built, with drawn biases. A 'valid' conv's kernel fits
    its input; 3-wide 'same' kernels pad on both sides.
    """
    algebra = predefined(draw(st.sampled_from(predefined_names())))
    n = algebra.dim
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.integers(1, 3))
    shape = (*(draw(st.integers(3, 5 if d < 3 else 4)) for _ in range(d)),
             draw(st.integers(1, 2)) * n)
    x_shape = (draw(st.integers(1, 2)), *shape)
    layers = []
    for _ in range(draw(st.integers(1, 2))):
        padding = draw(st.sampled_from(["valid", "same"]))
        widest = 3 if padding == "same" else min(3, *shape[:-1])
        layers.append(CONV_BY_D[d](
            draw(st.integers(1, 2)), draw(st.integers(1, widest)), algebra=algebra,
            stride=draw(st.one_of(st.integers(1, 2), st.tuples(*[st.integers(1, 2)] * d))),
            padding=padding, activation=draw(st.sampled_from([None, "tanh", "sigmoid"])),
            dtype=dtype))
        shape = layers[-1].output_shape(shape)
    layers += [GlobalMaxPool(), Dense(1, dtype=dtype)]
    model = Sequential(layers, seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(x_shape).astype(dtype)
    model.predict(x)
    for layer in model.layers:
        if layer.params():
            layer.bias.data = rng.standard_normal(layer.bias.data.shape).astype(dtype)
    return model, x


class TestConvPoolFusion:
    @given(pooled_stacks(), st.integers(0, 2**32 - 1))
    def test_fused_matches_unfused_chain(self, case, seed):
        # the last conv and the pool run as one conv_global_max_pool; in a
        # two-conv stack the input gradient of that op reaches the first
        model, x = case
        x = Tensor(x, requires_grad=True)
        leaves = [x, *model.params()]
        fused, chain = model.forward(x), unfused_forward(model, x)
        assert fused.data.dtype == chain.data.dtype == x.data.dtype
        tol = 1e-12 if x.data.dtype == np.float64 else 1e-5
        npt.assert_allclose(fused.data, chain.data, rtol=tol, atol=tol)
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, fused.data.shape)
        for got, want in zip(leaf_grads(fused, leaves, weights),
                             leaf_grads(chain, leaves, weights)):
            assert got.dtype == want.dtype
            npt.assert_allclose(got, want, rtol=tol, atol=tol)

    @given(st.sampled_from([np.float32, np.float64]).flatmap(lambda dtype: st.tuples(
        *(arrays(dtype, shape,
                 elements=st.floats(-40, 40, width=np.dtype(dtype).itemsize * 8))
          for shape in [(3, 6, 4), 4]))))
    def test_bias_and_activations_commute_with_max_bit_for_bit(self, case):
        # why pooling before the bias and activation gives the same values
        z, bias = case
        npt.assert_array_equal((z + bias).max(axis=1), z.max(axis=1) + bias)
        for f in ACTIVATIONS.values():
            npt.assert_array_equal(f(Tensor(z)).data.max(axis=1),
                                   f(Tensor(z.max(axis=1))).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_input_routes_gradients_to_the_first_position(self, dtype):
        # every position ties; both paths send each channel's gradient to
        # position (0, 0), so only the first 2x2 patch of x gets one
        model = Sequential([HyperConv2D(2, (2, 2), algebra="quaternions",
                                        activation="tanh", dtype=dtype),
                            GlobalMaxPool(), Dense(1, dtype=dtype)], seed=3)
        x = Tensor(np.full((2, 4, 5, 4), 0.5, dtype=dtype), requires_grad=True)
        model.predict(x.data)
        conv = model.layers[0]
        conv.bias.data = np.linspace(-1, 1, 8).astype(dtype)
        z = T.conv_nd(x, assemble_conv_kernel(conv.weights, conv.algebra)).data
        assert (z == z[:, :1, :1]).all()
        leaves = [x, *model.params()]
        weights = np.ones((2, 1))
        fused = leaf_grads(model.forward(x), leaves, weights)
        chain = leaf_grads(unfused_forward(model, x), leaves, weights)
        tol = 1e-12 if dtype == np.float64 else 1e-6
        for got, want in zip(fused, chain):
            npt.assert_allclose(got, want, rtol=tol, atol=tol)
        support = np.zeros(x.data.shape, dtype=bool)
        support[:, :2, :2] = True
        for dx in (fused[0], chain[0]):
            assert (dx[~support] == 0).all() and (dx[support] != 0).all()


@st.composite
def fold_cases(draw):
    """(model, x): a HyperDense, Dense or HyperConv1D with no activation of its
    own, an Activation, and maybe a Dense head; built, with drawn biases."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["HyperDense", "Dense", "HyperConv1D"]))
    n = 1
    if kind == "Dense":
        layer = Dense(draw(st.integers(1, 4)), dtype=dtype)
        shape = (draw(st.integers(1, 5)),)
    else:
        algebra = predefined(draw(st.sampled_from(predefined_names())))
        n = algebra.dim
        if kind == "HyperDense":
            layer = HyperDense(draw(st.integers(1, 3)), algebra=algebra, dtype=dtype)
            shape = (draw(st.integers(1, 3)) * n,)
        else:
            padding = draw(st.sampled_from(["valid", "same"]))
            ksize = draw(st.integers(1, 3))
            length = draw(st.integers(ksize if padding == "valid" else 1, 6))
            layer = HyperConv1D(draw(st.integers(1, 2)), ksize, algebra=algebra,
                                stride=draw(st.integers(1, 2)), padding=padding, dtype=dtype)
            shape = (length, draw(st.integers(1, 2)) * n)
    head = draw(st.booleans())
    tail = ([Flatten()] if kind == "HyperConv1D" else []) + [Dense(1, dtype=dtype)]
    activation = draw(st.sampled_from(["tanh", "sigmoid"]))
    model = Sequential([layer, Activation(activation), *(tail if head else [])],
                       seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # at 100, sigmoid's exponent is clamped in float32
    scale = draw(st.sampled_from([0.01, 1.0, 3.0, 100.0]))
    x = (rng.standard_normal((draw(st.integers(1, 3)), *shape)) * scale).astype(dtype)
    model.predict(x)
    for layer in model.layers:
        if layer.params():
            layer.bias.data = rng.standard_normal(layer.bias.data.shape).astype(dtype)
    return model, x


class TestActivationFold:
    @settings(max_examples=100)
    @given(fold_cases(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_the_layers_one_by_one_bit_for_bit(self, case, x_records, seed):
        # Sequential runs the layer and the Activation after it as one node
        model, x = case
        x = Tensor(x, requires_grad=x_records)
        leaves = [x, *model.params()]
        folded = model.forward(x)
        chain = x
        for layer in model.layers:
            chain = layer.forward(chain)
        assert len(tape_nodes(folded)) == len(tape_nodes(chain)) - 1
        assert bits_differ(folded.data, chain.data) == ""
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, folded.data.shape)
        names = ["x.grad"] + [f"param {i}" for i in range(len(leaves) - 1)]
        for name, got, want in zip(names, leaf_grads(folded, leaves, weights),
                                   leaf_grads(chain, leaves, weights)):
            if want is None:
                assert got is None and name == "x.grad" and not x_records
                continue
            assert bits_differ(got, want) == "", (
                f"{name}: {bits_differ(got, want)} for {[l.name for l in model.layers]}, "
                f"{model.layers[1].activation}, dtype {x.data.dtype}")


@st.composite
def layer_stacks(draw):
    """(model, x): an unbuilt stack of layers of every kind and an input of
    0-3 rows.

    Maybe an Activation; over a spatial input, up to two 1-3-D convs with
    strides and either padding, then GlobalMaxPool or Flatten; then up to
    two HyperDense or Dense layers. Each weighted layer may have an
    activation of its own and may be followed by an Activation, so both
    fused pairs (conv -> GlobalMaxPool, weighted layer -> Activation) are
    drawn, as are the same layers run apart.
    """
    algebra = predefined(draw(st.sampled_from(predefined_names())))
    n = algebra.dim
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    activations = st.sampled_from([None, "tanh", "sigmoid"])
    d = draw(st.integers(0, 3))          # 0: a flat input
    shape = in_shape = (*(draw(st.integers(1, 4)) for _ in range(d)),
                        draw(st.integers(1, 2)) * n)
    layers = []

    def add(layer, weighted=False):
        nonlocal shape
        layers.append(layer)
        shape = layer.output_shape(shape)
        if weighted and draw(st.booleans()):
            add(Activation(draw(st.sampled_from(["tanh", "sigmoid"]))))

    if draw(st.booleans()):
        add(Activation(draw(st.sampled_from(["tanh", "sigmoid"]))))
    if d:
        for _ in range(draw(st.integers(0, 2))):
            padding = draw(st.sampled_from(["valid", "same"]))
            widest = 3 if padding == "same" else min(3, *shape[:-1])
            stride = st.integers(1, 2)
            add(CONV_BY_D[d](draw(st.integers(1, 2)), draw(st.integers(1, widest)),
                             algebra=algebra,
                             stride=draw(st.one_of(stride, st.tuples(*[stride] * d))),
                             padding=padding, activation=draw(activations), dtype=dtype),
                weighted=True)
        add(draw(st.sampled_from([GlobalMaxPool, Flatten]))())
    for _ in range(draw(st.integers(0 if layers else 1, 2))):
        if shape[0] % n == 0 and draw(st.booleans()):
            layer = HyperDense(draw(st.integers(1, 2)), algebra=algebra,
                               activation=draw(activations), dtype=dtype)
        else:
            layer = Dense(draw(st.integers(1, 3)), activation=draw(activations), dtype=dtype)
        add(layer, weighted=True)
    model = Sequential(layers, seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((draw(st.integers(0, 3)), *in_shape)).astype(dtype)
    return model, x


class TestShapeContract:
    @settings(max_examples=200)
    @given(layer_stacks())
    def test_outputs_have_their_stated_shapes_and_x_its_gradient(self, case):
        model, x = case
        out = model.predict(x)
        assert out.dtype == x.dtype and out.shape == (len(x), *model.layers[-1].out_shape)
        # each prefix ends where a fused pair may be cut or kept whole
        shape = x.shape[1:]
        for k, layer in enumerate(model.layers, 1):
            shape = layer.output_shape(shape)
            assert layer.out_shape == shape
            got = Sequential(model.layers[:k]).predict(x)
            assert got.shape == (len(x), *shape) and got.dtype == x.dtype
        xt = Tensor(x, requires_grad=True)
        T.tensor_sum(model.forward(xt)).backward()
        assert xt.grad.shape == x.shape


@st.composite
def model_cases(draw):
    """(model, x): a hyper-layer stack, built or not, and an input for it."""
    algebra = draw(st.one_of(layer_algebras,
                             st.sampled_from(predefined_names()).map(predefined)))
    n = algebra.dim
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    activations = st.sampled_from([None, "tanh", "sigmoid"])
    d = draw(st.integers(0, 3))          # 0: no conv layer
    batch = draw(st.integers(1, 2))
    layers = []
    if d:
        stride = draw(st.one_of(st.integers(1, 2), st.tuples(*[st.integers(1, 2)] * d)))
        layers.append(CONV_BY_D[d](
            draw(st.integers(1, 2)), draw(st.integers(1, 2)), algebra=algebra,
            stride=stride, padding=draw(st.sampled_from(["valid", "same"])),
            activation=draw(activations), dtype=dtype))
        layers.append(draw(st.sampled_from([GlobalMaxPool, Flatten]))())
        x_shape = (batch, *[3] * d, draw(st.integers(1, 2)) * n)
    else:
        x_shape = (batch, draw(st.integers(1, 3)) * n)
    layers += [HyperDense(draw(st.integers(1, 2)), algebra=algebra,
                          activation=draw(activations), dtype=dtype),
               Dense(draw(st.integers(1, 2)), activation=draw(activations), dtype=dtype),
               Activation(draw(st.sampled_from(["tanh", "sigmoid"])))]
    model = Sequential(layers, seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(x_shape).astype(dtype)
    if draw(st.booleans()):
        model.predict(x)
    return model, x


class TestModelFileProperties:
    @given(model_cases())
    def test_roundtrip_predicts_bit_exact_and_resaves_byte_identical(
            self, tmp_path_factory, case):
        model, x = case
        built = model.built
        before = model.predict(x) if built else None
        folder = tmp_path_factory.mktemp("model")
        save_model(model, folder / "saved.json")
        loaded = load_model(folder / "saved.json")
        save_model(loaded, folder / "resaved.json")
        assert (folder / "resaved.json").read_bytes() == (folder / "saved.json").read_bytes()
        if built:
            npt.assert_array_equal(loaded.predict(x), before)


class TestAlgebraFileProperties:
    @given(algebra_tensors(1e6))
    def test_file_roundtrip_is_exact(self, tmp_path_factory, tensor):
        alg = StructureConstants.from_tensor(tensor, name="drawn")
        path = tmp_path_factory.mktemp("alg") / "alg.json"
        save_algebra(alg, path)
        loaded = load_algebra(path)
        npt.assert_array_equal(loaded.tensor, tensor)
        assert loaded.name == "drawn"

    @settings(max_examples=100)
    @given(st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int8,
                            np.uint32, np.bool_, np.complex128]).flatmap(
               lambda dtype: arrays(dtype, st.sampled_from([(1, 1, 1), (2, 2, 2), (2, 2, 3),
                                                            (4,)]))),
           st.none() | st.text(max_size=4) | st.integers() | st.lists(st.text(), max_size=1))
    def test_every_algebra_from_tensor_accepts_round_trips(self, tmp_path_factory,
                                                           tensor, name):
        try:
            alg = StructureConstants.from_tensor(tensor, name=name)
        except AlgebraError:
            return
        assert tensor.dtype.kind in "iuf" and np.isfinite(tensor).all()
        assert name is None or isinstance(name, str)
        path = tmp_path_factory.mktemp("alg") / "alg.json"
        save_algebra(alg, path)
        loaded = load_algebra(path)
        assert loaded == alg and loaded.name == name


# scalars of every kind a hand-written entry map might hold
odd_scalars = st.one_of(
    st.integers(0, 3).map(np.int64), st.sampled_from([1.0, 0.5, -1.0]), st.booleans(),
    st.sampled_from(["0", "1"]), st.just(float("nan")), st.none())


@st.composite
def entry_maps(draw):
    """(entries, dim): a well-formed entry map spelled with Python and numpy
    scalars, half the time with one odd scalar put in a key, a term or in
    place of a value; and a dim or None."""
    ij = st.integers(1, 3) | st.integers(1, 3).map(np.int64)
    k = st.integers(0, 3) | st.integers(0, 3).map(np.int32)
    coeff = (st.floats(-4, 4, allow_nan=False) | st.integers(-3, 3)
             | st.floats(-4, 4, width=32).map(np.float32))
    entries = {}
    for key in draw(st.lists(st.tuples(ij, ij), max_size=3, unique=True)):
        terms = draw(st.lists(st.tuples(k, coeff), max_size=2,
                              unique_by=lambda term: int(term[0])))
        entries[key] = terms[0] if len(terms) == 1 and draw(st.booleans()) else terms
    if entries and draw(st.booleans()):
        key = draw(st.sampled_from(list(entries)))
        where, odd = draw(st.integers(0, 4)), draw(odd_scalars)
        if where < 2:
            value = entries.pop(key)
            entries[(odd, key[1]) if where == 0 else (key[0], odd)] = value
        elif where < 4:
            value = entries[key]
            terms = [value] if isinstance(value, tuple) else value or [(1, 1.0)]
            term = list(terms[0])
            term[where - 2] = odd
            entries[key] = [tuple(term), *terms[1:]]
        else:
            entries[key] = odd
    return entries, draw(st.one_of(st.none(), st.integers(1, 4)))


def is_index(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class TestEntryMapProperties:
    @settings(max_examples=100)
    @given(entry_maps())
    def test_map_equals_its_document_or_is_refused(self, case):
        entries, dim = case
        try:
            alg = StructureConstants(entries, dim=dim)
        except AlgebraError:
            return
        rows = [[i, j, k, c] for (i, j), value in entries.items()
                for k, c in ([value] if isinstance(value, tuple) else value) or [(0, 0.0)]]
        assert all(is_index(idx) and idx >= 1 for row in rows for idx in row[:2])
        assert all(is_index(row[2]) for row in rows)
        assert all(not isinstance(row[3], bool) and np.isfinite(row[3]) for row in rows)
        assert check_unit(alg)
        doc = algebra_from_doc({"dim": alg.dim, "entries": rows})
        npt.assert_array_equal(alg.tensor, doc.tensor)


def _paths(node, path=()):
    """Every key path below node, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield (*path, key)
        yield from _paths(child, (*path, key))


# small values, or values far too large to allocate for, never a mid-size
# one that would make a loader allocate gigabytes
file_ints = st.one_of(st.integers(-2, 4), st.sampled_from([10 ** 6, 10 ** 10, 10 ** 30]),
                      st.integers(10 ** 6, 10 ** 30))
# copied per draw: a shared list or dict could be mutated, or put inside itself
other_types = st.sampled_from([None, True, "x", 2.5, 3.0, [], {}, [1, 2], {"a": 1}]).map(
    copy.deepcopy)
SIZE_KEYS = {"dim", "units", "filters", "kernel_size", "stride", "in_shape", "in_elems",
             "in_width"}


@st.composite
def mutated_golden_docs(draw):
    """A golden model document with one or two keys dropped or retyped, a
    blob or list truncated, or a shape or dim set to another integer."""
    name = draw(st.sampled_from(["v1_conv_f32", "v1_dense_nonunital"]))
    doc = json.loads((DATA / f"{name}.json").read_text())
    for _ in range(draw(st.integers(1, 2))):
        paths = sorted(_paths(doc), key=repr)
        kind = draw(st.sampled_from(["drop", "retype", "size", "truncate"]))
        if kind == "size":
            paths = [p for p in paths if SIZE_KEYS & set(p)] or paths
        elif kind == "truncate":
            paths = [p for p in paths if isinstance(_at(doc, p), (str, list))]
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(other_types)
        elif kind == "size":
            parent[key] = draw(file_ints)
        else:
            parent[key] = parent[key][:draw(st.integers(0, max(len(parent[key]) - 1, 0)))]
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestGoldenFileMutations:
    @settings(max_examples=100)
    @given(mutated_golden_docs())
    def test_every_refusal_is_a_load_error_naming_the_file(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("mutated") / "model.json"
        path.write_text(json.dumps(doc))
        try:
            load_model(path)
        except (ModelLoadError, AlgebraError) as exc:
            assert str(path) in str(exc)


@st.composite
def mutated_algebra_docs(draw):
    """A shipped algebra's document with one or two keys or rows dropped or
    retyped, or its dim or an index set to another integer."""
    doc = algebra_to_doc(predefined(draw(st.sampled_from(predefined_names()))))
    for _ in range(draw(st.integers(1, 2))):
        paths = sorted(_paths(doc), key=repr)
        kind = draw(st.sampled_from(["drop", "retype", "size"]))
        if kind == "size":
            paths = [p for p in paths if type(_at(doc, p)) is int] or paths
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(other_types)
        else:
            parent[key] = draw(file_ints)
    return doc


class TestAlgebraFileMutations:
    @settings(max_examples=100)
    @given(mutated_algebra_docs())
    def test_every_refusal_names_the_file_and_every_load_round_trips(
            self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("mutated") / "alg.json"
        path.write_text(json.dumps(doc))
        try:
            alg = load_algebra(path)
        except AlgebraError as exc:
            assert str(path) in str(exc)
            return
        assert alg.name is None or isinstance(alg.name, str)
        save_algebra(alg, path)
        again = load_algebra(path)
        assert again == alg and again.name == alg.name


# What a refusal of each data argument must name. A shape the model cannot
# take is named as the model's input, a target the loss refuses as targets.
ARGUMENT_NAMES = {"x": r"\bx\b|\binput\b", "y": r"\by\b|\btargets\b",
                  "validation": r"^validation\b", "epochs": r"^epochs\b",
                  "batch_size": r"^batch_size\b"}

# forms of a (rows, width) array: ragged, unreadable, complex, non-finite,
# too few rows, other ranks and widths, off the 0/1 targets, and ones fit reads
SPOILERS = {
    "ragged": lambda a: [list(r) for r in a[:-1]] + [list(a[-1][:-1])],
    "strings": lambda a: np.full(a.shape, "a"),
    "objects": lambda a: np.full(a.shape, None, dtype=object),
    "dicts": lambda a: [{"a": 1}] * len(a),
    "complex": lambda a: a + 1j,
    "nan": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0, np.nan, a),
    "inf": lambda a: np.full(a.shape, np.inf),
    "no rows": lambda a: a[:0],
    "fewer rows": lambda a: a[:-1],
    "scalar": lambda a: 1.0,
    "flat": lambda a: a.ravel(),
    "3-d": lambda a: a[:, :, None],
    "wider": lambda a: np.concatenate([a, a[:, :1]], axis=1),
    "halves": lambda a: a * 0.5 + 0.25,
    "list": lambda a: a.tolist(),
    "bool": lambda a: a > 0.5,
    "float32": lambda a: a.astype(np.float32),
}
COUNTS = [1, 2, np.int64(2), 10 ** 9, 0, -1, 2.5, "2", None, True, np.float64(2), [2]]


@st.composite
def data_calls(draw, arg):
    """A fit call, or for x and y also an evaluate call, on small valid data
    with argument arg spoiled."""
    rows = draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (rows, 2), elements=st.floats(-2, 2)))
    y = draw(arrays(np.int64, (rows, 1), elements=st.integers(0, 1))).astype(np.float64)
    call = draw(st.sampled_from(["fit", "evaluate"])) if arg in ("x", "y") else "fit"
    args = {"x": x, "y": y}
    if call == "fit":
        args.update(epochs=2, batch_size=None, validation=None)
    spoil = lambda a: SPOILERS[draw(st.sampled_from(sorted(SPOILERS)))](a)  # noqa: E731
    if arg in ("x", "y"):
        args[arg] = spoil(args[arg])
    elif arg == "validation":
        args[arg] = draw(st.sampled_from([(x,), (x, y, y), "xy", [x, y],
                                          (spoil(x), y), (x, spoil(y))]))
    elif arg == "epochs":
        args[arg] = draw(st.sampled_from(COUNTS[:3] + COUNTS[4:]))   # 10**9 epochs never end
    else:
        args[arg] = draw(st.sampled_from(COUNTS))
    return call, args


class TestDataArguments:
    @pytest.mark.parametrize("arg", sorted(ARGUMENT_NAMES))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_every_refusal_is_a_value_error_naming_the_argument(self, arg, data):
        call, args = data.draw(data_calls(arg))
        model = Sequential([HyperDense(1, algebra="complex"), Dense(1),
                            Activation("sigmoid")], seed=0)
        x, y = args.pop("x"), args.pop("y")
        try:
            if call == "fit":
                fit(model, x, y, optimizer=Adam(), **args)
            else:
                evaluate(model, x, y)
        except ValueError as exc:
            assert re.search(ARGUMENT_NAMES[arg], str(exc)), str(exc)


# ---------------------------------------------------------------------------
# One real-number rule: table coefficients in every spelling, and optimizer
# numbers, accept the same scalars.

JSON_SCALARS = st.one_of(
    st.integers(),
    st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64, 2**70, -2**70]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
NUMPY_DTYPES = [np.dtype(t) for t in ("int8", "int64", "uint8", "uint64",
                                      "float16", "float32", "float64", "bool")]
NUMPY_SCALARS = st.sampled_from(NUMPY_DTYPES).flatmap(
    lambda dt: st.one_of(from_dtype(dt).map(dt.type), arrays(dt, ())))
SCALARS = st.one_of(JSON_SCALARS, NUMPY_SCALARS, st.fractions())


def accepts(make, error):
    """True if make() returns, False if it raises error; anything else fails."""
    try:
        make()
    except error:
        return False
    return True


EDGE_SCALARS = [True, np.bool_(True), 2**63, -2**63, -2**63 - 1, 2**64, 2**70, float("nan"),
                float("inf"), np.float16(2), np.uint64(2**64 - 1), np.array(1.5), "1", None,
                Fraction(1, 10)]


class TestOneRealRule:
    @staticmethod
    def check(v):
        spellings = [lambda: StructureConstants({(1, 1): (0, v)}, dim=2),
                     lambda: StructureConstants.from_tensor([[[v]]])]
        if v is None or isinstance(v, (bool, int, float, str)):   # values JSON holds
            doc = {"dim": 1, "entries": [[0, 0, 0, v]]}
            spellings.append(lambda: algebra_from_doc(doc))
        verdicts = {accepts(make, AlgebraError) for make in spellings}
        assert len(verdicts) == 1, v
        adam = accepts(lambda: Adam(lr=v), ValueError)
        if verdicts == {True}:
            assert adam == bool(v > 0), v
        else:
            assert not adam, v

    @settings(max_examples=300)
    @given(SCALARS)
    def test_every_table_spelling_and_adam_agree(self, v):
        self.check(v)

    @pytest.mark.parametrize("v", EDGE_SCALARS, ids=repr)
    def test_every_table_spelling_and_adam_agree_on_edges(self, v):
        self.check(v)


# JSON values a shape record could hold: ints of every size, the other
# scalar types, and lists of those, nested too
json_scalars = st.one_of(file_ints, st.booleans(), st.none(), st.text(max_size=2),
                         st.floats(allow_nan=False, allow_infinity=False))
json_records = st.one_of(json_scalars, st.lists(json_scalars, max_size=4),
                         st.lists(st.lists(file_ints, max_size=2), max_size=2))
# (golden file, layer index, shape key) for every shape record the two files hold
SHAPE_RECORDS = [("v1_dense_nonunital", 0, "in_elems"), ("v1_dense_nonunital", 1, "in_shape"),
                 ("v1_dense_nonunital", 2, "in_width"), ("v1_conv_f32", 0, "in_shape"),
                 ("v1_conv_f32", 1, "in_shape"), ("v1_conv_f32", 2, "in_width")]


def follows_int_rule(key, value):
    """True for an absent record, an int >= 0 (in_elems, in_width) or a
    non-empty list of them (in_shape); JSON gives no numpy ints."""
    entries = value if key == "in_shape" else [value]
    return value is None or (isinstance(entries, list) and bool(entries) and all(
        type(e) is int and e >= 0 for e in entries))


class TestShapeRecordProperties:
    @settings(max_examples=150)
    @given(st.sampled_from(SHAPE_RECORDS), json_records)
    def test_a_record_is_refused_by_key_or_loads_with_int_shapes(
            self, tmp_path_factory, where, value):
        name, index, key = where
        doc = json.loads((DATA / f"{name}.json").read_text())
        doc["layers"][index]["config"][key] = value
        path = tmp_path_factory.mktemp("record") / "model.json"
        path.write_text(json.dumps(doc))
        try:
            model = load_model(path)
        except ModelLoadError as exc:
            assert str(path) in str(exc)
            if not follows_int_rule(key, value):
                assert f"{path}: {key} must be " in str(exc)
            return
        assert follows_int_rule(key, value)
        for layer in model.layers:
            if layer.built:
                assert all(type(d) is int for d in (*layer.in_shape, *layer.out_shape))
