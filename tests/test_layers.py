import re

import numpy as np
import numpy.testing as npt
import pytest

from khnn import layers as L
from khnn import tensor as T
from khnn.algebra import predefined, predefined_names
from khnn.layers import (
    Activation,
    Dense,
    Flatten,
    GlobalMaxPool,
    HyperConv1D,
    HyperConv2D,
    HyperConv3D,
    HyperDense,
    assemble_block_matrix,
    assemble_conv_kernel,
    glorot_uniform,
)
from khnn.model import LAYER_CLASSES, Sequential
from khnn.tensor import ShapeError, Tensor

from conftest import naive_hyperconv, naive_hyperdense

ALL_NAMES = predefined_names()
CONV_BY_D = {1: HyperConv1D, 2: HyperConv2D, 3: HyperConv3D}


class TestAssembleBlockMatrix:
    def test_reals_returns_raw_weights(self):
        w = np.random.default_rng(0).standard_normal((3, 2, 1))
        block = assemble_block_matrix(Tensor(w), predefined("reals"))
        npt.assert_array_equal(block.data, w[:, :, 0].T)

    def test_complex_single_block(self):
        a, b = 0.7, -1.2
        block = assemble_block_matrix(Tensor(np.array([[[a, b]]])),
                                      predefined("complex"))
        npt.assert_array_equal(block.data, [[a, b], [-b, a]])

    def test_quaternion_two_path(self):
        alg = predefined("quaternions")
        rng = np.random.default_rng(1)
        layer = HyperDense(3, algebra=alg, seed=5)
        x = rng.standard_normal((6, 8))
        out = layer(Tensor(x)).data
        ref = naive_hyperdense(alg, layer.weights.data, layer.bias.data, x)
        npt.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            assemble_block_matrix(Tensor(np.zeros((1, 1, 3))),
                                  predefined("complex"))


class TestHyperDense:
    def test_output_width_convention(self):
        # 10 quaternion units over a width-4 input emit 40 real scalars
        layer = HyperDense(10, algebra="quaternions", seed=0)
        out = layer(Tensor(np.eye(4)))
        assert out.data.shape == (4, 40)
        assert layer.param_count() == 10 * 1 * 4 + 40

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("u, m", [(3, 4), (3, 2), (16, 8), (64, 64)])
    def test_reals_reduction_bit_equal(self, u, m, dtype):
        rng = np.random.default_rng(2)
        hyper = HyperDense(u, algebra="reals", seed=7, dtype=dtype)
        x = rng.standard_normal((5, m)).astype(dtype)
        hyper(Tensor(x))
        real = Dense(u, dtype=dtype)
        real.build((m,), rng)
        real.weights.data = hyper.weights.data.reshape(u, m).T.copy()
        real.bias.data = hyper.bias.data.copy()
        npt.assert_array_equal(hyper.forward(Tensor(x)).data,
                               real.forward(Tensor(x)).data)

    def test_unit_weight_identity(self):
        alg = predefined("quaternions")
        layer = HyperDense(2, algebra=alg, seed=0)
        x = np.random.default_rng(3).standard_normal((3, 8))
        layer(Tensor(x))
        w = np.zeros((2, 2, 4))
        w[0, 0, 0] = 1.0
        w[1, 1, 0] = 1.0
        layer.weights.data = w
        layer.bias.data = np.zeros(8)
        npt.assert_allclose(layer.forward(Tensor(x)).data, x, atol=1e-15)

    def test_width_not_divisible(self):
        layer = HyperDense(2, algebra="quaternions")
        with pytest.raises(ShapeError, match="multiple"):
            layer(Tensor(np.ones((1, 6))))

    def test_fused_activation(self):
        layer = HyperDense(1, algebra="complex", activation="tanh", seed=1)
        out = layer(Tensor(np.array([[0.3, -0.4]])))
        plain = HyperDense(1, algebra="complex", seed=1)
        raw = plain(Tensor(np.array([[0.3, -0.4]])))
        npt.assert_array_equal(out.data, np.tanh(raw.data))

    def test_input_shape_builds_immediately(self):
        layer = HyperDense(10, algebra="quaternions", input_shape=(4,), seed=0)
        assert layer.built
        assert layer.weights.data.shape == (10, 1, 4)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_two_path_every_algebra(self, name):
        alg = predefined(name)
        rng = np.random.default_rng(4)
        layer = HyperDense(2, algebra=alg, seed=11)
        x = rng.standard_normal((3, 3 * alg.dim))
        out = layer(Tensor(x)).data
        ref = naive_hyperdense(alg, layer.weights.data, layer.bias.data, x)
        npt.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


class TestHyperConv:
    def test_conv_kernel_reals_is_raw(self):
        w = np.random.default_rng(5).standard_normal((3, 3, 2, 4, 1))
        kernel = assemble_conv_kernel(Tensor(w), predefined("reals"))
        npt.assert_array_equal(kernel.data, w[..., 0])

    def test_unit_kernel_identity_on_channels(self):
        alg = predefined("quaternions")
        layer = HyperConv2D(1, (1, 1), algebra=alg, seed=0)
        x = np.random.default_rng(6).standard_normal((2, 3, 3, 4))
        layer(Tensor(x))
        w = np.zeros((1, 1, 1, 1, 4))
        w[..., 0] = 1.0
        layer.weights.data = w
        layer.bias.data = np.zeros(4)
        npt.assert_allclose(layer.forward(Tensor(x)).data, x, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_two_path_matches_naive(self, d):
        alg = predefined("quaternions")
        rng = np.random.default_rng(7 + d)
        layer = CONV_BY_D[d](2, (2,) * d, algebra=alg, seed=13)
        x = rng.standard_normal((2, *(4,) * d, 8))
        out = layer(Tensor(x)).data
        ref = naive_hyperconv(alg, layer.weights.data, layer.bias.data, x)
        npt.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_stride_and_same_padding_match_naive(self):
        alg = predefined("complex")
        layer = HyperConv2D(2, (3, 3), algebra=alg, stride=2, padding="same",
                            seed=17)
        x = np.random.default_rng(10).standard_normal((1, 6, 5, 4))
        out = layer(Tensor(x)).data
        ref = naive_hyperconv(alg, layer.weights.data, layer.bias.data, x,
                              stride=2, padding="same")
        npt.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_channels_not_divisible(self):
        layer = HyperConv2D(2, (3, 3), algebra="quaternions")
        with pytest.raises(ShapeError, match="4"):
            layer(Tensor(np.ones((1, 5, 5, 6))))

    def test_output_channels_are_filters_times_dim(self):
        layer = HyperConv2D(5, (3, 3), algebra="quaternions", seed=0)
        out = layer(Tensor(np.random.default_rng(11).standard_normal((1, 8, 8, 4))))
        assert out.data.shape == (1, 6, 6, 20)

    def test_reals_reduction_bit_equal(self):
        layer = HyperConv2D(3, (2, 2), algebra="reals", seed=19)
        x = np.random.default_rng(20).standard_normal((2, 4, 4, 2))
        out = layer(Tensor(x)).data
        raw_kernel = layer.weights.data[..., 0]
        plain = T.add_bias(T.conv_nd(Tensor(x), Tensor(raw_kernel)),
                           Tensor(layer.bias.data))
        npt.assert_array_equal(out, plain.data)


class TestHelperLayers:
    def test_dense_width(self):
        layer = Dense(1)
        out = layer(Tensor(np.random.default_rng(12).standard_normal((3, 40))))
        assert out.data.shape == (3, 1)
        assert layer.param_count() == 41

    def test_activation_layers(self):
        x = Tensor(np.zeros((2, 3)))
        npt.assert_array_equal(Activation("tanh")(x).data, np.zeros((2, 3)))
        npt.assert_array_equal(Activation("sigmoid")(x).data, np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            Activation("relu")

    @pytest.mark.parametrize("name", sorted(T._ACTIVATION_RULES))
    def test_activation_layer_records_the_op_of_its_name(self, name):
        x = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3), requires_grad=True)
        out = Activation(name)(x)
        assert out._parents == (x,) and out._backward.__qualname__.split(".")[0] == name
        npt.assert_array_equal(out.data, T._ACTIVATION_RULES[name](x.data)[0])

    def test_activation_takes_its_config_key_as_its_argument(self):
        layer = Activation(activation="sigmoid")
        assert layer.activation == "sigmoid"
        assert layer.config() == {"activation": "sigmoid"}
        assert "from_config" not in vars(Activation)
        again, shape = Activation.from_config(layer.config())
        assert again.activation == "sigmoid" and shape is None

    def test_affine_layer_refuses_an_unknown_activation(self):
        with pytest.raises(ValueError, match=r"^unknown activation 'relu'; choose from "
                                             r"\['sigmoid', 'tanh'\] or None$"):
            Dense(1, activation="relu")

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4))))
        assert out.data.shape == (2, 12)

    def test_global_max_pool(self):
        x = np.zeros((1, 2, 2, 1))
        x[0, 1, 1, 0] = 4.0
        out = GlobalMaxPool()(Tensor(x))
        npt.assert_array_equal(out.data, [[4.0]])


class TestSizeArguments:
    @pytest.mark.parametrize("make,name", [
        (lambda: HyperDense(2.5), "units"),
        (lambda: HyperDense("4"), "units"),
        (lambda: HyperDense(0), "units"),
        (lambda: Dense(True), "units"),
        (lambda: Dense(1.0), "units"),
        (lambda: HyperConv2D(False, 3), "filters"),
        (lambda: HyperConv2D(-1, 3), "filters"),
        (lambda: HyperConv2D(8, (2.5, 3)), "kernel_size"),
        (lambda: HyperConv1D(2, True), "kernel_size"),
        (lambda: HyperConv3D(2, (2, 0, 2)), "kernel_size"),
    ], ids=["dense-float", "dense-str", "dense-zero", "real-bool", "real-float",
            "conv-bool", "conv-negative", "kernel-float", "kernel-bool", "kernel-zero"])
    def test_sizes_must_be_positive_ints(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be a positive int"):
            make()

    def test_numpy_ints_become_ints(self):
        layer = HyperConv2D(np.int64(3), (np.int32(2), 2), algebra="complex")
        assert type(layer.filters) is int and layer.filters == 3
        assert layer.kernel_size == (2, 2)
        assert all(type(k) is int for k in layer.kernel_size)

    def test_kernel_size_needs_one_entry_per_axis(self):
        with pytest.raises(ShapeError, match="kernel_size"):
            HyperConv2D(2, (3,))


class TestConvOptions:
    @pytest.mark.parametrize("stride", [1.5, (1.5, 1), 0, (1, 0), True, "2"])
    def test_bad_stride_fails_at_construction(self, stride):
        with pytest.raises(ValueError, match="stride must be a positive int"):
            HyperConv2D(2, 3, stride=stride)

    def test_stride_needs_one_entry_per_axis(self):
        with pytest.raises(ShapeError, match="stride"):
            HyperConv2D(2, 3, stride=(1, 1, 1))

    @pytest.mark.parametrize("padding", ["SAME", "full", None])
    def test_unknown_padding_fails_at_construction(self, padding):
        with pytest.raises(ShapeError, match="unknown padding"):
            HyperConv2D(2, 3, padding=padding)

    @pytest.mark.parametrize("stride,expected", [(2, (2, 2)), ([2, 1], (2, 1)),
                                                 (np.array([1, 2]), (1, 2))])
    def test_stride_is_a_tuple_from_construction(self, stride, expected):
        layer = HyperConv2D(2, 3, stride=stride)
        assert layer.stride == expected
        assert all(type(s) is int for s in layer.stride)

    def test_conv_nd_applies_the_same_rule(self):
        x, k = Tensor(np.ones((1, 4, 4, 1))), Tensor(np.ones((2, 2, 1, 1)))
        with pytest.raises(ValueError, match="stride must be a positive int, got 1.5"):
            T.conv_nd(x, k, stride=(1.5, 1))
        with pytest.raises(ShapeError, match="unknown padding 'SAME'"):
            T.conv_nd(x, k, padding="SAME")


class TestShapes:
    # (layer, input shape); each layer is fresh per test
    CASES = {
        "hyper_dense": (lambda: HyperDense(3, algebra="quaternions"), (2, 8)),
        "dense": (lambda: Dense(2), (2, 5)),
        "conv1d": (lambda: HyperConv1D(2, 3, algebra="complex", stride=2,
                                       padding="same"), (2, 7, 4)),
        "conv2d": (lambda: HyperConv2D(1, (2, 3), algebra="quaternions",
                                       stride=(2, 1)), (1, 5, 6, 8)),
        "conv3d": (lambda: HyperConv3D(1, 2, algebra="octonions"), (1, 3, 4, 3, 8)),
        "pool": (lambda: GlobalMaxPool(), (2, 3, 3, 4)),
        "flatten": (lambda: Flatten(), (2, 3, 4)),
        "activation": (lambda: Activation("tanh"), (2, 3)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stated_shapes_are_the_built_shapes(self, name):
        make, x_shape = self.CASES[name]
        layer = make()
        out_shape = layer.output_shape(x_shape[1:])
        params = (layer.param_shapes(x_shape[1:]) if hasattr(layer, "param_shapes")
                  else None)
        assert not layer.built
        out = layer(Tensor(np.random.default_rng(0).standard_normal(x_shape)))
        assert out.data.shape == (x_shape[0], *out_shape)
        assert layer.in_shape == x_shape[1:] and layer.out_shape == out_shape
        if params is not None:
            assert (layer.weights.data.shape, layer.bias.data.shape) == params

    def test_layers_build_only_through_the_two_base_builds(self):
        owners = {owner for cls in LAYER_CLASSES for owner in cls.__mro__
                  if "build" in vars(owner)}
        assert owners == {L.Layer, L._Affine}

    def test_conv_fans_are_receptive_field_times_channels(self):
        # a (2, 3) kernel over 8 channels to 3 quaternion filters (12 channels)
        layer = HyperConv2D(3, (2, 3), algebra="quaternions")
        layer.build((5, 5, 8), np.random.default_rng(9))
        expected = glorot_uniform((2, 3, 2, 3, 4), 6 * 8, 6 * 12,
                                  np.random.default_rng(9))
        npt.assert_array_equal(layer.weights.data, expected)


class TestInputRule:
    # (layer, built input shape, shapes it must refuse, another spatial size
    # it must accept or None); each layer is fresh per test
    CASES = {
        "hyper_dense": (lambda: HyperDense(3, algebra="quaternions"), (2, 8),
                        [(2, 12), (2, 4), (2, 2, 4), (8,)], None),
        "dense": (lambda: Dense(1), (2, 5), [(2, 6), (2, 5, 1)], None),
        "conv1d": (lambda: HyperConv1D(2, 3, algebra="complex"), (2, 7, 4),
                   [(2, 7, 2), (2, 7, 6), (2, 7)], (1, 9, 4)),
        "conv2d": (lambda: HyperConv2D(2, (2, 2), algebra="complex"), (1, 5, 5, 4),
                   [(1, 5, 5, 2), (1, 5, 5, 8), (1, 5, 20)], (2, 6, 3, 4)),
        "conv3d": (lambda: HyperConv3D(1, 2, algebra="octonions", padding="same"),
                   (1, 3, 4, 3, 8), [(1, 3, 4, 3, 16), (1, 3, 4, 24)], (1, 2, 5, 2, 8)),
    }
    CONVS = ["conv1d", "conv2d", "conv3d"]

    def built(self, name, wrap):
        """A fresh layer, run once on its input alone ("direct"), in a model,
        or in a model that fuses it with a following pool ("pooled")."""
        make, shape, refused, other = self.CASES[name]
        layer = make()
        tail = {"direct": None, "model": [], "pooled": [GlobalMaxPool()]}[wrap]
        call = layer if tail is None else Sequential([layer, *tail], seed=0).forward

        def run(shape):
            return call(Tensor(np.random.default_rng(0).standard_normal(shape)))

        run(shape)
        return layer, run, refused, other

    @pytest.mark.parametrize("name,wrap", [
        *((name, wrap) for name in sorted(CASES) for wrap in ("direct", "model")),
        *((name, "pooled") for name in CONVS)])
    def test_refuses_input_that_would_size_other_weights(self, name, wrap):
        layer, run, refused, _ = self.built(name, wrap)
        message = re.escape(f"{layer.name} built for input {layer.in_shape}")
        for shape in refused:
            with pytest.raises(ShapeError, match=message):
                run(shape)

    @pytest.mark.parametrize("wrap", ["direct", "model", "pooled"])
    def test_conv_refuses_a_spatial_size_its_kernel_does_not_fit(self, wrap):
        layer = HyperConv2D(2, (3, 3), algebra="complex")
        tail = {"direct": None, "model": [], "pooled": [GlobalMaxPool()]}[wrap]
        call = layer if tail is None else Sequential([layer, *tail], seed=0).forward
        call(Tensor(np.zeros((1, 5, 5, 4))))
        message = (r"^HyperConv2D built for input \(5, 5, 4\), got input shape "
                   r"\(1, 2, 2, 4\): kernel \(3, 3\) larger than padded input \(2, 2\)$")
        with pytest.raises(ShapeError, match=message):
            call(Tensor(np.zeros((1, 2, 2, 4))))

    def test_refusal_names_the_weights_another_width_needs(self):
        layer = HyperDense(3, algebra="quaternions")
        layer(Tensor(np.zeros((2, 8))))
        with pytest.raises(ShapeError, match=r"got input shape \(2, 12\): it needs "
                                             r"weights \(3, 3, 4\), not \(3, 2, 4\)$"):
            layer(Tensor(np.zeros((2, 12))))

    @pytest.mark.parametrize("wrap", ["direct", "model", "pooled"])
    @pytest.mark.parametrize("name", CONVS)
    def test_conv_accepts_another_spatial_size(self, name, wrap):
        layer, run, _, other = self.built(name, wrap)
        out = run(other)
        expected = layer.output_shape(other[1:])
        assert out.data.shape == (other[0], *(expected[-1:] if wrap == "pooled"
                                                else expected))

    @pytest.mark.parametrize("make,shape,layout", [
        (lambda: HyperDense(2, algebra="quaternions"), (3, 0), "width >= 1"),
        (lambda: Dense(1), (3, 0), "width >= 1"),
        (lambda: HyperConv1D(1, 2, algebra="complex"), (1, 5, 0), "channels >= 1"),
        (lambda: HyperConv2D(1, 2, algebra="complex"), (1, 5, 5, 0), "channels >= 1"),
        (lambda: HyperConv3D(1, 2, algebra="reals"), (1, 3, 3, 3, 0), "channels >= 1"),
    ], ids=["hyper_dense", "dense", "conv1d", "conv2d", "conv3d"])
    def test_zero_width_input_is_refused_naming_the_layer(self, make, shape, layout):
        layer = make()
        message = f"{layer.name} expects .*{layout}"
        with pytest.raises(ShapeError, match=message):
            layer.param_shapes(shape[1:])
        with pytest.raises(ShapeError, match=message):
            layer(Tensor(np.zeros(shape)))
        assert not layer.built
        with pytest.raises(ShapeError, match=f"cannot connect input to {layer.name}"):
            Sequential([make()], seed=0).forward(Tensor(np.zeros(shape)))


class TestInit:
    def test_deterministic_given_seed(self):
        a = HyperDense(3, algebra="quaternions", seed=21)
        b = HyperDense(3, algebra="quaternions", seed=21)
        x = Tensor(np.ones((1, 8)))
        a(x)
        b(x)
        npt.assert_array_equal(a.weights.data, b.weights.data)

    def test_bias_starts_zero(self):
        layer = HyperConv2D(2, (3, 3), algebra="complex", seed=1)
        layer(Tensor(np.ones((1, 5, 5, 2))))
        npt.assert_array_equal(layer.bias.data, np.zeros(4))

    def test_uniform_variance(self):
        # 10^5 draws should land within 5% of limit^2 / 3
        rng = np.random.default_rng(33)
        draws = np.concatenate([
            HyperDense(25, algebra="quaternions", input_shape=(400,),
                       seed=s).weights.data.ravel()
            for s in range(10)])
        assert draws.size == 10 ** 5
        limit = np.sqrt(6.0 / (400 + 100))
        expected = limit ** 2 / 3.0
        assert abs(draws.var() - expected) < 0.05 * expected

    def test_limit_uses_real_fan_widths(self):
        layer = HyperDense(10, algebra="quaternions", input_shape=(4,), seed=3)
        limit = np.sqrt(6.0 / (4 + 40))
        assert np.abs(layer.weights.data).max() <= limit


class TestUnbuiltForward:
    # a fresh seeded layer and an input shape it builds for
    CASES = {
        "hyper_dense": (lambda: HyperDense(2, algebra="complex", seed=1), (3, 4)),
        "dense": (lambda: Dense(1, seed=2), (3, 5)),
        "conv2d": (lambda: HyperConv2D(1, (2, 2), algebra="complex", seed=3),
                   (2, 4, 5, 2)),
    }

    @pytest.mark.parametrize("name,pooled", [*((name, False) for name in sorted(CASES)),
                                             ("conv2d", True)])
    def test_forward_builds_as_calling_the_layer_does(self, name, pooled):
        make, shape = self.CASES[name]
        x = Tensor(np.random.default_rng(0).standard_normal(shape))
        called, forwarded = make(), make()
        called(x)
        expected = called.forward(x, pooled=True) if pooled else called.forward(x)
        got = forwarded.forward(x, pooled=True) if pooled else forwarded.forward(x)
        assert forwarded.built and forwarded.in_shape == called.in_shape
        for a, b in zip(forwarded.params(), called.params()):
            assert a.data.tobytes() == b.data.tobytes()
        assert got.data.tobytes() == expected.data.tobytes()


class TestSeedRule:
    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True, np.bool_(True), [1]],
                             ids=["str", "negative", "float", "bool", "numpy-bool", "list"])
    @pytest.mark.parametrize("make", [lambda seed: Dense(1, seed=seed),
                                      lambda seed: HyperDense(1, seed=seed),
                                      lambda seed: HyperConv1D(1, 2, seed=seed)],
                             ids=["dense", "hyper_dense", "conv1d"])
    def test_bad_seed_is_refused_at_construction(self, make, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be None or an int >= 0, got {seed!r}")):
            make(seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint8(7)])
    def test_int_seeds_draw_as_their_value(self, seed):
        layer, same = Dense(2, seed=seed), Dense(2, seed=int(seed))
        layer.build((3,))
        same.build((3,))
        npt.assert_array_equal(layer.weights.data, same.weights.data)


class TestParameterCounts:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_dense_weight_ratio_is_dim(self, name):
        alg = predefined(name)
        n = alg.dim
        u, m = 5, 3
        hyper = HyperDense(u, algebra=alg, input_shape=(m * n,), seed=0)
        hyper_weights = hyper.weights.data.size
        real_weights = (m * n) * (u * n)
        assert hyper_weights == u * m * n
        assert real_weights == n * hyper_weights
        assert hyper.bias.data.size == u * n

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_conv_weight_ratio_is_dim(self, name):
        alg = predefined(name)
        n = alg.dim
        layer = HyperConv2D(3, (3, 3), algebra=alg, seed=0)
        layer(Tensor(np.zeros((1, 5, 5, 2 * n))))
        hyper_weights = layer.weights.data.size
        real_weights = 9 * (2 * n) * (3 * n)
        assert real_weights == n * hyper_weights


class TestGradients:
    def test_hyperdense_gradients(self):
        layer = HyperDense(3, algebra="quaternions", seed=41)
        x = Tensor(np.random.default_rng(14).standard_normal((2, 8)))
        layer(x)

        def loss(t):
            return T.tensor_sum(T.tanh(layer.forward(x)))

        assert T.finite_diff_check(loss, layer.weights) < 1e-6
        assert T.finite_diff_check(loss, layer.bias) < 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hyperconv_gradients(self, d):
        layer = CONV_BY_D[d](2, (2,) * d, algebra="complex", seed=43)
        x = Tensor(np.random.default_rng(15).standard_normal((1, *(4,) * d, 4)))
        layer(x)

        def loss(t):
            return T.tensor_sum(T.sigmoid(layer.forward(x)))

        assert T.finite_diff_check(loss, layer.weights) < 1e-6
        assert T.finite_diff_check(loss, layer.bias) < 1e-6

    def test_gradient_wrt_input_through_pool(self):
        layer = HyperConv2D(2, (2, 2), algebra="quaternions", seed=44)
        x = Tensor(np.random.default_rng(16).standard_normal((1, 4, 4, 4)),
                   requires_grad=True)
        layer(x)

        def loss(t):
            return T.tensor_sum(T.global_max_pool(layer.forward(t)))

        assert T.finite_diff_check(loss, x) < 1e-6


class TestFloat32:
    def test_forward_stays_float32(self):
        layer = HyperDense(3, algebra="quaternions", seed=0, dtype=np.float32)
        out = layer(Tensor(np.eye(4, dtype=np.float32)))
        assert out.data.dtype == np.float32
        assert layer.weights.data.dtype == np.float32

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            Dense(1, dtype=np.int32)

    def test_gradients_match_float64_reference(self):
        # float32 values embed exactly in float64, so the same point can
        # be evaluated at both precisions; the float64 gradient is the
        # finite-difference-validated reference
        f32 = HyperDense(2, algebra="quaternions", seed=3, dtype=np.float32)
        x32 = np.random.default_rng(17).standard_normal((3, 8)).astype(np.float32)
        f32(Tensor(x32))
        f64 = HyperDense(2, algebra="quaternions", seed=3)
        f64(Tensor(x32.astype(np.float64)))
        f64.weights.data = f32.weights.data.astype(np.float64)
        f64.bias.data = f32.bias.data.astype(np.float64)

        for layer, x in ((f32, Tensor(x32)), (f64, Tensor(x32.astype(np.float64)))):
            T.zero_grad(layer.params())
            T.tensor_sum(T.tanh(layer.forward(x))).backward()
        ref = f64.weights.grad
        got = f32.weights.grad.astype(np.float64)
        denom = np.maximum(np.abs(ref), 1e-8)
        assert (np.abs(got - ref) / denom).max() < 1e-4


class TestActivationRule:
    CHOICES = r"choose from \['sigmoid', 'tanh'\]"

    @pytest.mark.parametrize("name", [[], {}, ("tanh",), 1, b"tanh", "relu"], ids=repr)
    @pytest.mark.parametrize("make", [lambda a: Dense(1, activation=a),
                                      lambda a: HyperDense(1, activation=a),
                                      lambda a: HyperConv2D(1, 3, activation=a)],
                             ids=["Dense", "HyperDense", "HyperConv2D"])
    def test_affine_layers_refuse_a_name_that_is_no_activation(self, make, name):
        message = f"^unknown activation {re.escape(repr(name))}; {self.CHOICES} or None$"
        with pytest.raises(ValueError, match=message):
            make(name)

    @pytest.mark.parametrize("name", [[], {}, ("tanh",), 1, b"tanh", "relu", None],
                             ids=repr)
    def test_activation_layer_refuses_a_name_that_is_no_activation(self, name):
        message = f"^unknown activation {re.escape(repr(name))}; {self.CHOICES}$"
        with pytest.raises(ValueError, match=message):
            Activation(name)

    def test_affine_layers_take_none(self):
        assert Dense(1).activation is None
        assert HyperDense(1, activation=None).activation is None
