import inspect

import numpy as np
import numpy.testing as npt
import pytest

from khnn import tensor as T
from khnn.tensor import ShapeError, Tensor

from conftest import naive_conv_nd


class TestElementwise:
    def test_add_same_shape(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        npt.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0, 2.0]) + 1.5
        npt.assert_array_equal(out.data, [2.5, 3.5])

    def test_add_shape_mismatch(self):
        for a, b in [(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]])),
                     (Tensor(1.0), Tensor(np.ones((2, 2))))]:
            with pytest.raises(ShapeError):
                T.add(a, b)

    def test_zero_d_operands_follow_the_equal_shape_rule(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(3.0, requires_grad=True)
        T.mul(T.add(x, y), y).backward()
        assert (x.grad, y.grad) == (3.0, 8.0)
        with pytest.raises(ShapeError):
            T.mul(x, Tensor(np.ones((2, 2))))

    def test_mul_and_neg(self):
        out = T.neg(T.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])))
        npt.assert_array_equal(out.data, [-3.0, -8.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor(0.0)).data == 0.5

    def test_tanh_zero(self):
        assert T.tanh(Tensor(0.0)).data == 0.0

    def test_log(self):
        npt.assert_allclose(T.log(Tensor([1.0, np.e])).data, [0.0, 1.0])

    def test_clip_values(self):
        out = T.clip(Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0)
        npt.assert_array_equal(out.data, [0.0, 0.5, 1.0])

    def test_add_bias(self):
        out = T.add_bias(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
        npt.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_bias_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            T.add_bias(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))


class TestReductionsAndShapes:
    def test_sum_all(self):
        assert T.tensor_sum(Tensor([[1.0, 2.0], [3.0, 4.0]])).data == 10.0

    def test_sum_axis(self):
        out = T.tensor_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        npt.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean(self):
        assert T.mean(Tensor([1.0, 2.0, 3.0])).data == 2.0

    def test_reshape_and_flatten(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert T.flatten(x).data.shape == (2, 12)
        assert T.reshape(x, (4, 6)).data.shape == (4, 6)
        with pytest.raises(ShapeError):
            T.reshape(x, (5, 5))

    def test_global_max_pool_example(self):
        x = Tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]).reshape(1, 2, 2, 1))
        out = T.global_max_pool(x)
        npt.assert_array_equal(out.data, [[4.0]])

    def test_global_max_pool_ties_route_to_first(self):
        # (B, S, C) = (2, 4, 2) viewed as a 2x2 image; most maxima repeat
        flat = np.array([[[2.0, 5.0], [7.0, 5.0], [7.0, 0.0], [1.0, 5.0]],
                         [[7.0, 3.0], [1.0, 3.0], [1.0, 3.0], [7.0, 3.0]]])
        x = Tensor(flat.reshape(2, 2, 2, 2), requires_grad=True)
        out = T.global_max_pool(x)
        with T.no_grad():
            untaped = T.global_max_pool(x)
        assert untaped._parents == ()
        npt.assert_array_equal(out.data, [[7.0, 5.0], [7.0, 3.0]])
        npt.assert_array_equal(untaped.data, out.data)
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        T.tensor_sum(T.mul(out, Tensor(weights))).backward()
        first = np.zeros_like(flat)
        first[0, 1, 0], first[0, 0, 1], first[1, 0, 0], first[1, 0, 1] = weights.ravel()
        npt.assert_array_equal(x.grad, first.reshape(2, 2, 2, 2))

    def test_global_max_pool_needs_spatial(self):
        with pytest.raises(ShapeError):
            T.global_max_pool(Tensor([[1.0, 2.0]]))


class TestMatmul:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 2))
        out = T.matmul(Tensor(np.eye(2)), Tensor(x))
        npt.assert_array_equal(out.data, x)

    def test_hand_example(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_one_dimensional_operands_are_refused(self):
        with pytest.raises(ShapeError, match=r"^matmul is 2-D only, got \(3,\) @ \(3, 2\)"):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_backward_vs_finite_difference(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 2)))

        def loss_a(t):
            return T.tensor_sum(T.mul(T.matmul(t, b), c))

        def loss_b(t):
            return T.tensor_sum(T.mul(T.matmul(a, t), c))

        assert T.finite_diff_check(loss_a, a) < 1e-6
        assert T.finite_diff_check(loss_b, b) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_expand_blocks(self, dtype):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((2, 3, 4)).astype(dtype)
        table = rng.standard_normal((4, 4, 4))
        x = Tensor(data, requires_grad=True)
        out = T.expand_blocks(x, table, (1, 2, 0, 3), (12, 8))
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        # (a, b, j, k) -> (b, j, a, k)
        expected = np.einsum("abi,ijk->bjak", data.astype(np.float64), table)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        npt.assert_allclose(out.data, expected.reshape(12, 8), rtol=tol, atol=tol)
        weight = rng.standard_normal((12, 8))
        T.tensor_sum(T.mul(out, Tensor(weight, dtype=dtype))).backward()
        npt.assert_allclose(x.grad, np.einsum("ijk,bjak->abi", table,
                                              weight.reshape(3, 4, 2, 4)),
                            rtol=tol, atol=tol)
        with pytest.raises(ShapeError):
            T.expand_blocks(x, np.ones((3, 3, 3)), (1, 2, 0, 3), (9, 6))


class TestConv:
    def test_ones_box_sums_to_nine(self):
        x = Tensor(np.ones((1, 3, 3, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = T.conv_nd(x, k)
        npt.assert_array_equal(out.data, np.full((1, 1, 1, 1), 9.0))

    def test_kernel_without_a_spatial_axis_is_refused(self):
        with pytest.raises(ShapeError, match=r"^conv kernel must have 1-3 spatial axes, "
                                             r"got shape \(1, 1\)$"):
            T.conv_nd(Tensor(np.ones((1, 3, 1))), Tensor(np.ones((1, 1))))

    def test_input_rank_must_match_the_kernel(self):
        with pytest.raises(ShapeError, match=r"^conv input \(1, 3, 1\) does not match "
                                             r"kernel \(1, 1, 1, 1\)$"):
            T.conv_nd(Tensor(np.ones((1, 3, 1))), Tensor(np.ones((1, 1, 1, 1))))

    def test_one_by_one_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 1))
        out = T.conv_nd(Tensor(x), Tensor(np.ones((1, 1, 1))))
        npt.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_naive_loops(self, d):
        rng = np.random.default_rng(3 + d)
        x = rng.standard_normal((1, *(5,) * d, 4))
        k = rng.standard_normal((*(3,) * d, 4, 8 if d < 3 else 2))
        out = T.conv_nd(Tensor(x), Tensor(k))
        npt.assert_allclose(out.data, naive_conv_nd(x, k), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(2, "valid"), (1, "same"), (2, "same")])
    def test_stride_and_padding_match_naive(self, stride, padding):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 6, 7, 3))
        k = rng.standard_normal((3, 2, 3, 4))
        out = T.conv_nd(Tensor(x), Tensor(k), stride=stride, padding=padding)
        expected = naive_conv_nd(x, k, stride=stride, padding=padding)
        assert out.data.shape == expected.shape
        npt.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            T.conv_nd(Tensor(np.ones((1, 2, 2, 1))), Tensor(np.ones((3, 3, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv_nd(Tensor(np.ones((1, 4, 2))), Tensor(np.ones((3, 3, 1))))

    def test_gradients_both_operands(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 5, 5, 2)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, 2, 3)), requires_grad=True)

        def loss_x(t):
            return T.tensor_sum(T.tanh(T.conv_nd(t, k)))

        def loss_k(t):
            return T.tensor_sum(T.tanh(T.conv_nd(x, t)))

        assert T.finite_diff_check(loss_x, x) < 1e-6
        assert T.finite_diff_check(loss_k, k) < 1e-6

    def test_strided_gradient(self):
        rng = np.random.default_rng(5)
        k = Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 7, 2)))

        def loss(t):
            return T.tensor_sum(T.conv_nd(x, t, stride=2, padding="same"))

        assert T.finite_diff_check(loss, k) < 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.tensor_sum(w).backward()
        npt.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_sum_of_squares(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        T.tensor_sum(T.mul(w, w)).backward()
        npt.assert_array_equal(w.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tensor_sum(w)
        loss.backward()
        loss.backward()
        npt.assert_array_equal(w.grad, [2.0, 2.0])
        T.zero_grad([w])
        assert w.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        w = Tensor([3.0], requires_grad=True)
        out = T.add(T.mul(w, 2.0), T.mul(w, 5.0))
        T.tensor_sum(out).backward()
        npt.assert_array_equal(w.grad, [7.0])

    @pytest.mark.parametrize("extra_on,swap", [(0, False), (0, True),
                                               (1, False), (1, True)])
    def test_shared_gradient_buffers_stay_isolated(self, extra_on, swap):
        # add hands the same upstream array to both parents; a second path
        # into one of them must not leak into the other
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([5.0, 6.0], requires_grad=True)
        both = T.tensor_sum(T.add(x, y))
        extra = T.tensor_sum(T.mul(x if extra_on == 0 else y, 3.0))
        loss = T.add(both, extra) if not swap else T.add(extra, both)
        loss.backward()
        expected = {0: ([4.0, 4.0], [1.0, 1.0]),
                    1: ([1.0, 1.0], [4.0, 4.0])}[extra_on]
        npt.assert_array_equal(x.grad, expected[0])
        npt.assert_array_equal(y.grad, expected[1])

    def test_scalar_leaf_backward_sets_unit_grad(self):
        w = Tensor(2.0, requires_grad=True)
        w.backward()
        assert w.grad == 1.0

    def test_three_consumers_sum_their_shares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([4.0, 5.0], requires_grad=True)
        loss = T.add(T.add(T.tensor_sum(T.mul(x, 2.0)), T.tensor_sum(T.mul(x, 3.0))),
                     T.tensor_sum(T.mul(x, w)))
        loss.backward()
        npt.assert_array_equal(x.grad, [2.0 + 3.0 + 4.0, 2.0 + 3.0 + 5.0])
        npt.assert_array_equal(w.grad, [1.0, 2.0])

    def test_each_backward_rule_runs_once_per_walk(self):
        # a diamond (x -> a, b -> c) followed by a chain (c -> d -> e -> loss)
        x = Tensor([0.5, -1.0], requires_grad=True)
        c = T.add(T.mul(x, 2.0), T.tanh(x))
        loss = T.tensor_sum(T.sigmoid(T.neg(c)))
        calls = {}

        def counted(node):
            rule = node._backward

            def wrapper(g):
                calls[id(node)] = calls.get(id(node), 0) + 1
                return rule(g)
            node._backward = wrapper

        nodes, todo = {}, [loss]
        while todo:
            t = todo.pop()
            if id(t) not in nodes and t._backward is not None:
                nodes[id(t)] = t
                todo.extend(t._parents)
        for node in nodes.values():
            counted(node)
        assert len(nodes) == 6
        loss.backward()
        assert calls == {key: 1 for key in nodes}
        loss.backward()
        assert calls == {key: 2 for key in nodes}

    def test_leaves_never_share_a_gradient_array(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        T.tensor_sum(T.add(x, y)).backward()
        assert x.grad is not y.grad
        x.grad[0] = 7.0
        npt.assert_array_equal(y.grad, [1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            T.mul(w, w).backward()

    def test_detached_loss_rejected(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_no_grad_blocks_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            out = T.mul(w, w)
        assert not out.requires_grad
        assert out._parents == ()


# a non-unital, non-commutative (2, 2, 2) structure tensor
_TABLE = np.array([[[0.5, -1.0], [2.0, 0.25]], [[-0.75, 1.5], [1.0, -2.0]]])
# conv_global_max_pool operands whose other side is checked: both always
# record, so one backward runs the patch gather and the input scatter
_POOL_KERNEL = np.array([0.7, -0.4, -1.1, 0.9, 0.3, 1.3, 1.2, -0.5, -0.2, 0.8,
                         0.6, -1.3]).reshape(3, 2, 1, 2)
_POOL_INPUT = np.array([[[0.2], [-1.4], [0.9], [1.7], [-0.6]],
                        [[1.1], [0.4], [-0.8], [-1.9], [0.5]]])              # (2, 5, 1)


_BCE_TARGET = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])


class TestBinaryCrossEntropy:
    def test_one_tape_node_over_the_prediction(self):
        pred = Tensor([0.3, 0.6], requires_grad=True)
        loss = T.binary_cross_entropy(pred, Tensor([0.0, 1.0]), 1e-7)
        assert loss._parents == (pred,)
        assert T.binary_cross_entropy(Tensor([0.3]), Tensor([1.0]), 1e-7)._backward is None

    def test_shapes_must_match(self):
        with pytest.raises(ShapeError, match=r"binary_cross_entropy: shapes \(2,\) and \(2, 1\)"):
            T.binary_cross_entropy(Tensor([0.5, 0.5]), Tensor([[1.0], [0.0]]), 1e-7)


class TestOpGradients:
    # every differentiable op, checked one at a time against central
    # differences through a fixed linear functional (lo, hi) bound the
    # input range; log needs strictly positive values
    CASES = {
        "add": (lambda t: T.add(t, Tensor(np.full(t.data.shape, 0.3))), -0.9, 0.9),
        "add_scalar": (lambda t: T.add(t, 1.7), -0.9, 0.9),
        "add_bias": (lambda t: T.add_bias(Tensor(np.ones((3, 6))), t), -0.9, 0.9),
        "mul": (lambda t: T.mul(t, Tensor(np.full(t.data.shape, -0.8))), -0.9, 0.9),
        "mul_scalar": (lambda t: T.mul(t, 2.5), -0.9, 0.9),
        "neg": (T.neg, -0.9, 0.9),
        "tanh": (T.tanh, -0.9, 0.9),
        "sigmoid": (T.sigmoid, -0.9, 0.9),
        "log": (T.log, 0.5, 1.5),
        "clip": (lambda t: T.clip(t, -0.4, 0.4), -0.9, 0.9),
        "binary_cross_entropy": (lambda t: T.binary_cross_entropy(
            t, Tensor(_BCE_TARGET), 1e-7), 0.1, 0.9),
        # entries outside [0.3, 0.7] are clamped and pass no gradient
        "binary_cross_entropy_clamped": (lambda t: T.binary_cross_entropy(
            t, Tensor(_BCE_TARGET), 0.3), 0.0, 1.0),
        "tensor_sum_axis": (lambda t: T.tensor_sum(T.reshape(t, (2, 3)), axis=1),
                            -0.9, 0.9),
        "mean": (T.mean, -0.9, 0.9),
        "mean_axis": (lambda t: T.mean(T.reshape(t, (2, 3)), axis=0), -0.9, 0.9),
        "global_max_pool": (lambda t: T.global_max_pool(T.reshape(t, (1, 3, 2))),
                            -0.9, 0.9),
        "conv_global_max_pool": (lambda t: T.conv_global_max_pool(
            T.reshape(t, (1, 3, 2, 1)), Tensor(_POOL_KERNEL, requires_grad=True),
            stride=(2, 1), padding="same"), -0.9, 0.9),
        "conv_global_max_pool_kernel": (lambda t: T.conv_global_max_pool(
            Tensor(_POOL_INPUT, requires_grad=True), T.reshape(t, (3, 1, 2)),
            stride=2, padding="same"), -0.9, 0.9),
        "expand_blocks": (lambda t: T.expand_blocks(T.reshape(t, (3, 2)), _TABLE,
                                                    (1, 0, 2), (2, 6)), -0.9, 0.9),
        "reshape": (lambda t: T.reshape(t, (3, 2)), -0.9, 0.9),
        "flatten": (lambda t: T.flatten(T.reshape(t, (2, 3))), -0.9, 0.9),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_gradient(self, name):
        import zlib

        op, lo, hi = self.CASES[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        t = Tensor(rng.uniform(lo, hi, 6), requires_grad=True)
        probe = op(t)
        weights = Tensor(rng.uniform(0.5, 1.5, probe.data.shape))

        def loss(tt):
            return T.tensor_sum(T.mul(op(tt), weights))

        assert T.finite_diff_check(loss, t) < 1e-6

    # public functions of khnn.tensor that record no tape node of their own
    NOT_OPS = {"no_grad", "zero_grad", "finite_diff_check"}
    # ops with a dedicated finite-difference test instead of a CASES entry
    DEDICATED = {"matmul": (TestMatmul, "test_backward_vs_finite_difference"),
                 "conv_nd": (TestConv, "test_gradients_both_operands")}

    def test_every_tape_op_has_a_gradient_check(self):
        public = {name: fn for name, fn in vars(T).items()
                  if inspect.isfunction(fn) and fn.__module__ == T.__name__
                  and not name.startswith("_")}
        assert self.NOT_OPS <= set(public)
        # a case named <op> or <op>_<variant> checks that op
        checked = set()
        for key in self.CASES:
            parts = key.split("_")
            checked |= {public.get("_".join(parts[:i])) for i in range(1, len(parts) + 1)}
        for name, (cls, test) in self.DEDICATED.items():
            assert hasattr(cls, test), f"{name}: no test {cls.__name__}.{test}"
            checked.add(public[name])
        missing = sorted(name for name, fn in public.items()
                         if name not in self.NOT_OPS and fn not in checked)
        assert missing == []


class TestFiniteDiff:
    def test_sum_is_exact_up_to_rounding(self):
        w = Tensor(np.random.default_rng(6).standard_normal(4), requires_grad=True)
        assert T.finite_diff_check(T.tensor_sum, w) < 1e-9

    def test_sum_of_squares_tight(self):
        w = Tensor(np.random.default_rng(7).standard_normal(5), requires_grad=True)
        assert T.finite_diff_check(lambda t: T.tensor_sum(T.mul(t, t)), w) < 1e-8

    def test_through_conv(self):
        rng = np.random.default_rng(8)
        k = Tensor(rng.standard_normal((2, 2, 1, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 4, 4, 1)))
        err = T.finite_diff_check(
            lambda t: T.tensor_sum(T.sigmoid(T.conv_nd(x, t))), k)
        assert err < 1e-6


    def test_non_scalar_function_is_refused(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="^finite_diff_check needs a scalar-valued"):
            T.finite_diff_check(lambda t: T.mul(t, t), w)


class TestDeterminism:
    def test_same_inputs_bit_identical(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        for _ in range(3):
            a1, b1 = rng1.standard_normal((4, 5)), rng1.standard_normal((5, 2))
            a2, b2 = rng2.standard_normal((4, 5)), rng2.standard_normal((5, 2))
            out1 = T.matmul(Tensor(a1), Tensor(b1)).data
            out2 = T.matmul(Tensor(a2), Tensor(b2)).data
            assert np.array_equal(out1, out2)


class TestComplexRefused:
    @pytest.mark.parametrize("dtype", [None, np.float32, np.float64])
    def test_complex_data_is_refused_not_cut_to_its_real_part(self, dtype):
        with pytest.raises(ValueError, match="complex data is refused: an algebra element "
                                             "is a row of real coordinates"):
            Tensor(np.array([1 + 2j]), dtype=dtype)

    def test_real_data_keeps_its_float_dtype(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor([1, 2], dtype=np.float32).data.dtype == np.float32
