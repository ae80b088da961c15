import inspect
import itertools
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from khnn import tensor as T
from khnn.layers import Activation, HyperDense
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

    def test_add_bias_rejects_an_input_without_a_last_axis(self):
        with pytest.raises(ShapeError, match=r"^add_bias: bias \(1,\) does not fit "
                                             r"last axis of \(\)$"):
            T.add_bias(Tensor(1.0), Tensor([1.0]))

    def test_add_bias_applies_the_activation(self):
        out = T.add_bias(Tensor([[0.0, 1.0]]), Tensor([0.0, -1.0]), "sigmoid")
        npt.assert_array_equal(out.data, [[0.5, 0.5]])
        npt.assert_array_equal(T.add_bias(Tensor([[0.0]]), Tensor([0.0]), "tanh").data, [[0.0]])

    @pytest.mark.parametrize("activation", ["relu", "", 1, ["tanh"]])
    def test_add_bias_refuses_an_unknown_activation(self, activation):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown activation {activation!r}; choose from ['sigmoid', 'tanh'] or None")):
            T.add_bias(Tensor(np.ones((1, 1))), Tensor(np.ones(1)), activation)


class TestSigmoidOverflow:
    """sigmoid far below 0, through every path that runs its rule: no
    overflow warning, and a finite value and gradient."""

    # each path computes sigmoid(z) of a (B, 1) z
    PATHS = {
        "sigmoid": T.sigmoid,
        "Activation": lambda z: Activation("sigmoid")(z),
        "linear": lambda z: T.linear(z, Tensor([[1.0]], dtype=z.data.dtype),
                                     Tensor([0.0], dtype=z.data.dtype), "sigmoid"),
        "add_bias": lambda z: T.add_bias(z, Tensor([0.0], dtype=z.data.dtype), "sigmoid"),
    }

    @pytest.mark.parametrize("dtype,z", [(np.float32, -100.0), (np.float64, -800.0)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_far_below_zero_is_finite_without_a_warning(self, path, dtype, z):
        x = Tensor(np.full((2, 1), z), requires_grad=True, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.PATHS[path](x)
            T.tensor_sum(out).backward()
        assert out.data.dtype == dtype
        assert np.isfinite(out.data).all() and (out.data >= 0).all()
        assert np.isfinite(x.grad).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_bound_is_the_largest_finite_exponent(self, dtype):
        bound = T._EXP_MAX[np.dtype(dtype)]
        assert bound.dtype == dtype and np.isfinite(np.exp(bound))
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(np.nextafter(bound, dtype(np.inf))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_z_inside_the_bound_keeps_its_bits(self, dtype):
        bound = T._EXP_MAX[np.dtype(dtype)]
        z = -np.array([bound, np.nextafter(bound, dtype(0)), 30.0, 0.0, -5.0], dtype=dtype)
        unclamped = 1.0 / (1.0 + np.exp(-z))
        assert T.sigmoid(Tensor(z)).data.tobytes() == unclamped.tobytes()


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



class TestLinear:
    def test_hand_example(self):
        out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 0.5], [4.0, -1.0]]),
                       Tensor([0.5, 1.5]))
        npt.assert_array_equal(out.data, [[11.5, 0.0]])
        npt.assert_array_equal(T.linear(Tensor([[0.0]]), Tensor([[1.0]]), Tensor([0.0]),
                                        "sigmoid").data, [[0.5]])

    def test_records_one_node_over_all_three_operands(self):
        x, w, b = (Tensor(np.ones(s), requires_grad=True) for s in ((2, 3), (3, 4), (4,)))
        out = T.linear(x, w, b, "tanh")
        assert out._parents == (x, w, b)
        assert all(p._backward is None for p in out._parents)

    def test_operands_that_do_not_record_get_no_gradient(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        b = Tensor(np.zeros(4), requires_grad=True)
        T.tensor_sum(T.linear(x, w, b)).backward()
        assert x.grad is None and w.grad is None
        npt.assert_array_equal(b.grad, [2.0, 2.0, 2.0, 2.0])
        assert T.linear(x, w, Tensor(np.zeros(4)))._backward is None

    @pytest.mark.parametrize("x_shape,w_shape,b_shape,message", [
        ((2, 3), (2, 4), (4,), r"^linear: inner dims differ, \(2, 3\) @ \(2, 4\)$"),
        ((3,), (3, 4), (4,), r"^linear is 2-D only, got \(3,\) @ \(3, 4\)$"),
        ((2, 3), (3, 4), (3,), r"^linear: bias \(3,\) does not fit last axis of \(2, 4\)$"),
        ((2, 3), (3, 4), (1, 4), r"^linear: bias \(1, 4\) does not fit last axis of \(2, 4\)$"),
    ])
    def test_shapes_are_checked(self, x_shape, w_shape, b_shape, message):
        with pytest.raises(ShapeError, match=message):
            T.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("activation", ["relu", "", 1, ["tanh"]])
    def test_unknown_activation_is_refused(self, activation):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown activation {activation!r}; choose from ['sigmoid', 'tanh'] or None")):
            T.linear(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))), Tensor(np.ones(1)),
                     activation)

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

    @staticmethod
    def two_branch_geometry(s, k, st, padding):
        """The per-padding rule conv_nd used before its one formula."""
        if padding == "valid":
            return (0, 0), (s - k) // st + 1, s
        out = -(-s // st)
        total = max((out - 1) * st + k - s, 0)
        return (total // 2, total - total // 2), out, s + total

    def test_one_geometry_formula_equals_the_two_branch_rule(self):
        for s, k, st, padding in itertools.product(range(0, 10), range(1, 5), range(1, 4),
                                                   ("valid", "same")):
            pads, out, padded = self.two_branch_geometry(s, k, st, padding)
            if k > padded:
                with pytest.raises(ShapeError, match=rf"^kernel \({k},\) larger than "
                                                     rf"padded input \({padded},\)$"):
                    T._conv_geometry((s,), (k,), st, padding)
            else:
                assert T._conv_geometry((s,), (k,), st, padding) == ((st,), (pads,), (out,))

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


# (input spatial, kernel spatial) per d. With a batch of 7, blocks of 1
# and 7 rows split every case: one image per block where the positions
# outnumber the block, and a ragged tail in 1-D at stride 2, where a block
# holds 2 or 3 images. At the default, the 2-D cases at stride 1 (196 and
# 256 positions) split into full blocks and a ragged one.
_BLOCK_CASES = {1: ((6,), (3,)), 2: ((16, 16), (3, 3)), 3: ((3, 4, 5), (2, 2, 3))}
_BLOCK_ROWS = [1, 7, pytest.param(None, id="default")]


class TestConvGlobalMaxPoolBlocks:
    """conv_global_max_pool against global_max_pool(conv_nd(...)) over several blocks."""

    @staticmethod
    def fused_and_chain(x, kernel, stride, padding, weights):
        """(value, x.grad, kernel.grad) of sum(op(x, kernel) * weights) for both ops."""
        results = []
        for op in (T.conv_global_max_pool,
                   lambda *args, **kw: T.global_max_pool(T.conv_nd(*args, **kw))):
            xt, kt = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
            out = op(xt, kt, stride=stride, padding=padding)
            T.tensor_sum(T.mul(out, Tensor(weights, dtype=x.dtype))).backward()
            results.append((out.data, xt.grad, kt.grad))
        return results

    @pytest.mark.parametrize("rows", _BLOCK_ROWS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_unfused_chain(self, monkeypatch, d, padding, stride, dtype, rows):
        if rows is not None:
            monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", rows)
        spatial, ksize = _BLOCK_CASES[d]
        rng = np.random.default_rng([d, stride, padding == "same"])
        x = rng.standard_normal((7, *spatial, 2)).astype(dtype)
        kernel = rng.standard_normal((*ksize, 2, 3)).astype(dtype)
        weights = rng.uniform(0.5, 1.5, (7, 3))
        fused, chain = self.fused_and_chain(x, kernel, stride, padding, weights)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for got, want in zip(fused, chain):
            assert got.dtype == want.dtype == dtype
            npt.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("rows", _BLOCK_ROWS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ties_on_a_constant_input_go_to_the_first_maximum(self, monkeypatch, d,
                                                              padding, dtype, rows):
        # small integers keep every sum exact in any order, so positions
        # tie exactly and both ops must pick the same, first, maximum
        if rows is not None:
            monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", rows)
        spatial, ksize = _BLOCK_CASES[d]
        rng = np.random.default_rng(d)
        x = np.ones((7, *spatial, 2), dtype=dtype)
        kernel = rng.integers(-3, 4, (*ksize, 2, 3)).astype(dtype)
        weights = rng.integers(1, 4, (7, 3))
        fused, chain = self.fused_and_chain(x, kernel, 1, padding, weights)
        for got, want in zip(fused, chain):
            npt.assert_array_equal(got, want)
        if padding == "valid":
            # every position ties, so only the first patch of x gets a gradient
            outside = np.ones(x.shape, dtype=bool)
            outside[(slice(None), *(slice(0, k) for k in ksize))] = False
            assert (fused[1][outside] == 0).all()


def _force_pool_path(monkeypatch, split):
    """Make conv_global_max_pool take the split path at any batch, or never."""
    monkeypatch.setattr(T, "_two_cpus", lambda: split)
    monkeypatch.setattr(T, "_SPLIT_MIN_CHUNKS", 0)


def _spy_pool_chunks(monkeypatch):
    """A list that gets (thread id, starts, idx) of every _pool_chunks call."""
    calls, real = [], T._pool_chunks

    def spy(*args):
        calls.append((threading.get_ident(), args[-3], args[-1]))
        return real(*args)

    monkeypatch.setattr(T, "_pool_chunks", spy)
    return calls


class TestConvGlobalMaxPoolSplit:
    """The helper-thread path of conv_global_max_pool against its serial path."""

    @staticmethod
    def run(monkeypatch, split, x, kernel, stride=1, padding="valid"):
        """(output, block-major idx, x.grad, kernel.grad, _pool_chunks calls) on one path."""
        with monkeypatch.context() as m:
            _force_pool_path(m, split)
            calls = _spy_pool_chunks(m)
            xt, kt = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
            out = T.conv_global_max_pool(xt, kt, stride=stride, padding=padding)
        if len(x):
            weights = np.random.default_rng(1).uniform(0.5, 1.5, out.data.shape)
            T.tensor_sum(T.mul(out, Tensor(weights, dtype=x.dtype))).backward()
        return out.data, calls[0][2], xt.grad, kt.grad, calls

    def both_paths(self, monkeypatch, x, kernel, **options):
        serial = self.run(monkeypatch, False, x, kernel, **options)
        split = self.run(monkeypatch, True, x, kernel, **options)
        assert {thread for thread, *_ in serial[-1]} == {threading.get_ident()}
        for got, want in zip(split[:-1], serial[:-1]):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        return serial, split

    @pytest.mark.parametrize("rows", [1, 7, 13])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_split_matches_serial_bit_for_bit(self, monkeypatch, d, padding, stride,
                                              dtype, rows):
        # small blocks make many chunks, and a batch of 23 a ragged last block
        monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", rows)
        spatial, ksize = _BLOCK_CASES[d]
        rng = np.random.default_rng([d, stride, rows])
        x = rng.standard_normal((23, *spatial, 2)).astype(dtype)
        kernel = rng.standard_normal((*ksize, 2, 3)).astype(dtype)
        _, split = self.both_paths(monkeypatch, x, kernel, stride=stride, padding=padding)
        # the caller and one helper thread, drawing from one iterator of chunks
        chunks = {thread: starts for thread, starts, _ in split[-1]}
        assert len(chunks) == 2 and threading.get_ident() in chunks
        first, second = chunks.values()
        assert first is second and next(first, None) is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ties_on_a_constant_input_go_the_same_way(self, monkeypatch, d, dtype):
        monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", 7)
        spatial, ksize = _BLOCK_CASES[d]
        x = np.ones((11, *spatial, 2), dtype=dtype)
        kernel = np.random.default_rng(d).integers(-3, 4, (*ksize, 2, 3)).astype(dtype)
        self.both_paths(monkeypatch, x, kernel)

    def test_a_zero_batch_gives_the_same_empty_output(self, monkeypatch):
        x, kernel = np.zeros((0, 6, 6, 2)), np.ones((3, 3, 2, 3))
        _, split = self.both_paths(monkeypatch, x, kernel)
        assert split[0].shape == (0, 3) and len(split[-1]) == 2

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_output_is_the_transpose_of_a_c_contiguous_array(self, monkeypatch, split):
        # the Dense GEMM after the op reads this layout: returning a
        # C-ordered (B, C_out) array instead moved a 30-epoch synth fit's
        # Dense bias by 3.1e-15 relative, far inside every tolerance test
        monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", 7)
        rng = np.random.default_rng(2)
        out = self.run(monkeypatch, split, rng.standard_normal((9, 6, 6, 2)),
                       rng.standard_normal((3, 3, 2, 4)))[0]
        assert out.shape == (9, 4)
        assert out.T.flags.c_contiguous and not out.flags.c_contiguous

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_an_error_in_one_thread_comes_after_both_stop(self, monkeypatch, where):
        monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", 7)
        rng = np.random.default_rng(3)
        x, kernel = rng.standard_normal((12, 6, 6, 2)), rng.standard_normal((3, 3, 2, 3))
        stopped, real = [], T._pool_chunks

        def failing(*args):
            on_helper = threading.get_ident() != threading.main_thread().ident
            if on_helper == (where == "helper"):
                raise ArithmeticError("injected")
            time.sleep(0.05)
            real(*args)
            stopped.append(True)

        with monkeypatch.context() as m:
            _force_pool_path(m, True)
            m.setattr(T, "_pool_chunks", failing)
            with pytest.raises(ArithmeticError, match="injected"):
                T.conv_global_max_pool(x, kernel)
            assert stopped == [True]
        # the next call works, on either path
        want = self.run(monkeypatch, False, x, kernel)[0]
        assert self.run(monkeypatch, True, x, kernel)[0].tobytes() == want.tobytes()


class TestConvGlobalMaxPoolZeroBatch:
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_backward_gives_zero_gradients_in_the_operands_shapes(self, monkeypatch, split):
        _force_pool_path(monkeypatch, split)
        x = Tensor(np.zeros((0, 6, 6, 2)), requires_grad=True)
        kernel = Tensor(np.ones((3, 3, 2, 5)), requires_grad=True)
        out = T.conv_global_max_pool(x, kernel)
        T.tensor_sum(T.mul(out, Tensor(np.ones((0, 5))))).backward()
        assert x.grad.shape == (0, 6, 6, 2)
        npt.assert_array_equal(kernel.grad, np.zeros((3, 3, 2, 5)))


def _run_python(code):
    """Run code in a fresh interpreter that imports this tree's khnn."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)


# a split on every call, with a serial result to compare it with
_SPLIT_SETUP = """
import atexit, threading
import numpy as np
from khnn import tensor as T
T._POOL_BLOCK_ROWS, T._SPLIT_MIN_CHUNKS = 7, 0
rng = np.random.default_rng(6)
x, kernel = rng.standard_normal((16, 6, 6, 2)), rng.standard_normal((3, 3, 2, 3))
T._two_cpus = lambda: False
want = T.conv_global_max_pool(x, kernel).data.tobytes()
T._two_cpus = lambda: True

def split():
    print(T.conv_global_max_pool(x, kernel).data.tobytes() == want, flush=True)
"""


class TestConvPoolHelperThread:
    """The helper thread lives for one split call, wherever that call runs."""

    def test_import_starts_no_thread(self):
        done = _run_python("import _thread, threading, khnn; "
                           "assert threading.active_count() == 1, threading.enumerate(); "
                           "assert _thread._count() == 0")
        assert done.returncode == 0, done.stderr

    def test_a_dense_fit_starts_no_thread(self, monkeypatch):
        from khnn import Adam, Dense, Sequential, fit
        started = []
        monkeypatch.setattr(T._thread, "start_new_thread", lambda *a: started.append(a))
        before = threading.active_count()
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((64, 16)), rng.integers(0, 2, (64, 1)).astype(float)
        model = Sequential([HyperDense(2, algebra="octonions", activation="tanh"),
                            Dense(1), Activation("sigmoid")], seed=0)
        fit(model, x, y, epochs=2, optimizer=Adam(lr=0.01), batch_size=16)
        assert started == [] and threading.active_count() == before

    def test_where_no_thread_starts_the_caller_pools_every_chunk(self, monkeypatch):
        # Python 3.12 on starts no thread at interpreter shutdown, and
        # none starts past the OS's thread limit
        def no_start(*args):
            raise RuntimeError("can't create new thread at interpreter shutdown")

        monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", 7)
        rng = np.random.default_rng(8)
        x, kernel = rng.standard_normal((16, 6, 6, 2)), rng.standard_normal((3, 3, 2, 3))
        serial = TestConvGlobalMaxPoolSplit.run(monkeypatch, False, x, kernel)
        monkeypatch.setattr(T._thread, "start_new_thread", no_start)
        split = TestConvGlobalMaxPoolSplit.run(monkeypatch, True, x, kernel)
        [(thread, chunks, _)] = split[-1]
        assert thread == threading.get_ident() and next(chunks, None) is None
        for got, want in zip(split[:-1], serial[:-1]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("when", [
        # a thread still running when the main thread has returned, while
        # the interpreter shuts down
        "threading.Thread(target=lambda: (threading.main_thread().join(), split())).start()",
        # an exit handler, which runs after every thread has been joined
        "atexit.register(split)",
    ], ids=["after-main-returns", "at-exit"])
    def test_a_split_runs_while_the_interpreter_shuts_down(self, when):
        done = _run_python(_SPLIT_SETUP + when)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_a_forked_child_runs_a_split(self, monkeypatch):
        monkeypatch.setattr(T, "_POOL_BLOCK_ROWS", 7)
        _force_pool_path(monkeypatch, True)
        rng = np.random.default_rng(4)
        x, kernel = rng.standard_normal((16, 6, 6, 2)), rng.standard_normal((3, 3, 2, 3))
        T.conv_global_max_pool(x, kernel)
        child = multiprocessing.get_context("fork").Process(
            target=T.conv_global_max_pool, args=(x, kernel))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join(timeout=30)
        assert child.exitcode == 0


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

    def test_a_leaf_holds_its_first_gradient_in_its_dtype_and_minus_zero_as_zero(self):
        # as zeros_like(data) += g would: the gradient cast to the leaf's
        # dtype, and -0.0 + 0.0 is +0.0
        w = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        scale = Tensor(np.array([np.pi, -0.0, 1e-50]))
        T.tensor_sum(T.mul(T.add(w, 0.0), scale)).backward()
        assert w.grad.dtype == np.float32
        assert w.grad.tobytes() == np.array([np.pi, 0.0, 0.0], dtype=np.float32).tobytes()
        assert not np.signbit(w.grad[1])


# a non-unital, non-commutative (2, 2, 2) structure tensor
_TABLE = np.array([[[0.5, -1.0], [2.0, 0.25]], [[-0.75, 1.5], [1.0, -2.0]]])
# conv_global_max_pool operands whose other side is checked: both always
# record, so one backward runs the patch gather and the input scatter
_POOL_KERNEL = np.array([0.7, -0.4, -1.1, 0.9, 0.3, 1.3, 1.2, -0.5, -0.2, 0.8,
                         0.6, -1.3]).reshape(3, 2, 1, 2)
_POOL_INPUT = np.array([[[0.2], [-1.4], [0.9], [1.7], [-0.6]],
                        [[1.1], [0.4], [-0.8], [-1.9], [0.5]]])              # (2, 5, 1)

# linear operands whose other sides are checked; each records, so every
# rule of the node runs in each case
_LINEAR_X = np.array([[0.4, -0.7, 1.1], [-0.3, 0.8, 0.5]])                  # (2, 3)
_LINEAR_W = np.array([[0.6, -0.9], [1.2, 0.3], [-0.5, 0.7]])                # (3, 2)
_LINEAR_BIAS = np.array([0.2, -0.4])


def _recording(data):
    return Tensor(data, requires_grad=True)


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
        "add_bias_tanh": (lambda t: T.add_bias(T.reshape(t, (3, 2)),
                                               _recording(_LINEAR_BIAS), "tanh"), -0.9, 0.9),
        # t is the bias, over a 3-D input
        "add_bias_sigmoid": (lambda t: T.add_bias(
            _recording(np.linspace(-0.8, 0.8, 36).reshape(2, 3, 6)), t, "sigmoid"), -0.9, 0.9),
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
        "linear": (lambda t: T.linear(_recording(_LINEAR_X), T.reshape(t, (3, 2)),
                                      _recording(_LINEAR_BIAS)), -0.9, 0.9),
        "linear_tanh": (lambda t: T.linear(T.reshape(t, (2, 3)), _recording(_LINEAR_W),
                                           _recording(_LINEAR_BIAS), "tanh"), -0.9, 0.9),
        # t is both operands of the product
        "linear_sigmoid": (lambda t: T.linear(T.reshape(t, (2, 3)), T.reshape(t, (3, 2)),
                                              _recording(_LINEAR_BIAS), "sigmoid"),
                           -0.9, 0.9),
        "linear_bias": (lambda t: T.linear(_recording(_LINEAR_X),
                                           _recording(np.tile(_LINEAR_W, (1, 3))), t,
                                           "tanh"), -0.9, 0.9),
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


class TestRealDataOnly:
    # numpy casts these to float; like the table gate, Tensor refuses them
    @pytest.mark.parametrize("data", [["1.5"], np.array(["1.5"]), [b"1"], np.array([b"1"]),
                                      [1, 2**70], np.array([1.0], dtype=object),
                                      [Fraction(1, 2)]], ids=repr)
    @pytest.mark.parametrize("dtype", [None, np.float32, np.float64])
    def test_strings_and_objects_are_refused(self, data, dtype):
        kind = np.asarray(data).dtype
        with pytest.raises(ValueError, match=re.escape(
                f"data must hold real numbers, got dtype {kind}")):
            Tensor(data, dtype=dtype)

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_bools_are_read_as_zero_and_one(self, dtype):
        out = Tensor(np.array([True, False]), dtype=dtype).data
        npt.assert_array_equal(out, [1.0, 0.0])
        assert out.dtype == (dtype or np.float64)


    # an op's float output skips the data rule; what else a scalar operand
    # makes still meets it
    @pytest.mark.parametrize("op", [T.add, T.mul])
    @pytest.mark.parametrize("scalar,message", [
        (1j, "complex data is refused"), (np.complex64(1), "complex data is refused"),
        (Fraction(1, 2), "data must hold real numbers, got dtype object")])
    def test_a_scalar_operand_that_is_no_real_is_refused(self, op, scalar, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            op(Tensor([1.0, 2.0]), scalar)

    @pytest.mark.parametrize("op", [T.add, T.mul])
    def test_an_op_output_keeps_its_float_dtype_or_is_made_float64(self, op):
        for dtype, scalar, want in [(np.float32, 2.0, np.float32),
                                    (np.float32, np.float64(2.0), np.float64),
                                    (np.float64, np.longdouble(2.0), np.float64)]:
            out = op(Tensor(np.ones(2), dtype=dtype), scalar)
            assert out.data.dtype == want and isinstance(out.data, np.ndarray)
        total = T.tensor_sum(Tensor(np.ones(3), requires_grad=True))
        assert type(total.data) is np.ndarray and total.data.shape == ()

class TestArgumentRules:
    @pytest.mark.parametrize("value", [0, -3, 2**70, np.int8(1), np.uint64(2**63)],
                             ids=repr)
    def test_is_int_takes_ints_of_any_size(self, value):
        assert T._is_int(value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, "1", None, np.array(1)],
                             ids=repr)
    def test_is_int_refuses_bools_floats_and_arrays(self, value):
        assert not T._is_int(value)

    @pytest.mark.parametrize("value", [0, -2**63, 2**63, 1.5, float("nan"), np.uint8(3),
                                       np.float16(2), np.array(0.5)], ids=repr)
    def test_is_real_takes_what_numpy_stores_as_int_uint_or_float(self, value):
        assert T._is_real(value)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, 2**64, -2**63 - 1,
                                       2**70, 1 + 2j, np.ones(1), [1.0], [[1], [1, 2]]],
                             ids=repr)
    def test_is_real_refuses_everything_else(self, value):
        assert not T._is_real(value)

    @pytest.mark.parametrize("dtype", [np.float32, "float64", np.dtype("<f4"), float])
    def test_float_dtype_takes_float32_and_float64(self, dtype):
        assert T._float_dtype(dtype) in (np.float32, np.float64)

    @pytest.mark.parametrize("dtype", [complex, np.int64, bool, np.float16, "U3"],
                             ids=["complex", "int64", "bool", "float16", "U3"])
    def test_tensor_dtype_must_be_float32_or_float64(self, dtype):
        # the layers' dtype rule: a tensor no layer would hold is refused up front
        message = f"^{re.escape(f'dtype must be float32 or float64, got {dtype}')}$"
        with pytest.raises(ValueError, match=message):
            Tensor([1.0], dtype=dtype)
        with pytest.raises(ValueError, match=message):
            HyperDense(1, dtype=dtype)


class TestConveniences:
    def test_shape_size_and_repr(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert (x.shape, x.size) == ((2, 3), 6)
        assert repr(x) == "Tensor(shape=(2, 3), requires_grad=True)"
        assert repr(Tensor(1.0)) == "Tensor(shape=(), requires_grad=False)"

    # each convenience against the op it stands for
    CASES = {
        "mul": (lambda a, b: a * b, lambda a, b: T.mul(a, b)),
        "rmul": (lambda a, b: 2.5 * a, lambda a, b: T.mul(a, 2.5)),
        "neg": (lambda a, b: -a, lambda a, b: T.neg(a)),
        "sub": (lambda a, b: a - b, lambda a, b: T.add(a, T.neg(b))),
        "sub-scalar": (lambda a, b: a - 1.5, lambda a, b: T.add(a, -1.5)),
        "rsub-scalar": (lambda a, b: 1.5 - a, lambda a, b: T.add(T.neg(a), 1.5)),
        "reshape": (lambda a, b: a.reshape(3, 2), lambda a, b: T.reshape(a, 3, 2)),
        "reshape-tuple": (lambda a, b: a.reshape((6,)), lambda a, b: T.reshape(a, (6,))),
        "sum": (lambda a, b: a.sum(), lambda a, b: T.tensor_sum(a)),
        "sum-axis": (lambda a, b: a.sum(axis=0), lambda a, b: T.tensor_sum(a, axis=0)),
        "mean": (lambda a, b: a.mean(), lambda a, b: T.mean(a)),
        "mean-axis": (lambda a, b: a.mean(axis=1), lambda a, b: T.mean(a, axis=1)),
    }

    @staticmethod
    def run(f, dtype):
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True, dtype=dtype)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True, dtype=dtype)
        out = f(a, b)
        weight = Tensor(rng.standard_normal(out.shape), dtype=dtype)
        T.tensor_sum(T.mul(out, weight)).backward()
        return out.data, a.grad, b.grad

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", CASES)
    def test_equals_its_op_bit_for_bit_in_value_and_gradient(self, name, dtype):
        sugar, op = self.CASES[name]
        for got, want in zip(self.run(sugar, dtype), self.run(op, dtype)):
            if want is None:   # b takes no part
                assert got is None
                continue
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_flatten_needs_a_batch_axis(self):
        with pytest.raises(ShapeError,
                           match=r"^flatten needs a batch axis, got shape \(3,\)$"):
            T.flatten(Tensor(np.zeros(3)))
