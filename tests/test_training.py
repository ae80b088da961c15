import math
import re
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from khnn.algebra import predefined
from khnn.cli import _xor_model
from khnn.datasets import XOR_X, XOR_Y
from khnn.layers import Activation, Dense, GlobalMaxPool, HyperConv2D, HyperDense
from khnn.model import Sequential
from khnn.tensor import ShapeError, Tensor
from khnn.training import (
    Adam,
    SGD,
    TrainHistory,
    TrainingDiverged,
    accuracy,
    bce_loss,
    evaluate,
    fit,
)


class TestBceLoss:
    def test_half_prediction_is_ln2(self):
        loss = bce_loss(Tensor([[0.5], [0.5]]), Tensor([[1.0], [0.0]]))
        npt.assert_allclose(loss.data, math.log(2.0), rtol=1e-12)

    def test_perfect_prediction_is_tiny(self):
        loss = bce_loss(Tensor([[1.0], [0.0]]), Tensor([[1.0], [0.0]]))
        assert float(loss.data) < 1e-6

    def test_hand_computed_pair(self):
        # mean(-ln 0.9, -ln 0.8) worked out with the standard formula
        expected = -(math.log(0.9) + math.log(0.8)) / 2.0
        loss = bce_loss(Tensor([[0.9], [0.2]]), Tensor([[1.0], [0.0]]))
        npt.assert_allclose(loss.data, expected, rtol=1e-12)
        npt.assert_allclose(loss.data, 0.164252033486018, rtol=1e-12)

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ValueError, match="0 or 1"):
            bce_loss(Tensor([[0.5]]), Tensor([[0.3]]))

    def test_rejects_nan_targets(self):
        with pytest.raises(ValueError, match="0 or 1"):
            bce_loss(Tensor([[0.5], [0.5]]), np.array([[1.0], [np.nan]]))

    def test_accepts_int_and_bool_targets(self):
        expected = bce_loss(Tensor([[0.2], [0.7]]), Tensor([[0.0], [1.0]])).data
        for target in ([[0], [1]], np.array([[False], [True]])):
            assert bce_loss(Tensor([[0.2], [0.7]]), target).data == expected

    def test_target_that_requires_grad_is_refused(self):
        target = Tensor([[1.0], [0.0]], requires_grad=True)
        with pytest.raises(ValueError, match="target requires grad"):
            bce_loss(Tensor([[0.5], [0.5]], requires_grad=True), target)

    @staticmethod
    def recorded_nodes(loss):
        """The tensors under loss that hold a backward rule, loss included."""
        nodes, todo, seen = [], [loss], set()
        while todo:
            t = todo.pop()
            if id(t) not in seen:
                seen.add(id(t))
                nodes += [t] if t._backward is not None else []
                todo.extend(t._parents)
        return nodes

    def test_one_xor_training_step_records_four_tape_nodes(self):
        # expand_blocks, linear with the tanh, linear with the sigmoid and
        # the loss: each dense layer is one node, and the Activation layer
        # after it runs inside that node rather than as a node of its own
        model = _xor_model(predefined("quaternions"), 42)
        loss = bce_loss(model.forward(Tensor(XOR_X)), Tensor(XOR_Y))
        assert len(self.recorded_nodes(loss)) == 4
        dense = loss._parents[0]                # the Dense's node, sigmoid inside
        assert dense._parents[1:] == (model.layers[2].weights, model.layers[2].bias)

    def test_one_octonion_training_step_records_six_tape_nodes(self):
        # the float32 octonion model of the dense benchmark: expand_blocks
        # and linear for each HyperDense, linear for the Dense (its sigmoid
        # inside) and the loss
        model = Sequential([
            HyperDense(16, algebra="octonions", activation="tanh", dtype=np.float32),
            HyperDense(8, algebra="octonions", activation="tanh", dtype=np.float32),
            Dense(1, activation="sigmoid", dtype=np.float32),
        ], seed=7)
        x = np.random.default_rng(7).standard_normal((8, 64)).astype(np.float32)
        y = np.zeros((8, 1), dtype=np.float32)
        loss = bce_loss(model.forward(Tensor(x)), Tensor(y))
        assert len(self.recorded_nodes(loss)) == 6

    def test_one_synth_training_step_records_five_tape_nodes(self):
        # the train-synth-images model: expand_blocks, conv_global_max_pool
        # and add_bias for the conv and its pool, linear with the sigmoid
        # for the Dense and its Activation, and the loss
        model = Sequential([HyperConv2D(8, (3, 3), algebra="quaternions"), GlobalMaxPool(),
                            Dense(1), Activation("sigmoid")], seed=43)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6, 6, 4)))
        loss = bce_loss(model.forward(x), Tensor(np.zeros((4, 1))))
        assert len(self.recorded_nodes(loss)) == 5
        conv, _, dense, _ = model.layers
        head = loss._parents[0]              # the Dense's node, sigmoid inside
        assert head._parents[1:] == (dense.weights, dense.bias)
        tail = head._parents[0]              # the conv's add_bias
        assert tail._parents[1] is conv.bias
        pooled = tail._parents[0]            # conv_global_max_pool
        assert pooled._parents[0] is x
        assert pooled._parents[1]._parents == (conv.weights,)   # expand_blocks

    def test_gradient_matches_closed_form(self):
        # d/dp of the mean BCE is (p - y) / (p (1 - p) B)
        p = Tensor([[0.3], [0.8]], requires_grad=True)
        y = np.array([[0.0], [1.0]])
        bce_loss(p, Tensor(y)).backward()
        expected = (p.data - y) / (p.data * (1.0 - p.data) * 2.0)
        npt.assert_allclose(p.grad, expected, rtol=1e-10)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([0.9, 0.1]), np.array([1.0, 0.0])) == 1.0

    def test_threshold_is_inclusive(self):
        assert accuracy(np.array([0.5]), np.array([1.0])) == 1.0
        assert accuracy(np.array([0.5]), np.array([0.0])) == 0.0

    def test_half_correct(self):
        assert accuracy(np.array([0.6, 0.6]), np.array([1.0, 0.0])) == 0.5

    def test_equals_the_mean_of_the_hits(self):
        rng = np.random.default_rng(12)
        for size in (1, 3, 7, 1000):
            pred, target = rng.random((size, 1)), rng.random((size, 1)) < 0.5
            hits = (pred >= 0.5) == (target >= 0.5)
            value = accuracy(pred, target)
            assert type(value) is float and value == float(hits.mean())

    def test_no_predictions_are_refused(self):
        with pytest.raises(ValueError, match="accuracy needs at least one prediction"):
            accuracy(np.zeros((0, 1)), np.zeros((0, 1)))


class TestOptimizers:
    def test_sgd_step_literal(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([2.0])
        SGD(lr=0.015).step([w])
        npt.assert_allclose(w.data, [0.97], rtol=1e-15)

    def test_zero_gradient_keeps_parameters(self):
        w = Tensor([1.5], requires_grad=True)
        w.grad = np.zeros(1)
        SGD(lr=0.1).step([w])
        npt.assert_array_equal(w.data, [1.5])
        v = Tensor([1.5], requires_grad=True)
        v.grad = np.zeros(1)
        Adam().step([v])
        npt.assert_array_equal(v.data, [1.5])

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (0.001, 1.0, 1000.0):
            w = Tensor([0.0], requires_grad=True)
            w.grad = np.array([g])
            Adam(lr=0.01).step([w])
            npt.assert_allclose(-w.data[0], 0.01, rtol=1e-3)

    def test_adam_state_tracks_parameters(self):
        opt = Adam(lr=0.1)
        w = Tensor(np.ones(3), requires_grad=True)
        for _ in range(5):
            w.grad = np.ones(3)
            opt.step([w])
        assert opt.step_count == 5
        assert opt._m[w].shape == (3,)

    def test_adam_state_follows_the_parameter_not_its_position(self):
        # stepping different parameter lists must neither collide on shape
        # nor let one parameter's moments leak into another's update
        def second_update(first_grad):
            opt = Adam(lr=0.1)
            a = Tensor(np.ones(2), requires_grad=True)
            b = Tensor(np.ones(2), requires_grad=True)
            c = Tensor(np.ones(3), requires_grad=True)
            a.grad, b.grad, c.grad = np.array(first_grad), np.array([1.0, -2.0]), np.ones(3)
            opt.step([a])
            opt.step([c])
            opt.step([b])
            return b.data

        npt.assert_array_equal(second_update([5.0, 5.0]), second_update([-3.0, 0.5]))

    @pytest.mark.parametrize("opt,name", [("SGD", "lr"), ("Adam", "lr"),
                                          ("Adam", "eps")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -0.01])
    def test_step_sizes_must_be_finite_and_positive(self, opt, name, value):
        with pytest.raises(ValueError, match=name):
            {"SGD": SGD, "Adam": Adam}[opt](**{name: value})

    @pytest.mark.parametrize("name", ["beta1", "beta2"])
    @pytest.mark.parametrize("value", [-0.1, 1.0, np.nan])
    def test_adam_decays_lie_in_unit_interval(self, name, value):
        with pytest.raises(ValueError, match=name):
            Adam(**{name: value})

    @pytest.mark.parametrize("opt,name", [("SGD", "lr"), ("Adam", "lr"), ("Adam", "eps"),
                                          ("Adam", "beta1"), ("Adam", "beta2")])
    @pytest.mark.parametrize("value", ["0.1", True, False, np.bool_(True), None],
                             ids=["str", "true", "false", "numpy-bool", "none"])
    def test_optimizer_numbers_must_be_real(self, opt, name, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a real number, got {value!r}")):
            {"SGD": SGD, "Adam": Adam}[opt](**{name: value})

    def test_numpy_reals_are_accepted(self):
        opt = Adam(lr=np.float32(0.5), beta1=np.float64(0.5), eps=np.int64(1))
        assert (opt.lr, opt.beta1, opt.eps) == (0.5, 0.5, 1.0)

    @staticmethod
    def reference_adam(params, grads_per_step, lr=0.01, beta1=0.9, beta2=0.999,
                       eps=1e-7):
        """The out-of-place Adam formula, one array per intermediate."""
        data = [p.copy() for p in params]
        ms = [np.zeros_like(p) for p in params]
        vs = [np.zeros_like(p) for p in params]
        for t, grads in enumerate(grads_per_step, start=1):
            for i, g in enumerate(grads):
                ms[i] = ms[i] + (1.0 - beta1) * (g - ms[i])
                vs[i] = vs[i] + (1.0 - beta2) * (g * g - vs[i])
                m_hat = ms[i] / (1.0 - beta1 ** t)
                v_hat = vs[i] / (1.0 - beta2 ** t)
                data[i] = data[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        return data, ms, vs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_equals_the_out_of_place_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        start = [rng.standard_normal(s).astype(dtype) for s in ((3, 4), (4,), (2, 2, 3))]
        grads = [[(rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
                  for p in start] for _ in range(7)]
        params = [Tensor(p.copy(), requires_grad=True) for p in start]
        opt = Adam(lr=0.01)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step(params)
        data, ms, vs = self.reference_adam(start, grads)
        for p, d, m, v in zip(params, data, ms, vs):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == d.tobytes()
            assert opt._m[p].tobytes() == m.tobytes()
            assert opt._v[p].tobytes() == v.tobytes()

    def test_adam_keeps_its_moment_arrays_and_never_writes_p_data(self):
        opt = Adam(lr=0.1)
        w = Tensor(np.ones(3), requires_grad=True)
        w.grad = np.array([1.0, -2.0, 0.5])
        opt.step([w])
        m, v = opt._m[w], opt._v[w]
        for _ in range(3):
            before = w.data
            kept = before.copy()
            opt.step([w])
            assert opt._m[w] is m and opt._v[w] is v
            assert w.data is not before
            npt.assert_array_equal(before, kept)

    def test_adam_holds_only_its_two_moments_per_parameter(self):
        opt = Adam()
        w = Tensor(np.ones(3), requires_grad=True)
        w.grad = np.ones(3)
        opt.step([w])
        per_param = {name for name, value in vars(opt).items() if isinstance(value, dict)}
        assert per_param == {"_m", "_v"}

    def test_missing_grad_raises(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="gradient"):
            SGD().step([w])
        with pytest.raises(RuntimeError, match="gradient"):
            Adam().step([w])



class PerParameterAdam:
    """Adam one parameter at a time, moments made on first sight: the
    reference the flat optimizer must equal bit for bit."""

    def __init__(self, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-7):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, {}, {}

    def step(self, params):
        self.t += 1
        c1, c2 = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        for p in params:
            g = p.grad
            m = self.m.setdefault(p, np.zeros_like(p.data))
            v = self.v.setdefault(p, np.zeros_like(p.data))
            m += (g - m) * (1.0 - self.beta1)
            v += (g * g - v) * (1.0 - self.beta2)
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class TestFlatOptimizerState:
    """Adam and SGD keep one flat array per dtype; whatever the caller does
    between steps, each parameter's trajectory is the per-parameter one."""

    SHAPES = [((3, 4), np.float64), ((4,), np.float64), ((2, 2, 3), np.float32),
              ((), np.float64)]

    # what happens before each step, as ("step", positions) or an action
    # on the parameter at a position; every scenario ends in steps
    SCENARIOS = {
        "same list": [("step", [0, 1, 2, 3])] * 4,
        "reordered": [("step", [0, 1, 2, 3]), ("step", [3, 1, 0, 2]),
                      ("step", [2, 3, 1, 0]), ("step", [0, 1, 2, 3])],
        "gains one": [("step", [0, 1]), ("step", [0, 1, 3]), ("step", [2, 0, 1, 3]),
                      ("step", [2, 0, 1, 3])],
        "loses one": [("step", [0, 1, 2, 3]), ("step", [0, 2, 3]), ("step", [0, 2, 3]),
                      ("step", [1, 0, 2, 3])],
        "fresh one-item lists": [("step", [0]), ("step", [2]), ("step", [1]), ("step", [0]),
                                 ("step", [1])],
        "loaded weight": [("step", [0, 1, 2, 3]), ("load", 1), ("step", [0, 1, 2, 3]),
                          ("step", [0, 1, 2, 3])],
        "sgd step": [("step", [0, 1, 2, 3]), ("sgd", [2, 0]), ("step", [0, 1, 2, 3]),
                     ("sgd", [0, 1, 2, 3]), ("step", [0, 1, 2, 3])],
        "rebound by hand": [("step", [0, 1, 2, 3]), ("scale", 0), ("scale", 3),
                            ("step", [0, 1, 2, 3]), ("step", [0, 1, 2, 3])],
        "written in place": [("step", [0, 1, 2, 3]), ("write", 2), ("write", 1),
                             ("step", [0, 1, 2, 3]), ("step", [0, 1, 2, 3])],
    }

    @staticmethod
    def act(action, arg, params, sgd_step, rng_seed):
        rng = np.random.default_rng(rng_seed)
        if action == "load":
            params[arg].data = rng.standard_normal(params[arg].data.shape).astype(
                params[arg].data.dtype)
        elif action == "sgd":
            sgd_step([params[i] for i in arg])
        elif action == "scale":
            params[arg].data = params[arg].data * 0.5
        elif action == "write":
            params[arg].data[...] = rng.standard_normal(params[arg].data.shape)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_adam_equals_the_per_parameter_formula_bit_for_bit(self, name):
        rng = np.random.default_rng(31)
        start = [rng.standard_normal(shape).astype(dtype) for shape, dtype in self.SHAPES]
        flat = [Tensor(p.copy(), requires_grad=True, dtype=p.dtype) for p in start]
        ref = [Tensor(p.copy(), requires_grad=True, dtype=p.dtype) for p in start]
        opt, ref_opt = Adam(lr=0.01), PerParameterAdam(lr=0.01)

        def ref_sgd_step(params):      # the per-parameter formula
            for p in params:
                p.data = p.data - 0.1 * p.grad

        for k, (action, arg) in enumerate(self.SCENARIOS[name]):
            if action != "step":
                self.act(action, arg, flat, SGD(lr=0.1).step, k)
                self.act(action, arg, ref, ref_sgd_step, k)
                continue
            for i in arg:
                g = (rng.standard_normal(flat[i].data.shape)
                     * 10.0 ** rng.integers(-3, 3)).astype(flat[i].data.dtype)
                flat[i].grad, ref[i].grad = g, g.copy()
            opt.step([flat[i] for i in arg])
            ref_opt.step([ref[i] for i in arg])
            for i, (f, r) in enumerate(zip(flat, ref)):
                assert f.data.dtype == r.data.dtype, (name, k, i)
                assert f.data.tobytes() == r.data.tobytes(), (name, k, i)
                if r in ref_opt.m:
                    assert opt._m[f].tobytes() == ref_opt.m[r].tobytes(), (name, k, i)
                    assert opt._v[f].tobytes() == ref_opt.v[r].tobytes(), (name, k, i)
                else:
                    assert f not in opt._m

    def test_a_parameter_given_another_dtype_keeps_it_and_its_moments(self):
        # the moments follow the parameter into its new dtype's flat array
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        opt = Adam(lr=0.1)
        a.grad, b.grad = np.array([1.0, -2.0, 0.5]), np.ones(2)
        opt.step([a, b])
        m, v = opt._m[a].copy(), opt._v[a].copy()
        a.data = a.data.astype(np.float32)
        a.grad = np.zeros(3, dtype=np.float32)
        opt.step([a, b])
        assert a.data.dtype == opt._m[a].dtype == opt._v[a].dtype == np.float32
        assert b.data.dtype == np.float64
        m, v = m.astype(np.float32), v.astype(np.float32)
        assert opt._m[a].tobytes() == (m + (a.grad - m) * (1.0 - 0.9)).tobytes()
        assert opt._v[a].tobytes() == (v + (a.grad * a.grad - v) * (1.0 - 0.999)).tobytes()

    def test_sgd_steps_every_parameter_by_its_own_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True, dtype=np.float32)
        opt = SGD(lr=0.5)
        for order in ([a, b], [a, b], [b, a]):
            a.grad, b.grad = np.full((2, 2), 2.0), np.full(3, 4.0, dtype=np.float32)
            before = (a.data, b.data)
            kept = (a.data.copy(), b.data.copy())
            opt.step(order)
            npt.assert_array_equal(before[0], kept[0])     # never written
            npt.assert_array_equal(before[1], kept[1])
            npt.assert_array_equal(a.data, kept[0] - 1.0)
            npt.assert_array_equal(b.data, kept[1] - 2.0)
            assert b.data.dtype == np.float32

    def test_parameters_and_moments_are_views_of_one_array_per_dtype(self):
        params = [Tensor(np.ones(s), requires_grad=True, dtype=d)
                  for s, d in [((2, 3), np.float64), (4, np.float32), (5, np.float64)]]
        opt = Adam()
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step(params)
        f64, f32 = [params[0], params[2]], [params[1]]
        for group in (f64, f32):
            for store in ((p.data for p in group), (opt._m[p] for p in group),
                          (opt._v[p] for p in group)):
                bases = {id(a.base) for a in store}
                assert len(bases) == 1 and None not in bases
        assert not np.shares_memory(params[0].data, params[1].data)
        assert [p.data.shape for p in params] == [(2, 3), (4,), (5,)]

    def test_a_gradient_of_another_shape_is_refused_before_any_update(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        a.grad, b.grad = np.ones(3), np.ones((2, 1))
        for opt in (SGD(), Adam()):
            with pytest.raises(ShapeError, match=re.escape(
                    "gradient shape (2, 1) does not match parameter shape (2,)")):
                opt.step([a, b])
            npt.assert_array_equal(a.data, np.ones(3))

    def test_a_parameter_listed_twice_is_refused(self):
        a = Tensor(np.ones(3), requires_grad=True)
        a.grad = np.ones(3)
        for opt in (SGD(), Adam()):
            with pytest.raises(ValueError, match="appears more than once"):
                opt.step([a, a])
            npt.assert_array_equal(a.data, np.ones(3))

class TestRefusedStepChangesNothing:
    """A step refused for a missing gradient, a gradient of another shape or
    a parameter listed twice leaves every p.data, Adam's step_count and its
    moments as they were, on the first step and on a later one, and the
    next good step is the one a never-refused optimizer takes."""

    REFUSALS = {
        "missing gradient": (RuntimeError, "no gradient"),
        "gradient of another shape": (ShapeError, "does not match parameter shape"),
        "listed twice": (ValueError, "appears more than once"),
    }

    @staticmethod
    def make_params():
        return [Tensor(np.arange(3.0), requires_grad=True),
                Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float32),
                Tensor(np.array(0.5), requires_grad=True)]

    @staticmethod
    def set_grads(params, k):
        for i, p in enumerate(params):
            p.grad = np.full(p.data.shape, 0.25 * (i + 1) - 0.1 * k, dtype=p.data.dtype)

    @staticmethod
    def state(opt, params):
        state = [(p.data, p.data.tobytes()) for p in params]
        if isinstance(opt, Adam):
            state.append(opt.step_count)
            for moments in (opt._m, opt._v):
                state.append({id(p): m.tobytes() for p, m in moments.items()})
        return state

    @pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.1), lambda: Adam(lr=0.1)],
                             ids=["sgd", "adam"])
    @pytest.mark.parametrize("before", [0, 2], ids=["first step", "later step"])
    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_refused_step_changes_nothing(self, make_opt, before, refusal):
        params, twin_params = self.make_params(), self.make_params()
        opt, twin = make_opt(), make_opt()
        for k in range(before):
            for ps, o in ((params, opt), (twin_params, twin)):
                self.set_grads(ps, k)
                o.step(ps)
        self.set_grads(params, before)
        listed = params
        if refusal == "missing gradient":
            params[1].grad = None
        elif refusal == "gradient of another shape":
            params[1].grad = np.ones(4, dtype=np.float32)
        else:
            listed = [params[0], params[1], params[2], params[0]]
        kept = self.state(opt, params)
        error, message = self.REFUSALS[refusal]
        with pytest.raises(error, match=message):
            opt.step(listed)
        now = self.state(opt, params)
        for (data, raw), (data_now, raw_now) in zip(kept[:3], now[:3]):
            assert data_now is data and raw_now == raw
        assert now[3:] == kept[3:]
        for ps, o in ((params, opt), (twin_params, twin)):
            self.set_grads(ps, before)
            o.step(ps)
        for p, q in zip(params, twin_params):
            assert p.data.dtype == q.data.dtype
            assert p.data.tobytes() == q.data.tobytes()


def linear_probe_model(seed=0):
    return Sequential([Dense(1), Activation("sigmoid")], seed=seed)


class TestFit:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            fit(linear_probe_model(), np.zeros((2, 1)), np.zeros((2, 1)),
                epochs=0, optimizer=SGD())

    @pytest.mark.parametrize("epochs", [2.5, True, "2"])
    def test_rejects_non_integer_epochs(self, epochs):
        model = linear_probe_model(seed=16)
        with pytest.raises(ValueError, match="epochs must be a positive int"):
            fit(model, np.zeros((2, 1)), np.zeros((2, 1)), epochs=epochs,
                optimizer=SGD())
        assert not model.built

    def test_accepts_numpy_integer_epochs(self):
        history = fit(linear_probe_model(seed=17), np.zeros((2, 1)), np.zeros((2, 1)),
                      epochs=np.int64(2), optimizer=SGD())
        assert len(history) == 2

    @pytest.mark.parametrize("batch_size", [-1, 0, 2.5])
    def test_rejects_bad_batch_size(self, batch_size):
        model = linear_probe_model(seed=15)
        with pytest.raises(ValueError, match="batch_size"):
            fit(model, np.zeros((4, 1)), np.zeros((4, 1)), epochs=1,
                optimizer=SGD(), batch_size=batch_size)
        assert not model.built

    def test_separable_two_points_reach_full_accuracy(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([[0.0], [1.0]])
        model = linear_probe_model(seed=3)
        history = fit(model, x, y, epochs=100, optimizer=SGD(lr=0.5))
        assert history.accuracy[-1] == 1.0

    def test_convex_case_loss_non_increasing(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([[0.0], [1.0]])
        history = fit(linear_probe_model(seed=4), x, y, epochs=50,
                      optimizer=SGD(lr=0.1))
        diffs = np.diff(history.loss)
        assert (diffs <= 1e-12).all()

    def test_single_sgd_epoch_applies_exact_update(self):
        model = linear_probe_model(seed=5)
        x = np.array([[2.0]])
        y = np.array([[1.0]])
        model.forward(Tensor(x))
        w0 = float(model.layers[0].weights.data[0, 0])
        b0 = float(model.layers[0].bias.data[0])
        p = 1.0 / (1.0 + math.exp(-(w0 * 2.0 + b0)))
        lr = 0.25
        fit(model, x, y, epochs=1, optimizer=SGD(lr=lr))
        npt.assert_allclose(model.layers[0].weights.data[0, 0],
                            w0 - lr * (p - 1.0) * 2.0, rtol=1e-12)
        npt.assert_allclose(model.layers[0].bias.data[0],
                            b0 - lr * (p - 1.0), rtol=1e-12)

    def test_history_length_and_ranges(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([[0.0], [1.0]])
        history = fit(linear_probe_model(seed=6), x, y, epochs=7,
                      optimizer=SGD(lr=0.1), validation=(x, y))
        assert len(history) == 7
        assert all(0.0 <= a <= 1.0 for a in history.accuracy)
        assert all(0.0 <= a <= 1.0 for a in history.val_accuracy)

    def test_seeded_fit_is_bit_reproducible(self):
        x = np.array([[-1.0, 0.5], [1.0, -0.5], [0.3, 0.3]])
        y = np.array([[0.0], [1.0], [1.0]])

        def run():
            model = Sequential([HyperDense(2, algebra="complex"),
                                Activation("tanh"), Dense(1),
                                Activation("sigmoid")], seed=9)
            history = fit(model, x, y, epochs=20, optimizer=Adam())
            return history, model.predict(x)

        h1, p1 = run()
        h2, p2 = run()
        assert h1.loss == h2.loss
        assert h1.accuracy == h2.accuracy
        npt.assert_array_equal(p1, p2)

    def test_divergence_aborts_with_epoch(self):
        # quadratic loss with an oversized step diverges geometrically
        from khnn import tensor as T

        def squared_loss(pred, target):
            return T.mean(T.mul(pred, pred))

        x = np.array([[1.0], [2.0]])
        y = np.array([[0.0], [0.0]])
        model = Sequential([Dense(1)], seed=8)
        model.layers[0].build((1,), np.random.default_rng(0))
        model.layers[0].weights.data = np.array([[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="epoch"):
                fit(model, x, y, epochs=1000, optimizer=SGD(lr=10.0),
                    loss_fn=squared_loss)

    def test_minibatch_knob(self):
        x = np.array([[-1.0], [1.0], [0.5], [-0.5]])
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        history = fit(linear_probe_model(seed=10), x, y, epochs=3,
                      optimizer=SGD(lr=0.1), batch_size=2)
        assert len(history) == 3

    def test_float32_training_runs(self):
        x = np.eye(4, dtype=np.float32)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        model = Sequential([HyperDense(4, algebra="quaternions", dtype=np.float32),
                            Activation("tanh"), Dense(1, dtype=np.float32),
                            Activation("sigmoid")], seed=2)
        history = fit(model, x, y, epochs=200, optimizer=Adam(lr=0.01))
        assert history.accuracy[-1] == 1.0
        assert model.params()[0].data.dtype == np.float32

    @pytest.mark.parametrize("run", ["fit", "evaluate", "validation"])
    def test_row_count_mismatch_names_the_arguments(self, run):
        model = linear_probe_model(seed=12)
        x, y = np.zeros((3, 1)), np.zeros((4, 1))
        prefix = "validation: " if run == "validation" else ""
        with pytest.raises(ValueError, match=f"^{prefix}x has 3 rows but y has 4"):
            if run == "fit":
                fit(model, x, y, epochs=1, optimizer=SGD())
            elif run == "evaluate":
                evaluate(model, x, y)
            else:
                fit(model, y, y, epochs=1, optimizer=SGD(), validation=(x, y))

    def test_zero_dimensional_x_needs_a_batch_axis(self):
        model = linear_probe_model(seed=17)
        with pytest.raises(ValueError, match=r"^x and y need a batch axis, got shapes "
                                             r"\(\) and \(1, 1\)$"):
            fit(model, np.float64(1.0), np.zeros((1, 1)), epochs=1, optimizer=SGD())
        assert not model.built

    @pytest.mark.parametrize("run", ["fit", "evaluate", "validation"])
    def test_zero_rows_are_named_not_diverged(self, run):
        model = linear_probe_model(seed=18)
        x, y = np.zeros((0, 2)), np.zeros((0, 1))
        prefix = "validation: " if run == "validation" else ""
        with pytest.raises(ValueError, match=f"^{prefix}x has no rows"):
            if run == "fit":
                fit(model, x, y, epochs=1, optimizer=SGD())
            elif run == "evaluate":
                evaluate(model, x, y)
            else:
                fit(model, np.zeros((2, 2)), np.zeros((2, 1)), epochs=1,
                    optimizer=SGD(), validation=(x, y))

    @pytest.mark.parametrize("run", ["fit", "evaluate", "validation", "built"])
    @pytest.mark.parametrize("y_shape,shown", [((2, 3), r"\(3,\)"), ((2,), r"\(\)")],
                             ids=["wide", "flat"])
    def test_target_shape_must_match_the_output(self, run, y_shape, shown):
        model = linear_probe_model(seed=19)
        x, y = np.zeros((2, 2)), np.zeros(y_shape)
        message = f"y has trailing shape {shown} but the model outputs \\(1,\\)"
        with pytest.raises(ValueError, match=message):
            if run == "fit":
                fit(model, x, y, epochs=1, optimizer=SGD())
            elif run == "evaluate":
                evaluate(model, x, y)
            elif run == "validation":
                fit(model, x, np.zeros((2, 1)), epochs=1, optimizer=SGD(),
                    validation=(x, y))
            else:
                model.predict(x)
                fit(model, x, y, epochs=1, optimizer=SGD())

    @pytest.mark.parametrize("validation", [
        (np.zeros((2, 1)),),
        (np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))),
        np.zeros((2, 1)),
        "xy",
    ], ids=["one", "three", "array", "str"])
    def test_validation_must_be_an_x_y_pair(self, validation):
        with pytest.raises(ValueError, match=r"validation must be an \(x, y\) pair"):
            fit(linear_probe_model(seed=20), np.zeros((2, 1)), np.zeros((2, 1)),
                epochs=1, optimizer=SGD(), validation=validation)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_named_not_diverged(self, bad):
        model = linear_probe_model(seed=13)
        x = np.array([[1.0], [bad]])
        y = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="x contains NaN or Inf"):
            fit(model, x, y, epochs=1, optimizer=SGD())
        with pytest.raises(ValueError, match="x contains NaN or Inf"):
            evaluate(model, x, y)
        with pytest.raises(ValueError, match="x contains NaN or Inf"):
            fit(model, y, y, epochs=1, optimizer=SGD(), validation=(x, y))

    def test_evaluate_keeps_float32_input(self):
        model = Sequential([Dense(1, dtype=np.float32), Activation("sigmoid")], seed=14)
        x = np.array([[-1.0], [1.0]], dtype=np.float32)
        y = np.array([[0.0], [1.0]])
        seen = []

        def recording_loss(pred, target):
            seen.append(pred.data.dtype)
            return bce_loss(pred, target)

        evaluate(model, x, y, loss_fn=recording_loss)
        assert seen == [np.float32]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fit_target_and_loss_follow_x_dtype(self, dtype):
        x = np.array([[-1.0], [1.0]], dtype=dtype)
        seen = []

        def recording_loss(pred, target):
            loss = bce_loss(pred, target)
            seen.append((pred.data.dtype, target.data.dtype, loss.data.dtype))
            return loss

        histories = []
        for y in (np.array([[0.0], [1.0]], dtype=np.float32), np.array([[0], [1]])):
            model = Sequential([Dense(1, dtype=dtype), Activation("sigmoid")], seed=15)
            histories.append(fit(model, x, y, epochs=2, optimizer=SGD(lr=0.1),
                                 loss_fn=recording_loss))
        assert seen == [(dtype, dtype, dtype)] * 4
        # the target's own dtype does not reach the loss
        assert histories[0].loss == histories[1].loss

    def test_evaluate_matches_manual(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([[0.0], [1.0]])
        model = linear_probe_model(seed=11)
        fit(model, x, y, epochs=5, optimizer=SGD(lr=0.1))
        loss, acc = evaluate(model, x, y)
        pred = model.predict(x)
        npt.assert_allclose(loss, float(bce_loss(Tensor(pred), Tensor(y)).data),
                            rtol=1e-12)
        assert acc == accuracy(pred, y)


class TestHistoryCsv:
    def test_csv_schema_without_validation(self, tmp_path):
        history = TrainHistory(loss=[0.5, 0.25], accuracy=[0.5, 1.0])
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert lines[1] == "1,0.5,0.5"
        assert len(lines) == 3

    def test_csv_schema_with_validation(self, tmp_path):
        history = TrainHistory(loss=[0.5], accuracy=[1.0],
                               val_loss=[0.75], val_accuracy=[0.25])
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy,val_loss,val_accuracy"
        assert lines[1] == "1,0.5,1,0.75,0.25"

    def test_nine_significant_digits(self, tmp_path):
        history = TrainHistory(loss=[1.0 / 3.0], accuracy=[2.0 / 3.0])
        path = tmp_path / "history.csv"
        history.to_csv(path)
        assert path.read_text().splitlines()[1] == "1,0.333333333,0.666666667"


class TestFitArguments:
    def test_fit_takes_no_seed(self):
        # the model carries the seed: Sequential(..., seed=9)
        with pytest.raises(TypeError):
            fit(linear_probe_model(), np.zeros((2, 1)), np.zeros((2, 1)),
                epochs=1, optimizer=SGD(), seed=9)

    @pytest.mark.parametrize("arg", ["x", "y"])
    def test_complex_data_is_refused_naming_the_argument(self, arg):
        data = {"x": np.zeros((2, 1)), "y": np.zeros((2, 1))}
        data[arg] = data[arg] + 1j
        model = linear_probe_model()
        with pytest.raises(ValueError, match=f"^{arg}: complex data is refused"):
            fit(model, data["x"], data["y"], epochs=1, optimizer=SGD())
        with pytest.raises(ValueError, match=f"^{arg}: complex data is refused"):
            evaluate(model, data["x"], data["y"])
        assert not model.built

    @pytest.mark.parametrize("x,cause", [([[1.0, 2.0], [3.0]], "inhomogeneous"),
                                         ([["a"], ["b"]], "could not convert string"),
                                         ([{"a": 1}, {"b": 2}], "float")],
                             ids=["ragged", "strings", "objects"])
    def test_unreadable_x_names_the_argument(self, x, cause):
        with pytest.raises(ValueError, match=f"^x: .*{cause}"):
            fit(linear_probe_model(), x, np.zeros((2, 1)), epochs=1, optimizer=SGD())

    @pytest.mark.parametrize("arg", ["x", "y"])
    @pytest.mark.parametrize("data", [[["1"], ["0"]], [[1], [2**70]]], ids=["strings", "bigint"])
    def test_strings_and_objects_numpy_can_cast_are_refused(self, arg, data):
        given = {"x": np.zeros((2, 1)), "y": np.zeros((2, 1)), arg: data}
        model = linear_probe_model()
        message = f"^{arg}: data must hold real numbers, got dtype {np.asarray(data).dtype}$"
        with pytest.raises(ValueError, match=message):
            fit(model, given["x"], given["y"], epochs=1, optimizer=SGD())
        with pytest.raises(ValueError, match=message):
            evaluate(model, given["x"], given["y"])
        assert not model.built

    def test_validation_the_model_refuses_is_named(self):
        x, y = np.zeros((2, 1)), np.zeros((2, 1))
        with pytest.raises(ValueError, match="^validation: binary cross-entropy targets"):
            fit(linear_probe_model(), x, y, epochs=1, optimizer=SGD(),
                validation=(x, y + 0.5))
        with pytest.raises(ShapeError, match="^validation: Dense built for input"):
            fit(linear_probe_model(), x, y, epochs=1, optimizer=SGD(),
                validation=(np.zeros((2, 3)), y))

    @pytest.mark.parametrize("validation", ["targets", "width"])
    def test_a_refused_validation_set_moves_no_weight(self, validation):
        x, y = np.ones((2, 1)), np.array([[0.0], [1.0]])
        val = (x, y + 0.5) if validation == "targets" else (np.zeros((2, 3)), y)
        model = linear_probe_model(seed=3)
        model.predict(x)
        before = [p.data.copy() for p in model.params()]
        with pytest.raises(ValueError, match="^validation: "):
            fit(model, x, y, epochs=3, optimizer=SGD(lr=0.5), validation=val)
        for p, b in zip(model.params(), before):
            npt.assert_array_equal(p.data, b)
            assert p.grad is None or not p.grad.any()


class TestOneRealRuleForOptimizers:
    @pytest.mark.parametrize("opt,name", [("SGD", "lr"), ("Adam", "lr"), ("Adam", "eps"),
                                          ("Adam", "beta1")])
    @pytest.mark.parametrize("value", [Fraction(1, 10), 2**64, 2**70, np.array([0.1])],
                             ids=repr)
    def test_a_number_no_table_coefficient_may_be_is_refused(self, opt, name, value):
        # the same Fraction or beyond-64-bit int is refused as a table coefficient
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a real number, got {value!r}")):
            {"SGD": SGD, "Adam": Adam}[opt](**{name: value})

    def test_zero_d_arrays_and_64_bit_ints_are_accepted(self):
        opt = Adam(lr=np.array(0.5), beta1=np.array(0), eps=2**63)
        assert (opt.lr, opt.beta1, opt.eps) == (0.5, 0.0, float(2**63))


class TestAccuracyShapes:
    @pytest.mark.parametrize("pred_shape,target_shape", [
        ((2, 1), (2,)), ((2,), (2, 1)), ((2, 1), (1, 2)), ((3, 1), (2, 1))])
    def test_shapes_must_match(self, pred_shape, target_shape):
        message = (f"^accuracy: pred shape {re.escape(str(pred_shape))} and target shape "
                   f"{re.escape(str(target_shape))} differ$")
        with pytest.raises(ShapeError, match=message):
            accuracy(np.full(pred_shape, 0.9), np.ones(target_shape))

    def test_a_tensor_prediction_is_read_by_its_data(self):
        assert accuracy(Tensor([[0.9], [0.1]]), np.array([[1.0], [1.0]])) == 0.5


class TestValidationDataChecks:
    @pytest.mark.parametrize("validation", ["nan", "rows", "complex", "ragged"])
    def test_bad_validation_data_is_named_and_moves_no_weight(self, validation):
        x, y = np.ones((2, 1)), np.array([[0.0], [1.0]])
        val, cause = {
            "nan": ((np.array([[np.nan], [1.0]]), y), "x contains NaN or Inf"),
            "rows": ((np.ones((3, 1)), y), "x has 3 rows but y has 2"),
            "complex": ((x, y + 0j), "y: complex data is refused"),
            "ragged": (([[1.0], [1.0, 2.0]], y), "x: .*inhomogeneous"),
        }[validation]
        model = linear_probe_model(seed=4)
        model.predict(x)
        before = [p.data.copy() for p in model.params()]
        with pytest.raises(ValueError, match=f"^validation: {cause}"):
            fit(model, x, y, epochs=3, optimizer=SGD(lr=0.5), validation=val)
        for p, b in zip(model.params(), before):
            npt.assert_array_equal(p.data, b)
