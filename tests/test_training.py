import math

import numpy as np
import numpy.testing as npt
import pytest

from khnn.algebra import predefined
from khnn.cli import _xor_model
from khnn.datasets import XOR_X, XOR_Y
from khnn.layers import Activation, Dense, HyperDense
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

    def test_one_xor_training_step_records_eight_tape_nodes(self):
        # expand_blocks, matmul, add_bias, tanh, matmul, add_bias, sigmoid
        # and the loss
        model = _xor_model(predefined("quaternions"), 42)
        loss = bce_loss(model.forward(Tensor(XOR_X)), Tensor(XOR_Y))
        nodes, todo, seen = [], [loss], set()
        while todo:
            t = todo.pop()
            if id(t) not in seen:
                seen.add(id(t))
                nodes += [t] if t._backward is not None else []
                todo.extend(t._parents)
        assert len(nodes) == 8
        assert loss._parents[0]._backward is not None      # the sigmoid's node

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

    def test_validation_the_model_refuses_is_named(self):
        x, y = np.zeros((2, 1)), np.zeros((2, 1))
        with pytest.raises(ValueError, match="^validation: binary cross-entropy targets"):
            fit(linear_probe_model(), x, y, epochs=1, optimizer=SGD(),
                validation=(x, y + 0.5))
        with pytest.raises(ShapeError, match="^validation: Dense built for input"):
            fit(linear_probe_model(), x, y, epochs=1, optimizer=SGD(),
                validation=(np.zeros((2, 3)), y))
