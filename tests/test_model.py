import base64
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from khnn import layers as L
from khnn import tensor as T
from khnn.algebra import StructureConstants, from_entries, predefined
from khnn.layers import (
    Activation,
    Dense,
    Flatten,
    GlobalMaxPool,
    HyperConv2D,
    HyperDense,
)
from khnn.model import ModelLoadError, Sequential, load_model, save_model
from khnn.tensor import ShapeError, Tensor

XOR_X = np.eye(4)
DATA = Path(__file__).parent / "data"


def xor_model(seed=0):
    return Sequential([
        HyperDense(4, algebra="quaternions"),
        Activation("tanh"),
        Dense(1),
        Activation("sigmoid"),
    ], seed=seed)


class TestForward:
    def test_xor_architecture_output(self):
        model = xor_model()
        out = model.forward(Tensor(XOR_X))
        assert out.data.shape == (4, 1)
        assert ((out.data > 0.0) & (out.data < 1.0)).all()

    def test_empty_model_rejected(self):
        with pytest.raises(RuntimeError, match="no layers"):
            Sequential().forward(Tensor(XOR_X))

    def test_flatten_only_model(self):
        model = Sequential([Flatten()])
        out = model.forward(Tensor(np.zeros((2, 3, 4))))
        assert out.data.shape == (2, 12)

    def test_build_error_names_both_layers(self):
        model = Sequential([Flatten(), HyperConv2D(2, (3, 3))], seed=0)
        with pytest.raises(ShapeError, match="Flatten.*HyperConv2D"):
            model.forward(Tensor(np.zeros((2, 3, 3, 4))))

    def test_all_layers_build_before_any_op_runs(self, monkeypatch):
        recorded, result = [], T._result
        monkeypatch.setattr(T, "_result", lambda *args: recorded.append(args) or result(*args))
        model = Sequential([HyperDense(2, algebra="quaternions"), Activation("tanh"),
                            GlobalMaxPool()], seed=0)
        with pytest.raises(ShapeError, match=r"cannot connect Activation to "
                                             r"GlobalMaxPool \(layer 2\)"):
            model.forward(Tensor(np.zeros((2, 8))))
        assert recorded == []
        assert not any(layer.built for layer in model.layers)
        assert model._seed_seq is None

    def test_failed_build_leaves_the_model_as_fresh(self):
        # layer 1's 3x3 kernel does not fit the 2x2 output of layer 0 on a
        # 3x3 input; the failure must build nothing and draw no seed
        def make():
            return Sequential([HyperConv2D(2, (2, 2), algebra="complex"),
                               HyperConv2D(1, (3, 3), algebra="complex"),
                               Flatten(), Dense(1)], seed=7)

        model = make()
        with pytest.raises(ShapeError, match=r"cannot connect HyperConv2D to "
                                             r"HyperConv2D \(layer 1\)"):
            model.predict(np.zeros((1, 3, 3, 4)))
        assert not any(layer.built for layer in model.layers)
        x = np.random.default_rng(0).standard_normal((1, 5, 5, 4))
        fresh = make()
        npt.assert_array_equal(model.predict(x), fresh.predict(x))
        for got, expected in zip(model.params(), fresh.params()):
            npt.assert_array_equal(got.data, expected.data)

    def test_flatten_without_a_feature_axis_builds_nothing(self):
        model = Sequential([Flatten(), Dense(1)], seed=1)
        with pytest.raises(ShapeError, match=r"^cannot connect input to Flatten "
                                             r"\(layer 0\): Flatten needs a feature axis"):
            model.predict(np.zeros(4))
        assert not any(layer.built for layer in model.layers)
        assert model._seed_seq is None
        with pytest.raises(ShapeError, match="^Flatten needs a feature axis"):
            Flatten()(Tensor(np.zeros(4)))

    @pytest.mark.parametrize("first", [Flatten, lambda: Dense(2)], ids=["flatten", "dense"])
    def test_built_model_fed_one_sample_names_the_model_input(self, first):
        model = Sequential([first(), Dense(1)], seed=1)
        model.predict(np.zeros((2, 3)))
        name = model.layers[0].name
        with pytest.raises(ShapeError, match=re.escape(
                f"model input of shape (3,) has no batch axis: {name} built for "
                "input (3,) needs one") + "$"):
            model.predict(np.zeros(3))
        assert model.predict(np.zeros((1, 3))).shape == (1, 1)

    def test_unbuilt_dense_model_fed_a_1d_input_builds_nothing(self):
        model = Sequential([Dense(2), Dense(1)], seed=1)
        with pytest.raises(ShapeError, match=r"^cannot connect input to Dense \(layer 0\): "
                                             r"Dense expects flat \(batch, width\) input"):
            model.predict(np.zeros(3))
        assert not any(layer.built for layer in model.layers)
        assert model._seed_seq is None

    def test_add_appends(self):
        model = Sequential()
        model.add(Dense(2))
        model.add(Activation("tanh"))
        assert len(model.layers) == 2

    def test_predict_equals_forward(self):
        model = xor_model(seed=1)
        out = model.forward(Tensor(XOR_X)).data
        npt.assert_array_equal(model.predict(XOR_X), out)

    def test_predict_records_no_gradients(self):
        model = xor_model(seed=2)
        model.predict(XOR_X)
        loss_free = model.layers[0].weights
        assert loss_free.grad is None
        with pytest.raises(RuntimeError):
            # nothing was recorded, so there is no tape to walk
            from khnn import tensor as T
            from khnn.tensor import no_grad
            with no_grad():
                T.tensor_sum(model.forward(Tensor(XOR_X))).backward()


def tape_ops(out):
    """Names of the tensor ops recorded on the tape that produced out."""
    ops, seen, todo = [], set(), [out]
    while todo:
        t = todo.pop()
        if id(t) in seen or t._backward is None:
            continue
        seen.add(id(t))
        ops.append(t._backward.__qualname__.split(".")[0])
        todo.extend(t._parents)
    return sorted(ops)


class TestConvPoolFusion:
    def test_conv_then_pool_records_one_fused_op(self):
        model = Sequential([HyperConv2D(2, (2, 2), activation="tanh"), GlobalMaxPool(),
                            Dense(1)], seed=4)
        out = model.forward(Tensor(np.ones((2, 4, 4, 4))))
        # the conv's tanh is folded into its add_bias tail
        assert tape_ops(out) == ["add_bias", "conv_global_max_pool", "expand_blocks",
                                 "linear"]
        assert model.layers[1].in_shape == (3, 3, 8)

    def test_unpooled_conv_records_one_tail_node(self):
        model = Sequential([HyperConv2D(2, (2, 2), activation="tanh"), Flatten(),
                            Dense(1)], seed=4)
        out = model.forward(Tensor(np.ones((2, 4, 4, 4))))
        assert tape_ops(out) == ["add_bias", "conv_nd", "expand_blocks", "linear",
                                 "reshape"]

    @pytest.mark.parametrize("tail", [lambda: [Flatten(), Dense(1)],
                                      lambda: [Activation("tanh"), GlobalMaxPool()]])
    def test_other_graphs_keep_the_separate_ops(self, tail):
        model = Sequential([HyperConv2D(2, (2, 2)), *tail()], seed=5)
        ops = tape_ops(model.forward(Tensor(np.ones((2, 4, 4, 4)))))
        assert "conv_nd" in ops and "conv_global_max_pool" not in ops

    def test_pool_is_built_for_the_conv_output_it_receives(self):
        conv = HyperConv2D(2, (2, 2), seed=6)
        conv.build((3, 3, 4), np.random.default_rng(6))
        model = Sequential([conv, GlobalMaxPool()])
        assert model.forward(Tensor(np.ones((1, 5, 6, 4)))).data.shape == (1, 8)
        assert model.layers[1].in_shape == (4, 5, 8)


class TestSummary:
    def test_requires_built_model(self):
        with pytest.raises(RuntimeError, match="unbuilt"):
            xor_model().summary()

    def test_hyperdense_param_counts(self):
        model = Sequential([HyperDense(10, algebra="quaternions")], seed=0)
        model.forward(Tensor(XOR_X))
        summary = model.summary()
        assert summary.layers[0].param_count == 80
        assert summary.total_params == 80

    def test_dense_count(self):
        model = Sequential([Dense(1)], seed=0)
        model.forward(Tensor(np.zeros((1, 40))))
        assert model.summary().total_params == 41

    def test_xor_model_total(self):
        model = xor_model()
        model.forward(Tensor(XOR_X))
        summary = model.summary()
        assert summary.total_params == 49
        assert summary.total_params == sum(r.param_count for r in summary.layers)
        assert summary.total_params == sum(p.data.size for p in model.params())

    def test_rendered_table_mentions_layers(self):
        model = xor_model()
        model.forward(Tensor(XOR_X))
        text = str(model.summary())
        assert "HyperDense" in text
        assert "total params: 49" in text
        assert "(None, 16)" in text


class TestParamEnumeration:
    def test_order_is_stable(self):
        model = xor_model(seed=3)
        model.forward(Tensor(XOR_X))
        first = model.params()
        second = model.params()
        assert [id(p) for p in first] == [id(p) for p in second]
        # layer order, weights before bias
        assert first[0] is model.layers[0].weights
        assert first[1] is model.layers[0].bias
        assert first[2] is model.layers[2].weights
        assert first[3] is model.layers[2].bias


class TestSerialization:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = xor_model(seed=4)
        before = model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        npt.assert_array_equal(loaded.predict(XOR_X), before)
        for p, q in zip(model.params(), loaded.params()):
            npt.assert_array_equal(p.data, q.data)

    def test_conv_model_roundtrip(self, tmp_path):
        model = Sequential([
            HyperConv2D(2, (3, 3), algebra="complex", stride=2, padding="same"),
            GlobalMaxPool(),
            Dense(1, activation="sigmoid"),
        ], seed=5)
        x = np.random.default_rng(0).standard_normal((2, 6, 6, 4))
        before = model.predict(x)
        path = tmp_path / "model.json"
        save_model(model, path)
        npt.assert_array_equal(load_model(path).predict(x), before)

    def test_truncated_file_rejected(self, tmp_path):
        model = xor_model(seed=6)
        model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelLoadError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = xor_model(seed=7)
        model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="format_version"):
            load_model(path)

    def test_wrong_blob_size_rejected(self, tmp_path):
        model = xor_model(seed=8)
        model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["weights"][0] = doc["weights"][0][:8]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="bytes"):
            load_model(path)

    def test_corrupt_blob_rejected_naming_the_file(self, tmp_path):
        model = xor_model(seed=8)
        model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["weights"][0] = doc["weights"][0][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=re.escape(str(path))):
            load_model(path)

    def test_non_object_document_rejected_naming_the_file(self, tmp_path):
        model = xor_model(seed=8)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(json.dumps([json.loads(path.read_text())]))
        with pytest.raises(ModelLoadError, match=re.escape(str(path))):
            load_model(path)

    def test_unregistered_layer_subclass_is_not_saved(self, tmp_path):
        class Doubling(L.Layer):
            def forward(self, x):
                return x

        model = Sequential([Doubling(), Dense(1)], seed=0)
        with pytest.raises(ValueError, match="^cannot serialize layer of type Doubling$"):
            save_model(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_hyper_layer_without_algebra_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(xor_model(seed=8), path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["algebra"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="hyper_dense layer has no algebra"):
            load_model(path)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda doc: doc.update(format_version=99), "unsupported format_version 99"),
        (lambda doc: doc["layers"][0].update(kind="nope"), "unknown layer kind 'nope'"),
        (lambda doc: doc["layers"][0].update(algebra=None),
         "hyper_dense layer has no algebra"),
        (lambda doc: doc["weights"].pop(), "holds 3 parameter blobs, expected 4"),
        (lambda doc: doc["layers"][0]["algebra"].update(dim=2.7),
         "dim must be an int >= 1, got 2.7"),
    ], ids=["version", "unknown-kind", "no-algebra", "blob-missing", "algebra-dim"])
    def test_load_errors_name_the_file(self, tmp_path, corrupt, message):
        model = xor_model(seed=8)
        model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError) as info:
            load_model(path)
        assert str(path) in str(info.value)
        assert message in str(info.value)

    def test_unknown_algebra_name_with_embedded_table(self, tmp_path):
        # tables travel inside the file, so the name needs no registry hit
        algebra = from_entries({(1, 1): (0, -1)}, dim=2, name="my-custom-plane")
        model = Sequential([HyperDense(2, algebra=algebra)], seed=9)
        x = np.random.default_rng(1).standard_normal((3, 4))
        before = model.predict(x)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layers[0].algebra.name == "my-custom-plane"
        assert loaded.layers[0].algebra == predefined("complex")
        npt.assert_array_equal(loaded.predict(x), before)

    def test_non_unital_algebra_roundtrip_exact(self, tmp_path):
        tensor = np.array(predefined("complex").tensor)
        tensor[0, 1] = [0.0, -1.0]          # e_0 e_1 = -e_1
        algebra = StructureConstants.from_tensor(tensor, name="skewed")
        model = Sequential([HyperDense(2, algebra=algebra)], seed=12)
        x = np.random.default_rng(3).standard_normal((3, 4))
        before = model.predict(x)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        npt.assert_array_equal(loaded.layers[0].algebra.tensor, tensor)
        npt.assert_array_equal(loaded.predict(x), before)

    def test_unbuilt_model_roundtrip(self, tmp_path):
        model = Sequential([HyperDense(2, algebra="complex"), Dense(1)])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert not loaded.built
        out = loaded.forward(Tensor(np.zeros((1, 4))))
        assert out.data.shape == (1, 1)

    def test_unbuilt_conv_records_stride_per_axis_and_a_scalar_loads(self, tmp_path):
        model = Sequential([HyperConv2D(2, 3, algebra="complex", stride=2),
                            GlobalMaxPool(), Dense(1)], seed=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["layers"][0]["config"]["stride"] == [2, 2]
        doc["layers"][0]["config"]["stride"] = 1   # as files of unbuilt models held it
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.layers[0].stride == (1, 1)
        assert loaded.predict(np.zeros((1, 5, 5, 2))).shape == (1, 1)

    def test_model_with_only_layer_0_built_loads_it_and_builds_the_rest(self, tmp_path):
        model = Sequential([HyperDense(2, algebra="complex", input_shape=(4,), seed=1),
                            Dense(1)])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.built
        npt.assert_array_equal(loaded.layers[0].weights.data, model.layers[0].weights.data)
        assert loaded.predict(np.zeros((1, 4))).shape == (1, 1)

    def test_float32_model_roundtrip_exact(self, tmp_path):
        model = Sequential([HyperDense(2, algebra="complex", dtype=np.float32)],
                           seed=11)
        x = np.random.default_rng(2).standard_normal((2, 4)).astype(np.float32)
        before = model.predict(x)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layers[0].weights.data.dtype == np.float32
        npt.assert_array_equal(loaded.predict(x), before)

    def test_enumeration_stable_across_roundtrip(self, tmp_path):
        model = xor_model(seed=10)
        model.predict(XOR_X)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        shapes_before = [p.data.shape for p in model.params()]
        shapes_after = [p.data.shape for p in loaded.params()]
        assert shapes_before == shapes_after


def _blob(text, shape):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(shape)


class TestGoldenFiles:
    """Version-1 files written by an earlier save_model.

    v1_conv_f32 is a float32 quaternion conv model and v1_dense_nonunital
    a float64 dense model over a non-unital 3-D algebra, both trained for
    a few steps. v1_predictions.json holds each model's input and the
    predictions it made before it was saved.
    """

    @pytest.mark.parametrize("name,total", [("v1_conv_f32", 89), ("v1_dense_nonunital", 25)])
    def test_loads_built_with_a_summary(self, name, total):
        model = load_model(DATA / f"{name}.json")
        assert model.built
        assert str(model.summary()).endswith(f"total params: {total}")

    def test_oversized_shape_claim_refused_before_any_weight_is_drawn(
            self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(L, "glorot_uniform", refuse)
        doc = json.loads((DATA / "v1_dense_nonunital.json").read_text())
        doc["layers"][0]["config"]["in_elems"] = 2_000_000
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ModelLoadError) as info:
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert "parameter blob 0 holds 96 bytes, expected 96000000" in str(info.value)
        assert peak < 2**20

    def test_shape_chain_that_does_not_connect_is_a_load_error(self, tmp_path):
        doc = json.loads((DATA / "v1_dense_nonunital.json").read_text())
        doc["layers"][1]["kind"] = "global_max_pool"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError) as info:
            load_model(path)
        assert str(path) in str(info.value)
        assert "cannot connect HyperDense to GlobalMaxPool (layer 1)" in str(info.value)

    @pytest.mark.parametrize("dim", [10 ** 6, 10 ** 10, 10 ** 30])
    def test_unallocatable_algebra_dim_names_the_file(self, tmp_path, dim):
        doc = json.loads((DATA / "v1_dense_nonunital.json").read_text())
        doc["layers"][0]["algebra"]["dim"] = dim
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=re.escape(
                f"malformed model file {path}: algebra document: dim {dim} is too large")):
            load_model(path)

    @pytest.mark.parametrize("name", ["v1_conv_f32", "v1_dense_nonunital"])
    def test_predicts_stored_outputs_and_resaves_byte_identical(self, tmp_path, name):
        case = json.loads((DATA / "v1_predictions.json").read_text())[name]
        x = _blob(case["x"], case["x_shape"]).astype(case["dtype"])
        model = load_model(DATA / f"{name}.json")
        pred = model.predict(x)
        assert pred.dtype == case["dtype"]
        npt.assert_array_equal(pred, _blob(case["pred"], case["pred_shape"]))
        save_model(model, tmp_path / "resaved.json")
        assert ((tmp_path / "resaved.json").read_bytes()
                == (DATA / f"{name}.json").read_bytes())


class TestLoadInOnePass:
    """load_model builds each layer at the shape it records, else at the one
    the chain from layer 0's record brings it, and draws no seed."""

    def test_lone_built_conv_keeps_its_recorded_shape(self, tmp_path):
        conv = HyperConv2D(2, (3, 3), seed=1)
        conv.build((5, 5, 4))
        model = Sequential([HyperConv2D(1, (1, 1)), conv, Activation("tanh")], seed=2)
        x = np.random.default_rng(3).standard_normal((2, 7, 7, 4))
        pred = model.predict(x)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.layers[1].in_shape == (5, 5, 4)
        assert str(loaded.summary()) == str(model.summary())
        npt.assert_array_equal(loaded.predict(x), pred)
        save_model(loaded, tmp_path / "resaved.json")
        assert ((tmp_path / "resaved.json").read_bytes()
                == (tmp_path / "model.json").read_bytes())

    @pytest.mark.parametrize("name", ["v1_conv_f32", "v1_dense_nonunital"])
    def test_golden_file_loads_without_a_seed_sequence(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("load_model made a seed sequence")

        model = load_model(DATA / f"{name}.json")
        assert model.built
        assert model._seed_seq is None
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        load_model(DATA / f"{name}.json")

    def test_record_edited_against_its_blob_is_refused_not_rewritten(self, tmp_path):
        doc = json.loads((DATA / "v1_dense_nonunital.json").read_text())
        doc["layers"][2]["config"]["in_width"] = 3   # Flatten brings 6, the blob holds 6
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=re.escape(
                f"malformed model file {path}: parameter blob 2 holds 48 bytes, "
                "expected 24")):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_int_1(self, tmp_path, version):
        doc = json.loads((DATA / "v1_dense_nonunital.json").read_text())
        doc["format_version"] = version
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=re.escape(
                f"model file {path} has unsupported format_version {version!r}")):
            load_model(path)


class TestOnlyWeightedLayersTakeSeeds:
    @pytest.mark.parametrize("make", [lambda: GlobalMaxPool(seed=1),
                                      lambda: Flatten(seed=1),
                                      lambda: GlobalMaxPool(dtype=np.float32),
                                      lambda: Flatten(dtype=np.float32)],
                             ids=["pool-seed", "flatten-seed", "pool-dtype", "flatten-dtype"])
    def test_weightless_layers_take_no_seed_or_dtype(self, make):
        with pytest.raises(TypeError):
            make()

    def test_weightless_layers_keep_their_place_in_the_spawn_order(self):
        # each layer without its own seed takes the next child, weightless or not
        model = Sequential([HyperConv2D(1, (3, 3)), GlobalMaxPool(), Dense(1)], seed=5)
        model.predict(np.zeros((1, 4, 4, 4)))
        third = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[2])
        npt.assert_array_equal(model.layers[2].weights.data,
                               L.glorot_uniform((4, 1), 4, 1, third))

    def test_a_layer_built_alone_draws_from_its_own_seed(self):
        alone = HyperDense(2, algebra="complex", seed=4)
        alone.build((4,))
        in_model = HyperDense(2, algebra="complex", seed=4)
        Sequential([in_model], seed=99).predict(np.zeros((1, 4)))
        npt.assert_array_equal(alone.weights.data, in_model.weights.data)


class TestConstructionChecks:
    @pytest.mark.parametrize("seed", ["a", -1, 1.5, True], ids=["str", "negative",
                                                                "float", "bool"])
    def test_bad_model_seed_is_refused_at_construction(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be None or an int >= 0, got {seed!r}")):
            Sequential([Dense(1)], seed=seed)

    def test_numpy_int_model_seed_builds_as_its_value(self):
        a, b = xor_model(seed=np.int64(3)), xor_model(seed=3)
        npt.assert_array_equal(a.predict(XOR_X), b.predict(XOR_X))

    def test_a_layer_list_entry_that_is_not_a_layer_is_named(self):
        with pytest.raises(TypeError, match=r"^layer 1 is not a Layer: 'relu'$"):
            Sequential([Dense(1), "relu"])

    def test_add_refuses_what_is_not_a_layer(self):
        model = Sequential([Dense(1)])
        with pytest.raises(TypeError, match=r"^layer 1 is not a Layer: 'relu'$"):
            model.add("relu")
        assert len(model.layers) == 1


class TestPooledForward:
    def test_model_runs_a_conv_before_a_pool_as_its_pooled_forward(self, monkeypatch):
        calls = []
        forward = L._HyperConv.forward

        def spy(self, x, pooled=False):
            calls.append(pooled)
            return forward(self, x, pooled=pooled)

        monkeypatch.setattr(L._HyperConv, "forward", spy)
        model = Sequential([HyperConv2D(1, (2, 2)), Activation("tanh"), GlobalMaxPool()],
                           seed=1)
        model.predict(np.ones((1, 3, 3, 4)))
        model = Sequential([HyperConv2D(1, (2, 2)), GlobalMaxPool()], seed=1)
        model.predict(np.ones((1, 3, 3, 4)))
        assert calls == [False, True]
