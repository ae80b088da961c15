import base64
import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

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
    ], ids=["version", "unknown-kind", "no-algebra", "blob-missing"])
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
