"""Golden training trajectories.

Fixed fits whose final weights and per-epoch losses are pinned in
tests/data/trajectories.json, so a change that claims to leave training
untouched can show that no weight moved. Moving one initial weight by
one ulp moved the float64 fits by at most 3.6e-15 relative, and the
float32 fit's weights by 7.3e-7 and its losses by 4.2e-8. The bounds
sit one to three orders of magnitude above that, so reassociated float
sums pass and a real change fails.

Regenerate the file only for a change that is meant to move training:

    PYTHONPATH=src python tests/test_trajectories.py
"""

import json
import os

import numpy as np
import pytest

import khnn
from khnn import datasets
from khnn.cli import _xor_model
from khnn.training import fit

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "trajectories.json")

# relative bounds, per fit's dtype: (weights, losses)
TOLERANCE = {"float64": (1e-12, 1e-12), "float32": (1e-5, 1e-6)}


def xor_fit(algebra):
    """train-xor's defaults: seed 42, Adam, 500 full-batch epochs."""
    def run():
        model = _xor_model(algebra, 42)
        history = fit(model, datasets.XOR_X, datasets.XOR_Y, epochs=500,
                      optimizer=khnn.Adam(lr=0.001))
        return model, history
    return run


def octonion_f32_fit():
    """Float32 octonion dense stack, Adam, batch 128 on 1024x64 teacher data."""
    f32 = np.float32
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1024, 64)).astype(f32)
    y = (x.astype(np.float64) @ rng.standard_normal(64) > 0).astype(np.float64)
    model = khnn.Sequential([
        khnn.HyperDense(16, algebra="octonions", activation="tanh", dtype=f32),
        khnn.HyperDense(8, algebra="octonions", activation="tanh", dtype=f32),
        khnn.Dense(1, activation="sigmoid", dtype=f32),
    ], seed=7)
    history = fit(model, x, y.reshape(-1, 1), epochs=5, optimizer=khnn.Adam(),
                  batch_size=128)
    return model, history


def synth_fit():
    """train-synth-images' defaults for 5 epochs."""
    model = khnn.Sequential([
        khnn.HyperConv2D(8, (3, 3), algebra="quaternions"),
        khnn.GlobalMaxPool(),
        khnn.Dense(1),
        khnn.Activation("sigmoid"),
    ], seed=43)
    (x, y), val, _ = datasets.motif_splits(seed=42)
    history = fit(model, x, y, epochs=5, optimizer=khnn.Adam(lr=0.01),
                  validation=val)
    return model, history


FITS = {
    "xor-quaternions": xor_fit("quaternions"),
    "xor-complex": xor_fit("complex"),
    "xor-klein4": xor_fit("klein4"),
    "octonion-f32-minibatch": octonion_f32_fit,
    "synth-5-epochs": synth_fit,
}


def record(run):
    model, history = run()
    params = model.params()
    return {"dtype": params[0].data.dtype.name,
            "loss": list(history.loss), "val_loss": list(history.val_loss),
            "weights": [p.data.astype(np.float64).ravel().tolist() for p in params],
            "shapes": [list(p.data.shape) for p in params]}


def relative_error(got, want):
    """max |got - want| over max |want|, so a tensor of zeros needs zeros."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return diff / scale if scale else diff


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", FITS)
def test_fit_follows_its_golden_trajectory(golden, name):
    want = golden[name]
    got = record(FITS[name])
    weight_tol, loss_tol = TOLERANCE[want["dtype"]]
    assert got["dtype"] == want["dtype"]
    assert got["shapes"] == want["shapes"]
    for key in ("loss", "val_loss"):
        assert len(got[key]) == len(want[key])
        if want[key]:
            rel = np.abs(np.subtract(got[key], want[key])) / np.abs(want[key])
            assert rel.max() <= loss_tol, (
                f"{name}: {key} of epoch {int(rel.argmax()) + 1} moved {rel.max():.3g}")
    for i, (w, ref) in enumerate(zip(got["weights"], want["weights"])):
        err = relative_error(w, ref)
        assert err <= weight_tol, f"{name}: parameter {i} moved {err:.3g} relative"


if __name__ == "__main__":
    doc = {name: record(run) for name, run in FITS.items()}
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
