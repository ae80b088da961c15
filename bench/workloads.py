"""The benchmark workloads, driven through khnn's public API.

Each workload has a ``setup`` (data generation, model build and one
warm-up step) and an ``episode`` (one whole training run) that times
its steps on a ``StepClock`` and returns its correctness checks. The
models, seeds and optimizers follow the CLI defaults, but the library
is called directly, so the CLI is on no timed path.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import khnn
from khnn import datasets, model as kmodel, training

CLI_SEED = 42   # khnn.cli.DEFAULT_SEED


class StepClock:
    """Times the steps of fit calls through the loss function fit is given.

    A step runs from one grad-recording loss call to the next, so it
    holds one backward, one optimizer step, any epoch-end work and the
    next forward. The first step starts when fit is called and the last
    ends when fit returns, so the steps add up to the whole fit. Loss
    calls made under no_grad (validation) do not start a step.
    """

    def __init__(self):
        self.durations = []
        self.samples = 0
        self._last = None
        self._started = False

    def begin(self):
        self._started = False
        self._last = perf_counter()

    def loss_fn(self, pred, target):
        if pred.requires_grad:
            now = perf_counter()
            if self._started:
                self.durations.append(now - self._last)
                self._last = now
            self._started = True
            self.samples += pred.data.shape[0]
        # looked up per call so that a traced bce_loss is the one used
        return training.bce_loss(pred, target)

    def end(self):
        self.durations.append(perf_counter() - self._last)

    def fit(self, model, x, y, **kwargs):
        self.begin()
        try:
            return training.fit(model, x, y, loss_fn=self.loss_fn, **kwargs)
        finally:
            self.end()


class NullTracer:
    def section(self, name):
        return nullcontext()

    def name_layers(self, model):
        pass


class Workload:
    name = ""

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer or NullTracer()
        self.accuracy = None
        self.last_model = None

    def build(self):
        raise NotImplementedError

    def model(self):
        self.last_model = self.build()
        self.tracer.name_layers(self.last_model)
        return self.last_model

    def setup(self):
        raise NotImplementedError

    def episode(self, clock):
        """Run one episode; return a list of (check name, passed)."""
        raise NotImplementedError


class XorFit(Workload):
    name = "xor-fit"
    epochs = 500

    def build(self):
        return khnn.Sequential([
            khnn.HyperDense(4, algebra="quaternions"),
            khnn.Activation("tanh"),
            khnn.Dense(1),
            khnn.Activation("sigmoid"),
        ], seed=CLI_SEED)

    def setup(self):
        self.x, self.y = datasets.XOR_X, datasets.XOR_Y
        StepClock().fit(self.model(), self.x, self.y, epochs=1, optimizer=khnn.Adam())

    def episode(self, clock):
        model = self.model()
        with self.tracer.section("step"):
            history = clock.fit(model, self.x, self.y, epochs=self.epochs,
                                optimizer=khnn.Adam(lr=0.001))
        self.accuracy = history.accuracy[-1]
        with self.tracer.section("check"):
            pred = model.predict(self.x)
        correct = int(((pred >= 0.5) == (self.y >= 0.5)).sum())
        return [("xor predicts 4/4", correct == 4)]


class SynthConvFit(Workload):
    name = "synth-conv-fit"
    epochs = 30
    min_accuracy = 0.9
    probe_images = 16
    rtol = 1e-9

    def build(self):
        return khnn.Sequential([
            khnn.HyperConv2D(8, (3, 3), algebra="quaternions"),
            khnn.GlobalMaxPool(),
            khnn.Dense(1),
            khnn.Activation("sigmoid"),
        ], seed=CLI_SEED + 1)

    def setup(self):
        (self.x, self.y), self.val, (x_test, _) = datasets.motif_splits(seed=CLI_SEED)
        # the data is the CLI's; the workload seed draws the extra probe images
        noise = np.random.default_rng(self.seed).standard_normal(
            (self.probe_images, *x_test.shape[1:]))
        self.probe = np.concatenate([x_test, noise])
        StepClock().fit(self.model(), self.x, self.y, epochs=1,
                        optimizer=khnn.Adam(lr=0.01), validation=self.val)

    def episode(self, clock):
        model = self.model()
        with self.tracer.section("step"):
            history = clock.fit(model, self.x, self.y, epochs=self.epochs,
                                optimizer=khnn.Adam(lr=0.01), validation=self.val)
        self.accuracy = history.accuracy[-1]
        with self.tracer.section("check"):
            pred = model.predict(self.probe)
            path = os.path.join(self.workdir, "synth-model.json")
            kmodel.save_model(model, path)
            same = np.array_equal(pred, kmodel.load_model(path).predict(self.probe))
            ref = reference_predict(model, self.probe)
        agrees = pred.shape == ref.shape and bool(
            np.all(np.abs(pred - ref) <= self.rtol * np.abs(ref)))
        return [("synth accuracy >= 0.9", self.accuracy >= self.min_accuracy),
                ("save/load/predict bit-exact", same),
                ("synth predict matches numpy reference to 1e-9", agrees)]


def reference_predict(model, images):
    """Output of a HyperConv2D, GlobalMaxPool, Dense, sigmoid model from numpy alone.

    The real kernel is built block by block from
    ``StructureConstants.left_matrix`` and the convolution is an einsum
    over ``sliding_window_view`` patches, so no khnn lowering code runs.
    """
    conv, _, dense, _ = model.layers
    w = conv.weights.data                      # (kh, kw, groups, filters, n)
    kh, kw, groups, filters, n = w.shape
    kernel = np.zeros((kh, kw, groups * n, filters * n))
    for a in range(kh):
        for b in range(kw):
            for g in range(groups):
                for f in range(filters):
                    left = conv.algebra.left_matrix(w[a, b, g, f])
                    kernel[a, b, g * n:(g + 1) * n, f * n:(f + 1) * n] = left.T
    windows = sliding_window_view(images, (kh, kw), axis=(1, 2))   # (B, H, W, C, kh, kw)
    feature = np.einsum("bhwcij,ijcd->bhwd", windows, kernel, optimize=True)
    pooled = (feature + conv.bias.data).max(axis=(1, 2))
    logit = pooled @ dense.weights.data + dense.bias.data
    return 1.0 / (1.0 + np.exp(-logit))


class OctonionDenseMinibatchF32(Workload):
    name = "octonion-dense-minibatch-f32"
    rows, width, batch, epochs = 4096, 64, 128, 10
    min_accuracy = 0.95

    def build(self):
        f32 = np.float32
        return khnn.Sequential([
            khnn.HyperDense(16, algebra="octonions", activation="tanh", dtype=f32),
            khnn.HyperDense(8, algebra="octonions", activation="tanh", dtype=f32),
            khnn.Dense(1, activation="sigmoid", dtype=f32),
        ], seed=self.seed)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.x = rng.standard_normal((self.rows, self.width)).astype(np.float32)
        teacher = rng.standard_normal(self.width)
        self.y = (self.x.astype(np.float64) @ teacher > 0).astype(np.float64).reshape(-1, 1)
        StepClock().fit(self.model(), self.x[:self.batch], self.y[:self.batch], epochs=1,
                        optimizer=khnn.Adam(), batch_size=self.batch)

    def episode(self, clock):
        model = self.model()
        with self.tracer.section("step"):
            history = clock.fit(model, self.x, self.y, epochs=self.epochs,
                                optimizer=khnn.Adam(), batch_size=self.batch)
        self.accuracy = history.accuracy[-1]
        return [("dense final loss finite", bool(np.isfinite(history.loss[-1]))),
                ("dense accuracy >= 0.95", self.accuracy >= self.min_accuracy)]


WORKLOADS = {w.name: w for w in (XorFit, SynthConvFit, OctonionDenseMinibatchF32)}
