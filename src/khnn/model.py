"""Sequential model container with summary and JSON serialization.

Model files are single self-contained JSON documents: layer configs
(including shapes inferred at build time), each hyper layer's algebra
table embedded in full, and every parameter as base64 little-endian
float64 in enumeration order (layer order, weights before bias).

A layer is {"kind": file_tag, "config": config(), "algebra": document or
null}. A layer class joins the registry LAYER_CLASSES with a unique
file_tag and a config() keyed by its constructor arguments plus its
shape_key, which Layer.from_config reads back, algebra as a keyword.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .algebra import algebra_from_doc, algebra_to_doc, write_atomic
from .tensor import ShapeError, Tensor, no_grad

FORMAT_VERSION = 1


class ModelLoadError(ValueError):
    """Model file cannot be read back (corrupt, truncated, wrong version)."""


@dataclass
class LayerReport:
    name: str
    out_shape: tuple
    param_count: int


@dataclass
class ModelSummary:
    layers: list[LayerReport] = field(default_factory=list)

    @property
    def total_params(self):
        return sum(r.param_count for r in self.layers)

    def __str__(self):
        rows = [("layer", "output shape", "params")]
        for r in self.layers:
            rows.append((r.name, str((None, *r.out_shape)), str(r.param_count)))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        lines.append(f"total params: {self.total_params}")
        return "\n".join(lines)


class Sequential:
    """Ordered stack of layers; shapes are inferred at the first forward."""

    def __init__(self, layers=None, seed=None):
        self.layers = list(layers) if layers else []
        self.seed = seed
        self._seed_seq = None

    def add(self, layer):
        self.layers.append(layer)

    @property
    def built(self):
        return bool(self.layers) and all(layer.built for layer in self.layers)

    def _next_rng(self):
        if self._seed_seq is None:
            self._seed_seq = np.random.SeedSequence(self.seed)
        return np.random.default_rng(self._seed_seq.spawn(1)[0])

    def forward(self, x):
        if not self.layers:
            raise RuntimeError("model has no layers")
        if not isinstance(x, Tensor):
            x = Tensor(x)
        for i, layer in enumerate(self.layers):
            if not layer.built:
                rng = (np.random.default_rng(layer.seed) if layer.seed is not None
                       else self._next_rng())
                try:
                    layer.build(x.data.shape[1:], rng)
                except ShapeError as exc:
                    before = self.layers[i - 1].name if i else "input"
                    raise ShapeError(
                        f"cannot connect {before} to {layer.name} "
                        f"(layer {i}): {exc}") from exc
            x = layer.forward(x)
        return x

    def predict(self, x):
        """Forward pass without gradient recording; returns a numpy array."""
        with no_grad():
            return self.forward(x).data

    def params(self):
        """Trainable tensors in stable order: layer order, weights then bias."""
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def summary(self):
        if not self.built:
            raise RuntimeError("model is unbuilt; run a forward pass first")
        return ModelSummary([LayerReport(layer.name, layer.out_shape,
                                         layer.param_count())
                             for layer in self.layers])


# ---------------------------------------------------------------------------
# serialization

LAYER_CLASSES = (L.HyperDense, L.HyperConv1D, L.HyperConv2D, L.HyperConv3D,
                 L.Dense, L.Activation, L.GlobalMaxPool, L.Flatten)
_BY_TAG = {cls.file_tag: cls for cls in LAYER_CLASSES}


def _layer_doc(layer):
    if type(layer) not in LAYER_CLASSES:
        raise ValueError(f"cannot serialize layer of type {type(layer).__name__}")
    algebra = getattr(layer, "algebra", None)
    return {"kind": layer.file_tag, "config": layer.config(),
            "algebra": None if algebra is None else algebra_to_doc(algebra)}


def _layer_from_doc(doc):
    cls = _BY_TAG.get(doc["kind"])
    if cls is None:
        raise ModelLoadError(f"unknown layer kind {doc['kind']!r}")
    algebra = {} if doc.get("algebra") is None else {
        "algebra": algebra_from_doc(doc["algebra"])}
    layer = cls.from_config(doc.get("config", {}), **algebra)
    if hasattr(layer, "algebra") and not algebra:
        raise ModelLoadError(f"{doc['kind']} layer has no algebra")
    return layer


def save_model(model, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "layers": [_layer_doc(layer) for layer in model.layers],
        "weights": [base64.b64encode(
            np.ascontiguousarray(p.data, dtype="<f8").tobytes()).decode("ascii")
            for p in model.params()],
    }
    write_atomic(path, json.dumps(doc, indent=1) + "\n")


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelLoadError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelLoadError(f"model file {path} holds no JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelLoadError(f"model file {path} has unsupported format_version "
                             f"{version!r} (expected {FORMAT_VERSION})")
    try:
        model = Sequential([_layer_from_doc(d) for d in doc["layers"]])
        raws = [base64.b64decode(blob) for blob in doc["weights"]]
    except (KeyError, TypeError, ValueError) as exc:   # binascii.Error included
        raise ModelLoadError(f"malformed model file {path}: {exc}") from exc
    params = model.params()
    if len(raws) != len(params):
        raise ModelLoadError(f"model file {path} holds {len(raws)} parameter "
                             f"blobs, expected {len(params)}")
    for p, raw in zip(params, raws):
        if len(raw) != p.data.size * 8:
            raise ModelLoadError(f"model file {path}: parameter blob holds "
                                 f"{len(raw)} bytes, expected {p.data.size * 8}")
        decoded = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape)
        p.data = decoded.astype(p.data.dtype)
    return model
