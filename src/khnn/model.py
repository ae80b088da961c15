"""Sequential model container with summary and JSON serialization.

Model files are single self-contained JSON documents: layer configs
(including shapes inferred at build time), each hyper layer's algebra
table embedded in full, and every parameter as base64 little-endian
float64 in enumeration order (layer order, weights before bias).

A layer is {"kind": file_tag, "config": config(), "algebra": document or
null}. A layer class joins the registry LAYER_CLASSES with a unique
file_tag and a config() keyed by its constructor arguments plus any
shape_key it records; Layer.from_config reads each back, algebra as a keyword.
load_model builds each layer at the shape it records, else at the one the
chain from layer 0's record brings it, in one pass that draws no seed.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .algebra import algebra_from_doc, algebra_to_doc, read_json, write_atomic
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
    """Ordered stack of layers, all built in one pass at the first forward."""

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
        first = self.layers[0]
        if not self.built:
            self._build(x.data.shape[1:])
        elif x.data.shape == first.in_shape:   # one sample of the built input shape
            raise ShapeError(f"model input of shape {x.data.shape} has no batch axis: "
                             f"{first.name} built for input {first.in_shape} needs one")
        layers, i = self.layers, 0
        while i < len(layers):
            layer = layers[i]
            if (isinstance(layer, L._HyperConv) and i + 1 < len(layers)
                    and isinstance(layers[i + 1], L.GlobalMaxPool)):
                # conv then pool in one op, which never holds the conv output
                x = layer.forward_pooled(x)
                i += 2
            else:
                x = layer.forward(x)
                i += 1
        return x

    def _input_shapes(self, shape):
        """The trailing shape reaching each layer from input shape, all checked."""
        shapes = []
        for i, layer in enumerate(self.layers):
            shapes.append(shape)
            try:
                shape = layer.output_shape(shape)
            except ShapeError as exc:
                before = self.layers[i - 1].name if i else "input"
                raise ShapeError(f"cannot connect {before} to {layer.name} "
                                 f"(layer {i}): {exc}") from exc
        return shapes

    def _build(self, shape):
        """Build each unbuilt layer for the shape that reaches it from shape.

        The whole shape chain is checked first, so a model that cannot
        connect builds no layer and draws no seed. Each layer without its
        own seed, weightless ones included, takes the next spawned child.
        """
        for layer, in_shape in zip(self.layers, self._input_shapes(shape)):
            if not layer.built:
                layer.build(in_shape, None if layer.seed is not None else self._next_rng())

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
    layer, shape = cls.from_config(doc.get("config", {}), **algebra)
    if hasattr(layer, "algebra") and not algebra:
        raise ModelLoadError(f"{doc['kind']} layer has no algebra")
    return layer, shape


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
    doc = read_json(path, ModelLoadError, "model file")
    if not isinstance(doc, dict):
        raise ModelLoadError(f"model file {path} holds no JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelLoadError(f"model file {path} has unsupported format_version "
                             f"{version!r} (expected {FORMAT_VERSION})")
    try:
        pairs = [_layer_from_doc(d) for d in doc["layers"]]
        raws = [base64.b64decode(blob) for blob in doc["weights"]]
        model = Sequential([layer for layer, _ in pairs])
        shapes = [record for _, record in pairs]
        if shapes and shapes[0] is not None:   # else each layer's record alone
            chain = model._input_shapes(shapes[0])
            shapes = [c if s is None else s for s, c in zip(shapes, chain)]
        # each blob is checked against its shape before any weight is drawn
        expected = [s for layer, record in pairs if record is not None
                    and isinstance(layer, L._Affine) for s in layer.param_shapes(record)]
        if len(raws) != len(expected):
            raise ValueError(f"'weights' holds {len(raws)} parameter blobs, "
                             f"expected {len(expected)}")
        for i, (raw, shape) in enumerate(zip(raws, expected)):
            if len(raw) != math.prod(shape) * 8:
                raise ValueError(f"parameter blob {i} holds {len(raw)} bytes, "
                                 f"expected {math.prod(shape) * 8}")
        placeholder = np.random.default_rng(0)   # weights the blobs overwrite
        for layer, shape in zip(model.layers, shapes):
            if shape is not None:
                layer.build(shape, placeholder)
    except (KeyError, TypeError, ValueError) as exc:   # binascii.Error included
        raise ModelLoadError(f"malformed model file {path}: {exc}") from exc
    params = [p for layer, record in pairs if record is not None for p in layer.params()]
    for p, raw in zip(params, raws):
        decoded = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape)
        p.data = decoded.astype(p.data.dtype)
    return model
