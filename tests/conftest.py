"""Shared naive reference implementations.

These are deliberately slow scalar loops kept independent of the block
assembly and sliced-matmul paths they are used to check.
"""

import itertools

import numpy as np

try:
    from hypothesis import settings
except ImportError:     # the property suites skip themselves without it
    pass
else:
    # fixed examples and no example database, so every run checks the same
    # cases and leaves no files behind
    settings.register_profile("khnn", derandomize=True, database=None,
                              max_examples=30, deadline=None)
    settings.load_profile("khnn")


def naive_conv_nd(x, kernel, stride=1, padding="valid"):
    """Direct nested-loop cross-correlation, channels last."""
    d = kernel.ndim - 2
    ksize = kernel.shape[:-2]
    if isinstance(stride, int):
        stride = (stride,) * d
    if padding == "same":
        out_spatial = tuple(-(-s // st) for s, st in zip(x.shape[1:-1], stride))
        pads = []
        for s, k, st, o in zip(x.shape[1:-1], ksize, stride, out_spatial):
            total = max((o - 1) * st + k - s, 0)
            pads.append((total // 2, total - total // 2))
        x = np.pad(x, ((0, 0), *pads, (0, 0)))
    spatial = x.shape[1:-1]
    out_spatial = tuple((s - k) // st + 1 for s, k, st in zip(spatial, ksize, stride))
    c_in, c_out = kernel.shape[-2], kernel.shape[-1]
    out = np.zeros((x.shape[0], *out_spatial, c_out))
    for b in range(x.shape[0]):
        for pos in itertools.product(*(range(o) for o in out_spatial)):
            for co in range(c_out):
                acc = 0.0
                for off in itertools.product(*(range(k) for k in ksize)):
                    src = tuple(p * st + o for p, st, o in zip(pos, stride, off))
                    for ci in range(c_in):
                        acc += x[(b, *src, ci)] * kernel[(*off, ci, co)]
                out[(b, *pos, co)] = acc
    return out


def naive_hyperdense(algebra, weights, bias, x):
    """Per-element algebra products: out[a] = sum_b weights[a, b] * x[b]."""
    u, m, n = weights.shape
    batch = x.shape[0]
    out = np.zeros((batch, u * n))
    for r in range(batch):
        elems = x[r].reshape(m, n)
        for a in range(u):
            acc = np.zeros(n)
            for b in range(m):
                acc += algebra.mult(weights[a, b], elems[b])
            out[r, a * n:(a + 1) * n] = acc
    return out + bias


def naive_hyperconv(algebra, weights, bias, x, stride=1, padding="valid"):
    """Algebra-element loop convolution.

    weights: (K1..Kd, G, F, n), x: (B, S1..Sd, G*n). The weight sits on
    the left of every product.
    """
    n = algebra.dim
    d = weights.ndim - 3
    ksize = weights.shape[:d]
    groups, filters = weights.shape[d], weights.shape[d + 1]
    if isinstance(stride, int):
        stride = (stride,) * d
    if padding == "same":
        out_spatial = tuple(-(-s // st) for s, st in zip(x.shape[1:-1], stride))
        pads = []
        for s, k, st, o in zip(x.shape[1:-1], ksize, stride, out_spatial):
            total = max((o - 1) * st + k - s, 0)
            pads.append((total // 2, total - total // 2))
        x = np.pad(x, ((0, 0), *pads, (0, 0)))
    spatial = x.shape[1:-1]
    out_spatial = tuple((s - k) // st + 1 for s, k, st in zip(spatial, ksize, stride))
    out = np.zeros((x.shape[0], *out_spatial, filters * n))
    for b in range(x.shape[0]):
        for pos in itertools.product(*(range(o) for o in out_spatial)):
            for f in range(filters):
                acc = np.zeros(n)
                for off in itertools.product(*(range(k) for k in ksize)):
                    src = tuple(p * st + o for p, st, o in zip(pos, stride, off))
                    for g in range(groups):
                        elem = x[(b, *src, slice(g * n, (g + 1) * n))]
                        acc += algebra.mult(weights[(*off, g, f)], elem)
                out[(b, *pos, slice(f * n, (f + 1) * n))] = acc
    return out + bias
