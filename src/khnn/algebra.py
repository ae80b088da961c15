"""Finite-dimensional real algebras defined by structure constants.

An algebra of dimension n has basis e_0 .. e_{n-1} with e_0 the
multiplicative unit. The product is a bilinear map fixed by the rank-3
tensor A, with e_i * e_j = sum_k A[i, j, k] e_k. Elements are plain
1-D float arrays of coordinates in that basis.

Tables are entered as a dictionary mapping an index pair (i, j) with
i, j >= 1 to either a single (k, coeff) term or a list of such terms.
Rows and columns touching e_0 are implied by the unit law and filled in
automatically. Pairs that are not listed multiply to zero unless
``strict`` is set. Entry maps and algebra files pass one term rule.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .tensor import _coerce as _real_array


class AlgebraError(ValueError):
    """Invalid table data or an element of the wrong dimension."""


class StructureConstants:
    """An algebra's dimension and multiplication tensor.

    Instances are immutable: the tensor is stored read-only and every
    operation is a pure function, so values are safe to share freely.
    """

    def __init__(self, entries=None, dim=None, name=None, strict=False):
        if entries is None and dim is None:
            raise AlgebraError("need an entry map, a dim, or both")
        self._tensor = _tensor_from_rows(_entry_rows(entries or {}), dim, strict)
        self._tensor.setflags(write=False)
        self.name = name

    @classmethod
    def from_tensor(cls, tensor, name=None):
        """Wrap a raw (n, n, n) tensor without entry-map validation."""
        tensor = np.array(tensor, dtype=np.float64)
        if tensor.ndim != 3 or len(set(tensor.shape)) != 1 or tensor.shape[0] < 1:
            raise AlgebraError(f"structure tensor must be (n, n, n), got {tensor.shape}")
        out = cls.__new__(cls)
        out._tensor = tensor
        out._tensor.setflags(write=False)
        out.name = name
        return out

    @property
    def dim(self):
        return self._tensor.shape[0]

    @property
    def tensor(self):
        """The (n, n, n) multiplication tensor, read-only."""
        return self._tensor

    def mult(self, x, y):
        """Product of two elements: z_k = sum_ij x_i y_j A[i, j, k]."""
        x = self._coerce(x)
        y = self._coerce(y)
        return np.einsum("i,j,ijk->k", x, y, self._tensor)

    def left_matrix(self, w):
        """Matrix L with L @ x == mult(w, x) for every x."""
        w = self._coerce(w)
        return np.einsum("i,ijk->kj", w, self._tensor)

    def to_entries(self):
        """The tensor as an entry map that round-trips it exactly.

        Lists every non-zero product e_i e_j with i, j >= 1, and a product
        touching e_0 only where it differs from the unit law's implied
        e_0 e_j = e_j, e_i e_0 = e_i; an all-zero override is written as
        one zero term. Such overrides load through :func:`load_algebra`,
        not :func:`from_entries`.
        """
        entries = {}
        A = self._tensor
        for i, j in zip(*np.nonzero((A != _unit_law(self.dim)).any(axis=2))):
            terms = [(int(k), float(A[i, j, k])) for k in np.nonzero(A[i, j])[0]]
            entries[(int(i), int(j))] = terms or [(0, 0.0)]
        return entries

    def basis(self, i):
        if not 0 <= i < self.dim:
            raise AlgebraError(f"basis index {i} out of range [0, {self.dim})")
        e = np.zeros(self.dim)
        e[i] = 1.0
        return e

    def _coerce(self, x):
        x = _real_array(x, np.float64)
        if x.shape != (self.dim,):
            raise AlgebraError(f"element of shape {x.shape} does not fit dim {self.dim}")
        return x

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._tensor, other._tensor)

    def __repr__(self):
        label = self.name or "?"
        return f"StructureConstants({label!r}, dim={self.dim})"


def _entry_rows(entries):
    """An entry map as [i, j, k, coeff] rows; its keys may not touch e_0."""
    rows = []
    for key, value in entries.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise AlgebraError(f"entry key {key!r} is not an index pair")
        if 0 in key:
            raise AlgebraError(f"entry {key} touches the unit e_0; unit rows are implicit")
        terms = [value] if isinstance(value, tuple) else value
        if not isinstance(terms, list):
            raise AlgebraError(f"entry {key}: {value!r} is neither a (k, coeff) term "
                               "nor a list of them")
        for term in terms or [(0, 0.0)]:   # no terms: the zero product
            if not (isinstance(term, (tuple, list)) and len(term) == 2):
                raise AlgebraError(f"entry {key}: term {term!r} is not (k, coeff)")
            rows.append([*key, *term])
    return rows


def _tensor_from_rows(rows, dim, strict=False):
    """The unit law with each product e_i e_j that rows list replaced by their
    terms. A row [i, j, k, coeff] needs int indices in [0, dim), a finite real
    coeff and an (i, j, k) of its own; dim defaults to the largest index + 1."""
    if dim is not None and not (_is_int(dim) and dim >= 1):
        raise AlgebraError(f"dim must be an int >= 1, got {dim!r}")
    if not isinstance(rows, list):
        raise AlgebraError(f"entries must be a list, got {rows!r}")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4 and all(map(_is_int, row[:3]))
                and _is_number(row[3])):
            raise AlgebraError(f"bad entry row {row!r} "
                               "(want [i, j, k, coeff], ints and a finite number)")
    if dim is None:
        if not rows:
            raise AlgebraError("cannot infer dim from an empty entry map")
        dim = max(idx for row in rows for idx in row[:3]) + 1
    seen = set()
    for i, j, k, _ in rows:
        for idx in (i, j, k):
            if not 0 <= idx < dim:
                raise AlgebraError(f"entry ({i},{j}): index {idx} out of range [0, {dim})")
        if (i, j, k) in seen:
            raise AlgebraError(f"entry ({i},{j}): duplicate term for k={k}")
        seen.add((i, j, k))
    A = _unit_law(dim)
    listed = {(i, j) for i, j, _ in seen}
    if strict:
        missing = [(i, j) for i in range(1, dim) for j in range(1, dim)
                   if (i, j) not in listed]
        if missing:
            raise AlgebraError(f"strict mode: no product listed for pairs {missing}")
    for i, j in listed:
        A[i, j] = 0.0
    for i, j, k, c in rows:
        A[i, j, k] = float(c)
    return A


def _unit_law(dim):
    """The (dim, dim, dim) tensor of e_0 e_j = e_j and e_i e_0 = e_i alone."""
    try:
        A = np.zeros((dim, dim, dim))
    except (MemoryError, ValueError) as exc:   # numpy's too-big errors
        raise AlgebraError(f"dim {dim} is too large to allocate its tensor: {exc}") from exc
    idx = np.arange(dim)
    A[0, idx, idx] = A[idx, 0, idx] = 1.0
    return A


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def from_entries(entries, dim=None, name=None, strict=False):
    """Build a StructureConstants from an entry map."""
    return StructureConstants(entries, dim=dim, name=name, strict=strict)


# ---------------------------------------------------------------------------
# Law checks. All are exhaustive over basis tuples. The unit check is
# exact; the others compare products with an absolute tolerance of 1e-12
# and no relative one, which is exact for the shipped tables of small
# integers and absorbs rounding in a loaded table with non-integer entries.

def check_unit(algebra):
    """e_0 x == x and x e_0 == x for all basis elements."""
    A = algebra.tensor
    eye = np.eye(algebra.dim)
    return np.array_equal(A[0], eye) and np.array_equal(A[:, 0], eye)


def check_associative(algebra):
    """(e_i e_j) e_k == e_i (e_j e_k) over all basis triples."""
    A = algebra.tensor
    lhs = np.einsum("ijm,mkl->ijkl", A, A)
    rhs = np.einsum("jkm,iml->ijkl", A, A)
    return np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def check_commutative(algebra):
    A = algebra.tensor
    return np.allclose(A, A.transpose(1, 0, 2), rtol=0.0, atol=1e-12)


def check_alternative(algebra):
    """(xx)y == x(xy) and (yx)x == y(xx) over basis pairs."""
    A = algebra.tensor
    left_l = np.einsum("iim,mjl->ijl", A, A)
    left_r = np.einsum("ijm,iml->ijl", A, A)
    right_l = np.einsum("jim,mil->ijl", A, A)
    right_r = np.einsum("iim,jml->ijl", A, A)
    return (np.allclose(left_l, left_r, rtol=0.0, atol=1e-12)
            and np.allclose(right_l, right_r, rtol=0.0, atol=1e-12))


def cayley_dickson(algebra):
    """Double an algebra: (a,b)(c,d) = (ac - d*b, da + bc*).

    Conjugation is fixed as negation of all non-unit coordinates, which
    is correct along the Reals -> Complex -> Quaternions -> Octonions
    chain. Used as an independent oracle for those predefined tables.
    """
    A = algebra.tensor
    n = algebra.dim
    conj = -np.ones(n)
    conj[0] = 1.0
    B = np.zeros((2 * n, 2 * n, 2 * n))
    B[:n, :n, :n] = A
    for i in range(n):
        for j in range(n):
            B[i, n + j, n:] = A[j, i]
            B[n + i, j, n:] = conj[j] * A[i, j]
            B[n + i, n + j, :n] = -conj[j] * A[j, i]
    name = None
    if algebra.name:
        name = f"CD({algebra.name})"
    return StructureConstants.from_tensor(B, name=name)


# ---------------------------------------------------------------------------
# Predefined tables. Entry maps list e_i * e_j for i, j >= 1 only; unit
# rows are implied. Conventions for the tables below:
#   Quaternions   e1e2 = e3 cyclically, squares -e0 (Hamilton).
#   Klein4        group algebra of Z2 x Z2: commutative, squares e0,
#                 product of two distinct imaginary units is the third.
#   Cl20          generators e1, e2 with e1^2 = e2^2 = e0, e3 = e1e2,
#                 so e3^2 = -e0 and the generators anticommute.
#   Coquaternions e1^2 = -e0, e2^2 = e3^2 = e0, e1e2 = e3 (split quaternions).
#   Cl11          generators e1, e2 with e1^2 = e0, e2^2 = -e0, e3 = e1e2.
#   Tessarines    commutative, e1^2 = -e0, e2^2 = e0, e3 = e1e2.
#   Bicomplex     commutative, e1^2 = e2^2 = -e0, e3 = e1e2, e3^2 = e0.
#   Octonions     Cayley-Dickson doubling of the quaternions above.

_PREDEFINED_ENTRIES = {
    "Reals": ({}, 1),
    "Complex": ({(1, 1): (0, -1)}, 2),
    "Quaternions": ({
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, +1), (2, 1): (3, -1),
        (2, 3): (1, +1), (3, 2): (1, -1),
        (3, 1): (2, +1), (1, 3): (2, -1),
    }, 4),
    "Klein4": ({
        (1, 1): (0, +1), (2, 2): (0, +1), (3, 3): (0, +1),
        (1, 2): (3, +1), (2, 1): (3, +1),
        (2, 3): (1, +1), (3, 2): (1, +1),
        (3, 1): (2, +1), (1, 3): (2, +1),
    }, 4),
    "Cl20": ({
        (1, 1): (0, +1), (2, 2): (0, +1), (3, 3): (0, -1),
        (1, 2): (3, +1), (2, 1): (3, -1),
        (1, 3): (2, +1), (3, 1): (2, -1),
        (2, 3): (1, -1), (3, 2): (1, +1),
    }, 4),
    "Coquaternions": ({
        (1, 1): (0, -1), (2, 2): (0, +1), (3, 3): (0, +1),
        (1, 2): (3, +1), (2, 1): (3, -1),
        (2, 3): (1, -1), (3, 2): (1, +1),
        (3, 1): (2, +1), (1, 3): (2, -1),
    }, 4),
    "Cl11": ({
        (1, 1): (0, +1), (2, 2): (0, -1), (3, 3): (0, +1),
        (1, 2): (3, +1), (2, 1): (3, -1),
        (1, 3): (2, +1), (3, 1): (2, -1),
        (2, 3): (1, +1), (3, 2): (1, -1),
    }, 4),
    "Bicomplex": ({
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, +1),
        (1, 2): (3, +1), (2, 1): (3, +1),
        (1, 3): (2, -1), (3, 1): (2, -1),
        (2, 3): (1, -1), (3, 2): (1, -1),
    }, 4),
    "Tessarines": ({
        (1, 1): (0, -1), (2, 2): (0, +1), (3, 3): (0, -1),
        (1, 2): (3, +1), (2, 1): (3, +1),
        (1, 3): (2, -1), (3, 1): (2, -1),
        (2, 3): (1, +1), (3, 2): (1, +1),
    }, 4),
    # Doubling of the quaternion table above; kept as literal data so the
    # construction can be checked against it rather than generate it.
    "Octonions": ({
        (1, 1): (0, -1), (1, 2): (3, +1), (1, 3): (2, -1), (1, 4): (5, +1),
        (1, 5): (4, -1), (1, 6): (7, -1), (1, 7): (6, +1),
        (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, +1), (2, 4): (6, +1),
        (2, 5): (7, +1), (2, 6): (4, -1), (2, 7): (5, -1),
        (3, 1): (2, +1), (3, 2): (1, -1), (3, 3): (0, -1), (3, 4): (7, +1),
        (3, 5): (6, -1), (3, 6): (5, +1), (3, 7): (4, -1),
        (4, 1): (5, -1), (4, 2): (6, -1), (4, 3): (7, -1), (4, 4): (0, -1),
        (4, 5): (1, +1), (4, 6): (2, +1), (4, 7): (3, +1),
        (5, 1): (4, +1), (5, 2): (7, -1), (5, 3): (6, +1), (5, 4): (1, -1),
        (5, 5): (0, -1), (5, 6): (3, -1), (5, 7): (2, +1),
        (6, 1): (7, +1), (6, 2): (4, +1), (6, 3): (5, -1), (6, 4): (2, -1),
        (6, 5): (3, +1), (6, 6): (0, -1), (6, 7): (1, -1),
        (7, 1): (6, -1), (7, 2): (5, +1), (7, 3): (4, +1), (7, 4): (3, -1),
        (7, 5): (2, -1), (7, 6): (1, +1), (7, 7): (0, -1),
    }, 8),
}

_REGISTRY: dict[str, StructureConstants] = {}


def predefined_names():
    """Canonical names of the shipped algebras."""
    return list(_PREDEFINED_ENTRIES)


def predefined(name):
    """Look up a shipped algebra by name (case-insensitive)."""
    key = str(name).lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown algebra {name!r}; valid names: {', '.join(predefined_names())}")
    return _REGISTRY[key]


for _name, (_entries, _dim) in _PREDEFINED_ENTRIES.items():
    _REGISTRY[_name.lower()] = StructureConstants(_entries, dim=_dim, name=_name)


# ---------------------------------------------------------------------------
# Algebra documents, the JSON form of algebra files and of the algebras
# embedded in model files: {"name": str, "dim": int, "entries": [[i, j, k,
# coeff]...]} with unit rows implicit unless overridden. Entries are
# written sorted by (i, j, k) so the output is byte-stable.

def algebra_to_doc(algebra):
    """The algebra as a JSON-ready document that round-trips its tensor exactly."""
    rows = sorted([i, j, k, c] for (i, j), terms in algebra.to_entries().items()
                  for k, c in terms)
    return {"name": algebra.name, "dim": algebra.dim, "entries": rows}


def algebra_from_doc(doc, source="algebra document"):
    """Rebuild an algebra from :func:`algebra_to_doc` output.

    Unlike :func:`from_entries`, rows that touch the unit are accepted
    here (overriding the implied unit rows) so that deliberately broken
    tables can be loaded and then reported on by the law checks.
    """
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise AlgebraError(f"{source} lacks 'dim'/'entries' keys")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise AlgebraError(f"{source}: name must be a string or null, got {name!r}")
    try:
        tensor = _tensor_from_rows(doc["entries"], doc["dim"])
    except AlgebraError as exc:
        raise AlgebraError(f"{source}: {exc}") from exc
    return StructureConstants.from_tensor(tensor, name=name)


def save_algebra(algebra, path):
    write_atomic(path, json.dumps(algebra_to_doc(algebra), indent=2) + "\n")


def load_algebra(path):
    """Load an algebra file written by :func:`save_algebra` or by hand."""
    doc = read_json(path, AlgebraError, "algebra file")
    return algebra_from_doc(doc, source=f"algebra file {path}")


def read_json(path, error, kind):
    """The JSON document in path; error, naming the file, if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:   # ValueError: bad JSON or UTF-8
        raise error(f"cannot read {kind} {path}: {exc}") from exc


def write_atomic(path, text):
    """Write text to path via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Rendering helpers for the CLI.

def format_element(coeffs, tol=1e-12):
    """Render a coordinate vector as a signed basis combination, e.g. '-e0'."""
    parts = []
    for k, c in enumerate(np.asarray(coeffs, dtype=np.float64)):
        if abs(c) <= tol:
            continue
        mag = "" if abs(abs(c) - 1.0) <= tol else f"{abs(c):g}"
        term = f"{mag}e{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts) if parts else "0"


def multiplication_table(algebra):
    """Basis-product strings, table[i][j] = render(e_i * e_j)."""
    n = algebra.dim
    return [[format_element(algebra.tensor[i, j]) for j in range(n)]
            for i in range(n)]
