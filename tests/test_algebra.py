import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from khnn.algebra import (
    AlgebraError,
    StructureConstants,
    algebra_to_doc,
    cayley_dickson,
    check_alternative,
    check_associative,
    check_commutative,
    check_unit,
    format_element,
    from_entries,
    load_algebra,
    multiplication_table,
    predefined,
    predefined_names,
    save_algebra,
    write_atomic,
)
from khnn.model import ModelLoadError, load_model

ALL_NAMES = predefined_names()
DATA = Path(__file__).parent / "data"

# Hamilton's table written out by hand: ij = k, jk = i, ki = j, squares -1.
# Independent of both the registry data and the doubling construction.
HAMILTON = {
    (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
    (1, 2): (3, +1), (2, 1): (3, -1),
    (2, 3): (1, +1), (3, 2): (1, -1),
    (3, 1): (2, +1), (1, 3): (2, -1),
}


def hamilton_tensor():
    A = np.zeros((4, 4, 4))
    A[0] = np.eye(4)
    for i in range(4):
        A[i, 0, i] = 1.0
    for (i, j), (k, c) in HAMILTON.items():
        A[i, j, k] = c
    return A


class TestFromEntries:
    def test_complex_single_entry_dict(self):
        alg = from_entries({(1, 1): [(0, -1)]}, dim=2)
        assert alg.dim == 2
        assert alg.tensor[1, 1, 0] == -1.0
        npt.assert_array_equal(alg.tensor[0], np.eye(2))
        npt.assert_array_equal(alg.tensor[:, 0], np.eye(2))

    def test_single_term_tuple_accepted(self):
        # the compact {(i,j): (k, c)} form, dim inferred from indices
        alg = StructureConstants({(1, 1): (0, -1)})
        assert alg.dim == 2
        assert alg == predefined("complex")

    def test_empty_map_dim_one_is_reals(self):
        alg = from_entries({}, dim=1)
        assert alg.dim == 1
        assert alg.tensor[0, 0, 0] == 1.0

    def test_unlisted_pairs_multiply_to_zero(self):
        alg = from_entries({(1, 1): (0, -1)}, dim=3)
        npt.assert_array_equal(alg.tensor[1, 2], np.zeros(3))

    def test_strict_mode_rejects_missing_pairs(self):
        with pytest.raises(AlgebraError, match="strict"):
            from_entries({(1, 1): (0, -1)}, dim=3, strict=True)

    def test_unit_row_entry_rejected(self):
        with pytest.raises(AlgebraError, match="unit"):
            from_entries({(0, 1): (1, 1.0)}, dim=2)

    def test_out_of_range_index_names_entry(self):
        with pytest.raises(AlgebraError, match=r"\(1,1\)"):
            from_entries({(1, 1): (5, 1.0)}, dim=2)

    def test_bad_dim(self):
        with pytest.raises(AlgebraError):
            from_entries({}, dim=0)

    def test_duplicate_term_rejected(self):
        with pytest.raises(AlgebraError, match="duplicate"):
            from_entries({(1, 1): [(0, -1), (0, 1)]}, dim=2)

    def test_multi_term_products(self):
        alg = from_entries({(1, 1): [(0, 1), (1, 2)]}, dim=2)
        npt.assert_array_equal(alg.mult([0, 1], [0, 1]), [1.0, 2.0])


class TestOneTermRule:
    # entry maps the cast-only reading once took or failed on raw, each with
    # the document row that writes the same term
    BAD = {
        "float-k": ({(1, 1): (0.5, -1)}, [1, 1, 0.5, -1]),
        "bool-key": ({(True, True): (0, -1)}, [True, True, 0, -1]),
        "nan-coeff": ({(1, 1): (0, float("nan"))}, [1, 1, 0, float("nan")]),
        "bool-coeff": ({(1, 1): (0, True)}, [1, 1, 0, True]),
        "str-k": ({(1, 1): ("0", -1)}, [1, 1, "0", -1]),
        "float-key": ({(1.0, 1): (0, -1)}, [1.0, 1, 0, -1]),
        "fractional-key": ({(1.5, 1): (0, -1)}, [1.5, 1, 0, -1]),
    }

    @pytest.mark.parametrize("name", BAD)
    def test_entry_map_refuses_what_a_file_refuses(self, tmp_path, name):
        entries, row = self.BAD[name]
        with pytest.raises(AlgebraError, match=r"^bad entry row \["):
            StructureConstants(entries, dim=2)
        with pytest.raises(AlgebraError, match=r"^bad entry row \["):
            StructureConstants(entries)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": [row]}))
        message = re.escape(f"algebra file {path}: bad entry row")
        with pytest.raises(AlgebraError, match=message):
            load_algebra(path)

    @pytest.mark.parametrize("value", [5, 0.5, "0,-1", {0: -1}, None, np.array([0, -1])])
    def test_value_that_is_no_term_or_list_is_refused(self, value):
        with pytest.raises(AlgebraError, match=r"^entry \(1, 1\): .* is neither a "
                                               r"\(k, coeff\) term nor a list of them$"):
            StructureConstants({(1, 1): value}, dim=2)

    def test_numpy_scalars_pass_the_rule(self):
        entries = {(np.int64(1), np.int32(1)): (np.int16(0), np.float32(-1.0))}
        assert StructureConstants(entries) == predefined("complex")
        assert StructureConstants({(1, 1): [(0, np.int64(-1))]}, dim=np.int64(2)) == \
            predefined("complex")

    def test_empty_term_list_is_a_listed_zero_product(self):
        alg = from_entries({(1, 1): []}, dim=2, strict=True)
        npt.assert_array_equal(alg.tensor[1, 1], [0.0, 0.0])

    @pytest.mark.parametrize("dim", [2.0, True, "2", 0])
    def test_dim_argument_follows_the_file_rule(self, dim):
        with pytest.raises(AlgebraError, match=r"^dim must be an int >= 1"):
            StructureConstants({(1, 1): (0, -1)}, dim=dim)

    def test_neither_entries_nor_dim(self):
        with pytest.raises(AlgebraError, match="^need an entry map, a dim, or both$"):
            StructureConstants()

    def test_from_tensor_refuses_a_non_cube(self):
        with pytest.raises(AlgebraError, match=r"must be \(n, n, n\), got \(2, 2, 3\)"):
            StructureConstants.from_tensor(np.zeros((2, 2, 3)))

    def test_basis_index_out_of_range(self):
        with pytest.raises(AlgebraError, match=r"basis index 2 out of range \[0, 2\)"):
            predefined("complex").basis(2)


class TestUnallocatableDim:
    # numpy refuses each of these at once, without allocating
    DIMS = [10 ** 6, 10 ** 10, 10 ** 30]

    @pytest.mark.parametrize("dim", DIMS)
    def test_dim_argument(self, dim):
        with pytest.raises(AlgebraError, match=f"^dim {dim} is too large to allocate"):
            StructureConstants(dim=dim)

    def test_inferred_dim(self):
        with pytest.raises(AlgebraError, match=f"^dim {10 ** 30 + 1} is too large"):
            StructureConstants({(1, 10 ** 30): (0, -1)})

    @pytest.mark.parametrize("dim", DIMS)
    def test_algebra_file_names_the_file_and_the_dim(self, tmp_path, dim):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "dim": dim, "entries": []}))
        with pytest.raises(AlgebraError, match=re.escape(
                f"algebra file {path}: dim {dim} is too large")):
            load_algebra(path)


class TestMult:
    def test_complex_unit_times_unit(self):
        alg = predefined("Complex")
        npt.assert_array_equal(alg.mult(np.array([1, 0]), np.array([1, 0])), [1.0, 0.0])

    def test_complex_i_times_i(self):
        alg = predefined("Complex")
        npt.assert_array_equal(alg.mult(np.array([0, 1]), np.array([0, 1])), [-1.0, 0.0])

    def test_quaternion_e1_e2_is_e3(self):
        alg = predefined("Quaternions")
        npt.assert_array_equal(alg.mult([0, 1, 0, 0], [0, 0, 1, 0]), [0, 0, 0, 1])

    def test_length_mismatch(self):
        with pytest.raises(AlgebraError):
            predefined("Complex").mult([1, 0, 0], [1, 0])


class TestLeftMatrix:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_unit_gives_identity(self, name):
        alg = predefined(name)
        npt.assert_array_equal(alg.left_matrix(alg.basis(0)), np.eye(alg.dim))

    def test_complex_literal(self):
        a, b = 1.5, -0.25
        npt.assert_array_equal(predefined("Complex").left_matrix([a, b]),
                               [[a, -b], [b, a]])

    def test_quaternion_e1_columns(self):
        L = predefined("Quaternions").left_matrix([0, 1, 0, 0])
        expected = np.array([[0, -1, 0, 0],
                             [1, 0, 0, 0],
                             [0, 0, 0, -1],
                             [0, 0, 1, 0]], dtype=float)
        npt.assert_array_equal(L, expected)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_mult_on_random_pairs(self, name):
        alg = predefined(name)
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.standard_normal(alg.dim)
            x = rng.standard_normal(alg.dim)
            npt.assert_allclose(alg.left_matrix(w) @ x, alg.mult(w, x),
                                rtol=1e-12, atol=1e-12)


class TestLaws:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_unit_law(self, name):
        assert check_unit(predefined(name))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_associativity(self, name):
        expected = name != "Octonions"
        assert check_associative(predefined(name)) is expected

    def test_commutativity(self):
        commutative = {"Reals", "Complex", "Klein4", "Bicomplex", "Tessarines"}
        for name in ALL_NAMES:
            assert check_commutative(predefined(name)) is (name in commutative)

    def test_octonions_alternative(self):
        assert check_alternative(predefined("Octonions"))

    def test_broken_table_fails_unit_check(self):
        A = np.zeros((2, 2, 2))
        assert not check_unit(StructureConstants.from_tensor(A))

    @pytest.mark.parametrize("name", ["Complex", "Quaternions", "Octonions"])
    def test_norm_composition(self, name):
        alg = predefined(name)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            lhs = np.linalg.norm(alg.mult(x, y))
            rhs = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= 1e-10 * rhs


class TestCayleyDickson:
    def test_reals_double_to_complex(self):
        assert cayley_dickson(predefined("Reals")) == predefined("Complex")

    def test_complex_double_to_quaternions(self):
        assert cayley_dickson(predefined("Complex")) == predefined("Quaternions")

    def test_quaternions_double_to_octonions(self):
        assert cayley_dickson(predefined("Quaternions")) == predefined("Octonions")

    def test_predefined_quaternions_match_hamilton_literal(self):
        npt.assert_array_equal(predefined("Quaternions").tensor, hamilton_tensor())

    def test_quaternion_entry_map_equals_doubled_complex(self):
        alg = from_entries(HAMILTON, dim=4)
        assert alg == cayley_dickson(predefined("Complex"))


class TestRegistry:
    def test_names(self):
        assert ALL_NAMES == ["Reals", "Complex", "Quaternions", "Klein4", "Cl20",
                             "Coquaternions", "Cl11", "Bicomplex", "Tessarines",
                             "Octonions"]

    def test_lookup_case_insensitive(self):
        assert predefined("QUATERNIONS") is predefined("quaternions")

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(KeyError, match="Quaternions"):
            predefined("nope")

    def test_reals_dim(self):
        assert predefined("Reals").dim == 1

    def test_tensor_is_immutable(self):
        alg = predefined("Complex")
        with pytest.raises(ValueError):
            alg.tensor[0, 0, 0] = 2.0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_entry_roundtrip(self, name):
        alg = predefined(name)
        again = from_entries(alg.to_entries(), dim=alg.dim, name=name)
        npt.assert_array_equal(again.tensor, alg.tensor)


class TestAlgebraFiles:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_file_roundtrip(self, name, tmp_path):
        alg = predefined(name)
        path = tmp_path / "alg.json"
        save_algebra(alg, path)
        loaded = load_algebra(path)
        assert loaded == alg
        assert loaded.name == name

    def test_writer_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_algebra(predefined("Octonions"), p1)
        save_algebra(predefined("Octonions"), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_entries_sorted(self, tmp_path):
        path = tmp_path / "alg.json"
        save_algebra(predefined("Quaternions"), path)
        rows = json.loads(path.read_text())["entries"]
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(AlgebraError):
            load_algebra(path)

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, b"\xff\xfe"],
                             ids=["nested", "not-utf8"])
    def test_unparsable_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        with pytest.raises(AlgebraError, match=re.escape(f"cannot read algebra file {path}")):
            load_algebra(path)
        with pytest.raises(ModelLoadError, match=re.escape(f"cannot read model file {path}")):
            load_model(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(AlgebraError):
            load_algebra(path)

    @pytest.mark.parametrize("doc", [
        {"dim": 2, "entries": 5},
        {"dim": 2.7, "entries": []},
        {"dim": "x", "entries": []},
        {"dim": True, "entries": []},
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[1.5, 1, 0, -1.0]]},
        {"dim": 2, "entries": [[1, 1, 0, "-1"]]},
        {"dim": 2, "entries": [[1, 1, 0, float("nan")]]},
        {"dim": 2, "entries": [[1, 1, 0, True]]},
        {"dim": 2, "entries": [[1, 1, 0, 10 ** 400]]},
        {"dim": 2, "entries": [[1, 1, 2, 1.0]]},
    ], ids=["entries-int", "dim-float", "dim-str", "dim-bool", "dim-zero", "index-float",
            "coeff-str", "coeff-nan", "coeff-bool", "coeff-huge", "index-range"])
    def test_mistyped_document_names_the_file(self, tmp_path, doc):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AlgebraError, match=re.escape(str(path))):
            load_algebra(path)

    def test_integer_coefficients_accepted(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[1, 1, 0, -1]]}))
        assert load_algebra(path) == predefined("complex")

    def test_unit_row_overrides_survive_resave(self, tmp_path):
        # rows touching e_0 are accepted on load, so they must be written
        # back; an all-zero override is written as a zero term
        path = tmp_path / "nonunital.json"
        path.write_text(json.dumps(
            {"dim": 2, "entries": [[0, 1, 1, -1.0], [1, 1, 0, -1.0]]}))
        first = load_algebra(path)
        save_algebra(first, path)
        npt.assert_array_equal(load_algebra(path).tensor, first.tensor)
        zeroed = np.array(first.tensor)
        zeroed[1, 0] = 0.0
        save_algebra(StructureConstants.from_tensor(zeroed), path)
        npt.assert_array_equal(load_algebra(path).tensor, zeroed)

    def test_unit_violating_file_loads(self, tmp_path):
        # check tooling needs to be able to inspect broken tables
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(
            {"name": "broken", "dim": 2, "entries": [[0, 1, 0, 1.0]]}))
        alg = load_algebra(path)
        assert not check_unit(alg)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic(target, "text")
        assert target.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


class TestRendering:
    def test_format_basic(self):
        assert format_element([0, 1]) == "e1"
        assert format_element([-1, 0]) == "-e0"
        assert format_element([0, 0]) == "0"
        assert format_element([2.0, 0, -0.5]) == "2e0 - 0.5e2"

    def test_complex_table_row(self):
        table = multiplication_table(predefined("Complex"))
        assert table[1] == ["e1", "-e0"]

    def test_quaternion_cell(self):
        table = multiplication_table(predefined("Quaternions"))
        assert table[1][2] == "e3"

    def test_reals_table(self):
        assert multiplication_table(predefined("Reals")) == [["e0"]]


class TestFieldTypes:
    @pytest.mark.parametrize("call", ["mult", "left_matrix"])
    def test_complex_element_is_refused(self, call):
        alg = predefined("complex")
        args = [np.array([1j, 1])] + ([[1, 0]] if call == "mult" else [])
        with pytest.raises(ValueError, match="complex data is refused: .* a complex "
                                             "number is 2 wide over 'complex'"):
            getattr(alg, call)(*args)

    @pytest.mark.parametrize("name", [["x"], 3, True, {"a": 1}])
    def test_name_must_be_a_string_or_null(self, tmp_path, name):
        doc = algebra_to_doc(predefined("complex"))
        doc["name"] = name
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AlgebraError, match=re.escape(
                f"algebra file {path}: name must be a string or null, got {name!r}")):
            load_algebra(path)

    def test_name_in_a_model_file_names_the_file(self, tmp_path):
        doc = json.loads((DATA / "v1_dense_nonunital.json").read_text())
        doc["layers"][0]["algebra"]["name"] = ["x"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=re.escape(
                f"malformed model file {path}: algebra document: name must be a "
                "string or null, got ['x']")) as info:
            load_model(path)
        assert isinstance(info.value.__cause__, AlgebraError)

    @pytest.mark.parametrize("name", [None, "mine"])
    def test_null_or_string_name_loads(self, tmp_path, name):
        doc = algebra_to_doc(predefined("complex"))
        doc["name"] = name
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        assert load_algebra(path).name == name
