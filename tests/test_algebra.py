import json

import numpy as np
import numpy.testing as npt
import pytest

from khnn.algebra import (
    AlgebraError,
    StructureConstants,
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

ALL_NAMES = predefined_names()

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

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(AlgebraError):
            load_algebra(path)

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
