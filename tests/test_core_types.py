import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zigzag_pca.core_types import (MAX_GRID_POINTS, CheckReport, FiniteAlphabet, GridMeasure,
                                   HzmcSpec, TransitionTensor, decode_array, encode_array,
                                   gauss_legendre_grid, load_model, normalize_rows,
                                   parse_model, save_model, trapezoid_grid,
                                   ModelFormatError)


class TestNormalizeRows:
    def test_stochastic_rows_untouched(self, two_letter):
        out, corr = normalize_rows(two_letter.t)
        assert corr == 0.0
        assert np.array_equal(out, two_letter.t)

    def test_half_row_doubles(self):
        out, corr = normalize_rows(np.array([[0.2, 0.2]]))
        assert np.allclose(out, [[0.5, 0.5]])
        assert corr == pytest.approx(0.6)

    def test_random_tensor_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.0, 1.0, size=(3, 3, 3))
        out, _ = normalize_rows(raw)
        assert np.abs(out.sum(axis=2) - 1.0).max() < 1e-15

    def test_zero_row_rejected_with_index(self):
        arr = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(1,\)"):
            normalize_rows(arr)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_rows(np.array([[0.5, -0.1]]))

    @given(hst.integers(2, 5), hst.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_and_stochastic(self, k, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 1.0, size=(k, k))
        out, _ = normalize_rows(raw)
        again, corr = normalize_rows(out)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-14
        assert corr < 1e-14
        assert np.allclose(out, again)


class TestGrids:
    def test_gl_integrates_constant(self):
        g = gauss_legendre_grid(8.0, 257)
        assert g.integrate(np.ones(g.size)) == pytest.approx(16.0, abs=1e-12)

    def test_trapezoid_integrates_constant(self):
        g = trapezoid_grid(5.0, 101)
        assert g.integrate(np.ones(g.size)) == pytest.approx(10.0, abs=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GridMeasure(points=np.array([0.0, 0.0]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            GridMeasure(points=np.array([0.0, 1.0]), weights=np.array([1.0, 0.0]))

    def test_points_bounded(self):
        assert gauss_legendre_grid(1.0, MAX_GRID_POINTS).size == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="bound"):
            gauss_legendre_grid(1.0, MAX_GRID_POINTS + 1)

    def test_arrays_locked(self):
        g = gauss_legendre_grid(1.0, 5)
        with pytest.raises(ValueError):
            g.points[0] = 42.0


class TestTransitionTensor:
    def test_row_sum_validation(self):
        bad = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError, match="sums to"):
            TransitionTensor(FiniteAlphabet(2), bad)

    def test_mu_positive_flag(self, full_tensor, two_letter):
        assert not full_tensor.mu_positive
        assert two_letter.mu_positive

    def test_restrict_keeps_labels(self, full_tensor):
        sub = full_tensor.restrict([1, 2])
        assert sub.alphabet.labels == ("1", "2")
        assert sub.t[0, 1, 0] == pytest.approx(0.8)

    def test_tensor_locked(self, two_letter):
        with pytest.raises(ValueError):
            two_letter.t[0, 0, 0] = 0.9


class TestHzmcSpec:
    @pytest.mark.parametrize("field", ["d", "u", "rho0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, value):
        # NaN fails every comparison, so the row-sum checks alone let it through
        parts = {"d": np.full((2, 2), 0.5), "u": np.full((2, 2), 0.5), "rho0": np.full(2, 0.5)}
        parts[field].flat[0] = value
        with pytest.raises(ValueError, match="finite"):
            HzmcSpec(**parts)


class TestCheckReport:
    @given(hst.floats(0, 10, allow_nan=False), hst.floats(0, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_pass_is_pure_function_of_residual_and_tolerance(self, residual, tol):
        rep = CheckReport("x", residual, tol)
        assert rep.passed == (residual <= tol)

    def test_to_dict_plain_types(self):
        rep = CheckReport("x", np.float64(0.5), np.float64(1.0),
                          witnesses={"v": np.arange(3), "s": np.float64(2.0)})
        d = rep.to_dict()
        assert d["passed"] is True
        assert d["witnesses"]["v"] == [0, 1, 2]
        assert json.dumps(d)


class TestModelFiles:
    def test_tensor_roundtrip_bit_exact(self, two_letter, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, two_letter.alphabet, two_letter, "N")
        model = load_model(path)
        assert model["lattice"] == "N"
        assert np.array_equal(model["tensor"].t, two_letter.t)

    def test_awkward_floats_roundtrip(self):
        vals = np.array([1 / 3, np.pi, 0.1, 5e-324, 1.0000000000000002])
        back = decode_array(encode_array(vals))
        assert np.array_equal(back, vals)

    def test_cycle_lattice(self, two_letter, tmp_path):
        path = tmp_path / "c.json"
        save_model(path, two_letter.alphabet, two_letter, {"cycle": 3})
        assert load_model(path)["lattice"] == ("cycle", 3)

    @pytest.mark.parametrize("lattice", ["N", "Z", {"cycle": 3}, ("cycle", 3)])
    def test_lattice_survives_save_and_load(self, two_letter, tmp_path, lattice):
        """save_model takes back every lattice that load_model hands out."""
        path = tmp_path / "m.json"
        save_model(path, two_letter.alphabet, two_letter, lattice)
        first = load_model(path)
        save_model(path, two_letter.alphabet, first["tensor"], first["lattice"])
        assert load_model(path)["lattice"] == first["lattice"]
        assert first["lattice"] == (("cycle", 3) if lattice in ({"cycle": 3}, ("cycle", 3))
                                    else lattice)

    def test_family_model(self, tmp_path):
        path = tmp_path / "g.json"
        save_model(path, {"halfwidth": 9.0, "points": 257},
                   {"family": "gaussian", "m": 3, "sigma": 1}, "N")
        model = load_model(path)
        assert model["family"]["m"] == 3.0
        assert model["grid"]["points"] == 257

    def test_missing_fields_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model({"alphabet": {"labels": ["a"]}})

    def test_bad_lattice_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model({"alphabet": {"labels": ["a"]},
                         "kernel": {"tensor": [[[1.0]]]}, "lattice": "Q"})
