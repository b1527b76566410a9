import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zigzag_pca.core_types import (MAX_GRID_POINTS, CheckReport, ChzmcSpec,
                                   GridMeasure, HzmcSpec, TransitionTensor, decode_array, encode_array,
                                   gauss_legendre_grid, gauss_legendre_rule, load_model,
                                   normalize_rows, parse_model, save_model, sup_residual,
                                   ModelFormatError)
from conftest import trapezoid_grid


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


class TestGaussLegendreRule:
    """The grids' own rule: Newton on the Legendre recurrence, no LAPACK."""

    SIZES = [2, 3, 5, 64, 257, 1025]

    @pytest.mark.parametrize("n", SIZES)
    def test_nodes_symmetric_ascending_weights_positive(self, n):
        x, w = gauss_legendre_rule(n)
        assert x.shape == w.shape == (n,)
        assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0)
        assert np.all(w > 0) and np.array_equal(w, w[::-1])
        assert w.sum() == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 64, 257, 1025])
    def test_even_monomials_exact_to_degree_2n_minus_1(self, n):
        # x^(2j) for 2j <= 2n - 1; numpy's leggauss misses this by 8e-12 at 257 points
        x, w = gauss_legendre_rule(n)
        j = np.arange(n)
        got = (w * x[None, :] ** (2 * j[:, None])).sum(axis=1)
        assert np.allclose(got, 2.0 / (2 * j + 1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 100, 129, 256, 257])
    def test_nodes_match_numpy_leggauss(self, n):
        assert np.abs(gauss_legendre_rule(n)[0]
                      - np.polynomial.legendre.leggauss(n)[0]).max() <= 2.2e-16

    def test_converges_at_every_supported_size(self):
        # a sample of the sizes up to MAX_GRID_POINTS (all 1024 take 6.5 s):
        # each returns within its ten Newton steps, on numpy's nodes
        for n in [*range(2, 130), *range(130, MAX_GRID_POINTS - 2, 29),
                  MAX_GRID_POINTS - 1, MAX_GRID_POINTS]:
            x, w = gauss_legendre_rule(n)
            assert np.abs(x - np.polynomial.legendre.leggauss(n)[0]).max() <= 2.2e-16, n
            assert w.sum() == pytest.approx(2.0, rel=1e-14), n


class TestTransitionTensor:
    def test_row_sum_validation(self):
        bad = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError, match="sums to"):
            TransitionTensor(bad)

    def test_mu_positive_flag(self, full_tensor, two_letter):
        assert not full_tensor.mu_positive
        assert two_letter.mu_positive

    def test_restrict_takes_the_sub_tensor(self, full_tensor):
        sub = full_tensor.restrict([1, 2])
        assert sub.size == 2
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

    @pytest.mark.parametrize("field", ["d", "u", "rho0"])
    def test_negative_entries_rejected(self, field):
        # rows that still sum to one, so only the sign check can refuse them
        parts = {"d": np.full((2, 2), 0.5), "u": np.full((2, 2), 0.5), "rho0": np.full(2, 0.5)}
        parts[field].flat[:2] = [1.5, -0.5]
        with pytest.raises(ValueError, match="nonnegative"):
            HzmcSpec(**parts)


class TestChzmcSpec:
    @pytest.mark.parametrize("field", ["d", "u"])
    @pytest.mark.parametrize("value", [-0.25, np.nan, np.inf])
    def test_signed_or_non_finite_entries_rejected(self, field, value):
        parts = {"d": np.full((2, 2), 0.5), "u": np.full((2, 2), 0.5)}
        parts[field][1, 0] = value
        with pytest.raises(ValueError, match=f"{field} entries must be (finite|nonnegative)"):
            ChzmcSpec(n=3, z=1.0, **parts)

    def test_non_stochastic_kernels_accepted(self):
        # z normalizes the law, so a rescaled d is the same chain
        spec = ChzmcSpec(d=5 * np.full((2, 2), 0.5), u=np.full((2, 2), 0.5), n=3, z=125.0)
        assert spec.d[0, 0] == 2.5


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


class TestSupResidual:
    def test_nan_in_a_later_block_is_inf_at_its_index(self):
        blocks = [(0, np.array([[0.0, 5.0]])), (2, np.array([[1.0, np.nan], [9.0, np.nan]]))]
        assert sup_residual(blocks, (3, 2)) == (np.inf, (1, 1))

    def test_nan_ties_with_an_earlier_inf(self):
        assert sup_residual([(0, np.array([0.0, np.inf, np.nan]))], (3,)) == (np.inf, (1,))

    def test_tie_across_blocks_keeps_the_first(self):
        blocks = [(0, np.array([0.0, 2.0])), (2, np.array([2.0, 1.0])), (4, np.array([0.5, 2.0]))]
        assert sup_residual(blocks, (3, 2)) == (2.0, (0, 1))

    def test_tie_out_of_order_keeps_the_first_in_c_order(self):
        # blocks emitted last-first: each later block ties, and holds the
        # smaller flat index, so the lowest index wins, and a NaN ties with +inf
        blocks = [(4, np.array([0.5, 2.0])), (2, np.array([2.0, 1.0])), (0, np.array([0.0, 2.0]))]
        assert sup_residual(blocks, (3, 2)) == (2.0, (0, 1))
        nan_later = [(3, np.array([np.inf, 0.0])), (0, np.array([0.0, np.nan, 0.0]))]
        assert sup_residual(nan_later, (5,)) == (np.inf, (1,))

    @given(hst.lists(hst.sampled_from([0.0, 1e-17, 0.5, 3.0, np.inf]), min_size=1, max_size=24),
           hst.sampled_from([(1, 1), (2, 3)]))
    @settings(max_examples=100, deadline=None)
    def test_one_array_is_max_and_argmax_bitwise(self, values, tile):
        diff = np.tile(np.asarray(values), tile)
        residual, where = sup_residual([(0, diff)], diff.shape)
        assert np.array_equal(residual, diff.max()) and type(residual) is float
        assert where == tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))


class TestModelFiles:
    def test_tensor_roundtrip_bit_exact(self, two_letter, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, two_letter, "N")
        model = load_model(path)
        assert model["lattice"] == "N"
        assert np.array_equal(model["tensor"].t, two_letter.t)

    def test_awkward_floats_roundtrip(self):
        vals = np.array([1 / 3, np.pi, 0.1, 5e-324, 1.0000000000000002])
        back = decode_array(encode_array(vals))
        assert np.array_equal(back, vals)

    def test_cycle_lattice(self, two_letter, tmp_path):
        path = tmp_path / "c.json"
        save_model(path, two_letter, {"cycle": 3})
        assert load_model(path)["lattice"] == ("cycle", 3)

    @pytest.mark.parametrize("lattice", ["N", "Z", {"cycle": 3}, ("cycle", 3)])
    def test_lattice_survives_save_and_load(self, two_letter, tmp_path, lattice):
        """save_model takes back every lattice that load_model hands out."""
        path = tmp_path / "m.json"
        save_model(path, two_letter, lattice)
        first = load_model(path)
        save_model(path, first["tensor"], first["lattice"])
        assert load_model(path)["lattice"] == first["lattice"]
        assert first["lattice"] == (("cycle", 3) if lattice in ({"cycle": 3}, ("cycle", 3))
                                    else lattice)

    def test_family_model(self, tmp_path):
        path = tmp_path / "g.json"
        save_model(path, {"family": "gaussian", "m": 3, "sigma": 1}, "N",
                   {"halfwidth": 9.0, "points": 257})
        model = load_model(path)
        assert model["family"]["m"] == 3.0
        assert model["grid"]["points"] == 257

    def test_family_block_kept_as_the_json_holds_it(self):
        # the commands read a family's parameters; parsing only names the family
        kernel = {"family": "gaussian", "m": 3, "sigma": "1", "extra": 10 ** 400}
        model = parse_model({"alphabet": {"grid": {"points": 9}}, "kernel": kernel,
                             "lattice": "N"})
        assert model["family"] == kernel

    def test_missing_fields_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model({"alphabet": {"labels": ["a"]}})

    def test_bad_lattice_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model({"alphabet": {"labels": ["a"]},
                         "kernel": {"tensor": [[[1.0]]]}, "lattice": "Q"})
