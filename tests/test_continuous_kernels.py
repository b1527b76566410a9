import itertools
import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import betainc, betaincinv, betaln, gammaincinv, gammaln, ndtri

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca.core_types import (HzmcSpec, KernelDensity, MarkovKernel, gauss_legendre_grid,
                                   gauss_legendre_rule)
from conftest import _cpus, apply_law_reference, legendre_factorized, trapezoid_grid


@pytest.fixture(scope="module")
def gauss31():
    return ck.GaussianPcaParams(3.0, 1.0)


@pytest.fixture(scope="module")
def gauss_grid(gauss31):
    return ck.default_gaussian_grid(gauss31)


class TestGaussianParams:
    def test_small_m_rejected(self):
        with pytest.raises(ValueError, match=r"\|m\| > 2"):
            ck.GaussianPcaParams(1.5, 1.0)
        with pytest.raises(ValueError, match=r"\|m\| > 2"):
            ck.GaussianPcaParams(-2.0, 1.0)

    def test_negative_m_allowed_beyond_two(self):
        ck.GaussianPcaParams(-3.0, 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            ck.GaussianPcaParams(3.0, 0.0)

    @pytest.mark.parametrize("sigma", [1.3e154, 1e160, 1e300])
    def test_sigma_whose_innovation_variance_overflows_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma .* is too large"):
            ck.GaussianPcaParams(3.0, sigma)

    @pytest.mark.parametrize("m", [3.0, -3.0, 1e160])
    def test_innovation_variance_finite_up_to_the_limit(self, m):
        # 2 (sigma^2 / l) has the bits of 2 sigma^2 / l and stays finite where it can
        for sigma in (0.3, 1.0, 7.0, 1e154, 1.25e154):
            par = ck.GaussianPcaParams(m, sigma)
            ar = ck.ar1_parameters(par)
            assert np.isfinite(ar.innovation_var)
            if sigma < 1e100:
                assert ar.innovation_var == 2.0 * sigma ** 2 / par.contraction

    def test_huge_m_is_the_decoupled_limit(self):
        par = ck.GaussianPcaParams(1e160, 2.0)
        assert par.contraction == 2.0 and par.stationary_std == 2.0


class TestGaussianDensity:
    def test_centered_row_integrates_to_one(self, gauss31, gauss_grid):
        kern = ck.gaussian_kernel_density(gauss31)
        row = kern.density(0.0, 0.0, gauss_grid.points)
        assert gauss_grid.integrate(row) == pytest.approx(1.0, abs=1e-10)

    def test_mean_and_peak(self, gauss31):
        kern = ck.gaussian_kernel_density(gauss31)
        c = np.linspace(-3, 5, 4001)
        vals = kern.density(1.0, 2.0, c)
        assert c[np.argmax(vals)] == pytest.approx(1.0, abs=2e-3)
        assert vals.max() == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-6)

    def test_symmetric_in_neighbors(self, gauss31):
        kern = ck.gaussian_kernel_density(gauss31)
        c = np.linspace(-4, 4, 101)
        assert np.array_equal(kern.density(0.3, -1.7, c), kern.density(-1.7, 0.3, c))

    def test_sampler_matches_cdf(self, gauss31):
        kern = ck.gaussian_kernel_density(gauss31)
        u = (np.arange(1000) + 0.5) / 1000
        draws = kern.sampler(np.full(1000, 1.0), np.full(1000, 2.0), u)
        assert draws.mean() == pytest.approx(1.0, abs=5e-3)
        assert np.all(np.diff(draws) > 0)


class TestClosedForm:
    def test_frozen_constants(self, gauss31):
        hz = ck.gaussian_invariant_hzmc(gauss31)
        ar = ck.ar1_parameters(gauss31)
        assert hz.meta["l"] == pytest.approx(1.7453559924999298, abs=1e-12)
        assert ar.phi == pytest.approx(0.3819660112501051, abs=1e-12)
        assert ar.innovation_var == pytest.approx(1.1458980337503155, abs=1e-12)
        assert gauss31.stationary_std == pytest.approx(1.1582921852882690, abs=1e-12)

    def test_m25_exact_values(self):
        ar = ck.ar1_parameters(ck.GaussianPcaParams(2.5, 1.0))
        # 1 - 4/6.25 = 0.36, sqrt = 0.6, l = 1.6
        assert ar.phi == pytest.approx(0.5, abs=1e-14)
        assert ar.innovation_var == pytest.approx(1.25, abs=1e-14)

    def test_large_m_decouples_cells(self):
        par = ck.GaussianPcaParams(1e8, 1.0)
        ar = ck.ar1_parameters(par)
        assert abs(ar.phi) < 1e-7
        assert par.contraction == pytest.approx(2.0, abs=1e-15)
        assert ar.innovation_var == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m,sigma", [(2.5, 1.0), (3.0, 1.0), (5.0, 2.0)])
    def test_stationary_variance_identity(self, m, sigma):
        par = ck.GaussianPcaParams(m, sigma)
        ar = ck.ar1_parameters(par)
        target = sigma ** 2 * (1 - 4 / m ** 2) ** -0.5
        assert ar.stationary_var == pytest.approx(target, rel=1e-12)

    def test_sigma_scaling(self):
        a = ck.ar1_parameters(ck.GaussianPcaParams(3.0, 1.0))
        b = ck.ar1_parameters(ck.GaussianPcaParams(3.0, 2.5))
        assert b.phi == a.phi
        assert b.innovation_var == pytest.approx(a.innovation_var * 2.5 ** 2, rel=1e-14)


class TestQuadratureConditions:
    @pytest.mark.parametrize("m,sigma", [(2.5, 1.0), (3.0, 1.0), (5.0, 2.0)])
    def test_gaussian_closed_form_passes(self, m, sigma):
        par = ck.GaussianPcaParams(m, sigma)
        grid = ck.default_gaussian_grid(par, 129)
        reports = ck.quadrature_check_conditions(
            ck.gaussian_kernel_density(par), ck.gaussian_invariant_hzmc(par), grid)
        for rep in reports:
            assert rep.passed, rep

    def test_widened_up_kernel_breaks_factorization(self, gauss31):
        hz = ck.gaussian_invariant_hzmc(gauss31)
        ar = ck.ar1_parameters(gauss31)
        sp = np.sqrt(ar.innovation_var) * 1.3
        bad_u = MarkovKernel(
            density=lambda x, y: np.exp(-0.5 * ((np.asarray(y) - ar.phi * np.asarray(x)) / sp) ** 2)
            / (sp * np.sqrt(2 * np.pi)),
            noise=lambda u: sp * ndtri(u), step=lambda x, e: ar.phi * x + e)
        spec = HzmcSpec(d=hz.d, u=bad_u, rho0=hz.rho0)
        grid = ck.default_gaussian_grid(gauss31, 129)
        rep1, rep2, _ = ck.quadrature_check_conditions(
            ck.gaussian_kernel_density(gauss31), spec, grid)
        assert not rep1.passed
        assert not rep2.passed

    @pytest.mark.parametrize("points, refused", [(32, True), (33, False)])
    def test_grid_without_initial_mass_is_refused(self, gauss31, points, refused):
        # at halfwidth 1e4 the only node that sees the chain is the centre of
        # an odd grid; an even grid reads every residual as 0.0
        grid = gauss_legendre_grid(1e4, points)
        hz = ck.gaussian_invariant_hzmc(gauss31)
        assert bool(np.any(hz.rho0.density(grid.points) > 0)) is not refused
        run = lambda: ck.quadrature_check_conditions(ck.gaussian_kernel_density(gauss31), hz, grid)
        if refused:
            with pytest.raises(ValueError, match="density 0 at each of the 32 grid nodes"):
                run()
        else:
            assert not all(rep.passed for rep in run())


class TestBetaFamily:
    def test_positivity_guards(self):
        with pytest.raises(ValueError):
            ck.BetaPcaParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ck.BetaPcaParams(1.0, 1.0, 1.0, -1.0)

    @pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.5, 3.5), (2.0, -1.0)])
    def test_rows_integrate_to_one(self, a, b):
        par = ck.BetaPcaParams(2.0, 1.5, 1.0, 1.0)
        kern = ck.beta_kernel_density(par)
        lo, hi = min(a, b) - par.m, max(a, b) - par.m
        x, w = np.polynomial.legendre.leggauss(400)
        c = (lo + hi) / 2 + (hi - lo) / 2 * x
        mass = float(np.sum(kern.density(a, b, c) * w) * (hi - lo) / 2)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_support_and_diagonal_convention(self):
        par = ck.BetaPcaParams(1.0, 1.0, 1.0, 1.0)
        kern = ck.beta_kernel_density(par)
        assert kern.density(0.0, 2.0, 1.5) == 0.0       # above b - m
        assert kern.density(0.0, 2.0, -1.5) == 0.0      # below a - m
        assert kern.density(0.0, 2.0, 0.0) == pytest.approx(0.5)
        assert kern.density(1.0, 1.0, 0.0) == 0.0       # coinciding neighbors

    def test_sampler_matches_beta_cdf(self):
        par = ck.BetaPcaParams(2.0, 3.0, 1.0, 1.0)
        kern = ck.beta_kernel_density(par)
        u = (np.arange(2000) + 0.5) / 2000
        draws = kern.sampler(np.zeros(2000), np.full(2000, 4.0), u)
        frac = (draws + par.m) / 4.0
        assert np.abs(betainc(2.0, 3.0, np.sort(frac)) - u).max() < 1e-12

    def test_exponential_candidates(self):
        par = ck.BetaPcaParams(1.0, 1.0, 0.0, 1.0)
        d1, u1 = ck.beta_candidate_kernels(par)
        c = np.linspace(0.1, 5.0, 50)
        assert np.abs(d1.density(np.zeros(50), c) - np.exp(-c)).max() < 1e-12
        assert np.abs(u1.density(np.zeros(50), c) - np.exp(-c)).max() < 1e-12

    def test_down_up_composition_drifts(self):
        par = ck.BetaPcaParams(1.0, 1.0, 0.0, 1.0)
        d1, u1 = ck.beta_candidate_kernels(par)
        grid = ck.default_beta_grid(par)
        du = ck.compose_kernels(d1, u1, grid)
        i0 = int(np.argmin(np.abs(grid.points)))
        row = du[i0]
        mean = grid.integrate(row * grid.points) / grid.integrate(row)
        assert mean - grid.points[i0] == pytest.approx(par.drift_per_step, abs=5e-2)

    def test_candidates_pass_factorization_fail_stationarity(self):
        par = ck.BetaPcaParams(1.0, 1.0, 1.0, 1.0)
        kern = ck.beta_kernel_density(par)
        hz = ck.beta_candidate_hzmc(par)
        grid = ck.default_beta_grid(par, 129)
        rep1, rep2, rep3 = ck.quadrature_check_conditions(kern, hz, grid, tol=1e-5)
        assert rep1.passed and rep1.residual < 1e-5
        assert rep2.passed and rep2.residual < 1e-5
        assert not rep3.passed and rep3.residual > 0.1


def _reference_beta_density(al, be, m):
    """The Beta kernel density as one expression per step, allocating each
    temporary: the formula that the in-place evaluation must reproduce bit
    for bit, with the package's normalizer (``test_normalizers_match_scipy``
    holds it to scipy's)."""
    lbeta = math.lgamma(al) + math.lgamma(be) - math.lgamma(al + be)

    def density(a, b, c):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        span = b - a
        safe = np.where(span == 0.0, 1.0, span)
        frac = (c + m - a) / safe
        ok = (span != 0.0) & (frac >= 0.0) & (frac <= 1.0)
        frac_c = np.clip(frac, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (al - 1.0) * np.log(np.where(frac_c > 0, frac_c, 1.0)) \
                + (be - 1.0) * np.log(np.where(frac_c < 1, 1.0 - frac_c, 1.0)) - lbeta
            val = np.exp(logpdf) / np.abs(safe)
        return np.where(ok, val, 0.0)

    return density


def _reference_gamma_pdf(x, shape, rate):
    """The Gamma(shape, rate) density as one expression: the reference for
    the in-place evaluation."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = shape * np.log(rate) + (shape - 1.0) * np.log(np.where(pos, x, 1.0)) \
            - rate * np.where(pos, x, 0.0) - math.lgamma(shape)
        out = np.where(pos, np.exp(logpdf), 0.0)
    if shape == 1.0:
        out = np.where(x == 0.0, float(rate), out)
    return out


def _reference_norm_pdf(x, mean, std):
    """The normal density as one expression: the reference for the in-place
    evaluation."""
    z = (np.asarray(x, dtype=float) - mean) / std
    return np.exp(-0.5 * z * z) / (std * np.sqrt(2.0 * np.pi))


def _reference_diag_density(params):
    """The diagonal-atom Gaussian as one expression over the whole broadcast
    shape: the reference for the overlay written in place."""
    base = ck.gaussian_kernel_density(params)

    def density(a, b, c):
        a = np.asarray(a, dtype=float)
        return np.where(a == b, np.where(np.asarray(c) == a, np.inf, 0.0), base.density(a, b, c))
    return density


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


class TestDensitiesBitForBit:
    """The normal density, the diagonal-atom Gaussian, the Beta kernel and the
    Gamma candidates are evaluated in place; they must give the bits of the
    plain formulas."""

    def test_normal_density(self):
        # zeros of both signs, subnormals, the edges of exp's range, and
        # values whose squares pass the float range (the reference overflows
        # on those too, so both warn)
        edge = np.array([0.0, -0.0, 5e-324, 1e-160, 1e-154, 3e-154, 0.3, 37.5, 38.5, 1.3e154,
                         1.5e154, 1.9e154, 3e154, 1e300, np.inf, -np.inf, np.nan])
        rng = np.random.default_rng(9)
        p = rng.uniform(-40.0, 40.0, 500)
        cases = [(p, 0.0, 1.0), (p, 0.3, 0.7), (p[:, None], p[None, :20] / 3.0, 2.5),
                 (edge, 0.0, 1.0), (edge, 0.5, 3.0), (np.concatenate([edge, -edge]), 1.0, 0.7)]
        # a scalar std of 1 in every form skips the division; an array holding a 1 keeps it
        cases += [(x, mean, one) for one in (1, 1.0, np.float64(1.0), np.array(1.0))
                  for x, mean in ((p, 0.3), (edge, 0.0), (np.concatenate([edge, -edge]), 1.0))]
        cases += [(edge[:, None], 0.5, np.array([1.0, 0.7, 3.0])), (p, 0.0, np.ones(p.size)),
                  (p[:, None], 0.3, np.array([[1.0, 2.5]]))]
        for x, mean, std in cases:
            with warnings.catch_warnings(record=True) as seen_got:
                warnings.simplefilter("always")
                got = ck._norm_pdf(x, mean, std)
            with warnings.catch_warnings(record=True) as seen_want:
                warnings.simplefilter("always")
                want = _reference_norm_pdf(x, mean, std)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert {str(w.message) for w in seen_got} == {str(w.message) for w in seen_want}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (0.3, -2.0, 7, np.float64(1.25), np.array(0.5)):
                got, want = ck._norm_pdf(x, 0.1, 1.3), _reference_norm_pdf(x, 0.1, 1.3)
                assert type(got) is type(want) is np.float64
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            got = ck._norm_pdf(2.0, np.array([0.0, 1.0]), 2.0)
            assert got.tobytes() == _reference_norm_pdf(2.0, np.array([0.0, 1.0]), 2.0).tobytes()

    M = 0.5
    # dyadic values: c = a - m gives frac exactly 0, c = b - m exactly 1,
    # a == b the zero span, and the ends lie outside every support
    VALUES = np.array([-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.5, 9.0])

    @pytest.mark.parametrize("al,be", [(1.0, 1.0), (1.0, 2.5), (0.5, 1.0), (2.0, 3.0),
                                       (0.7, 0.6), (1, 1)])
    def test_beta_density(self, al, be):
        v, m = self.VALUES, self.M
        a, b, c = v[:, None, None], v[None, :, None], v[None, None, :]
        span = b - a
        frac = np.where(span != 0.0, (c + m - a) / np.where(span == 0.0, 1.0, span), 0.5)
        assert (frac == 0.0).any() and (frac == 1.0).any() and (span == 0.0).any()
        assert ((frac < 0.0) | (frac > 1.0)).any()
        par = ck.BetaPcaParams(al, be, m, 1.0)
        got, want = ck.beta_kernel_density(par).density, _reference_beta_density(al, be, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _same(got(a, b, c), want(a, b, c))
            rng = np.random.default_rng(7)
            p = np.sort(rng.uniform(-3.0, 3.0, 40))
            abc = (p[:, None, None], p[None, :, None], p[None, None, :])
            assert _same(got(*abc), want(*abc))
            for args in [(0.0, 1.0, -m), (0.0, 1.0, 1.0 - m), (0.0, 1.0, 0.3), (1.0, 1.0, 0.5),
                         (0.0, 1.0, 4.0), (2.0, -1.0, 0.0)]:
                assert _same(got(*args), want(*args))

    def test_gaussian_diag_density(self):
        par = ck.GaussianPcaParams(3.0, 1.5)
        got, want = ck.gaussian_diag_kernel_density(par).density, _reference_diag_density(par)
        v = np.array([-2.0, -0.5, 0.0, 0.75, 1.0, 3.0, 40.0, np.nan])
        p = np.sort(np.random.default_rng(11).uniform(-4.0, 4.0, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (v, p):
                abc = (x[:, None, None], x[None, :, None], x[None, None, :])
                g, w = got(*abc), want(*abc)
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            assert np.isinf(got(*abc)[np.arange(30), np.arange(30), np.arange(30)]).all()
            # the atom at c == a, zero elsewhere on a == b, NaN inputs, the plain kernel
            for args in [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (np.nan, np.nan, 0.0),
                         (1.0, 1.0, np.nan), (0.0, 2.0, np.nan), (0.0, 2.0, 0.5), (0, 0, 0)]:
                g, w = got(*args), want(*args)
                assert type(g) is np.float64
                assert np.asarray(g).tobytes() == w.tobytes()
            g, w = got(1.0, np.array([1.0, 2.0]), 1.0), want(1.0, np.array([1.0, 2.0]), 1.0)
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 1])
    @pytest.mark.parametrize("rate", [1.0, 2.5])
    def test_gamma_pdf(self, shape, rate):
        x = np.array([-3.0, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.3, 1.0, 7.0, 800.0, np.nan])
        rng = np.random.default_rng(3)
        xs = [x, x.reshape(-1, 1) + x, rng.uniform(-1.0, 9.0, (4, 5, 6))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf = ck._gamma_density(shape, rate)
            for arr in xs:
                kept = arr.copy()
                got = pdf(np.array(arr, dtype=float))
                want = _reference_gamma_pdf(arr, shape, rate)
                assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(arr, kept, equal_nan=True)     # input left alone
            for scalar in (-1.0, 0.0, 0.5):
                assert _same(pdf(np.array(scalar, dtype=float)),
                             _reference_gamma_pdf(scalar, shape, rate))

    def test_normalizers_match_scipy(self):
        # the Beta and Gamma normalizers come from math.lgamma; at the middle
        # of the Beta support and at x = 1 both densities are exp(-normalizer)
        # times a power of two (or e^-1), against scipy's betaln and gammaln
        shapes = [0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.7, 7.5, 12.0, 19.9, 20.0]
        for al, be in itertools.product(shapes, repeat=2):
            got = ck.beta_kernel_density(ck.BetaPcaParams(al, be, 0.0, 1.0)).density(0.0, 1.0, 0.5)
            want = np.exp((al + be - 2.0) * np.log(0.5) - betaln(al, be))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (al, be)
        for shape in shapes:
            got = ck._gamma_density(shape, 1.0)(np.array([1.0]))[0]
            assert got == pytest.approx(np.exp(-1.0 - gammaln(shape)), rel=1e-13, abs=0.0), shape

    @pytest.mark.parametrize("al,be", [(1.0, 1.0), (0.5, 2.5), (2.0, 1.0)])
    def test_candidate_kernels_and_initial_law(self, al, be):
        m, th = 0.75, 1.5
        par = ck.BetaPcaParams(al, be, m, th)
        d1, u1 = ck.beta_candidate_kernels(par)
        rho0 = ck.beta_candidate_hzmc(par).rho0
        p = np.sort(np.random.default_rng(5).uniform(-4.0, 4.0, 30))
        x, y = p[:, None], p[None, :]
        assert _same(d1.density(x, y), _reference_gamma_pdf(y - x + m, al, th))
        assert _same(u1.density(x, y), _reference_gamma_pdf(y - x - m, be, th))
        assert _same(rho0.density(p), _reference_gamma_pdf(p, al, th))


def _line_samplers():
    """Every sampler on the line: name -> (sampler, number of arguments before
    u, the one-draw formula it must give bit for bit)."""
    gp, bp = ck.GaussianPcaParams(3.0, 1.5), ck.BetaPcaParams(2.0, 0.5, 0.75, 1.5)
    m, s = gp.m, gp.sigma
    ar, s0 = ck.ar1_parameters(gp), gp.stationary_std
    sp = np.sqrt(ar.innovation_var)
    al, be, sh, th = bp.alpha, bp.beta, bp.m, bp.theta
    gauss, beta = ck.gaussian_invariant_hzmc(gp), ck.beta_candidate_hzmc(bp)
    return {
        "gaussian": (ck.gaussian_kernel_density(gp).sampler, 2,
                     lambda a, b, u: (a + b) / m + s * ndtri(u)),
        "gaussian_diag": (ck.gaussian_diag_kernel_density(gp).sampler, 2,
                          lambda a, b, u: np.where(a == b, a, (a + b) / m + s * ndtri(u))),
        "beta": (ck.beta_kernel_density(bp).sampler, 2,
                 lambda a, b, u: a + (b - a) * betaincinv(al, be, u) - sh),
        "ar1-step": (gauss.d.sampler, 1, lambda x, u: ar.phi * x + sp * ndtri(u)),
        "ar1-rho0": (gauss.rho0.sampler, 0, lambda u: s0 * ndtri(u)),
        "gamma-down": (beta.d.sampler, 1, lambda x, u: x - sh + gammaincinv(al, u) / th),
        "gamma-up": (beta.u.sampler, 1, lambda x, u: x + sh + gammaincinv(be, u) / th),
        "gamma-rho0": (beta.rho0.sampler, 0, lambda u: gammaincinv(al, u) / th),
    }


class TestSamplerContract:
    """u broadcasts with the arguments, one uniform per draw; no axis of it is
    ever dropped."""

    @pytest.mark.parametrize("name", _line_samplers())
    def test_column_batch_draws_once_per_uniform(self, name):
        sampler, arity, _ = _line_samplers()[name]
        rng = np.random.default_rng(9)
        n = 5
        args = [rng.normal(size=(n, 1)) for _ in range(arity)]
        if arity == 2:
            args[1][0] = args[0][0]         # coinciding neighbors
        u = rng.random((n, 1))
        got = sampler(*args, u)
        assert got.shape == (n, 1)
        rows = np.stack([sampler(*(x[i] for x in args), u[i]) for i in range(n)])
        assert np.array_equal(got, rows)

    @pytest.mark.parametrize("name", _line_samplers())
    def test_flat_call_keeps_its_bits(self, name):
        sampler, arity, formula = _line_samplers()[name]
        rng = np.random.default_rng(10)
        args = [rng.normal(size=300) for _ in range(arity)]
        if arity == 2:
            args[1][::7] = args[0][::7]
        u = rng.random(300)
        got = sampler(*args, u)
        assert got.shape == (300,) and np.array_equal(got, formula(*args, u))


def grid_nu_eta(kern, grid):
    """nu and eta of the shared finite solver on the grid kernel, anchored at
    the node at 0; both vectors are masses per node."""
    gk = ck.GridKernel(kern, grid)
    i0 = int(np.argmin(np.abs(grid.points)))
    nu = fs.solve_nu(gk)
    return nu, fs.solve_eta(gk, fs.BaseTriple(i0, i0, i0), nu.vector)


class TestGridEtaSolve:
    def test_matches_closed_profiles(self, gauss31, gauss_grid):
        kern = ck.gaussian_kernel_density(gauss31)
        nu, eta = grid_nu_eta(kern, gauss_grid)
        prof = ck.gaussian_closed_profiles(gauss31)
        nu_c = prof["nu"](gauss_grid.points)
        nu_c /= gauss_grid.integrate(nu_c)
        eta_c = prof["eta"](gauss_grid.points)
        eta_c /= gauss_grid.integrate(eta_c)
        assert np.abs(nu.vector / gauss_grid.weights - nu_c).max() < 1e-6
        assert np.abs(eta.vector / gauss_grid.weights - eta_c).max() < 1e-6
        assert np.all(nu.vector > 0) and np.all(eta.vector > 0)

    @pytest.mark.parametrize("m,sigma", [(3.0, 1.0), (4.0, 0.5), (2.5, 2.0)],
                             ids=["m3-sigma1", "m4-sigma0.5", "m2.5-sigma2"])
    def test_eta_eigenvalue_closed_form(self, m, sigma):
        par = ck.GaussianPcaParams(m, sigma)
        _, eta = grid_nu_eta(ck.gaussian_kernel_density(par), ck.default_gaussian_grid(par, 257))
        assert abs(eta.eigenvalue - ck.gaussian_eta_eigenvalue(par)) <= 1e-8

    def test_refinement_shrinks_error_fourfold(self, gauss31):
        kern = ck.gaussian_kernel_density(gauss31)
        prof = ck.gaussian_closed_profiles(gauss31)
        errs = []
        for n in (9, 17, 33):
            g = trapezoid_grid(8 * gauss31.stationary_std, n)
            _, eta = grid_nu_eta(kern, g)
            target = prof["eta"](g.points)
            target /= g.integrate(target)
            errs.append(np.abs(eta.vector / g.weights - target).max())
        assert errs[0] / errs[1] >= 4.0
        assert errs[1] / errs[2] >= 4.0

    def test_diagonal_atom_refused(self, gauss31):
        # the nu step reads the rows t(x, x; .), where gaussian_diag carries its atom
        gk = ck.GridKernel(ck.gaussian_diag_kernel_density(gauss31),
                           ck.default_gaussian_grid(gauss31, 33))
        assert not gk.mu_positive
        with pytest.raises(ValueError, match="solve_nu requires an everywhere-positive kernel"):
            fs.solve_nu(gk)


class TestGridKernel:
    def test_entries_are_density_times_weight(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 9)
        kern = ck.gaussian_kernel_density(gauss31)
        gk = ck.GridKernel(kern, grid)
        p, w = grid.points, grid.weights
        whole = kern.density(p[:, None, None], p[None, :, None], p[None, None, :]) * w
        i = np.arange(9)
        for key in ((), (slice(2, 5),), (3,), (slice(None), slice(None), 4), (i, i, slice(None)),
                    (i, i, 4), (1, 2, 3)):
            assert np.array_equal(gk[key], whole[key]), key

    def test_constant_density_broadcasts_to_the_index_shape(self):
        grid = trapezoid_grid(1.0, 5)
        flat = KernelDensity(density=lambda a, b, c: np.full(np.shape(c), 0.5), sampler=None)
        gk = ck.GridKernel(flat, grid)
        assert gk[1:3].shape == (2, 5, 5)
        assert np.array_equal(gk[:, :, 2], np.full((5, 5), 0.5 * grid.weights[2]))


class TestDiscretizedFiniteRoute:
    def test_row_masses_at_every_grid_pair(self, gauss31):
        # child values of corner pairs reach past the window, so the child
        # axis integrates over a grid wide enough to hold every row
        kern = ck.gaussian_kernel_density(gauss31)
        grid = ck.default_gaussian_grid(gauss31, 97)
        p = grid.points
        reach = 2 * grid.halfwidth / abs(gauss31.m) + 9 * gauss31.sigma
        child = gauss_legendre_grid(reach, 129)
        c, w = child.points, child.weights
        mass = (kern.density(p[:, None, None], p[None, :, None], c[None, None, :])
                * w[None, None, :]).sum(axis=2)
        assert np.abs(mass - 1.0).max() < 1e-10

    def test_matches_closed_form_kernels(self, gauss31):
        # run the finite construction on the grid kernel, evaluated in blocks;
        # rows must reproduce the closed-form step densities at the nodes
        grid = gauss_legendre_grid(10.0, 257)
        p, w = grid.points, grid.weights
        gk = ck.GridKernel(ck.gaussian_kernel_density(gauss31), grid)
        assert gk.mu_positive

        i0 = int(np.argmin(np.abs(p)))
        triple = fs.BaseTriple(i0, i0, i0)
        nu = fs.solve_nu(gk).vector
        eta = fs.solve_eta(gk, triple, nu).vector
        built = fs.build_hzmc_kernels(gk, triple, eta)
        assert fs.check_eta_cubic(built, tol=1e-6).passed
        d_mat, u_mat = built.d, built.u

        hz = ck.gaussian_invariant_hzmc(gauss31)
        closed_d = hz.d.density(p[:, None], p[None, :]) * w
        closed_d /= closed_d.sum(axis=1, keepdims=True)
        assert np.abs(d_mat - closed_d).max() < 1e-6
        closed_u = hz.u.density(p[:, None], p[None, :]) * w
        closed_u /= closed_u.sum(axis=1, keepdims=True)
        assert np.abs(u_mat - closed_u).max() < 1e-6


    def test_grid_route_evaluates_each_triple_twice(self, gauss31):
        # once for positivity, once for the contraction B that the kernel
        # build takes and the cubic check reads
        grid = ck.default_gaussian_grid(gauss31, 33)
        base = ck.gaussian_kernel_density(gauss31)
        evaluated = []

        def counted(a, b, c):
            evaluated.append(np.broadcast(a, b, c).size)
            return base.density(a, b, c)

        i0 = int(np.argmin(np.abs(grid.points)))
        gk = ck.GridKernel(KernelDensity(density=counted, sampler=None), grid)
        _, _, built = fs._construct(gk, fs.BaseTriple(i0, i0, i0))
        assert fs.check_eta_cubic(built, tol=1e-6).passed
        n = grid.size
        assert 2 * n ** 3 <= sum(evaluated) < 3 * n ** 3


class TestLegendreFamily:
    """The Legendre-factorized kernel of conftest: positive, with conditions
    that hold to rounding on a Gauss-Legendre grid, so a 1e-8 defect shows
    where the Gaussian's quadrature floor would hide it."""

    @pytest.mark.parametrize("points", [9, 33, 129, 257])
    def test_conditions_hold_to_rounding(self, points):
        kern, hz = legendre_factorized()
        reports = ck.quadrature_check_conditions(kern, hz, gauss_legendre_grid(1.0, points),
                                                 tol=1e-14)
        assert [r.condition for r in reports] == ["factorization", "commutation", "stationarity"]
        assert all(r.passed for r in reports), [r.residual for r in reports]

    @pytest.mark.parametrize("points", [9, 33, 129, 257])
    def test_tamper_fails_factorization_only(self, points):
        kern, hz = legendre_factorized(eps=1e-8)
        fact, comm, stat = ck.quadrature_check_conditions(kern, hz,
                                                          gauss_legendre_grid(1.0, points),
                                                          tol=1e-12)
        assert not fact.passed and 4e-9 < fact.residual < 5e-9
        assert comm.passed and stat.passed

    @pytest.mark.parametrize("points", [17, 65])
    def test_grid_route_recovers_the_chain(self, points):
        kern, hz = legendre_factorized()
        grid = gauss_legendre_grid(1.0, points)
        p, w = grid.points, grid.weights
        i0 = int(np.argmin(np.abs(p)))          # the node at 0
        _, _, built = fs._construct(ck.GridKernel(kern, grid), fs.BaseTriple(i0, i0, i0))
        assert fs.check_eta_cubic(built, tol=1e-14).passed
        for got, closed in ((built.d, hz.d), (built.u, hz.u)):
            assert np.abs(got - closed.density(p[:, None], p[None, :]) * w).max() <= 1e-12

    @pytest.mark.parametrize("points", [17, 65])
    def test_tamper_fails_the_grid_cubic(self, points):
        kern, _ = legendre_factorized(eps=1e-8)
        grid = gauss_legendre_grid(1.0, points)
        i0 = int(np.argmin(np.abs(grid.points)))
        _, _, built = fs._construct(ck.GridKernel(kern, grid), fs.BaseTriple(i0, i0, i0))
        assert fs.check_eta_cubic(built, tol=1e-12).residual > 1e-12


class TestMuEquivalence:
    def test_diagonal_override_is_equivalent(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 97)
        rep = ck.mu_equivalence_probe(ck.gaussian_kernel_density(gauss31),
                                      ck.gaussian_diag_kernel_density(gauss31), grid)
        assert rep.passed
        assert rep.witnesses["off_band_pairs"] == 0
        assert rep.witnesses["differing_pairs"] == 97  # exactly the diagonal

    def test_kernel_against_itself(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 97)
        kern = ck.gaussian_kernel_density(gauss31)
        rep = ck.mu_equivalence_probe(kern, kern, grid)
        assert rep.passed
        assert rep.witnesses["differing_pairs"] == 0

    def test_diag_density_is_the_gaussian_with_the_override(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 33)
        p, i = grid.points, np.arange(33)
        want = ck.gaussian_kernel_density(gauss31).density(*_full_triples(grid))
        want[i, i] = np.where(p[None, :] == p[:, None], np.inf, 0.0)     # row a: the atom at c == a
        got = ck.gaussian_diag_kernel_density(gauss31).density(*_full_triples(grid))
        assert got.tobytes() == want.tobytes()

    def test_nan_rows_of_the_override_differ(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 65)
        base, hz = ck.gaussian_kernel_density(gauss31), ck.gaussian_invariant_hzmc(gauss31)
        far = (grid.points[3], grid.points[60])

        def nan_pair(a, b, c, t):
            i, j, _ = np.nonzero((a == far[0]) & (b == far[1]))
            return (i, j), np.full((i.size, t.shape[2]), np.nan)

        fused = ck.quadrature_check_conditions(base, hz, grid, override=nan_pair)[3]
        family = KernelDensity(ck.override_density(base.density, nan_pair), base.sampler)
        assert fused.to_dict() == ck.mu_equivalence_probe(family, base, grid).to_dict()
        assert not fused.passed
        assert fused.witnesses["differing_pairs"] == fused.witnesses["off_band_pairs"] == 1

    def test_different_means_not_equivalent(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 97)
        rep = ck.mu_equivalence_probe(
            ck.gaussian_kernel_density(gauss31),
            ck.gaussian_kernel_density(ck.GaussianPcaParams(4.0, 1.0)), grid)
        assert not rep.passed
        assert rep.residual > 1.0


def _full_triples(grid):
    p = grid.points
    return p[:, None, None], p[None, :, None], p[None, None, :]


def full_factorization(kernel, hz, grid):
    """The factorization residual and argmax as one full-tensor expression."""
    p = grid.points
    du = ck.compose_kernels(hz.d, hz.u, grid)
    d_mat = hz.d.density(p[:, None], p[None, :])
    u_mat = hz.u.density(p[:, None], p[None, :])
    diff = np.abs(kernel.density(*_full_triples(grid)) * du[:, :, None]
                  - d_mat[:, None, :] * u_mat.T[None, :, :])
    i = np.arange(p.size)
    diff[i, i, :] = 0.0
    where = np.unravel_index(int(diff.argmax()), diff.shape)
    return float(diff.max()), tuple(int(k) for k in where)


def full_compose(k1, k2, grid):
    """Gauss-Legendre composition on the exact support, over all pairs at once."""
    p = grid.points
    lo1, hi1 = (np.broadcast_to(s, p.shape) for s in k1.out_support(p))
    lo2, hi2 = (np.broadcast_to(s, p.shape) for s in k2.in_support(p))
    lo = np.maximum(lo1[:, None], lo2[None, :])
    hi = np.minimum(hi1[:, None], hi2[None, :])
    width = np.clip(hi - lo, 0.0, None)
    x = gauss_legendre_rule(64)
    x01, w01 = 0.5 * (x[0] + 1.0), 0.5 * x[1]
    nodes = lo[:, :, None] + width[:, :, None] * x01[None, None, :]
    vals = k1.density(p[:, None, None], nodes) * k2.density(nodes, p[None, :, None])
    return (vals * w01[None, None, :]).sum(axis=2) * width


def full_mu(kernel_a, kernel_b, grid):
    """(residual, witnesses) of the mu-equivalence probe over all triples at once."""
    w = grid.weights
    with np.errstate(invalid="ignore"):
        differs = ~np.all(np.abs(kernel_a.density(*_full_triples(grid))
                                 - kernel_b.density(*_full_triples(grid))) <= 1e-9, axis=2)
    i = np.arange(w.size)
    off = differs & (np.abs(i[:, None] - i[None, :]) > 1)
    mass = w[:, None] * w[None, :]
    return float(mass[off].sum()), {"differing_pairs": int(differs.sum()),
                                    "off_band_pairs": int(off.sum()),
                                    "differing_mass": float(mass[differs].sum())}


def tilted(kernel, eps):
    """``kernel`` times 1 + eps tanh(a) tanh(b): no longer factorizable off a == b."""
    def density(a, b, c):
        return kernel.density(a, b, c) * (1.0 + eps * np.tanh(a) * np.tanh(b))
    return KernelDensity(density=density, sampler=kernel.sampler)


def off_band(a, b, c, t):
    """``diagonal_atom``, and twice the values t on the pairs with a < -1 and
    b > 1: an override that also rewrites a set of positive mass off the band."""
    (i, j), atom = ck.diagonal_atom(a, b, c, t)
    k, m, _ = np.nonzero((a < -1.0) & (b > 1.0))
    rows = np.broadcast_to(atom, (i.size, t.shape[2]))
    return (np.concatenate([i, k]), np.concatenate([j, m])), np.concatenate([rows, 2.0 * t[k, m]])


class TestBlockedSweep:
    """The blocked passes against literal full-tensor numpy, bitwise.  At 100
    points the blocks (6 rows of the triple sweep) do not divide the grid;
    at 129 the Gauss-Legendre composition's (7 rows) do not."""

    @pytest.mark.parametrize("points", [17, 100, 129, 257])
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_gaussian_sweep_matches_full_tensor(self, gauss31, points, eps):
        grid = ck.default_gaussian_grid(gauss31, points)
        kern = tilted(ck.gaussian_kernel_density(gauss31), eps)
        hz = ck.gaussian_invariant_hzmc(gauss31)
        assert ck._cond_residuals(kern, hz, grid)[0] == full_factorization(kern, hz, grid)

    @staticmethod
    def _compositions_match_full_tensor(points):
        # exponents of 1 skip a log term; the shift m takes both signs
        for (al, be), m in itertools.product([(1.0, 1.0), (2.0, 3.0), (0.5, 1.0), (0.7, 0.6)],
                                             [0.3, -0.4]):
            par = ck.BetaPcaParams(al, be, m, 2.0)
            grid = ck.default_beta_grid(par, points)
            hz = ck.beta_candidate_hzmc(par)
            for k1, k2 in ((hz.d, hz.u), (hz.u, hz.d)):
                assert np.array_equal(ck.compose_kernels(k1, k2, grid),
                                      full_compose(k1, k2, grid)), (al, be, m, k1 is hz.d)

    @pytest.mark.parametrize("points", [17, 100, 129])
    def test_beta_sweep_and_composition_match_full_tensor(self, points):
        par = ck.BetaPcaParams(2.5, 0.7, 0.3, 2.0)
        grid = ck.default_beta_grid(par, points)
        kern, hz = ck.beta_kernel_density(par), ck.beta_candidate_hzmc(par)
        assert np.array_equal(ck.compose_kernels(hz.d, hz.u, grid), full_compose(hz.d, hz.u, grid))
        assert ck._cond_residuals(kern, hz, grid)[0] == full_factorization(kern, hz, grid)
        self._compositions_match_full_tensor(points)

    def test_compositions_in_pieces_of_a_row_match_full_tensor(self, monkeypatch):
        # 40 pairs a block: each block is a piece of one row, trimmed on its own
        monkeypatch.setattr(ck, "_BLOCK", 40 * ck._GL_NODES)
        rows, cols = ck._extent(ck._split_rows(100, 100, ck._GL_NODES, lambda blocks: blocks[0])[0])
        assert rows == 1 and cols < 100
        self._compositions_match_full_tensor(100)

    def test_empty_interval_integrates_to_positive_zero(self):
        # both legs uniform on [x - 1/2, x + 1/2] and NaN off it, so the
        # composition is the triangle (1 - |b - a|)+; the nodes of an empty
        # interval sit off one leg's support
        half = lambda x: (np.asarray(x, dtype=float) - 0.5, np.asarray(x, dtype=float) + 0.5)
        leg = MarkovKernel(
            density=lambda x, y: np.where(np.abs(np.asarray(y) - x) <= 0.5, 1.0, np.nan),
            noise=lambda u: u - 0.5, step=lambda x, e: x + e, out_support=half, in_support=half)
        grid = gauss_legendre_grid(3.0, 33)
        p = grid.points
        gap = np.abs(p[None, :] - p[:, None])
        empty = gap >= 1.0
        assert empty.any() and (~empty).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ck.compose_kernels(leg, leg, grid)
        assert np.all(out[empty] == 0.0) and not np.signbit(out[empty]).any()
        # the full-tensor formula multiplies the NaN by the width 0; the live pairs agree
        full = full_compose(leg, leg, grid)
        assert np.isnan(full[gap > 1.0]).all()
        assert np.array_equal(out[~empty], full[~empty])
        assert np.allclose(out, np.clip(1.0 - gap, 0.0, None), rtol=0.0, atol=1e-14)

    def test_beta_composition_evaluates_only_live_columns(self):
        par = ck.BetaPcaParams(2.0, 3.0, 0.3, 2.0)
        grid = ck.default_beta_grid(par, 257)
        hz = ck.beta_candidate_hzmc(par)

        def counted(kernel, nodes):
            def density(x, y):
                nodes.append(np.broadcast(x, y).size)
                return kernel.density(x, y)
            return replace(kernel, density=density)

        for k1, k2 in ((hz.d, hz.u), (hz.u, hz.d)):
            first, second = [], []
            got = ck.compose_kernels(counted(k1, first), counted(k2, second), grid)
            assert np.array_equal(got, full_compose(k1, k2, grid))
            # the live pairs are b > a, about half of all pairs, in both orders
            assert 0 < sum(first) == sum(second) <= 0.55 * 257 ** 2 * ck._GL_NODES

    @pytest.mark.parametrize("points", [17, 100, 129, 257])
    def test_mu_probe_matches_full_tensor(self, gauss31, points):
        grid = ck.default_gaussian_grid(gauss31, points)
        base = ck.gaussian_kernel_density(gauss31)
        for other in (ck.gaussian_diag_kernel_density(gauss31), tilted(base, 1e-8)):
            rep = ck.mu_equivalence_probe(other, base, grid)
            assert (rep.residual, rep.witnesses) == full_mu(other, base, grid)

    def test_fused_probe_equals_separate_probe(self, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 100)
        base, diag = ck.gaussian_kernel_density(gauss31), ck.gaussian_diag_kernel_density(gauss31)
        hz = ck.gaussian_invariant_hzmc(gauss31)
        fused = ck.quadrature_check_conditions(base, hz, grid, override=ck.diagonal_atom)
        separate = (ck.quadrature_check_conditions(base, hz, grid)
                    + (ck.mu_equivalence_probe(diag, base, grid),))
        assert [r.to_dict() for r in fused] == [r.to_dict() for r in separate]
        assert fused[3].witnesses["differing_pairs"] == 100

    def test_battery_memory_stays_in_blocks(self, gauss31, gauss_grid):
        beta = ck.BetaPcaParams(1.0, 1.0, 1.0, 1.0)
        beta_grid = ck.default_beta_grid(beta, 257)
        for kern, hz, grid in [
                (ck.gaussian_kernel_density(gauss31), ck.gaussian_invariant_hzmc(gauss31),
                 gauss_grid),
                # the Beta battery also runs both Gauss-Legendre compositions
                (ck.beta_kernel_density(beta), ck.beta_candidate_hzmc(beta), beta_grid)]:
            tracemalloc.start()
            try:
                ck.quadrature_check_conditions(kern, hz, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert grid.size == 257
            assert peak <= 16 * 2 ** 20


class TestApplyLaw:
    """``apply_law`` is the composition's one row: its values are those of the
    law's own two-branch integral (``apply_law_reference``) bit for bit, on
    the Gaussian legs' grid sums and the Beta candidates' Gauss-Legendre
    intervals, and its one row starts no thread."""

    FAMILIES = {"gauss-3-1": ck.GaussianPcaParams(3.0, 1.0),
                "gauss-m2.5-0.3": ck.GaussianPcaParams(-2.5, 0.3),
                "beta-1-1": ck.BetaPcaParams(1.0, 1.0, 0.3, 2.0),
                "beta-2-3": ck.BetaPcaParams(2.0, 3.0, 0.3, 2.0),
                "beta-0.5-0.7": ck.BetaPcaParams(0.5, 0.7, 0.3, 2.0)}

    @pytest.mark.parametrize("leg", ["d", "u"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("points", [2, 3, 5, 17, 64, 100, 129, 257, 513, 1025])
    def test_equals_the_two_branch_integral(self, monkeypatch, points, family, leg):
        par = self.FAMILIES[family]
        if isinstance(par, ck.BetaPcaParams):
            hz, grid = ck.beta_candidate_hzmc(par), ck.default_beta_grid(par, points)
        else:
            hz, grid = ck.gaussian_invariant_hzmc(par), ck.default_gaussian_grid(par, points)
        kernel = getattr(hz, leg)
        threads = []
        run = ck.threaded_map
        spy = lambda fn, items, count: threads.append(count) or run(fn, items, count)
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(ck, "threaded_map", spy)
        got = ck.apply_law(hz.rho0, kernel, grid)
        want = apply_law_reference(hz.rho0, kernel, grid)
        assert got.shape == (points,) and got.tobytes() == want.tobytes()
        assert threads == [1]


class TestSweepNeverPassesVacuously:
    """Values on the neighbor diagonal a == b are skipped whatever they are;
    a NaN anywhere else fails the sweep with residual inf."""

    @pytest.fixture
    def setting(self, gauss31):
        return ck.default_gaussian_grid(gauss31, 129), ck.gaussian_invariant_hzmc(gauss31)

    def _factorization(self, kernel, setting):
        grid, hz = setting
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ck.quadrature_check_conditions(kernel, hz, grid)[0]

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_atom_on_the_diagonal_is_skipped(self, gauss31, setting, eps):
        with_atom = self._factorization(tilted(ck.gaussian_diag_kernel_density(gauss31), eps),
                                        setting)
        plain = self._factorization(tilted(ck.gaussian_kernel_density(gauss31), eps), setting)
        assert with_atom.to_dict() == plain.to_dict()
        assert with_atom.passed == (eps == 0.0)
        if eps:
            assert with_atom.residual > 1e-2

    def test_nan_off_the_diagonal_fails(self, gauss31, setting):
        grid, _ = setting
        base = ck.gaussian_kernel_density(gauss31)
        p = grid.points

        def density(a, b, c):
            hole = (a == p[3]) & (b == p[5]) & (c == p[7])
            return np.where(hole, np.nan, base.density(a, b, c))

        rep = self._factorization(KernelDensity(density=density, sampler=base.sampler), setting)
        assert rep.residual == np.inf and not rep.passed
        assert rep.witnesses["argmax"] == (3, 5, 7)

    def test_nan_on_the_diagonal_is_skipped(self, gauss31, setting):
        base = ck.gaussian_kernel_density(gauss31)

        def density(a, b, c):
            return np.where(a == b, np.nan, base.density(a, b, c))

        rep = self._factorization(KernelDensity(density=density, sampler=base.sampler), setting)
        assert rep.to_dict() == self._factorization(base, setting).to_dict()


class TestSplitRows:
    """The grid passes split their rows over threads.  Every report, witness
    and composition of a split run is the one-range run's, bit for bit."""

    @staticmethod
    def _battery(name, points):
        gp, bp = ck.GaussianPcaParams(3.0, 1.0), ck.BetaPcaParams(2.5, 0.7, 0.3, 2.0)
        if name == "beta":
            return (ck.beta_kernel_density(bp), ck.beta_candidate_hzmc(bp), None,
                    ck.default_beta_grid(bp, points))
        override = {"gaussian_diag": ck.diagonal_atom, "off_band": off_band}.get(name)
        # "atom" sweeps the diagonal-atom kernel itself, whose a == b entries are skipped
        base = (ck.gaussian_diag_kernel_density if name == "atom" else ck.gaussian_kernel_density)
        return (tilted(base(gp), 0.2), ck.gaussian_invariant_hzmc(gp), override,
                ck.default_gaussian_grid(gp, points))

    @staticmethod
    def _run(kernel, hz, override, grid):
        reports = ck.quadrature_check_conditions(kernel, hz, grid, override=override)
        compose = ck.compose_kernels(hz.d, hz.u, grid)
        positive = ck.GridKernel(kernel, grid).mu_positive
        return ([(r.condition, r.residual.hex(), r.to_dict()) for r in reports],
                compose.tobytes(), positive)

    @pytest.mark.parametrize("name", ["gaussian", "gaussian_diag", "off_band", "atom", "beta"])
    @pytest.mark.parametrize("points", [65, 100])
    def test_split_run_equals_one_range_run(self, monkeypatch, name, points):
        case = self._battery(name, points)
        _cpus(monkeypatch, 1)
        one = self._run(*case)
        kernel, _, override, grid = case
        if override is not None:
            # the fused report is the stand-alone probe's on the overridden kernel
            family = KernelDensity(ck.override_density(kernel.density, override), kernel.sampler)
            assert one[0][3][2] == ck.mu_equivalence_probe(family, kernel, grid).to_dict()
            assert one[0][3][2]["passed"] == (name == "gaussian_diag")
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # threads swap often: a lost row write would show
        try:
            # at 100 points, 40 ranges cut the sweep's and the Beta compositions' rows
            for count in (2, 3, 7, 40):
                _cpus(monkeypatch, count)
                assert self._run(*case) == one, count
                assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(interval)
        assert one[0][0][2]["witnesses"]["argmax"] is not None
        assert np.isfinite(float.fromhex(one[0][0][1]))

    @pytest.mark.parametrize("lo,hi,n,inner,budget", [
        (0, 257, 257, 257, 1 << 16), (3, 200, 257, 257, 1 << 15), (5, 9, 257, 64, 1 << 16),
        (1020, 1025, 1025, 1025, 1 << 12), (2, 7, 100, 1, 10), (0, 5, 5, 5, 1)])
    def test_blocks_cover_the_rows_in_c_order(self, lo, hi, n, inner, budget):
        blocks = ck._pair_blocks(lo, hi, n, inner, budget)
        pairs = np.arange(n * n).reshape(n, n)
        assert np.array_equal(np.concatenate([pairs[blk].ravel() for blk in blocks]),
                              np.arange(lo * n, hi * n))
        sizes = [np.prod(ck._extent(blk)) for blk in blocks]
        assert sizes[0] == max(sizes)
        assert sizes[0] * inner <= max(1.5 * budget, inner)

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, starts in [(3, [0, 3, 6]), (None, [0])]:
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            ranges = ck._split_rows(10, 10, 1, lambda blocks: blocks)
            assert [blocks[0][0].start for blocks in ranges] == starts

    def test_battery_memory_does_not_grow_with_cpus(self, monkeypatch, gauss31, gauss_grid):
        # the 257-point batteries under the same bound, with 16 ranges sharing the blocks
        _cpus(monkeypatch, 16)
        TestBlockedSweep().test_battery_memory_stays_in_blocks(gauss31, gauss_grid)

    @pytest.mark.parametrize("first,second", [(np.inf, np.nan), (np.nan, np.inf),
                                              (np.inf, np.inf), (np.nan, np.nan)])
    def test_first_range_wins_a_tie(self, monkeypatch, gauss31, first, second):
        grid = ck.default_gaussian_grid(gauss31, 64)
        p = grid.points
        base = ck.gaussian_kernel_density(gauss31)
        # one bad entry each side of the boundary between the two ranges (row 32)
        holes = [((30, 5, 7), first), ((33, 2, 1), second)]

        def density(a, b, c):
            out = base.density(a, b, c)
            for (i, j, k), value in holes:
                out = np.where((a == p[i]) & (b == p[j]) & (c == p[k]), value, out)
            return out

        kernel = KernelDensity(density=density, sampler=base.sampler)
        hz = ck.gaussian_invariant_hzmc(gauss31)
        runs = []
        for count in (1, 2):
            _cpus(monkeypatch, count)
            runs.append(ck.quadrature_check_conditions(kernel, hz, grid)[0].to_dict())
        assert runs[0] == runs[1]
        assert runs[1]["residual"] == np.inf
        assert runs[1]["witnesses"]["argmax"] == (30, 5, 7)

    def test_error_in_the_second_range_reaches_the_caller(self, monkeypatch, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 64)
        base = ck.gaussian_kernel_density(gauss31)
        edge = grid.points[32]

        def density(a, b, c):
            if np.any(np.asarray(a) >= edge):
                raise ValueError("second range")
            return base.density(a, b, c)

        kernel = KernelDensity(density=density, sampler=base.sampler)
        _cpus(monkeypatch, 2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="second range"):
            ck.quadrature_check_conditions(kernel, ck.gaussian_invariant_hzmc(gauss31), grid)
        with pytest.raises(ValueError, match="second range"):
            ck.GridKernel(kernel, grid).mu_positive
        assert threading.active_count() == threads

    def test_error_of_the_first_range_wins(self, monkeypatch, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 64)
        base = ck.gaussian_kernel_density(gauss31)
        edge = grid.points[32]
        raised = []

        def density(a, b, c):
            side = "second" if np.any(np.asarray(a) >= edge) else "first"
            raised.append(side)         # the caller's range and the worker's both raise
            raise ValueError(f"{side} range")

        kernel = KernelDensity(density=density, sampler=base.sampler)
        _cpus(monkeypatch, 2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="first range"):
            ck.quadrature_check_conditions(kernel, ck.gaussian_invariant_hzmc(gauss31), grid)
        assert sorted(raised) == ["first", "second"]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("name", ["gaussian_diag", "beta"])
    def test_one_cpu_starts_no_thread(self, monkeypatch, name):
        def start(thread):
            raise AssertionError("a thread was started")

        case = self._battery(name, 65)
        _cpus(monkeypatch, 2)
        split = self._run(*case)
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(threading.Thread, "start", start)
        assert self._run(*case) == split

    def test_nan_made_in_a_thread_warns_nothing(self, monkeypatch, gauss31):
        grid = ck.default_gaussian_grid(gauss31, 64)
        base = ck.gaussian_kernel_density(gauss31)

        def density(a, b, c):
            # inf - inf, an invalid operation, makes NaN at c == a in every range's rows
            atom = np.where(c == a, np.inf, 0.0)
            return base.density(a, b, c) + (atom - atom)

        kernel = KernelDensity(density=density, sampler=base.sampler)
        _cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ck.quadrature_check_conditions(kernel, ck.gaussian_invariant_hzmc(gauss31),
                                                 grid)[0]
            # a pass that sets no error state of its own runs under the caller's
            with np.errstate(invalid="ignore"):
                positive = ck.GridKernel(kernel, grid).mu_positive
        assert rep.residual == np.inf and not rep.passed
        assert not positive
