import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import betainc, betaincinv, betaln, gammaincinv, gammaln, ndtri

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca.core_types import HzmcSpec, KernelDensity, MarkovKernel, gauss_legendre_grid
from conftest import legendre_factorized, trapezoid_grid


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
    for bit."""
    lbeta = betaln(al, be)

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
            - rate * np.where(pos, x, 0.0) - gammaln(shape)
        out = np.where(pos, np.exp(logpdf), 0.0)
    if shape == 1.0:
        out = np.where(x == 0.0, float(rate), out)
    return out


def _reference_norm_pdf(x, mean, std):
    """The normal density as one expression: the reference for the in-place
    evaluation."""
    z = (np.asarray(x, dtype=float) - mean) / std
    return np.exp(-0.5 * z * z) / (std * np.sqrt(2.0 * np.pi))


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


class TestDensitiesBitForBit:
    """The normal density, the Beta kernel and the Gamma candidates are
    evaluated in place; they must give the bits of the plain formulas."""

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
    x = np.polynomial.legendre.leggauss(64)
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

    @pytest.mark.parametrize("points", [17, 100, 129])
    def test_beta_sweep_and_composition_match_full_tensor(self, points):
        par = ck.BetaPcaParams(2.5, 0.7, 0.3, 2.0)
        grid = ck.default_beta_grid(par, points)
        kern, hz = ck.beta_kernel_density(par), ck.beta_candidate_hzmc(par)
        assert np.array_equal(ck.compose_kernels(hz.d, hz.u, grid), full_compose(hz.d, hz.u, grid))
        assert ck._cond_residuals(kern, hz, grid)[0] == full_factorization(kern, hz, grid)

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
        fused = ck.quadrature_check_conditions(base, hz, grid, family_kernel=diag)
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
