"""Acceptance suite: the exit criteria for the whole package.

Each test prints one summary line (run pytest with -s to see them inline)
and enforces the stated runtime budget on top of its numerical assertions.
"""

import time

import numpy as np
import pytest

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca import lattice_ext as lx
from zigzag_pca import simulator as sim
from zigzag_pca import stats as st
from zigzag_pca.core_types import normalize_rows, TransitionTensor
from conftest import corpus_seeds, iterated_nu_eta, two_sample_distance


def _announce(name, ok, elapsed, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"\nacceptance [{name}]: {flag} ({elapsed:.2f}s) {detail}")


@pytest.fixture(scope="module")
def corpus():
    """(kind, tensor, pipeline result) for 200 seeded instances."""
    out = []
    for kind, kappa, seed in corpus_seeds(200):
        tens = (fs.make_factorized_tensor(kappa, seed)[0] if kind == "factorized"
                else fs.random_positive_tensor(kappa, seed))
        out.append((kind, tens, fs.solve_invariant_hzmc(tens, tol=1e-8)))
    return out


def test_01_finite_golden_values(two_letter):
    start = time.monotonic()
    res = fs.solve_invariant_hzmc(two_letter)
    nu = res.nu.vector
    eta = res.eta.vector
    d, u, rho0 = res.spec.d, res.spec.u, res.spec.rho0
    tol = 1e-10
    ok = np.abs(nu - [1 / 2, 1 / 2]).max() < tol
    ok &= np.abs(eta - [1 / 3, 2 / 3]).max() < tol
    ok &= np.abs(d - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]).max() < tol
    ok &= np.abs(u - [[1 / 3, 2 / 3], [2 / 3, 1 / 3]]).max() < tol
    ok &= np.abs(rho0 - [1 / 2, 1 / 2]).max() < tol
    t = two_letter.t
    lhs = t[1, 1, 1] * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 0]
    rhs = t[0, 0, 0] * t[1, 1, 0] * t[1, 0, 1] * t[0, 1, 1]
    ok &= abs(lhs - 1 / 25) < 1e-12 and abs(rhs - 1 / 25) < 1e-12
    elapsed = time.monotonic() - start
    _announce("1 finite golden", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


def test_02_oracle_equivalence_on_corpus(corpus):
    start = time.monotonic()
    agreements = 0
    for kind, tens, res in corpus:
        conditions = all(r.passed for r in fs.check_toom_conditions(tens, res.spec, tol=1e-8))
        oracle = fs.bruteforce_invariance(tens, res.spec, 2, tol=1e-8).passed
        assert conditions == oracle, f"verdicts disagree on {kind} tensor"
        assert conditions == (kind == "factorized")
        agreements += 1
    elapsed = time.monotonic() - start
    _announce("2 oracle equivalence", agreements == 200 and elapsed < 30.0,
              elapsed, f"{agreements}/200 instances agree")
    assert agreements == 200
    assert elapsed < 30.0


def test_03_construction_soundness(corpus):
    start = time.monotonic()
    count = 0
    worst = 0.0
    for kind, tens, res in corpus:
        passes_construction = (res.reports[0].passed      # quartic identity
                               and res.reports[2].passed  # cubic equation
                               and res.reports[5].passed)  # stationarity
        if not passes_construction:
            continue
        rep = fs.bruteforce_invariance(tens, res.spec, 3, tol=1e-10)
        worst = max(worst, rep.residual)
        assert rep.passed
        count += 1
    elapsed = time.monotonic() - start
    ok = count >= 100 and worst < 1e-10
    _announce("3 construction soundness", ok, elapsed,
              f"{count} constructed instances, worst oracle residual {worst:.2e}")
    assert ok


def test_04_cyclic_case(two_letter):
    start = time.monotonic()
    res = lx.solve_chzmc(two_letter, 3)
    assert res.ok
    r9, r10 = lx.check_chzmc_conditions(two_letter, res.spec, tol=1e-10)
    oracle = lx.bruteforce_cycle_invariance(two_letter, res.spec, tol=1e-10)
    ok = r9.passed and r10.passed and oracle.residual < 1e-10

    rng = np.random.default_rng(55)
    d = rng.uniform(0.1, 1.0, (2, 2))
    d /= d.sum(axis=1, keepdims=True)
    u = rng.uniform(0.1, 1.0, (2, 2))
    u /= u.sum(axis=1, keepdims=True)
    du = d @ u
    t_bad, _ = normalize_rows(d[:, None, :] * u.T[None, :, :] / du[:, :, None])
    tens_bad = TransitionTensor(t_bad)
    spec_bad = lx.ChzmcSpec(d=d, u=u, n=2, z=lx.partition_function(d, u, 2))
    _, r10_bad = lx.check_chzmc_conditions(tens_bad, spec_bad, tol=1e-10)
    oracle_bad = lx.bruteforce_cycle_invariance(tens_bad, spec_bad, tol=1e-10)
    ok &= (not r10_bad.passed) and (not oracle_bad.passed)

    elapsed = time.monotonic() - start
    _announce("4 cyclic case", ok and elapsed < 5.0, elapsed,
              f"oracle residual {oracle.residual:.2e}")
    assert ok
    assert elapsed < 5.0


def test_05_gaussian_closed_forms():
    start = time.monotonic()
    par = ck.GaussianPcaParams(3.0, 1.0)
    grid = ck.default_gaussian_grid(par, 257)
    kern = ck.gaussian_kernel_density(par)
    gk = ck.GridKernel(kern, grid)
    i0 = int(np.argmin(np.abs(grid.points)))
    nu = fs.solve_nu(gk)
    eta = fs.solve_eta(gk, fs.BaseTriple(i0, i0, i0), nu.vector)
    prof = ck.gaussian_closed_profiles(par)
    nu_c = prof["nu"](grid.points)
    nu_c /= grid.integrate(nu_c)
    eta_c = prof["eta"](grid.points)
    eta_c /= grid.integrate(eta_c)
    # the solver returns masses per node: densities after division by the weights
    err_nu = float(np.abs(nu.vector / grid.weights - nu_c).max())
    err_eta = float(np.abs(eta.vector / grid.weights - eta_c).max())

    reports = ck.quadrature_check_conditions(kern, ck.gaussian_invariant_hzmc(par),
                                             grid, tol=1e-6)
    worst = max(r.residual for r in reports)
    ok = err_nu < 1e-6 and err_eta < 1e-6 and worst < 1e-6
    elapsed = time.monotonic() - start
    _announce("5 gaussian closed forms", ok and elapsed < 60.0, elapsed,
              f"profile errors {err_nu:.2e}/{err_eta:.2e}, condition residual {worst:.2e}")
    assert ok
    assert elapsed < 60.0


def test_06_ar1_validation():
    start = time.monotonic()
    par = ck.GaussianPcaParams(3.0, 1.0)
    hz = ck.gaussian_invariant_hzmc(par)
    ar = ck.ar1_parameters(par)
    width = 100_000
    zig = sim.sample_hzmc_lines(hz, 2 * width + 1, 1, seed=606)[0]
    y = zig[1::2]
    model = sim.ModelInstance(kernel=ck.gaussian_kernel_density(par), lattice="N", seed=606)
    z = sim.step_pca(y, model, t=0)
    new_zig = np.empty(2 * (width - 1) + 1)
    new_zig[0::2] = y[:width]
    new_zig[1::2] = z

    s_line = st.summarize_line(z)
    s_zig = st.summarize_line(new_zig)
    var_target = ar.stationary_var          # 1.3416407864998738 for (3, 1)
    ok = abs(s_line.variance - var_target) < 3 * s_line.se_variance
    ok &= abs(s_zig.autocorr[0] - ar.phi) < 3 * s_zig.se_autocorr[0]
    elapsed = time.monotonic() - start
    _announce("6 ar1 validation", ok and elapsed < 120.0, elapsed,
              f"variance {s_line.variance:.5f} (target {var_target:.5f}), "
              f"lag-1 {s_zig.autocorr[0]:.5f} (target {ar.phi:.5f})")
    assert ok
    assert elapsed < 120.0


def test_07_beta_obstruction_and_image():
    start = time.monotonic()
    par = ck.BetaPcaParams(1.0, 1.0, 1.0, 1.0)
    kern = ck.beta_kernel_density(par)
    hz = ck.beta_candidate_hzmc(par)
    grid = ck.default_beta_grid(par, 257)
    rep1, rep2, rep3 = ck.quadrature_check_conditions(kern, hz, grid, tol=1e-5)
    ok = rep1.residual < 1e-5 and rep2.residual < 1e-5 and rep3.residual > 0.1

    # image property: one synchronous step maps the candidate chain to the
    # same chain started one down-step later
    n_rep = 4000
    w = 7
    site = 2
    zig = sim.sample_hzmc_lines(hz, 2 * w + 1, n_rep, seed=707)
    y = zig[:, 1::2]
    rng = np.random.Generator(np.random.Philox(key=708))
    z = kern.sampler(y[:, :-1], y[:, 1:], rng.random((n_rep, w - 1)))
    image_sample = z[:, site]

    d1, u1 = ck.beta_candidate_kernels(par)
    rng2 = np.random.Generator(np.random.Philox(key=709))
    x = hz.rho0.sampler(rng2.random(n_rep))
    x = d1.sampler(x, rng2.random(n_rep))       # initial law advanced one down step
    direct_second_line = None
    for i in range(site + 1):
        yv = d1.sampler(x, rng2.random(n_rep))
        if i == site:
            direct_second_line = yv
        x = u1.sampler(yv, rng2.random(n_rep))
    res_same = two_sample_distance(image_sample, direct_second_line)
    ok &= res_same.passed

    # negative control: without the extra down step the drift separates them
    rng3 = np.random.Generator(np.random.Philox(key=710))
    x = hz.rho0.sampler(rng3.random(n_rep))
    unshifted = None
    for i in range(site + 1):
        yv = d1.sampler(x, rng3.random(n_rep))
        if i == site:
            unshifted = yv
        x = u1.sampler(yv, rng3.random(n_rep))
    res_diff = two_sample_distance(image_sample, unshifted)
    ok &= not res_diff.passed

    elapsed = time.monotonic() - start
    _announce("7 beta obstruction/image", ok, elapsed,
              f"stationarity residual {rep3.residual:.3f}, "
              f"image distance {res_same.distance:.4f} (thr {res_same.threshold:.4f})")
    assert ok


def test_08_equivalence_and_frozen_dynamics():
    start = time.monotonic()
    par = ck.GaussianPcaParams(3.0, 1.0)
    hz = ck.gaussian_invariant_hzmc(par)
    width = 164
    init = sim.sample_hzmc_lines(hz, 2 * width - 1, 1, seed=88)[0][0::2]
    mg = sim.ModelInstance(kernel=ck.gaussian_kernel_density(par), lattice="N", seed=88)
    md = sim.ModelInstance(kernel=ck.gaussian_diag_kernel_density(par), lattice="N", seed=88)
    dg = sim.simulate_diagram(mg, init, 100)
    dd = sim.simulate_diagram(md, init, 100)
    ok = np.array_equal(dg.states, dd.states, equal_nan=True)

    # a constant line sits on the null diagonal a == b, where the two kernels
    # differ: gaussian_diag copies the common value, the Gaussian draws
    frozen = np.full(40, 0.75)
    diag = sim.simulate_diagram(md, frozen, 15)
    ok &= all(np.array_equal(diag.row(t), frozen[: 40 - t]) for t in range(16))
    moved = sim.simulate_diagram(mg, frozen, 15)
    ok &= all(np.all(moved.row(t) != 0.75) for t in range(1, 16))

    elapsed = time.monotonic() - start
    _announce("8 equivalence/frozen", ok, elapsed)
    assert ok


def test_09_uniqueness_across_starts(corpus):
    start = time.monotonic()
    rng = np.random.default_rng(909)
    for kind, tens, res in corpus:
        kappa = tens.size
        triple = res.triple
        for _ in range(10):
            nu, eta = iterated_nu_eta(tens, triple, rng.uniform(0.05, 1.0, kappa))
            assert np.abs(nu - res.nu.vector).max() < 1e-8
            assert np.abs(eta - res.eta.vector).max() < 1e-8
    elapsed = time.monotonic() - start
    _announce("9 uniqueness", elapsed < 5.0, elapsed, "200 instances x 10 starts")
    assert elapsed < 5.0
