import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca import lattice_ext as lx
from zigzag_pca.core_types import (EXACT_TOL, CheckReport, ChzmcSpec, HzmcSpec, TransitionTensor,
                                   _row_blocks, normalize_rows, sup_residual)
from conftest import (corpus_seeds, factorization_gap, iterated_nu_eta, near_identity_tensor,
                      pair_blocks)


def constant_tensor(kappa: int) -> TransitionTensor:
    return TransitionTensor(np.full((kappa,) * 3, 1.0 / kappa))


def product_tensor(f: np.ndarray) -> TransitionTensor:
    """t(a, b; c) = f(c), independent of the neighbors."""
    k = f.size
    t = np.broadcast_to(f, (k, k, k)).copy()
    return TransitionTensor(t)


class TestSelectBaseTriple:
    def test_two_letter_anchor(self, two_letter):
        assert fs.select_base_triple(two_letter) == (0, 0, 0)

    def test_uniform_tie_breaks_lexicographically(self):
        assert fs.select_base_triple(constant_tensor(3)) == (0, 0, 0)

    def test_zero_in_first_row_moves_anchor(self):
        t = np.full((2, 2, 2), 0.5)
        t[0, 0] = [1.0, 0.0]
        tens = TransitionTensor(t)
        a0, b0, _ = fs.select_base_triple(tens)
        assert (a0, b0) != (0, 0)
        # scan oracle: the returned row maximizes the row minimum
        mins = tens.t.min(axis=2)
        assert mins[a0, b0] == mins.max()

    def test_no_positive_row_rejected(self, full_tensor):
        with pytest.raises(ValueError, match="no admissible base triple"):
            fs.select_base_triple(full_tensor)

    def test_oversized_alphabet_guarded(self):
        k = 65
        tens = TransitionTensor(np.full((k, k, k), 1.0 / k))
        with pytest.raises(ValueError, match="exceeds"):
            fs.select_base_triple(tens)


def tampered_tensor(kappa: int, eps: float, seed: int = 0) -> TransitionTensor:
    """The tamper ladder: (1 - eps) F + eps R, F factorizable and R generic."""
    f = fs.make_factorized_tensor(kappa, seed)[0].t
    return TransitionTensor((1 - eps) * f + eps * fs.random_positive_tensor(kappa, 1000 + seed).t)


class TestBelyaev:
    def test_two_letter_passes_and_products_are_one_over_25(self, two_letter):
        rep = fs.check_belyaev(two_letter)
        assert rep.passed
        t = two_letter.t
        lhs = t[1, 1, 1] * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 0]
        rhs = t[0, 0, 0] * t[1, 1, 0] * t[1, 0, 1] * t[0, 1, 1]
        assert lhs == pytest.approx(1 / 25, abs=1e-12)
        assert rhs == pytest.approx(1 / 25, abs=1e-12)

    def test_neighbor_free_tensor_residual_at_rounding_scale(self):
        # log t = log f(c) has no interaction: only the means round
        tens = product_tensor(np.array([0.2, 0.3, 0.5]))
        rep = fs.check_belyaev(tens)
        assert rep.residual < 1e-15
        assert rep.witnesses["max_abs_log_t"] == -np.log(0.2)

    def test_random_tensor_fails(self):
        tens = fs.random_positive_tensor(3, 11)
        rep = fs.check_belyaev(tens)
        assert not rep.passed
        assert rep.residual > 1e-3
        assert np.abs(tens.interaction[0])[rep.witnesses["argmax"]] == rep.residual

    def test_interaction_bounds_every_log_contrast(self):
        # each 2x2x2 log contrast (the quartic over six letters) is a signed
        # sum of 8 entries of r, and r is a mean of contrasts; the loop over
        # all 729 six-tuples is the reference
        for tens in (fs.random_positive_tensor(3, 11), tampered_tensor(3, 1e-6)):
            log_t = np.log(tens.t)
            contrast = max(abs(log_t[a, b, c] + log_t[a, q, r] + log_t[p, b, r] + log_t[p, q, c]
                               - log_t[p, q, r] - log_t[p, b, c] - log_t[a, q, c] - log_t[a, b, r])
                           for a, b, c, p, q, r in itertools.product(range(3), repeat=6))
            residual = fs.check_belyaev(tens).residual
            assert residual <= contrast <= 8 * residual

    def test_nonpositive_kernel_refused(self, full_tensor):
        with pytest.raises(ValueError, match="everywhere-positive"):
            fs.check_belyaev(full_tensor)


class TestBelyaevLadder:
    """The tamper ladder t = (1 - eps) F + eps R at the default tolerance."""

    @pytest.mark.parametrize("kappa", [2, 4, 8, 16, 32, 64])
    def test_untampered_passes_and_1e_8_fails_on_every_seed(self, kappa):
        for seed in range(20):
            assert fs.check_belyaev(tampered_tensor(kappa, 0.0, seed)).passed, seed
            assert not fs.check_belyaev(tampered_tensor(kappa, 1e-8, seed)).passed, seed

    # 8 fixed relabelings p, the identity first, applied as t[p][:, p][:, :, p]
    @pytest.mark.parametrize("kappa", [2, 3, 8, 16])
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 3e-11, 1e-10, 3e-8])
    def test_relabeling_moves_no_verdict(self, kappa, eps):
        t = tampered_tensor(kappa, eps).t
        perms = [np.arange(kappa)] + [np.random.default_rng(i).permutation(kappa)
                                      for i in range(7)]
        for check in (fs.check_belyaev, fs.check_belyaev_diag):
            first = check(TransitionTensor(t))
            # r is summed in another order: allow a few ulps of log t besides 1e-4 of r
            floor = 16 * np.finfo(float).eps * np.abs(np.log(t)).max()
            for p in perms[1:]:
                rep = check(TransitionTensor(t[p][:, p][:, :, p]))
                assert rep.passed == first.passed, (check.__name__, p)
                assert abs(rep.residual - first.residual) <= 1e-4 * first.residual + floor


class TestBelyaevDiag:
    def test_two_letter_passes(self, two_letter):
        rep = fs.check_belyaev_diag(two_letter)
        assert rep.passed

    def test_passing_general_form_implies_diag(self):
        tens, _, _ = fs.make_factorized_tensor(3, 8)
        assert fs.check_belyaev(tens).passed
        assert fs.check_belyaev_diag(tens).passed

    def test_perturbed_diagonal_row_fails(self, two_letter):
        t = two_letter.t.copy()
        t[1, 1] = [0.65, 0.35]
        tens = TransitionTensor(t)
        rep = fs.check_belyaev_diag(tens)
        assert not rep.passed
        assert rep.residual > 1e-3

    @pytest.mark.parametrize("kappa", [2, 3, 5, 16, 64])
    @pytest.mark.parametrize("kind", ["factorized", "random"])
    def test_diag_is_the_b_equals_a_slice_of_the_quartic(self, kappa, kind):
        # never above quartic-identity's residual: the diagonal report alone
        # cannot fail a kernel the quartic identity passes
        for seed in range(5):
            tens = (fs.make_factorized_tensor(kappa, seed)[0] if kind == "factorized"
                    else fs.random_positive_tensor(kappa, seed))
            full, diag = fs.check_belyaev(tens), fs.check_belyaev_diag(tens)
            r = tens.interaction[0]
            on_diag = np.abs(r)[np.arange(kappa), np.arange(kappa)]
            assert diag.residual == on_diag.max() <= full.residual
            assert diag.witnesses["argmax"] == np.unravel_index(on_diag.argmax(), on_diag.shape)


class TestSolveNu:
    def test_two_letter_is_uniform(self, two_letter):
        res = fs.solve_nu(two_letter)
        assert np.abs(res.vector - 0.5).max() < 1e-10
        assert res.residual <= 1e-12

    def test_constant_tensor_uniform(self):
        res = fs.solve_nu(constant_tensor(4))
        assert np.abs(res.vector - 0.25).max() < 1e-12

    def test_matches_dense_eigensolve(self):
        tens = fs.random_positive_tensor(3, 3)
        res = fs.solve_nu(tens)
        m1 = tens.t[np.arange(3), np.arange(3), :].T
        vals, vecs = np.linalg.eig(m1)
        lead = np.argmax(vals.real)
        oracle = np.abs(vecs[:, lead].real)
        oracle /= oracle.sum()
        assert np.abs(res.vector - oracle).max() < 1e-10
        assert res.eigenvalue == pytest.approx(vals[lead].real, abs=1e-10)

    @pytest.mark.parametrize("eps", [1e-1, 1e-6, 1e-9])
    def test_recovers_diagonal_of_du_entrywise(self, eps):
        # for t built from (d, d), nu is proportional to the diagonal of dd;
        # the small eps makes the diagonal chain nearly reducible
        tens, d = near_identity_tensor(4, eps)
        res = fs.solve_nu(tens)
        target = np.diag(d @ d) / np.diag(d @ d).sum()
        assert np.abs(res.vector / target - 1).max() < 1e-12
        assert res.residual < 1e-15


class TestSolveEta:
    def test_two_letter_golden(self, two_letter):
        triple = fs.select_base_triple(two_letter)
        nu = fs.solve_nu(two_letter).vector
        res = fs.solve_eta(two_letter, triple, nu)
        assert np.abs(res.vector - np.array([1 / 3, 2 / 3])).max() < 1e-10

    def test_constant_tensor_uniform_eta(self):
        tens = constant_tensor(3)
        triple = fs.select_base_triple(tens)
        nu = fs.solve_nu(tens).vector
        res = fs.solve_eta(tens, triple, nu)
        assert np.abs(res.vector - 1 / 3).max() < 1e-10

    def test_recovers_generating_up_row(self):
        tens, _, u = fs.make_factorized_tensor(3, 42)
        triple = fs.select_base_triple(tens)
        nu = fs.solve_nu(tens).vector
        res = fs.solve_eta(tens, triple, nu)
        urow = u[triple.c0] / u[triple.c0].sum()
        assert np.abs(res.vector - urow).max() < 1e-10

    def test_scale_invariance_in_nu(self, two_letter):
        triple = fs.select_base_triple(two_letter)
        nu = fs.solve_nu(two_letter).vector
        a = fs.solve_eta(two_letter, triple, nu).vector
        b = fs.solve_eta(two_letter, triple, 3.7 * nu).vector
        assert np.abs(a - b).max() < 1e-10


class TestEtaCubic:
    def test_two_letter_solution_passes(self, two_letter):
        triple = fs.select_base_triple(two_letter)
        built = fs.build_hzmc_kernels(two_letter, triple, np.array([1 / 3, 2 / 3]))
        rep = fs.check_eta_cubic(built)
        assert rep.passed
        assert rep.residual < 1e-12
        assert rep.witnesses["argmax"] is None

    def test_constant_tensor_uniform_passes(self):
        tens = constant_tensor(3)
        rep = fs.check_eta_cubic(fs.build_hzmc_kernels(tens, fs.select_base_triple(tens),
                                                     np.full(3, 1 / 3)))
        assert rep.passed

    def test_wrong_weights_fail(self, two_letter):
        triple = fs.select_base_triple(two_letter)
        rep = fs.check_eta_cubic(fs.build_hzmc_kernels(two_letter, triple, np.array([0.5, 0.5])))
        assert not rep.passed
        assert rep.residual > 1e-3
        assert len(rep.witnesses["argmax"]) == 2


class TestBuildKernels:
    def test_two_letter_golden_kernels(self, two_letter):
        triple = fs.select_base_triple(two_letter)
        d, u, *_ = fs.build_hzmc_kernels(two_letter, triple, np.array([1 / 3, 2 / 3]))
        assert np.abs(d - np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])).max() < 1e-10
        assert np.abs(u - np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])).max() < 1e-10

    def test_neighbor_free_tensor_factorizes_trivially(self):
        f = np.array([0.2, 0.3, 0.5])
        tens = product_tensor(f)
        triple = fs.select_base_triple(tens)
        eta = np.array([0.1, 0.4, 0.5])
        d, u, *_ = fs.build_hzmc_kernels(tens, triple, eta)
        assert np.abs(d - f[None, :]).max() < 1e-12
        assert np.abs(u - eta[None, :]).max() < 1e-12

    def test_rows_stochastic(self):
        for seed in (1, 2, 3):
            tens = fs.random_positive_tensor(3, seed)
            triple = fs.select_base_triple(tens)
            nu = fs.solve_nu(tens).vector
            eta = fs.solve_eta(tens, triple, nu).vector
            d, u, *_ = fs.build_hzmc_kernels(tens, triple, eta)
            assert np.abs(d.sum(axis=1) - 1).max() < 1e-12
            assert np.abs(u.sum(axis=1) - 1).max() < 1e-12
            assert d.min() > 0 and u.min() > 0


def whole_tensor_cubic_and_kernels(tens, triple, eta):
    """check_eta_cubic's residual and build_hzmc_kernels' (d, u), with the
    contraction B[a, c] = sum_x w[a, x] t[a, x, c] as one einsum over the
    whole tensor."""
    t = tens.t
    a0, _, c0 = triple
    w = eta[None, :] / t[:, :, c0]
    s0 = w.sum(axis=1)
    big_b = np.einsum("ax,axc->ac", w, t)
    fac1 = (w[a0, :][:, None] * t[a0, :, :]) / s0[:, None]
    rhs = (fac1.T @ big_b) / big_b[a0, :][:, None]
    residual = float(np.abs(w / s0[:, None] - rhs).max())
    num = (w[a0, :][:, None] * t[a0, :, :]).T
    d, _ = normalize_rows(big_b / s0[:, None])
    u, _ = normalize_rows(num / num.sum(axis=1)[:, None])
    return residual, d, u


@pytest.mark.parametrize("kappa", [16, 33, 64])
@pytest.mark.parametrize("make", [lambda k: fs.make_factorized_tensor(k, 7)[0],
                                  lambda k: fs.random_positive_tensor(k, 7)],
                         ids=["factorized", "random"])
def test_blocked_contraction_matches_whole_einsum_bitwise(kappa, make):
    tens = make(kappa)
    triple = fs.select_base_triple(tens)
    eta = fs.solve_eta(tens, triple, fs.solve_nu(tens).vector).vector
    residual, d_ref, u_ref = whole_tensor_cubic_and_kernels(tens, triple, eta)
    built = fs.build_hzmc_kernels(tens, triple, eta)
    assert fs.check_eta_cubic(built).residual == residual
    assert np.array_equal(built.d, d_ref) and np.array_equal(built.u, u_ref)
    if kappa == 64:
        assert len(_row_blocks(kappa, kappa * kappa)) > 1      # several blocks walked


class TestStationaryDistribution:
    def test_two_letter_uniform(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        stat = fs.stationary_distribution(res.spec.d)
        assert np.abs(stat.vector - 0.5).max() < 1e-10
        assert stat.eigenvalue == 1.0 and stat.iterations == 1

    def test_identity_gives_the_minimum_norm_law(self):
        res = fs.stationary_distribution(np.eye(3))
        assert np.abs(res.vector - 1 / 3).max() < 1e-12

    def test_matches_null_space_solve(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.05, 1.0, (4, 4))
        d /= d.sum(axis=1, keepdims=True)
        res = fs.stationary_distribution(d)
        # oracle: kernel of (D^T - I) with the normalization row appended
        a = np.vstack([d.T - np.eye(4), np.ones(4)])
        b = np.concatenate([np.zeros(4), [1.0]])
        oracle = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(res.vector - oracle).max() < 1e-10

    def test_periodic_chain_converges(self):
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = fs.stationary_distribution(perm)
        assert np.abs(res.vector - 0.5).max() < 1e-12

    def test_reducible_two_closed_classes_and_a_transient_state(self):
        # closed classes {0, 1} and {2, 3}; state 4 leaks into both
        d = np.array([[0.3, 0.7, 0.0, 0.0, 0.0],
                      [0.6, 0.4, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.1, 0.9, 0.0],
                      [0.0, 0.0, 0.5, 0.5, 0.0],
                      [0.2, 0.0, 0.3, 0.0, 0.5]])
        res = fs.stationary_distribution(d)
        assert res.vector.min() >= -1e-15
        assert res.vector.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(res.vector @ d - res.vector).max() <= 1e-12
        assert res.residual <= 1e-12

    def test_nearly_reducible_chain_to_full_relative_accuracy(self):
        a, b = 1e-13, 3e-13
        res = fs.stationary_distribution(np.array([[1 - a, a], [b, 1 - b]]))
        assert np.abs(res.vector / [0.75, 0.25] - 1).max() < 1e-12


class TestToomConditions:
    def test_two_letter_all_pass(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        for rep in fs.check_toom_conditions(two_letter, res.spec):
            assert rep.passed
            assert rep.witnesses.get("argmax") is None

    def test_everything_uniform_passes(self):
        tens = constant_tensor(2)
        spec = HzmcSpec(d=np.full((2, 2), 0.5), u=np.full((2, 2), 0.5),
                        rho0=np.full(2, 0.5))
        for rep in fs.check_toom_conditions(tens, spec):
            assert rep.passed

    def test_swapped_up_rows_break_factorization(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        swapped = HzmcSpec(d=res.spec.d, u=res.spec.u[::-1].copy(),
                           rho0=res.spec.rho0)
        rep1, _, _ = fs.check_toom_conditions(two_letter, swapped)
        assert not rep1.passed
        assert rep1.residual > 1e-3
        a, b, c = rep1.witnesses["argmax"]
        t = two_letter.t
        lhs = t[a, b, c] * (swapped.d @ swapped.u)[a, b]
        assert abs(lhs - swapped.d[a, c] * swapped.u[c, b]) == rep1.residual


class TestFactorizationSweep:
    """The one sweep of condition (1) against the one-line tensor formula
    (``conftest.factorization_gap``), bit for bit, on the tamper ladder."""

    @pytest.mark.parametrize("kappa", [2, 3, 8, 16, 64])
    @pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-6])
    def test_half_line_and_cycles_match_the_tensor_formula(self, kappa, eps):
        tens = tampered_tensor(kappa, eps)
        built = fs.make_factorized_tensor(kappa, 0)[1:]
        solved = fs.solve_invariant_hzmc(tens).spec
        for d, u in (built, (solved.d, solved.u)):
            du = d @ u
            gap = factorization_gap(tens.t, d, u, du)
            resid, where = sup_residual([(0, gap)], gap.shape)
            shown = where if resid > EXACT_TOL else None
            assert fs._factorization_sweep(tens.__getitem__, du, d, u.T) == (resid, where)
            spec = HzmcSpec(d=d, u=u, rho0=fs.stationary_distribution(d).vector)
            rep = fs.check_toom_conditions(tens, spec)[0]
            assert (rep.residual.hex(), rep.witnesses["argmax"]) == (resid.hex(), shown)
            for n in (1, 2, 3):
                live = np.linalg.matrix_power(du, n - 1).T > lx.ZERO_SKIP
                masked = gap * live[:, :, None]
                resid_n, where_n = sup_residual([(0, masked)], masked.shape)
                rep = lx.check_chzmc_conditions(
                    tens, ChzmcSpec(d=d, u=u, n=n, z=lx.partition_function(d, u, n)))[0]
                assert (rep.residual.hex(), rep.witnesses["argmax"]) == (
                    resid_n.hex(), where_n if resid_n > EXACT_TOL else None)

    def test_blocks_and_skip_change_no_bit(self):
        # the grid's row ranges and pieces of rows, on a tensor: each range's
        # argmax counts rows from 0, and the larger range result, the first
        # on ties, is the whole sweep's
        kappa = 9
        tens = tampered_tensor(kappa, 1e-6, seed=3)
        _, d, u = fs.make_factorized_tensor(kappa, 3)
        du = d @ u
        gap = factorization_gap(tens.t, d, u, du)
        whole = fs._factorization_sweep(tens.__getitem__, du, d, u.T)
        assert whole == sup_residual([(0, gap)], gap.shape)
        for budget in (kappa, 4 * kappa, 20 * kappa, kappa ** 3):
            for edge in (1, 4, kappa - 1):
                parts = [fs._factorization_sweep(tens.__getitem__, du, d, u.T,
                                                 ck._pair_blocks(lo, hi, kappa, kappa, budget))
                         for lo, hi in ((0, edge), (edge, kappa))]
                assert max(parts, key=lambda r: r[0]) == whole, (budget, edge)
        skip = np.zeros((kappa, kappa), dtype=bool)
        skip[whole[1][:2]] = True
        gap[whole[1][:2]] = 0.0
        assert fs._factorization_sweep(tens.__getitem__, du, d, u.T, skip=skip) == \
            sup_residual([(0, gap)], gap.shape)


def free_chain(kappa: int, seed: int):
    """Stochastic d and u that do not commute, and a positive rho0: a chain
    invariant for nothing, so no identity can hide a wrong product."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 1.0, (kappa, kappa))
    d /= d.sum(axis=1, keepdims=True)
    u = rng.uniform(0.1, 1.0, (kappa, kappa))
    u /= u.sum(axis=1, keepdims=True)
    r0 = rng.uniform(0.1, 1.0, kappa)
    r0 /= r0.sum()
    assert np.abs(d @ u - u @ d).max() > 1e-3
    return d, u, r0


class TestPushForward:
    def test_smallest_window_marginal_is_rho0(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        joint = fs.push_forward_zigzag(two_letter, res.spec, 0)
        assert joint.shape == (2, 2, 2)
        marginal = joint.sum(axis=(1, 2))
        assert np.abs(marginal - res.spec.rho0).max() < 1e-12

    def test_uniform_spec_uniform_joint(self):
        tens = constant_tensor(2)
        spec = HzmcSpec(d=np.full((2, 2), 0.5), u=np.full((2, 2), 0.5),
                        rho0=np.full(2, 0.5))
        joint = fs.push_forward_zigzag(tens, spec, 1)
        assert np.abs(joint - 1 / 32).max() < 1e-14

    def test_matches_literal_summation(self, two_letter):
        # independent oracle: sum the defining expression with plain loops
        res = fs.solve_invariant_hzmc(two_letter)
        d, u, r0 = res.spec.d, res.spec.u, res.spec.rho0
        t = two_letter.t
        k = 1
        joint = fs.push_forward_zigzag(two_letter, res.spec, k)
        oracle = np.zeros((2,) * 5)
        for b0, c0, b1, c1, b2 in itertools.product(range(2), repeat=5):
            tot = 0.0
            for a in itertools.product(range(2), repeat=4):
                w = r0[a[0]]
                bs = (b0, b1, b2)
                for i in range(3):
                    w *= d[a[i], bs[i]] * u[bs[i], a[i + 1]]
                tot += w
            oracle[b0, c0, b1, c1, b2] = tot * t[b0, b1, c0] * t[b1, b2, c1]
        assert np.abs(joint - oracle).max() < 1e-14
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_cylinder_weights(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        joint = fs.push_forward_zigzag(two_letter, res.spec, 2)
        d, u, r0 = res.spec.d, res.spec.u, res.spec.rho0
        oracle = np.zeros((2,) * 7)
        for cfg in itertools.product(range(2), repeat=7):
            b = cfg[0::2]
            c = cfg[1::2]
            w = r0[b[0]]
            for i in range(3):
                w *= d[b[i], c[i]] * u[c[i], b[i + 1]]
            oracle[cfg] = w
        assert np.abs(joint - oracle).max() < 1e-10

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_cylinder_weights_match_literal_product(self, kappa):
        d, u, r0 = free_chain(kappa, kappa)
        for k in range(3):
            weights = fs.hzmc_cylinder_weights(HzmcSpec(d=d, u=u, rho0=r0), k)
            oracle = np.zeros((kappa,) * (2 * k + 3))
            for cfg in itertools.product(range(kappa), repeat=2 * k + 3):
                b, c = cfg[0::2], cfg[1::2]
                w = r0[b[0]]
                for i in range(k + 1):
                    w *= d[b[i], c[i]] * u[c[i], b[i + 1]]
                oracle[cfg] = w
            assert weights.shape == oracle.shape
            assert np.abs(weights - oracle).max() < 1e-15

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_free_chain_matches_literal_step(self, kappa, k):
        # sum the old window (a0, b0, a1, ..., b_{k+1}, a_{k+2}) over the old
        # first line a, then draw each new cell c_i from t(b_i, b_{i+1}; .)
        d, u, r0 = free_chain(kappa, 20 * kappa + k)
        tens = fs.random_positive_tensor(kappa, k)
        t = tens.t
        joint = fs.push_forward_zigzag(tens, HzmcSpec(d=d, u=u, rho0=r0), k)
        second = {}
        for b in itertools.product(range(kappa), repeat=k + 2):
            tot = 0.0
            for a in itertools.product(range(kappa), repeat=k + 3):
                w = r0[a[0]]
                for i in range(k + 2):
                    w *= d[a[i], b[i]] * u[b[i], a[i + 1]]
                tot += w
            second[b] = tot
        oracle = np.zeros((kappa,) * (2 * k + 3))
        for cfg in itertools.product(range(kappa), repeat=2 * k + 3):
            b, c = cfg[0::2], cfg[1::2]
            w = second[b]
            for i in range(k + 1):
                w *= t[b[i], b[i + 1], c[i]]
            oracle[cfg] = w
        np.testing.assert_allclose(joint, oracle, rtol=1e-14, atol=0)
        assert joint.sum() == pytest.approx(1.0, abs=1e-14)

    def test_size_guard(self):
        tens = constant_tensor(5)
        spec = HzmcSpec(d=np.full((5, 5), 0.2), u=np.full((5, 5), 0.2),
                        rho0=np.full(5, 0.2))
        with pytest.raises(ValueError, match="guard"):
            fs.push_forward_zigzag(tens, spec, 4)


class TestBruteforceInvariance:
    def test_two_letter_invariant(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        rep = fs.bruteforce_invariance(two_letter, res.spec, 3)
        assert rep.passed
        assert rep.residual < 1e-10

    def test_absorbing_view_exactly_invariant(self, full_tensor):
        zero = full_tensor.restrict([0])
        res = fs.solve_invariant_hzmc(zero)
        rep = fs.bruteforce_invariance(zero, res.spec, 3)
        assert rep.residual == 0.0

    def test_complete_iff_rho0_positive(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        assert fs.bruteforce_invariance(two_letter, res.spec, 1).witnesses["complete"] is True
        # d keeps state 0, so rho0 = (1, 0) is stationary and window 0 sees
        # nothing of row 1: the report does not claim completeness
        d = np.array([[1.0, 0.0], [0.5, 0.5]])
        spec = HzmcSpec(d=d, u=d.copy(), rho0=np.array([1.0, 0.0]))
        rep = fs.bruteforce_invariance(constant_tensor(2), spec, 1)
        assert rep.witnesses["complete"] is False

    @settings(max_examples=40, deadline=None)
    @given(kappa=hst.integers(2, 3), kind=hst.sampled_from(["factorized", "generic", "tampered"]),
           seed=hst.integers(0, 2**16), resolve=hst.booleans())
    def test_window_zero_decides_when_rho0_positive(self, kappa, kind, seed, resolve):
        if kind == "generic":
            tens = fs.random_positive_tensor(kappa, seed)
        else:
            tens = fs.make_factorized_tensor(kappa, seed)[0]
        spec = fs.solve_invariant_hzmc(tens).spec
        if kind == "tampered":
            d = np.array(spec.d)
            d[0, 0] += 1e-6
            d /= d.sum(axis=1, keepdims=True)
            rho0 = fs.stationary_distribution(d).vector if resolve else spec.rho0
            spec = HzmcSpec(d=d, u=spec.u, rho0=rho0)
        assert np.min(spec.rho0) > 0
        window0 = fs.bruteforce_invariance(tens, spec, 0)
        windows = fs.bruteforce_invariance(tens, spec, 4)
        assert window0.witnesses["complete"] and windows.witnesses["complete"]
        assert window0.passed == windows.passed == (kind == "factorized")

    def test_tamper_seen_at_largest_benchmark_window(self):
        tens, _, _ = fs.make_factorized_tensor(2, 7)
        spec = fs.solve_invariant_hzmc(tens).spec
        assert fs.bruteforce_invariance(tens, spec, 9).passed
        d = np.array(spec.d)
        d[0, 0] += 1e-4
        d /= d.sum(axis=1, keepdims=True)
        rep = fs.bruteforce_invariance(tens, HzmcSpec(d=d, u=spec.u, rho0=spec.rho0), 9)
        assert not rep.passed
        assert len(rep.witnesses["per_k"]) == 10 and rep.witnesses["argmax"] is not None
        assert rep.witnesses["per_k"][9] > rep.tolerance     # the window itself, not only k = 0

    def test_arbitrary_weights_fail_with_quartic(self):
        tens = fs.random_positive_tensor(3, 13)
        triple = fs.select_base_triple(tens)
        assert not fs.check_belyaev(tens).passed
        eta = np.full(3, 1 / 3)
        d, u, *_ = fs.build_hzmc_kernels(tens, triple, eta)
        rho0 = fs.stationary_distribution(d).vector
        spec = HzmcSpec(d=d, u=u, rho0=rho0)
        rep = fs.bruteforce_invariance(tens, spec, 2)
        assert not rep.passed


def oracle_case(kind: str, kappa: int, seed: int):
    """(tensor, spec): a factorized kernel with its solved chain, a generic
    kernel with its (failing) candidate, or the factorized chain with d
    tampered by 1e-6."""
    if kind == "generic":
        tens = fs.random_positive_tensor(kappa, seed)
    else:
        tens = fs.make_factorized_tensor(kappa, seed)[0]
    spec = fs.solve_invariant_hzmc(tens).spec
    if kind == "tampered":
        d = np.array(spec.d)
        d[0, 0] += 1e-6
        d /= d.sum(axis=1, keepdims=True)
        spec = HzmcSpec(d=d, u=spec.u, rho0=spec.rho0)
    return tens, spec


def whole_window_oracle(tens, spec, k_max, tol=EXACT_TOL):
    """The half-line oracle on whole windows: the residual, per-window maxima
    and first-maximum witness of the full pushed and cylinder laws."""
    worst, per_k, where = 0.0, [], None
    for k in range(k_max + 1):
        diff = np.abs(fs.push_forward_zigzag(tens, spec, k) - fs.hzmc_cylinder_weights(spec, k))
        rk = float(diff.max())
        per_k.append(rk)
        if rk >= worst:
            worst = rk
            where = ((k,) + tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))
                     if rk > tol else None)
    return worst, per_k, where


def walked_reports(kappa: int) -> list[str]:
    """Every report a chain walk decides, as JSON (floats by repr, so equal
    strings are equal bits): both oracles on passing and failing chains, a
    non-commuting pair on the half line and on cycles, n = 1 included, and
    its full cycle sweep."""
    rng = np.random.default_rng(70 + kappa)
    d, u = (m / m.sum(axis=1, keepdims=True) for m in rng.uniform(0.1, 1.0, (2, kappa, kappa)))
    k_max = 5 - kappa                    # windows of up to 2^9 and 3^7 entries
    reps = []
    for kind in ("factorized", "tampered", "generic"):
        reps.append(fs.bruteforce_invariance(*oracle_case(kind, kappa, 50 + kappa), k_max))
    tens = fs.make_factorized_tensor(kappa, 7)[0]
    reps.append(fs.bruteforce_invariance(tens, HzmcSpec(d=d, u=u, rho0=np.full(kappa, 1 / kappa)),
                                         k_max))
    for n in (1, 2, 3, 4):
        reps.append(lx.bruteforce_cycle_invariance(tens, lx.solve_chzmc(tens, n).spec))
        reps.append(lx.bruteforce_cycle_invariance(
            tens, ChzmcSpec(d=d, u=u, n=n, z=lx.partition_function(d, u, n))))
        reps.append(lx.check_cycle_commutation(d, u, n))
    assert reps[-1].notes == "decided by full cycle sweep" and not reps[-1].passed
    return [json.dumps(rep.to_dict(), sort_keys=True) for rep in reps]


def whole_tail_walk(first, factors_of):
    """``pair_blocks`` fed the whole tail of each leading cell: the last
    ``fs._grow`` step, the link prepended to under, which the walker peels."""
    def tail_of(p):
        link, under = factors_of(p)
        return fs._grow(under[None], link, 1)[0]

    return pair_blocks(first, tail_of)


class TestPiecedWalk:
    """The chain walk cuts its pieces by a budget of entries; where the cuts
    fall changes no entry and no report."""

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_piece_budget_changes_no_report(self, monkeypatch, kappa):
        default = walked_reports(kappa)
        for budget in (1, 7, 64):
            monkeypatch.setattr(fs, "_PIECE", budget)
            assert walked_reports(kappa) == default

    @pytest.mark.parametrize("budget", [1, 4, 5, 12, None])
    def test_tie_and_nan_across_pieces_of_one_row(self, monkeypatch, budget):
        # one row of 12 entries: at a budget of 4 its pieces are [0, 4), [4, 8)
        # and [8, 12), so the tie at 1 and 5 and the NaN at 6 sit in later
        # pieces; None keeps the default budget, one piece
        if budget is not None:
            monkeypatch.setattr(fs, "_PIECE", budget)
        tie = np.zeros((1, 12))
        tie[0, [1, 5]] = 3.0
        nan = np.array([[0.0, 0.5, 0.0, 0.0, 0.0, 2.0, np.nan, 0.0, 0.0, 0.0, 7.0, 0.0]])
        zero = np.zeros((1, 12))
        shape = (1, 1, 1, 12)

        def walk(tail):
            return fs._chain_blocks(np.ones((1, 1, 1)), lambda p: (np.ones((1, 1, 1)), tail))

        assert fs._sup_distance(walk(tie), walk(zero), shape, EXACT_TOL) == (3.0, (0, 0, 0, 1))
        assert fs._sup_distance(walk(nan), walk(zero), shape, EXACT_TOL) == (np.inf, (0, 0, 0, 6))

    @pytest.mark.parametrize("kappa, k", [(2, 0), (2, 8), (3, 4), (16, 1)])
    def test_pieces_fit_the_budget_and_fill_bitwise(self, kappa, k):
        # (2, 8): rows of 2^16 entries, cut into slices; (3, 4): rows of 3^8,
        # two a piece; (16, 1) and (2, 0): pairs of 16^3 and 2, grouped
        tens, spec = oracle_case("generic", kappa, 60 + kappa)
        link = fs._push_link(tens.t, spec.u @ spec.d)
        first = (spec.rho0 @ spec.d)[:, None, None] * link
        tail = fs._grow(np.ones((1, kappa, 1)), link, k)[0]

        def walk():
            return fs._chain_blocks(first, lambda p: fs._tail_factors(np.ones((1, kappa, 1)),
                                                                      link, k))

        sizes = [piece.size for _, piece in walk()]
        assert sum(sizes) == kappa ** (2 * k + 3) and max(sizes) <= fs._PIECE
        if tail.size <= fs._PIECE:           # whole pairs of one leading cell a piece
            assert max(sizes) == min(kappa, fs._PIECE // tail.size) * tail.size
        shape = (kappa,) * (2 * k + 3)
        pieced = fs._fill(walk(), shape)
        assert pieced.tobytes() == fs._fill(pair_blocks(first, lambda p: tail), shape).tobytes()

    @pytest.mark.parametrize("kappa, k, n", [(2, 0, 1), (2, 8, 10), (3, 1, 2), (3, 4, 6)])
    def test_every_caller_matches_the_pair_walk(self, monkeypatch, kappa, k, n):
        tens, spec = oracle_case("tampered", kappa, 80 + kappa)
        cyc = lx.solve_chzmc(tens, n).spec

        def laws():
            return [fs.push_forward_zigzag(tens, spec, k), fs.hzmc_cylinder_weights(spec, k),
                    lx.chzmc_density(cyc)]

        pieced = laws()
        monkeypatch.setattr(fs, "_chain_blocks", whole_tail_walk)
        monkeypatch.setattr(lx, "_chain_blocks", whole_tail_walk)
        assert [w.tobytes() for w in pieced] == [w.tobytes() for w in laws()]

    @pytest.mark.parametrize("budget", [1, 3, None])
    @pytest.mark.parametrize("kappa", [2, 3])
    def test_unit_factors_match_the_pair_walk(self, monkeypatch, kappa, budget):
        # k = 0 and n = 1, 2 peel no link: the walker multiplies by the unit
        if budget is not None:
            monkeypatch.setattr(fs, "_PIECE", budget)
        tens, spec = oracle_case("tampered", kappa, 90 + kappa)
        link = fs._push_link(tens.t, spec.u @ spec.d)

        def laws():
            return [fs._zigzag_chain(spec.rho0 @ spec.d, link, 0),
                    *(fs._fill(lx._cyclic_blocks(link, n, 0.5), (kappa,) * (2 * n))
                      for n in (1, 2))]

        pieced = laws()
        monkeypatch.setattr(fs, "_chain_blocks", whole_tail_walk)
        monkeypatch.setattr(lx, "_chain_blocks", whole_tail_walk)
        assert [w.tobytes() for w in pieced] == [w.tobytes() for w in laws()]

    @pytest.mark.parametrize("budget", [1, 5, None])
    @pytest.mark.parametrize("kappa, n", [(2, 1), (2, 2), (2, 3), (3, 4), (4, 5)])
    def test_one_letter_middle_axis_matches_the_pair_walk(self, monkeypatch, kappa, n, budget):
        # the cycle sweep's products walk du[:, None, :]: a link whose middle
        # axis has one letter
        if budget is not None:
            monkeypatch.setattr(fs, "_PIECE", budget)
        d, u, _ = free_chain(kappa, 40 + n)
        link = (d @ u)[:, None, :]
        pieced = fs._fill(lx._cyclic_blocks(link, n), (kappa,) * n)
        monkeypatch.setattr(lx, "_chain_blocks", whole_tail_walk)
        assert pieced.tobytes() == fs._fill(lx._cyclic_blocks(link, n), (kappa,) * n).tobytes()

    def test_tie_between_pieces_out_of_c_order_keeps_the_smaller_index(self, monkeypatch):
        # a tail of 4 cut in two pieces, each multiplied into both pairs m:
        # offsets come out 0, 4, 2, 6, and |a - b| reads 3 at 4 (second piece)
        # and at 2 (third), so the later piece holds the first maximum
        monkeypatch.setattr(fs, "_PIECE", 2)
        unit = np.ones((1, 1, 1))

        def walk(first, under):
            return fs._chain_blocks(np.array(first, dtype=float).reshape(1, 2, 1),
                                    lambda p: (unit, np.array([under], dtype=float)))

        a, b = walk([1, 1], [3, 0, 3, 0]), walk([1, 0], [3, 0, 0, 0])
        assert [start for start, _ in walk([1, 1], [3, 0, 3, 0])] == [0, 4, 2, 6]
        assert fs._sup_distance(a, b, (2, 4), EXACT_TOL) == (3.0, (0, 2))

    def test_boxes_tile_a_flat_range_in_c_order(self):
        dims = (3, 2, 4, 5)
        flat = np.arange(math.prod(dims)).reshape(dims)
        for start in range(0, flat.size + 1, 7):
            for stop in range(start, flat.size + 1, 11):
                boxes = list(fs._boxes(start, stop, dims))
                cells = [i for box in boxes for i in flat[box].ravel().tolist()]
                assert cells == list(range(start, stop)) and len(boxes) <= 2 * len(dims) - 1

    @pytest.mark.parametrize("budget", [5, None])
    def test_each_tail_is_cut_once_per_leading_cell(self, monkeypatch, budget):
        # the half line's tail is the same for every leading pair: one cut a
        # window and law; a cycle's depends on x0: one cut a cell and law
        if budget is not None:
            monkeypatch.setattr(fs, "_PIECE", budget)
        cuts, pieces = [], fs._tail_pieces
        monkeypatch.setattr(fs, "_tail_pieces", lambda *a: cuts.append(1) or pieces(*a))
        tens, spec = oracle_case("factorized", 3, 5)
        assert fs.bruteforce_invariance(tens, spec, 3).passed and len(cuts) == 2 * 4
        cuts.clear()
        cyc = lx.solve_chzmc(tens, 4).spec
        assert lx.bruteforce_cycle_invariance(tens, cyc).passed and len(cuts) == 2 * 3

    def test_small_tails_fill_whole_pieces(self):
        # kappa 16, k 1 (finite-decide's verify): tails of 16^3 entries, four
        # pairs (p, m) a piece, so no piece is smaller than the budget
        tens, spec = oracle_case("factorized", 16, 3)
        link = fs._push_link(tens.t, spec.u @ spec.d)
        sizes = {piece.size for _, piece in fs._zigzag_blocks(spec.rho0 @ spec.d, link, 1)}
        assert sizes == {fs._PIECE} == {2**14}


class TestBlockWalk:
    """The oracles walk the chain in pieces and report, bit for bit, what
    the whole-window comparison reports."""

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("kind", ["factorized", "generic", "tampered"])
    def test_half_line_matches_whole_windows(self, kappa, kind):
        tens, spec = oracle_case(kind, kappa, 40 + kappa)
        for k in range(4):
            rep = fs.bruteforce_invariance(tens, spec, k)
            worst, per_k, where = whole_window_oracle(tens, spec, k)
            assert rep.residual == worst
            assert rep.witnesses["per_k"] == per_k
            assert rep.witnesses["argmax"] == where
            assert (where is None) == (kind == "factorized")

    def test_tie_reports_first_block(self):
        # t, d, u and rho0 are unchanged by swapping the two letters, so every
        # block's difference recurs bit for bit in its mirror block
        rng = np.random.default_rng(3)
        half = rng.uniform(0.1, 1.0, (2, 2))
        t = np.empty((2, 2, 2))
        t[0] = half / half.sum(axis=1, keepdims=True)
        t[1] = t[0, ::-1, ::-1]
        tens = TransitionTensor(t)
        d, u = np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([[0.4, 0.6], [0.6, 0.4]])
        spec = HzmcSpec(d=d, u=u, rho0=np.full(2, 0.5))
        diff = np.abs(fs.push_forward_zigzag(tens, spec, 0) - fs.hzmc_cylinder_weights(spec, 0))
        hits = np.argwhere(diff == diff.max())
        assert len({tuple(h[:2]) for h in hits}) > 1          # the maximum in two blocks
        rep = fs.bruteforce_invariance(tens, spec, 0)
        assert not rep.passed
        assert rep.witnesses["argmax"] == (0,) + tuple(int(i) for i in hits[0])

    def test_tie_across_blocks_keeps_first(self):
        blocks = [np.zeros(3), np.array([0.0, 3.0, 0.0]), np.array([3.0, 0.0, 3.0])]
        resid, where = fs._sup_distance(zip((0, 3, 6), blocks), zip((0, 3, 6), [np.zeros(3)] * 3),
                                        (3, 3), EXACT_TOL)
        assert (resid, where) == (3.0, (1, 1))

    @pytest.mark.parametrize("nan_block", [0, 1])
    def test_nan_block_fails(self, nan_block):
        blocks = [np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.0, 7.0])]
        blocks[nan_block][1] = np.nan
        resid, where = fs._sup_distance(zip((0, 3), blocks), zip((0, 3), [np.zeros(3)] * 2),
                                        (2, 3), EXACT_TOL)
        assert resid == np.inf and where == (nan_block, 1)       # no later block overwrites it
        assert not CheckReport("push-forward-oracle", resid, EXACT_TOL).passed

    def test_largest_half_line_window_memory(self):
        # kappa^(2k+3) = 2^23 entries, the largest window SIZE_GUARD admits: a
        # whole window is 64 MiB, its tail 16 MiB; the oracle holds each law's
        # tail one link short, 4 MiB, and pieces, a peak of 9 MiB
        tens, _, _ = fs.make_factorized_tensor(2, 7)
        spec = fs.solve_invariant_hzmc(tens).spec
        tracemalloc.start()
        try:
            rep = fs.bruteforce_invariance(tens, spec, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and len(rep.witnesses["per_k"]) == 11
        assert peak < 16 * 2**20


class TestCorpusProperties:
    def test_uniqueness_across_starts(self):
        rng = np.random.default_rng(99)
        for kind, kappa, seed in corpus_seeds(8):
            tens = (fs.make_factorized_tensor(kappa, seed)[0] if kind == "factorized"
                    else fs.random_positive_tensor(kappa, seed))
            triple = fs.select_base_triple(tens)
            base_nu = fs.solve_nu(tens).vector
            base_eta = fs.solve_eta(tens, triple, base_nu).vector
            for _ in range(10):
                nu, eta = iterated_nu_eta(tens, triple, rng.uniform(0.1, 1.0, kappa))
                assert np.abs(nu - base_nu).max() < 1e-8
                assert np.abs(eta - base_eta).max() < 1e-8

    def test_oracle_agrees_with_conditions(self):
        for kind, kappa, seed in corpus_seeds(24):
            tens = (fs.make_factorized_tensor(kappa, seed)[0] if kind == "factorized"
                    else fs.random_positive_tensor(kappa, seed))
            res = fs.solve_invariant_hzmc(tens, tol=1e-8)
            toom = fs.check_toom_conditions(tens, res.spec, tol=1e-8)
            verdict_conditions = all(r.passed for r in toom)
            verdict_oracle = fs.bruteforce_invariance(tens, res.spec, 2, tol=1e-8).passed
            assert verdict_conditions == verdict_oracle == (kind == "factorized")

    def test_construction_soundness(self):
        for kind, kappa, seed in corpus_seeds(12):
            if kind != "factorized":
                continue
            tens, _, _ = fs.make_factorized_tensor(kappa, seed)
            res = fs.solve_invariant_hzmc(tens)
            assert res.ok
            rep = fs.bruteforce_invariance(tens, res.spec, 3)
            assert rep.residual < 1e-10


class TestNearlyReducible:
    """Factorizable kernels whose diagonal chain is nearly reducible."""

    @settings(max_examples=60, deadline=None)
    @given(kappa=hst.integers(2, 6), log_eps=hst.floats(-9.0, -1.0),
           seed=hst.integers(0, 2**16))
    def test_factorized_kernel_solves(self, kappa, log_eps, seed):
        tens, _ = near_identity_tensor(kappa, 10.0 ** log_eps, seed)
        res = fs.solve_invariant_hzmc(tens)
        cubic = res.reports[2]
        assert cubic.condition == "cubic-equation" and cubic.residual <= EXACT_TOL
        assert res.ok


def test_one_solve_leaves_positivity_cached():
    tens = fs.make_factorized_tensor(3, 1)[0]
    assert "mu_positive" not in vars(tens)
    fs.solve_invariant_hzmc(tens)
    assert vars(tens)["mu_positive"] is True


def test_one_solve_takes_one_log_pass(monkeypatch):
    # both quartic reports read the one cached interaction r of the tensor
    tens = fs.make_factorized_tensor(3, 1)[0]
    shapes, log = [], np.log
    monkeypatch.setattr(np, "log", lambda x, *args, **kw: shapes.append(np.shape(x))
                        or log(x, *args, **kw))
    res = fs.solve_invariant_hzmc(tens)
    monkeypatch.undo()
    assert shapes == [(3, 3, 3)]
    r, log_t_max = vars(tens)["interaction"]
    assert not r.flags.writeable
    fresh = TransitionTensor(tens.t.copy())
    for rep, check in zip(res.reports, (fs.check_belyaev, fs.check_belyaev_diag)):
        assert rep.to_dict() == check(fresh).to_dict()
    assert res.reports[0].witnesses["max_abs_log_t"] == log_t_max


class TestLargestAlphabet:
    """MAX_KAPPA = 64 holds: the decision path at kappa = 64 is O(kappa^3)."""

    def test_factorized_solve_within_budget(self):
        tens, _, _ = fs.make_factorized_tensor(fs.MAX_KAPPA, 5)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = fs.solve_invariant_hzmc(tens)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok and len(res.reports) == 6
        assert elapsed < 1.0
        assert peak < 64 * 2**20
        assert res.reports[0].residual < 1e-13        # the interaction's rounding floor

    def test_generic_kernel_fails_quartic(self):
        tens = fs.random_positive_tensor(fs.MAX_KAPPA, 5)
        assert not fs.check_belyaev(tens).passed

    def test_cyclic_solve_returns_spec(self):
        tens, _, _ = fs.make_factorized_tensor(fs.MAX_KAPPA, 6)
        res = lx.solve_chzmc(tens, 3)
        assert res.ok and res.spec is not None
