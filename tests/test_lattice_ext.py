import itertools
import tracemalloc

import numpy as np
import pytest

from zigzag_pca import finite_solver as fs
from zigzag_pca import lattice_ext as lx
from zigzag_pca.core_types import (ChzmcSpec, HzmcSpec, TransitionTensor, load_model,
                                   normalize_rows, save_model)


@pytest.fixture(scope="module")
def solved(two_letter):
    return fs.solve_invariant_hzmc(two_letter)


def uniform_pair(kappa=2):
    m = np.full((kappa, kappa), 1.0 / kappa)
    return m, m.copy()


def noncommuting_pair(seed=5, kappa=2):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 1.0, (kappa, kappa))
    d /= d.sum(axis=1, keepdims=True)
    u = rng.uniform(0.1, 1.0, (kappa, kappa))
    u /= u.sum(axis=1, keepdims=True)
    assert np.abs(d @ u - u @ d).max() > 1e-3
    return d, u


def first_line_marginal(law):
    """Marginal of (x0, ..., x_{n-1}) of a cyclic joint law: sum out the odd axes."""
    return law.sum(axis=tuple(range(1, law.ndim, 2)))


def second_line_marginal(law):
    """Marginal of (y0, ..., y_{n-1}): sum out the even axes."""
    return law.sum(axis=tuple(range(0, law.ndim, 2)))


def lifted_to_z(tensor, tmp_path):
    """The tensor as a model document marked lattice "Z", read back."""
    path = tmp_path / "z.json"
    save_model(path, tensor, "Z")
    model = load_model(path)
    assert model["lattice"] == "Z"
    np.testing.assert_array_equal(model["tensor"].t, tensor.t)
    return model["tensor"]


class TestHzmcZ:
    """The two-sided lattice's conditions are the half line's, on a model
    marked lattice "Z"."""

    def test_two_letter_lifted(self, two_letter, solved, tmp_path):
        reports = fs.check_toom_conditions(lifted_to_z(two_letter, tmp_path), solved.spec)
        assert all(r.passed for r in reports)

    def test_uniform_spec(self, tmp_path):
        tens = lifted_to_z(TransitionTensor(np.full((2, 2, 2), 0.5)), tmp_path)
        d, u = uniform_pair()
        reports = fs.check_toom_conditions(tens, HzmcSpec(d=d, u=u, rho0=np.full(2, 0.5)))
        assert all(r.passed for r in reports)


class TestPartitionFunction:
    def test_uniform_single_cell(self):
        d, u = uniform_pair()
        assert lx.partition_function(d, u, 1) == pytest.approx(1.0, abs=1e-15)

    def test_matches_exhaustive_cycle_sum(self, solved):
        d, u = solved.spec.d, solved.spec.u
        n = 3
        z = lx.partition_function(d, u, n)
        total = 0.0
        for cfg in itertools.product(range(2), repeat=2 * n):
            x, y = cfg[0::2], cfg[1::2]
            w = u[y[n - 1], x[0]]
            for i in range(n):
                w *= d[x[i], y[i]]
            for i in range(n - 1):
                w *= u[y[i], x[i + 1]]
            total += w
        assert z == pytest.approx(total, abs=1e-14)

    def test_bounded_by_alphabet_size(self):
        for seed in range(6):
            d, u = noncommuting_pair(seed, kappa=3)
            for n in (1, 2, 5):
                assert lx.partition_function(d, u, n) <= 3.0 + 1e-12

    def test_trace_cyclicity(self):
        d, u = noncommuting_pair(7, kappa=3)
        for n in (1, 2, 4):
            assert lx.partition_function(d, u, n) == pytest.approx(
                lx.partition_function(u, d, n), abs=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            lx.partition_function(np.zeros((2, 2)), np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            lx.partition_function(*uniform_pair(), 0)


class TestChzmcDensity:
    def test_uniform_joint_law(self):
        d, u = uniform_pair()
        spec = ChzmcSpec(d=d, u=u, n=2, z=lx.partition_function(d, u, 2))
        law = lx.chzmc_density(spec)
        assert np.abs(law - 1 / 16).max() < 1e-14

    def test_single_cell_weights(self, solved):
        d, u = solved.spec.d, solved.spec.u
        z = lx.partition_function(d, u, 1)
        law = lx.chzmc_density(ChzmcSpec(d=d, u=u, n=1, z=z))
        for x, y in itertools.product(range(2), repeat=2):
            assert law[x, y] == pytest.approx(u[y, x] * d[x, y] / z, abs=1e-14)

    def test_first_line_marginal_formula(self, solved):
        d, u = solved.spec.d, solved.spec.u
        n = 3
        z = lx.partition_function(d, u, n)
        law = lx.chzmc_density(ChzmcSpec(d=d, u=u, n=n, z=z))
        du = d @ u
        oracle = np.einsum("ab,bc,ca->abc", du, du, du) / z
        assert np.abs(first_line_marginal(law) - oracle).max() < 1e-14

    def test_line_marginals_agree_under_commutation(self, solved):
        d, u = solved.spec.d, solved.spec.u
        z = lx.partition_function(d, u, 2)
        law = lx.chzmc_density(ChzmcSpec(d=d, u=u, n=2, z=z))
        assert np.abs(first_line_marginal(law) - second_line_marginal(law)).max() < 1e-13

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_literal_product(self, kappa, n):
        d, u = noncommuting_pair(n, kappa=kappa)
        z = lx.partition_function(d, u, n)
        law = lx.chzmc_density(ChzmcSpec(d=d, u=u, n=n, z=z))
        oracle = np.zeros((kappa,) * (2 * n))
        for cfg in itertools.product(range(kappa), repeat=2 * n):
            x, y = cfg[0::2], cfg[1::2]
            w = 1.0 / z
            for i in range(n):
                w *= d[x[i], y[i]] * u[y[i], x[(i + 1) % n]]
            oracle[cfg] = w
        np.testing.assert_allclose(law, oracle, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_second_line_marginal(self, kappa, n):
        # summing out each x_i joins u(y_{i-1}; x_i) d(x_i; y_i) into ud(y_{i-1}; y_i),
        # for d and u that do not commute
        d, u = noncommuting_pair(n + 10, kappa=kappa)
        z = lx.partition_function(d, u, n)
        law = lx.chzmc_density(ChzmcSpec(d=d, u=u, n=n, z=z))
        ud = u @ d
        closed = np.zeros((kappa,) * n)
        for y in itertools.product(range(kappa), repeat=n):
            w = 1.0
            for i in range(n):
                w *= ud[y[i], y[(i + 1) % n]]
            closed[y] = w / z
        np.testing.assert_allclose(closed, second_line_marginal(law), rtol=1e-14, atol=0)

    def test_size_guard(self):
        d, u = uniform_pair(10)
        with pytest.raises(ValueError, match="guard"):
            lx.chzmc_density(ChzmcSpec(d=d, u=u, n=4, z=1.0))

    def test_misnormalized_law_refused(self, solved):
        d, u = solved.spec.d, solved.spec.u
        with pytest.raises(ValueError, match="sums to"):
            lx.chzmc_density(ChzmcSpec(d=d, u=u, n=2, z=1.5 * lx.partition_function(d, u, 2)))


class TestChzmcConditions:
    def test_uniform_passes_every_cycle(self, two_letter):
        tens = TransitionTensor(np.full((2, 2, 2), 0.5))
        d, u = uniform_pair()
        for n in (1, 2, 3):
            spec = ChzmcSpec(d=d, u=u, n=n, z=lx.partition_function(d, u, n))
            r9, r10 = lx.check_chzmc_conditions(tens, spec)
            assert r9.passed and r10.passed

    def test_two_letter_cycle_passes_by_commutation(self, two_letter, solved):
        d, u = solved.spec.d, solved.spec.u
        spec = ChzmcSpec(d=d, u=u, n=3, z=lx.partition_function(d, u, 3))
        r9, r10 = lx.check_chzmc_conditions(two_letter, spec)
        assert r9.passed and r10.passed
        assert r9.witnesses["skipped_pairs"] == 0
        assert "matrix commutation" in r10.notes

    def test_noncommuting_pair_fails_cycle_product(self):
        d, u = noncommuting_pair(5)
        du = d @ u
        t = d[:, None, :] * u.T[None, :, :] / du[:, :, None]
        t, _ = normalize_rows(t)
        tens = TransitionTensor(t)
        spec = ChzmcSpec(d=d, u=u, n=2, z=lx.partition_function(d, u, 2))
        r9, r10 = lx.check_chzmc_conditions(tens, spec)
        assert r9.passed            # factorization holds by construction
        assert r9.witnesses["argmax"] is None
        assert not r10.passed
        assert "cycle sweep" in r10.notes


    def test_broken_factorization_names_its_witness(self):
        d, u = noncommuting_pair(5)
        t = d[:, None, :] * u.T[None, :, :] / (d @ u)[:, :, None]
        t, _ = normalize_rows(t)
        tens = TransitionTensor(t)
        u_bad = u[::-1].copy()
        spec = ChzmcSpec(d=d, u=u_bad, n=2, z=lx.partition_function(d, u_bad, 2))
        r9, _ = lx.check_chzmc_conditions(tens, spec)
        assert not r9.passed
        a, b, c = r9.witnesses["argmax"]
        assert abs(t[a, b, c] * (d @ u_bad)[a, b] - d[a, c] * u_bad[c, b]) == r9.residual

    @pytest.mark.parametrize("rows, residual, argmax", [
        ({}, 0.0, None),
        ({(0, 1): [0.25, 0.75]}, 0.0, None),
        ({(0, 0): [0.75, 0.25]}, 0.125, (0, 0, 0)),
        ({(0, 1): [0.25, 0.75], (0, 0): [0.75, 0.25]}, 0.125, (0, 0, 0))],
        ids=["untouched", "dead", "live", "both"])
    def test_gap_on_a_dead_pair_is_skipped(self, rows, residual, argmax):
        # d = I and an upper triangular u: on the 2-cycle the pair (a, b) =
        # (0, 1) has no return path, (du)(1; 0) = 0, so its row of t is free;
        # a gap of 0.375 there is skipped, the live pair's 0.125 (a tie over
        # c, the first c named) fails, and the oracle agrees on each
        d, u = np.eye(2), np.array([[0.5, 0.5], [0.0, 1.0]])
        t = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]])
        for pair, row in rows.items():
            t[pair] = row
        tens = TransitionTensor(t)
        spec = ChzmcSpec(d=d, u=u, n=2, z=lx.partition_function(d, u, 2))
        r9, r10 = lx.check_chzmc_conditions(tens, spec)
        assert r9.witnesses == {"argmax": argmax, "skipped_pairs": 1}
        assert r9.residual == residual and r10.passed
        assert lx.bruteforce_cycle_invariance(tens, spec).passed == (residual == 0.0)

    @pytest.mark.parametrize("n, kappa", [(n, kappa) for kappa in (2, 3) for n in (1, 2, 3, 4)],
                             ids=[f"{n}" for n in (1, 2, 3, 4)] + [f"{n}-k3" for n in (1, 2, 3, 4)])
    def test_full_sweep_matches_literal_max(self, n, kappa):
        d, u = noncommuting_pair(5, kappa=kappa)
        du, ud = d @ u, u @ d
        rep = lx.check_cycle_commutation(d, u, n)
        assert rep.notes == "decided by full cycle sweep"
        literal = 0.0
        for x in itertools.product(range(kappa), repeat=n):
            p_du = p_ud = 1.0
            for i in range(n):
                p_du *= du[x[i], x[(i + 1) % n]]
                p_ud *= ud[x[i], x[(i + 1) % n]]
            literal = max(literal, abs(p_du - p_ud))
        assert literal > 1e-3
        assert rep.residual == pytest.approx(literal, abs=1e-15)

    def test_full_sweep_memory(self):
        # kappa^n = 10^7 products, the largest sweep the size guard admits:
        # each whole product is 76 MiB, its tail for one x0 8 MiB; the sweep
        # holds each product's tail one link short, 0.8 MiB, and pieces, a
        # peak of 2.3 MiB
        d, u = noncommuting_pair(5, kappa=10)
        tracemalloc.start()
        try:
            rep = lx.check_cycle_commutation(d, u, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.notes == "decided by full cycle sweep" and not rep.passed
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("seed", [12, 13])
    def test_screen_miss_beyond_the_guard_is_undecided(self, seed):
        # the built d and u commute only to rounding, so a 1e-16 screen
        # misses; 2^20 products are swept, 2^30 would exceed the size guard
        spec = fs.solve_invariant_hzmc(fs.make_factorized_tensor(2, seed)[0]).spec
        inside = lx.check_cycle_commutation(spec.d, spec.u, 20, tol=1e-16)
        assert inside.notes == "decided by full cycle sweep" and inside.passed
        beyond = lx.check_cycle_commutation(spec.d, spec.u, 30, tol=1e-16)
        assert beyond.residual == np.inf and not beyond.passed
        assert beyond.notes.startswith("undecided: the matrix screen failed")
        assert beyond.witnesses == inside.witnesses
        assert beyond.witnesses["matrix_commutation_residual"] > 1e-16


class TestSolveChzmc:
    def test_two_letter_cycle(self, two_letter):
        res = lx.solve_chzmc(two_letter, 3)
        assert res.ok
        rep = lx.bruteforce_cycle_invariance(two_letter, res.spec)
        assert rep.passed

    def test_constant_tensor_uniform_chain(self):
        tens = TransitionTensor(np.full((2, 2, 2), 0.5))
        res = lx.solve_chzmc(tens, 2)
        assert res.ok
        law = lx.chzmc_density(res.spec)
        assert np.abs(law - 1 / 16).max() < 1e-12

    def test_random_tensor_fails_at_quartic(self):
        tens = fs.random_positive_tensor(2, 17)
        res = lx.solve_chzmc(tens, 2)
        assert not res.ok
        assert isinstance(res, fs.InvariantSolve)
        assert res.nu is None and res.eta is None and res.spec is None
        assert res.reports[0].condition == "quartic-identity"
        assert not res.reports[0].passed


class TestCycleOracle:
    def test_two_letter_within_tolerance(self, two_letter):
        res = lx.solve_chzmc(two_letter, 3)
        rep = lx.bruteforce_cycle_invariance(two_letter, res.spec)
        assert rep.residual < 1e-10

    def test_uniform_exact(self):
        tens = TransitionTensor(np.full((2, 2, 2), 0.5))
        d, u = uniform_pair()
        spec = ChzmcSpec(d=d, u=u, n=2, z=lx.partition_function(d, u, 2))
        rep = lx.bruteforce_cycle_invariance(tens, spec)
        assert rep.residual < 1e-15

    def test_residual_matches_literal_push(self, two_letter):
        d, u = noncommuting_pair(5)
        t = two_letter.t
        z = lx.partition_function(d, u, 2)
        spec = ChzmcSpec(d=d, u=u, n=2, z=z)
        # cyclic law m(x0, y0, x1, y1), then one step of the second line
        m = np.zeros((2,) * 4)
        for x0, y0, x1, y1 in itertools.product(range(2), repeat=4):
            m[x0, y0, x1, y1] = d[x0, y0] * u[y0, x1] * d[x1, y1] * u[y1, x0] / z
        pushed = np.zeros((2,) * 4)
        for y0, z0, y1, z1 in itertools.product(range(2), repeat=4):
            my = sum(m[x0, y0, x1, y1] for x0 in range(2) for x1 in range(2))
            pushed[y0, z0, y1, z1] = my * t[y0, y1, z0] * t[y1, y0, z1]
        literal = float(np.abs(pushed - m).max())
        rep = lx.bruteforce_cycle_invariance(two_letter, spec)
        assert literal > 1e-3
        assert rep.residual == pytest.approx(literal, abs=1e-15)

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_push_matches_literal_step(self, kappa, n):
        # push the exhaustive second-line marginal through t cell by cell
        d, u = noncommuting_pair(n + 20, kappa=kappa)
        tens = fs.random_positive_tensor(kappa, n)
        t = tens.t
        spec = ChzmcSpec(d=d, u=u, n=n, z=lx.partition_function(d, u, n))
        law = lx.chzmc_density(spec)
        my = second_line_marginal(law)
        pushed = np.zeros((kappa,) * (2 * n))
        for cfg in itertools.product(range(kappa), repeat=2 * n):
            y, z = cfg[0::2], cfg[1::2]
            w = my[y]
            for i in range(n):
                w *= t[y[i], y[(i + 1) % n], z[i]]
            pushed[cfg] = w
        diff = np.abs(pushed - law)
        rep = lx.bruteforce_cycle_invariance(tens, spec)
        assert not rep.passed
        assert rep.residual == pytest.approx(float(diff.max()), abs=1e-15)
        assert diff[rep.witnesses["argmax"]] == pytest.approx(rep.residual, abs=1e-15)

    @pytest.mark.parametrize("kappa, n", [(2, 11), (3, 7)])
    def test_tamper_seen_at_largest_benchmark_cycle(self, kappa, n):
        # the largest cycles the size guard admits; a 1e-4 tamper of d must
        # show above the tolerance there
        tens, _, _ = fs.make_factorized_tensor(kappa, 7)
        spec = lx.solve_chzmc(tens, n).spec
        assert lx.bruteforce_cycle_invariance(tens, spec).passed
        d = np.array(spec.d)
        d[0, 0] += 1e-4
        d /= d.sum(axis=1, keepdims=True)
        bad = ChzmcSpec(d=d, u=spec.u, n=n, z=lx.partition_function(d, spec.u, n))
        rep = lx.bruteforce_cycle_invariance(tens, bad)
        assert not rep.passed and rep.witnesses["argmax"] is not None

    def test_misnormalized_law_refused(self, two_letter):
        res = lx.solve_chzmc(two_letter, 3)
        d, u = res.spec.d, res.spec.u
        spec = ChzmcSpec(d=d, u=u, n=3, z=1.5 * lx.partition_function(d, u, 3))
        with pytest.raises(ValueError, match="sums to"):
            lx.bruteforce_cycle_invariance(two_letter, spec)

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["factorized", "generic", "tampered"])
    def test_matches_whole_law(self, kappa, n, kind):
        # the block walk reports the maximum and first argmax of the whole
        # pushed law against chzmc_density, bit for bit; the push is taken
        # entry by entry, its factors associated as the chain builder does
        if kind == "generic":
            tens = fs.random_positive_tensor(kappa, n)
            d, u = noncommuting_pair(n + 30, kappa=kappa)
        else:
            tens = fs.make_factorized_tensor(kappa, n)[0]
            spec = lx.solve_chzmc(tens, n).spec
            d, u = np.array(spec.d), spec.u
            if kind == "tampered":
                d[0, 0] += 1e-6
                d /= d.sum(axis=1, keepdims=True)
        z = lx.partition_function(d, u, n)
        spec = ChzmcSpec(d=d, u=u, n=n, z=z)
        link = (u @ d)[:, None, :] * tens.t.transpose(0, 2, 1)     # ud(a; b) t(a, b; c)
        pushed = np.zeros((kappa,) * (2 * n))
        for cfg in itertools.product(range(kappa), repeat=2 * n):
            y, c = cfg[0::2], cfg[1::2]
            w = link[y[-1], c[-1], y[0]]
            for i in range(n - 2, 0, -1):
                w = link[y[i], c[i], y[i + 1]] * w
            pushed[cfg] = w * (1.0 / z) if n == 1 else link[y[0], c[0], y[1]] * (1.0 / z) * w
        diff = np.abs(pushed - lx.chzmc_density(spec))
        rep = lx.bruteforce_cycle_invariance(tens, spec)
        assert rep.residual == float(diff.max())
        where = np.unravel_index(diff.argmax(), diff.shape) if not rep.passed else None
        assert rep.witnesses["argmax"] == (None if where is None else tuple(int(i) for i in where))
        assert rep.passed == (kind == "factorized")

    @pytest.mark.parametrize("kappa, n, budget_mib", [(2, 11, 12), (3, 7, 4)])
    def test_largest_cycle_memory(self, kappa, n, budget_mib):
        # the largest cycles SIZE_GUARD admits: the whole law is 32 MiB at
        # (2, 11) and 37 MiB at (3, 7), the tail for one x0 8 and 4 MiB; the
        # oracle holds each law's tail one link short, 2 and 0.5 MiB, and
        # pieces, a peak of 5.1 and 1.6 MiB
        tens, _, _ = fs.make_factorized_tensor(kappa, 7)
        spec = lx.solve_chzmc(tens, n).spec
        tracemalloc.start()
        try:
            rep = lx.bruteforce_cycle_invariance(tens, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < budget_mib * 2**20

    def test_perturbed_up_kernel_fails(self, two_letter):
        res = lx.solve_chzmc(two_letter, 3)
        u_bad = res.spec.u[::-1].copy()
        spec = ChzmcSpec(d=res.spec.d, u=u_bad, n=3,
                         z=lx.partition_function(res.spec.d, u_bad, 3))
        rep = lx.bruteforce_cycle_invariance(two_letter, spec)
        assert not rep.passed
