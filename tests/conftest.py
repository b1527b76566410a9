import os

import numpy as np
import pytest

from zigzag_pca.core_types import (DensityLaw, GridMeasure, HzmcSpec, KernelDensity, MarkovKernel,
                                   TransitionTensor, gauss_legendre_rule, normalize_rows)
from zigzag_pca.stats import KS_COEFF, MAX_LAG, DistanceResult


def three_letter_tensor() -> TransitionTensor:
    """Three-letter chain with an absorbing letter 0 and a positive block on
    {1, 2}; the standard worked example for the finite pipeline."""
    t = np.zeros((3, 3, 3))
    for i in range(3):
        t[0, i, i] = 1.0
        t[i, 0, i] = 1.0
    t[1, 1, 1] = t[1, 1, 2] = t[2, 2, 1] = t[2, 2, 2] = 0.5
    t[1, 2, 1] = t[2, 1, 2] = 0.8
    t[1, 2, 2] = t[2, 1, 1] = 0.2
    return TransitionTensor(t)


@pytest.fixture(scope="session")
def full_tensor():
    return three_letter_tensor()


@pytest.fixture(scope="session")
def two_letter(full_tensor):
    """The positive {1, 2} block, reindexed to {0, 1}."""
    return full_tensor.restrict([1, 2])


def corpus_seeds(total: int = 200):
    """(kind, kappa, seed) triples: half factorizable, half generic."""
    out = []
    for i in range(total // 2):
        out.append(("factorized", 2 + i % 2, 1000 + i))
    for i in range(total - total // 2):
        out.append(("random", 2 + i % 2, 2000 + i))
    return out


def _power_iterate(matrix, start, tol=1e-12, max_iter=100_000):
    """Plain power iteration v <- M v / sum(M v) from ``start``, to residual
    max |M v - lambda v| <= tol."""
    v = start / start.sum()
    for _ in range(max_iter):
        w = matrix @ v
        lam = w.sum()
        resid = np.abs(w - lam * v).max()
        v = w / lam
        if resid <= tol:
            return v
    raise AssertionError(f"power iteration did not converge (residual {resid:.3e})")


def iterated_nu_eta(tensor, triple, start):
    """nu and eta by power iteration from ``start``: the oracle for the
    direct solves in finite_solver.  M1[a, x] = t[x, x, a], then
    M2[a, x] = nu[a] t[a, a, c0] / t[a, x, c0] with the iterated nu."""
    k = tensor.size
    t, c0 = tensor.t, triple.c0
    nu = _power_iterate(t[np.arange(k), np.arange(k), :].T, start)
    m2 = (nu * t[np.arange(k), np.arange(k), c0])[:, None] / t[:, :, c0]
    return nu, _power_iterate(m2, start)


def pair_blocks(first, tail_of):
    """The chain walk w[p, m, b, c] = first[p, m, b] tail_of(p)[b, c] one
    leading pair (p, m) a block, first[p, m][:, None] * tail_of(p), in C
    order with each block's flat offset: the reference for the pieced walk of
    ``finite_solver._chain_blocks``, whose entries must equal these bit for
    bit."""
    for p in range(first.shape[0]):
        tail = tail_of(p)
        for m in range(first.shape[1]):
            yield (p * first.shape[1] + m) * tail.size, first[p, m][:, None] * tail


def fresh_philox_row_uniforms(seed, t, width):
    """The block of step t from a Philox built for it, keyed (seed << 64) + t:
    the reference for ``simulator.row_uniforms``, which re-keys one Philox a
    thread and must give these bits."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(t))).random(width)


def inverse_cdf_step_reference(line, model, t):
    """``simulator.step_pca`` on a TransitionTensor by the gather of each
    cell's whole cumulative row, whose entries below the cell's uniform it
    counts: the reference for the bisection of the tensor's search table,
    whose draws must equal these wherever a row's total is not below u."""
    line = np.asarray(line)
    a, b = (line, np.roll(line, -1)) if model.lattice == "cycle" else (line[:-1], line[1:])
    cumulative = np.cumsum(model.kernel.t, axis=2)
    u = fresh_philox_row_uniforms(model.seed, t, a.size)
    return (cumulative[a.astype(int), b.astype(int)] < u[:, None]).sum(axis=1)


def autocorr_reference(x):
    """The lag 1 .. MAX_LAG autocorrelations of ``x``, one ``np.dot`` a lag."""
    n = x.size
    centered = x - x.mean()
    c0 = float(np.dot(centered, centered)) / n
    out = np.empty(MAX_LAG)
    for k in range(1, MAX_LAG + 1):
        out[k - 1] = float(np.dot(centered[:-k], centered[k:])) / n / c0
    return out


def batch_autocorr_reference(batches):
    """The lag 1 .. MAX_LAG autocorrelations of each batch, one
    ``autocorr_reference`` call a row and NaN for a row of zero variance: the
    reference for ``stats._batch_autocorr``, whose entries must equal these
    bit for bit."""
    return np.array([autocorr_reference(row) if row.var() > 0 else np.full(MAX_LAG, np.nan)
                     for row in batches])


def factorization_gap(t, d, u, du):
    """|t(a,b;c) du(a;b) - d(a;c) u(c;b)| as [a, b, c], with du = d @ u: the
    one-line tensor formula, the reference for the blocked sweep
    ``finite_solver._factorization_sweep``, whose residual and argmax must
    equal those of this array bit for bit."""
    return np.abs(t * du[:, :, None] - d[:, None, :] * u.T[None, :, :])


def apply_law_reference(rho, kernel, grid):
    """The density of (rho kernel) at the grid points by its own two branches:
    64 Gauss-Legendre nodes on each point's interval when rho's lower end and
    the kernel's in-support bounds are finite, else the grid sum; the
    reference for ``continuous_kernels.apply_law``, the composition's one
    row, whose values must equal these bit for bit."""
    p = grid.points
    n = p.size
    if kernel.in_support is not None and np.isfinite(rho.support[0]):
        lo_k, hi_k = (np.broadcast_to(np.asarray(s, dtype=float), (n,))
                      for s in kernel.in_support(p))
        lo = np.maximum(np.full(n, rho.support[0]), lo_k)
        hi = np.minimum(np.full(n, rho.support[1]), hi_k)
        if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
            width = np.clip(hi - lo, 0.0, None)
            x, w = gauss_legendre_rule(64)
            unit_x, unit_w = 0.5 * (x + 1.0), 0.5 * w
            nodes = lo[:, None] + width[:, None] * unit_x[None, :]
            vals = rho.density(nodes) * kernel.density(nodes, p[:, None])
            return (vals * unit_w[None, :]).sum(axis=1) * width
    rvec = rho.density(p)
    kmat = kernel.density(p[:, None], p[None, :])
    return np.einsum("a,ab->b", rvec * grid.weights, kmat, optimize=False)


def near_identity_tensor(kappa, eps, seed=5):
    """Factorizable kernel of the chain d = u = (1 - eps) I + eps M, with M a
    random positive stochastic matrix from ``default_rng(seed)``: for small
    eps its diagonal chain t(x, x; .) is nearly reducible.  Returns (tensor, d)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.05, size=(kappa, kappa))
    m /= m.sum(axis=1, keepdims=True)
    d = (1 - eps) * np.eye(kappa) + eps * m
    t = d[:, None, :] * d.T[None, :, :] / (d @ d)[:, :, None]
    return TransitionTensor(normalize_rows(t)[0]), d


def trapezoid_grid(halfwidth: float, points: int) -> GridMeasure:
    """Uniform composite trapezoid rule on [-halfwidth, halfwidth]; second
    order, for refinement checks against the package's Gauss-Legendre grids."""
    x = np.linspace(-halfwidth, halfwidth, points)
    h = x[1] - x[0]
    w = np.full(points, h)
    w[0] = w[-1] = h / 2
    return GridMeasure(points=x, weights=w)


def two_sample_distance(sample_a, sample_b) -> DistanceResult:
    """Two-sample sup distance; threshold 1.63 sqrt((n1 + n2)/(n1 n2))."""
    a = np.sort(np.asarray(sample_a, dtype=float).ravel())
    b = np.sort(np.asarray(sample_b, dtype=float).ravel())
    if a.size < 1000 or b.size < 1000:
        raise ValueError("two-sample test needs at least 1000 points per sample")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    dist = float(np.abs(fa - fb).max())
    thr = KS_COEFF * np.sqrt((a.size + b.size) / (a.size * b.size))
    return DistanceResult(distance=dist, threshold=thr, n=min(a.size, b.size))


LEGENDRE_LAMBDA = (0.12, -0.05, 0.03)
LEGENDRE_MU = (0.10, 0.04, -0.02)


def legendre_markov(coef) -> MarkovKernel:
    """Markov density k(x, y) = (1 + sum_k coef_k (2k+1) P_k(x) P_k(y)) / 2 on
    [-1, 1], P_k the Legendre polynomials: the uniform law is stationary, and
    P_k is an eigenfunction of eigenvalue coef_k.  Positive while
    sum_k |coef_k| (2k+1) < 1.  Density only: it has no sampler, and no
    support bounds, so compositions run on the grid, exact on a
    Gauss-Legendre one."""
    legval, basis = np.polynomial.legendre.legval, np.eye(len(coef) + 1)[1:]

    def density(x, y):
        total = 1.0
        for k, (c, e_k) in enumerate(zip(coef, basis), start=1):
            total = total + c * (2 * k + 1) * legval(x, e_k) * legval(y, e_k)
        return 0.5 * total

    return MarkovKernel(density=density, noise=None, step=None)


def legendre_factorized(eps: float = 0.0):
    """The continuous twin of ``make_factorized_tensor``: d and u are
    ``legendre_markov`` of LEGENDRE_LAMBDA and LEGENDRE_MU, which commute,
    du is ``legendre_markov`` of their products, and
    t(a, b; c) = d(a, c) u(c, b) / du(a, b).  A Gauss-Legendre grid of more
    than three nodes integrates every product exactly, so the conditions
    hold to rounding.  ``eps`` tilts the kernel by (1 + eps c) where
    a b > 0.8, not renormalized.  Returns (kernel, chain), the chain's
    initial law uniform."""
    d, u = legendre_markov(LEGENDRE_LAMBDA), legendre_markov(LEGENDRE_MU)
    du = legendre_markov(np.multiply(LEGENDRE_LAMBDA, LEGENDRE_MU))

    def density(a, b, c):
        t = d.density(a, c) * u.density(c, b) / du.density(a, b)
        return t * np.where(a * b > 0.8, 1 + eps * c, 1.0)

    uniform = DensityLaw(density=lambda x: np.full(np.shape(x), 0.5), sampler=None)
    return KernelDensity(density=density, sampler=None), HzmcSpec(d=d, u=u, rho0=uniform)


def _cpus(monkeypatch, count):
    """Lets ``core_types.usable_cpus`` see ``count`` CPUs, so that the grid
    passes split into that many ranges and the CSV writer takes a worker
    from two on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
