"""Exact decision and construction of invariant zigzag chains, finite alphabets.

A two-neighbor kernel t on a finite alphabet admits an invariant zigzag
Markov chain (d, u, rho0) exactly when

  (1) factorization:  t(a,b;c) * (du)(a;b) = d(a;c) * u(c;b)   for all a,b,c,
  (2) commutation:    du = ud                                   as matrices,
  (3) stationarity:   rho0 . d = rho0,

where (du)(a;b) = sum_c d(a;c) u(c;b).  For everywhere-positive kernels the
existence question reduces to a four-point product identity on t (the
quartic, or Belyaev, identity) anchored at a base triple (a0, b0, c0), plus
a cubic fixed-point equation whose solution eta is obtained here as the
principal eigenvector of two explicitly assembled positive matrices.  From
eta the chain kernels are

  d[a,c] = sum_x (eta[x]/t[a,x,c0]) t[a,x,c] / sum_x (eta[x]/t[a,x,c0]),
  u[c,b] = (eta[b]/t[a0,b,c0]) t[a0,b,c] / sum_x (eta[x]/t[a0,x,c0]) t[a0,x,c].

The nu/eta stages, solve_nu to build_hzmc_kernels, read t only as kernel[...]:
they run on a TransitionTensor and on a continuous_kernels.GridKernel alike.

Everything is validated against a brute-force push-forward oracle that
evaluates the defining cylinder identity by exhaustive summation, with no
reference to the conditions above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_types import (EXACT_TOL, CheckReport, ChzmcSpec, HzmcSpec, TransitionTensor,
                         _row_blocks, normalize_rows, sup_residual)

MAX_KAPPA = 64
SIZE_GUARD = 10**7
WITNESS_TUPLES = 4096     # six-tuples behind the quartic witness in check_belyaev


class BaseTriple(NamedTuple):
    """Anchor (a0, b0, c0) for the quartic identity; row (a0, b0) must be
    strictly positive."""

    a0: int
    b0: int
    c0: int


@dataclass(frozen=True)
class EigenSolveResult:
    """Positive principal eigenvector, normalized to unit total mass."""

    vector: np.ndarray
    eigenvalue: float
    iterations: int          # always 1: one direct solve
    residual: float


@dataclass(frozen=True)
class StationaryResult:
    rho0: np.ndarray
    residual: float
    unique: bool
    iterations: int          # always 1: one direct solve


def _require_positive(kernel, op: str):
    if not kernel.mu_positive:
        raise ValueError(f"{op} requires an everywhere-positive kernel")


def _perron(matrix: np.ndarray) -> EigenSolveResult:
    """Perron eigenvector of an entrywise-positive matrix, by one dense solve:
    |Re| of the eigenvector of the eigenvalue with the largest real part, then
    one product with the matrix (strictly positive entries) normalized to
    unit sum."""
    m = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eig(m)
    x = np.abs(vecs[:, np.argmax(vals.real)].real)
    mx = m @ x
    lam = float(np.sum(mx) / np.sum(x))
    v = mx / np.sum(mx)
    return EigenSolveResult(vector=v, eigenvalue=lam, iterations=1,
                            residual=float(np.abs(m @ v - lam * v).max()))


def select_base_triple(tensor: TransitionTensor) -> BaseTriple:
    """Deterministic anchor choice: the lexicographically smallest triple
    whose row (a0, b0) maximizes min_c t[a0, b0, c].

    The anchor row must be strictly positive; if no row is, the kernel has
    no admissible base triple.  An alphabet beyond MAX_KAPPA is refused here,
    where every finite solve starts.
    """
    if tensor.size > MAX_KAPPA:
        raise ValueError(f"alphabet size {tensor.size} exceeds the supported bound {MAX_KAPPA}")
    mins = tensor.t.min(axis=2)
    best = float(mins.max())
    if best <= 0:
        raise ValueError("no admissible base triple: every row has a zero entry")
    a0, b0 = np.argwhere(mins == best)[0]
    return BaseTriple(int(a0), int(b0), 0)


def _anchored_quartic(t: np.ndarray, triple: BaseTriple, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the quartic identity anchored at ``triple``,
    t(a,b;c) t(a0,b0;c) t(a0,b;c0) t(a,b0;c0) = t(a0,b0;c0) t(a,b;c0) t(a,b0;c) t(a0,b;c),
    at the neighbor pairs of the broadcasting index arrays (a, b), c last."""
    a0, b0, c0 = triple
    lhs = t[a, b] * t[a0, b0] * t[a0, b, c0][..., None] * t[a, b0, c0][..., None]
    rhs = t[a0, b0, c0] * t[a, b, c0][..., None] * t[a, b0] * t[a0, b]
    return lhs, rhs


def check_belyaev(tensor: TransitionTensor, triple: BaseTriple,
                  tol: float = EXACT_TOL) -> CheckReport:
    """Quartic product identity anchored at the base triple, over all (a,b,c).

    The anchored residual, O(kappa^3), alone decides.  The anchor-free form
    t(a,b;c) t(a,q;r) t(p,b;r) t(p,q;c) = t(p,q;r) t(p,b;c) t(a,q;c) t(a,b;r),
    implied by it for positive t, is reported as the witness
    ``residual_general``: over every six-tuple while kappa^6 <= WITNESS_TUPLES
    ("exhaustive"), else over WITNESS_TUPLES six-tuples drawn from
    ``default_rng(0)`` ("sampled"), so repeated calls agree bitwise.
    """
    t, k = tensor.t, tensor.size
    lhs, rhs = _anchored_quartic(t, triple, np.arange(k)[:, None], np.arange(k))
    residual, where = sup_residual([np.abs(lhs - rhs)], lhs.shape)

    if k ** 6 <= WITNESS_TUPLES:
        a, b, c, p, q, r = np.indices((k,) * 6).reshape(6, -1)
        witness = "exhaustive"
    else:
        a, b, c, p, q, r = np.random.default_rng(0).integers(0, k, size=(6, WITNESS_TUPLES))
        witness = "sampled"
    g_lhs = t[a, b, c] * t[a, q, r] * t[p, b, r] * t[p, q, c]
    g_rhs = t[p, q, r] * t[p, b, c] * t[a, q, c] * t[a, b, r]
    residual_general = float(np.abs(g_lhs - g_rhs).max())

    return CheckReport(
        condition="quartic-identity",
        residual=residual,
        tolerance=tol,
        witnesses={"triple": triple, "argmax": where,
                   "residual_general": residual_general, "witness": witness,
                   "witness_tuples": int(a.size),
                   "lhs_at_argmax": float(lhs[where]), "rhs_at_argmax": float(rhs[where])},
    )


def check_belyaev_diag(tensor: TransitionTensor, triple: BaseTriple,
                       tol: float = EXACT_TOL) -> CheckReport:
    """Diagonal restriction of the quartic identity (b = a), over all (a, c):
    the b = a entries of ``check_belyaev``'s anchored products."""
    diag = np.arange(tensor.size)
    lhs, rhs = _anchored_quartic(tensor.t, triple, diag, diag)
    residual, where = sup_residual([np.abs(lhs - rhs)], lhs.shape)
    return CheckReport(
        condition="quartic-identity-diag",
        residual=residual,
        tolerance=tol,
        witnesses={"triple": triple, "argmax": where},
    )


def solve_nu(kernel) -> EigenSolveResult:
    """Principal eigenvector nu of M1[a, x] = t[x, x, a], eigenvalue 1.

    The columns of M1 sum to one: nu is the stationary law of the diagonal
    chain x -> a (probability t(x, x; a)).  ``_stationary`` keeps it accurate
    when that chain is nearly reducible, where a dense eigensolve of M1 loses
    the small off-diagonal entries to the diagonal ones.
    """
    _require_positive(kernel, "solve_nu")
    k = kernel.size
    p1 = kernel[np.arange(k), np.arange(k), :]        # M1 = p1^T
    nu = _stationary(p1)
    lam = float(np.sum(nu @ p1))
    return EigenSolveResult(vector=nu, eigenvalue=lam, iterations=1,
                            residual=float(np.abs(nu @ p1 - lam * nu).max()))


def solve_eta(kernel, triple: BaseTriple, nu: np.ndarray) -> EigenSolveResult:
    """Principal eigenvector eta of M2[a, x] = nu[a] t[a, a, c0] / t[a, x, c0].

    The output direction does not depend on the scaling of nu.
    """
    _require_positive(kernel, "solve_eta")
    k, c0 = kernel.size, triple.c0
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0):
        raise ValueError("nu must be strictly positive")
    diag = kernel[np.arange(k), np.arange(k), c0]     # t(a,a;c0)
    return _perron((nu * diag)[:, None] / kernel[:, :, c0])


def _eta_weights(kernel, triple: BaseTriple, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w[a, x] = eta[x] / t[a, x, c0] and B[a, c] = sum_x w[a, x] t[a, x, c], the
    kappa^3 contraction of check_eta_cubic and build_hzmc_kernels, taken over
    row blocks of t (``_row_blocks``): a grid never holds n^3 values at once."""
    n = kernel.size
    w = np.asarray(eta, dtype=float)[None, :] / kernel[:, :, triple.c0]
    big_b = np.empty((n, n))
    for blk in _row_blocks(n, n * n):
        np.einsum("ax,axc->ac", w[blk], kernel[blk], out=big_b[blk])
    return w, big_b


def check_eta_cubic(kernel, triple: BaseTriple, eta: np.ndarray,
                    tol: float = EXACT_TOL) -> CheckReport:
    """Residual of the cubic fixed-point equation for eta, over all (a, b).

    Both sides are evaluated as exact finite sums; the left side is the
    eta-form of du(a;b), the right side the eta-form of ud(a;b).
    """
    _require_positive(kernel, "check_eta_cubic")
    eta = np.asarray(eta, dtype=float)
    w, big_b = _eta_weights(kernel, triple, eta)      # B[c, b] = sum_x w[c,x] t[c,x,b]
    s0 = w.sum(axis=1)                                # s0[a]
    lhs = w / s0[:, None]                             # lhs[a, b]

    cvec = big_b[triple.a0, :]                        # C[a]   = B[a0, a]
    fac1 = (w[triple.a0, :][:, None] * kernel[triple.a0]) / s0[:, None]   # fac1[c, a]
    rhs = (fac1.T @ big_b) / cvec[:, None]            # rhs[a, b]

    residual, where = sup_residual([np.abs(lhs - rhs)], lhs.shape)
    return CheckReport(
        condition="cubic-equation",
        residual=residual,
        tolerance=tol,
        witnesses={"triple": triple, "eta": eta,
                   "argmax": where if residual > tol else None},
    )


def build_hzmc_kernels(kernel, triple: BaseTriple,
                       eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Down and up kernels generated by the weight vector eta.

    Rows come out stochastic by construction (on a grid, up to quadrature);
    a final renormalization removes the remainder.
    """
    _require_positive(kernel, "build_hzmc_kernels")
    w, big_b = _eta_weights(kernel, triple, eta)
    d = big_b / w.sum(axis=1)[:, None]
    num = (w[triple.a0, :][:, None] * kernel[triple.a0]).T    # num[c, b] = w[a0,b] t[a0,b,c]
    u = num / num.sum(axis=1)[:, None]
    d, _ = normalize_rows(d)
    u, _ = normalize_rows(u)
    return d, u


def _irreducible(pattern: np.ndarray) -> bool:
    """Reachability test on the positivity pattern of a square matrix.

    Each squaring doubles the path length covered, so n.bit_length()
    squarings reach every path of length n - 1."""
    n = pattern.shape[0]
    reach = (pattern > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def _stationary(p: np.ndarray) -> np.ndarray:
    """Probability vector rho with rho p = rho, for a row-stochastic p.

    One least-squares solve of [Q^T; 1^T] rho = [0; 1].  The generator
    Q = p - I is built from the off-diagonal entries alone (no 1 - p[x, x]
    cancels on a nearly reducible chain) and scaled to unit largest entry.
    """
    n = p.shape[0]
    q = p - np.diag(np.diag(p))
    q -= np.diag(q.sum(axis=1))
    a = np.vstack([q.T / (np.abs(q).max() or 1.0), np.ones(n)])
    return np.linalg.lstsq(a, np.append(np.zeros(n), 1.0), rcond=None)[0]


def stationary_distribution(d: np.ndarray) -> StationaryResult:
    """Stationary law of a row-stochastic matrix, by ``_stationary``.  A
    reducible input has many; the minimum-norm one mixes the laws of the
    closed classes with positive weights (disjoint supports) and comes back
    flagged non-unique."""
    d = np.asarray(d, dtype=float)
    rho = _stationary(d)
    resid = float(np.abs(rho @ d - rho).max())
    return StationaryResult(rho0=rho, residual=resid, unique=_irreducible(d), iterations=1)


def _factorization_gap(t: np.ndarray, d: np.ndarray, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """|t(a,b;c) du(a;b) - d(a;c) u(c;b)| as [a, b, c], with du = d @ u."""
    return np.abs(t * du[:, :, None] - d[:, None, :] * u.T[None, :, :])


def check_toom_conditions(tensor: TransitionTensor, hzmc: HzmcSpec,
                          tol: float = EXACT_TOL) -> tuple[CheckReport, CheckReport, CheckReport]:
    """Factorization, commutation and stationarity residuals for a candidate
    zigzag chain against the kernel."""
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    du = d @ u
    r1, w1 = sup_residual([_factorization_gap(tensor.t, d, u, du)], tensor.t.shape)
    r2, w2 = sup_residual([np.abs(du - u @ d)], du.shape)
    r3, _ = sup_residual([np.abs(rho0 @ d - rho0)], rho0.shape)

    return (
        CheckReport("factorization", r1, tol, witnesses={"argmax": w1 if r1 > tol else None}),
        CheckReport("commutation", r2, tol, witnesses={"argmax": w2 if r2 > tol else None}),
        CheckReport("stationarity", r3, tol, witnesses={"rho0": rho0}),
    )


def _size_guard(kappa: int, cells: int, what: str):
    """The size rule of every exhaustive law and sweep: at most SIZE_GUARD
    entries, and at most 64 cells whatever kappa.  Past 64 cells two letters
    already exceed SIZE_GUARD, so the cap binds only kappa = 1 (one entry,
    but a loop per cell); and kappa^cells is taken only below it, so a huge
    window is refused at once, its size named without a huge integer."""
    if cells > 64:
        raise ValueError(f"{what} spans {cells} cells, over the 64-cell guard")
    if kappa ** cells > SIZE_GUARD:
        raise ValueError(f"{what} would need {kappa}^{cells} entries, "
                         f"over the {SIZE_GUARD} guard")


def _window_guard(kappa: int, k: int):
    if k < 0:
        raise ValueError(f"window k must be >= 0, got {k}")
    _size_guard(kappa, 2 * k + 3, f"the joint law of window k = {k}")


def _grow(w: np.ndarray, link: np.ndarray, links: int) -> np.ndarray:
    """Prepend ``links`` zigzag steps to the law ``w[p, b, rest]``, whose
    axis 1 is the current first cell b (axis 0 is a pinned cell, of length 1
    when there is none).  ``link[a, m, b]`` weighs the step from a new first
    cell a through the middle cell m to b.  One broadcast multiply a step,
    its inner loop running over the contiguous rest, so the work is about
    kappa^2/(kappa^2 - 1) passes over the final array."""
    p, kappa = w.shape[0], link.shape[0]
    for _ in range(links):
        w = (link[None, :, :, :, None] * w[:, None, None]).reshape(p, kappa, -1)
    return w


def _chain_blocks(first: np.ndarray, tail_of):
    """Walk the chain w[p, m, b, rest] = first[p, m, b] tail_of(p)[b, rest]
    one leading pair (p, m) at a time, in C order, so block i is the flat
    slice [i * size, (i + 1) * size) of the whole chain.  Every block is
    written into one buffer, valid until the next block; tail_of(p) is called
    after the previous leading cell's tail is dropped, so at most one tail is
    alive."""
    block = None
    for p in range(first.shape[0]):
        tail = tail_of(p)
        if block is None:
            block = np.empty(tail.shape)
        for m in range(first.shape[1]):
            yield np.multiply(first[p, m][:, None], tail, out=block)
        del tail


def _fill(blocks, shape: tuple) -> np.ndarray:
    """The whole chain of a block walk, as an array of ``shape``."""
    w = np.empty(shape)
    flat = w.reshape(-1)
    start = 0
    for blk in blocks:
        flat[start:start + blk.size] = blk.reshape(-1)
        start += blk.size
    return w


def _sup_distance(blocks, ref_blocks, shape: tuple, tol: float) -> tuple[float, tuple | None]:
    """``sup_residual`` of |a - b| between two block walks of the chain
    ``shape``, taken in lockstep (each block of ``blocks`` is overwritten);
    its index only when it exceeds ``tol``, else None, as it would only name
    rounding noise."""
    resid, where = sup_residual((np.abs(np.subtract(a, b, out=a), out=a)
                                 for a, b in zip(blocks, ref_blocks)), shape)
    return resid, where if resid > tol else None


def _push_link(t: np.ndarray, ud: np.ndarray) -> np.ndarray:
    """link[a, c, b] = ud(a; b) t(a, b; c): one step of the pushed-forward law.
    C-ordered, so that the chains built from it are too and reshape in place."""
    return np.ascontiguousarray(ud[:, None, :] * t.transpose(0, 2, 1))


def _zigzag_blocks(start: np.ndarray, link: np.ndarray, k: int):
    """Block walk of w(b0, c0, ..., b_{k+1}) = start(b0) prod_i link[b_i, c_i, b_{i+1}]:
    the step from b0 times the chain from b1, grown from ``link`` alone once
    (from a unit law, which leaves every entry's bits as they are)."""
    kappa = link.shape[0]
    first = np.asarray(start, dtype=float)[:, None, None] * link     # the step from b0
    tail = _grow(np.ones((1, kappa, 1)), link, k)[0]
    return _chain_blocks(first, lambda p: tail)


def _zigzag_chain(start: np.ndarray, link: np.ndarray, k: int) -> np.ndarray:
    """w(b0, c0, ..., b_{k+1}) = start(b0) prod_i link[b_i, c_i, b_{i+1}]."""
    _window_guard(link.shape[0], k)
    return _fill(_zigzag_blocks(start, link, k), (link.shape[0],) * (2 * k + 3))


def push_forward_zigzag(tensor: TransitionTensor, hzmc: HzmcSpec, k: int) -> np.ndarray:
    """One synchronous step applied to the candidate chain: exact joint law of
    the next zigzag window (2k+3 cells).

    Axes follow the zigzag reading order: new first-line cell 0, new
    second-line cell 0, new first-line cell 1, ...  The new first line is the
    old second line, whose law is rho0 d followed by ud steps; the cells
    between are drawn by t.  The result sums to 1.
    """
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    return _zigzag_chain(rho0 @ d, _push_link(tensor.t, u @ d), k)


def hzmc_cylinder_weights(hzmc: HzmcSpec, k: int) -> np.ndarray:
    """Exact cylinder weights of the candidate chain on a 2k+3 cell zigzag
    window, in the same axis order as push_forward_zigzag."""
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    return _zigzag_chain(rho0, d[:, :, None] * u[None], k)


def bruteforce_invariance(tensor: TransitionTensor, hzmc: HzmcSpec, k_max: int,
                          tol: float = EXACT_TOL) -> CheckReport:
    """Independent oracle: compares the pushed-forward law with the chain's
    own cylinder weights on every window size up to k_max.  The witness
    ``argmax`` (k, then the cells) is None on a pass: it would name noise.
    Each window is walked one leading pair (b0, c0) at a time, the two laws
    in lockstep, so about four blocks of kappa^(2k+1) entries are alive at
    once, never a whole window; every entry is the product
    ``push_forward_zigzag`` and ``hzmc_cylinder_weights`` compute.

    The witness ``complete`` says whether the windows checked settle every
    window.  In exact arithmetic window 0 alone does once rho0 > 0: its
    identity reads (rho0 d)(a) ud(a, b) t(a, b; c) = rho0(a) d(a, c) u(c, b);
    summing over b and c gives rho0 d = rho0, and dividing by rho0(a) then
    gives ud(a, b) t(a, b; c) = d(a, c) u(c, b) pointwise, which makes every
    longer window equal factor by factor.  ``complete`` is True exactly when
    min rho0 > 0.  Where rho0 has a zero it is False, which is conservative:
    larger windows may still settle the question.
    """
    kappa = tensor.size
    _window_guard(kappa, k_max)          # refuse before any window is computed
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    start, push = rho0 @ d, _push_link(tensor.t, u @ d)
    link = d[:, :, None] * u[None]
    worst = 0.0
    per_k = []
    where = None
    for k in range(k_max + 1):
        rk, cells = _sup_distance(_zigzag_blocks(start, push, k), _zigzag_blocks(rho0, link, k),
                                  (kappa,) * (2 * k + 3), tol)
        per_k.append(rk)
        if rk >= worst:
            worst = rk
            where = None if cells is None else (k,) + cells
    return CheckReport(
        condition="push-forward-oracle",
        residual=worst,
        tolerance=tol,
        witnesses={"per_k": per_k, "argmax": where, "k_max": k_max,
                   "complete": bool(np.min(hzmc.rho0) > 0)},
    )


@dataclass(frozen=True)
class InvariantSolve:
    """Pipeline outcome for one finite kernel, on the half line
    (``solve_invariant_hzmc``) or on a cycle (``lattice_ext.solve_chzmc``).
    A cycle solve that stops at a failed report leaves spec None, and nu and
    eta too when the failed report is the quartic identity."""

    triple: BaseTriple
    nu: EigenSolveResult | None
    eta: EigenSolveResult | None
    spec: HzmcSpec | ChzmcSpec | None
    reports: tuple[CheckReport, ...]

    @property
    def ok(self) -> bool:
        return self.spec is not None and all(r.passed for r in self.reports)


def _construct(tensor: TransitionTensor, triple: BaseTriple):
    """The construction every lattice shares: nu, then eta, then the chain
    kernels (d, u) that eta generates.  Returns (nu, eta, d, u)."""
    nu = solve_nu(tensor)
    eta = solve_eta(tensor, triple, nu.vector)
    d, u = build_hzmc_kernels(tensor, triple, eta.vector)
    return nu, eta, d, u


def solve_invariant_hzmc(tensor: TransitionTensor, tol: float = EXACT_TOL) -> InvariantSolve:
    """Run the whole decision pipeline on a positive kernel.

    Always assembles the candidate chain (the eigenvector machinery never
    fails on positive input); the reports say whether it is actually
    invariant.  Reports, in order: quartic identity, diagonal quartic,
    cubic equation, factorization, commutation, stationarity.
    """
    _require_positive(tensor, "solve_invariant_hzmc")
    triple = select_base_triple(tensor)
    rep_b = check_belyaev(tensor, triple, tol=tol)
    rep_bd = check_belyaev_diag(tensor, triple, tol=tol)
    nu, eta, d, u = _construct(tensor, triple)
    rep_cubic = check_eta_cubic(tensor, triple, eta.vector, tol=tol)
    spec = HzmcSpec(d=d, u=u, rho0=stationary_distribution(d).rho0)
    rep_t1, rep_t2, rep_t3 = check_toom_conditions(tensor, spec, tol=tol)
    return InvariantSolve(
        triple=triple,
        nu=nu,
        eta=eta,
        spec=spec,
        reports=(rep_b, rep_bd, rep_cubic, rep_t1, rep_t2, rep_t3),
    )


# ---------------------------------------------------------------------------
# Instance generators for corpora.  The positive generator builds commuting
# stochastic (d, u) as polynomials in one random positive stochastic matrix
# (hence a shared eigenbasis), then defines t through the factorization
# identity; it touches none of the solver code above.
# ---------------------------------------------------------------------------

def make_factorized_tensor(kappa: int, seed: int):
    """Kernel constructed to admit an invariant zigzag chain.

    Returns (tensor, d, u) with t[a,b,c] = d[a,c] u[c,b] / (du)[a,b].
    """
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.05, size=(kappa, kappa))
    m /= m.sum(axis=1, keepdims=True)
    alpha = rng.uniform(0.3, 0.9)
    beta = rng.uniform(0.3, 0.9)
    d = (1 - alpha) * np.eye(kappa) + alpha * m
    u = beta * m + (1 - beta) * (m @ m)
    du = d @ u
    t = d[:, None, :] * u.T[None, :, :] / du[:, :, None]
    t, _ = normalize_rows(t)
    return TransitionTensor(t), d, u


def random_positive_tensor(kappa: int, seed: int) -> TransitionTensor:
    """Generic strictly positive kernel; almost surely not factorizable."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 1.05, size=(kappa, kappa, kappa))
    t, _ = normalize_rows(t)
    return TransitionTensor(t)
