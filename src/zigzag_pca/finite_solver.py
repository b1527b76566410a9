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

Everything is validated against a brute-force push-forward oracle that
evaluates the defining cylinder identity by exhaustive summation, with no
reference to the conditions above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_types import (EXACT_TOL, CheckReport, FiniteAlphabet, HzmcSpec,
                         TransitionTensor, normalize_rows)

MAX_KAPPA = 64
SIZE_GUARD = 10**7
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class SolverConvergenceError(RuntimeError):
    """Power iteration failed to reach tolerance; carries the last residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class BaseTriple:
    """Anchor (a0, b0, c0) for the quartic identity; row (a0, b0) must be
    strictly positive."""

    a0: int
    b0: int
    c0: int

    def as_tuple(self):
        return (self.a0, self.b0, self.c0)


@dataclass(frozen=True)
class EigenSolveResult:
    """Positive principal eigenvector, normalized to unit total mass."""

    vector: np.ndarray
    eigenvalue: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class StationaryResult:
    rho0: np.ndarray
    residual: float
    unique: bool
    iterations: int


def _guard_kappa(tensor: TransitionTensor):
    if tensor.size > MAX_KAPPA:
        raise ValueError(f"alphabet size {tensor.size} exceeds the supported bound {MAX_KAPPA}")


def _require_positive(tensor: TransitionTensor, op: str):
    if not tensor.mu_positive:
        raise ValueError(f"{op} requires an everywhere-positive kernel")


def power_iteration(matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000,
                    start: np.ndarray | None = None, mass=np.sum) -> EigenSolveResult:
    """Principal eigenvector of an entrywise-nonnegative matrix.

    Iterates v <- M v, renormalized to unit ``mass``: the plain sum on a
    finite alphabet, the quadrature integral on a grid.  For strictly
    positive M the convergence is geometric and the limit is the unique
    positive eigendirection.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    v = np.full(n, 1.0 / n) if start is None else np.asarray(start, dtype=float) / mass(start)
    resid = np.inf
    for it in range(1, max_iter + 1):
        w = m @ v
        lam = float(mass(w))
        if not np.isfinite(lam) or lam <= 0:
            raise SolverConvergenceError("iteration collapsed to the zero vector", np.inf)
        resid = float(np.abs(w - lam * v).max())
        v = w / lam
        if resid <= tol:
            return EigenSolveResult(vector=v, eigenvalue=lam, iterations=it, residual=resid)
    raise SolverConvergenceError("power iteration did not converge", resid)


def select_base_triple(tensor: TransitionTensor) -> BaseTriple:
    """Deterministic anchor choice: the lexicographically smallest triple
    whose row (a0, b0) maximizes min_c t[a0, b0, c].

    The anchor row must be strictly positive; if no row is, the kernel has
    no admissible base triple.
    """
    _guard_kappa(tensor)
    mins = tensor.t.min(axis=2)
    best = float(mins.max())
    if best <= 0:
        raise ValueError("no admissible base triple: every row has a zero entry")
    a0, b0 = np.argwhere(mins == best)[0]
    return BaseTriple(int(a0), int(b0), 0)


def check_belyaev(tensor: TransitionTensor, triple: BaseTriple,
                  tol: float = EXACT_TOL) -> CheckReport:
    """Quartic product identity anchored at the base triple, over all (a,b,c).

    Also evaluates the anchor-free six-variable form (all pairs of rows and
    columns); both residuals are reported, the anchored one decides.
    """
    t = tensor.t
    a0, b0, c0 = triple.as_tuple()
    lhs = t * t[a0, b0, :][None, None, :] * t[a0, :, c0][None, :, None] * t[:, b0, c0][:, None, None]
    rhs = t[a0, b0, c0] * t[:, :, c0][:, :, None] * t[:, b0, :][:, None, :] * t[a0, :, :][None, :, :]
    diff = np.abs(lhs - rhs)
    residual = float(diff.max())
    where = np.unravel_index(int(diff.argmax()), diff.shape)

    # six-variable form: t(a,b;c) t(a,b';c') t(a',b;c') t(a',b';c)
    #                  = t(a',b';c') t(a',b;c) t(a,b';c) t(a,b;c')
    g_lhs = np.einsum("abc,aqr,pbr,pqc->abcpqr", t, t, t, t, optimize=True)
    g_rhs = np.einsum("pqr,pbc,aqc,abr->abcpqr", t, t, t, t, optimize=True)
    residual_general = float(np.abs(g_lhs - g_rhs).max())

    return CheckReport(
        condition="quartic-identity",
        residual=residual,
        tolerance=tol,
        witnesses={"triple": triple.as_tuple(), "argmax": tuple(int(i) for i in where),
                   "residual_general": residual_general,
                   "lhs_at_argmax": float(lhs[where]), "rhs_at_argmax": float(rhs[where])},
    )


def check_belyaev_diag(tensor: TransitionTensor, triple: BaseTriple,
                       tol: float = EXACT_TOL) -> CheckReport:
    """Diagonal restriction of the quartic identity (b = a), over all (a, c)."""
    t = tensor.t
    a0, b0, c0 = triple.as_tuple()
    k = tensor.size
    diag = t[np.arange(k), np.arange(k), :]          # diag[a, c] = t(a,a;c)
    lhs = diag * t[a0, b0, :][None, :] * t[a0, :, c0][:, None] * t[:, b0, c0][:, None]
    rhs = t[a0, b0, c0] * diag[:, c0][:, None] * t[:, b0, :] * t[a0, :, :]
    diff = np.abs(lhs - rhs)
    residual = float(diff.max())
    where = np.unravel_index(int(diff.argmax()), diff.shape)
    return CheckReport(
        condition="quartic-identity-diag",
        residual=residual,
        tolerance=tol,
        witnesses={"triple": triple.as_tuple(), "argmax": tuple(int(i) for i in where)},
    )


def solve_nu(tensor: TransitionTensor, tol: float = 1e-12,
             start: np.ndarray | None = None) -> EigenSolveResult:
    """Principal eigenvector nu of the diagonal-in, all-out matrix
    M1[a, x] = t[x, x, a].

    No alphabet-size guard here: the eigenvector machinery is quadratic and
    also serves finely discretized kernels; the guard sits on the
    combinatorial decision path.
    """
    _require_positive(tensor, "solve_nu")
    k = tensor.size
    m1 = tensor.t[np.arange(k), np.arange(k), :].T    # M1[a, x] = t[x, x, a]
    return power_iteration(m1, tol=tol, start=start)


def solve_eta(tensor: TransitionTensor, triple: BaseTriple, nu: np.ndarray,
              tol: float = 1e-12, start: np.ndarray | None = None) -> EigenSolveResult:
    """Principal eigenvector eta of M2[a, x] = nu[a] t[a, a, c0] / t[a, x, c0].

    The output direction does not depend on the scaling of nu.
    """
    _require_positive(tensor, "solve_eta")
    a0, b0, c0 = triple.as_tuple()
    k = tensor.size
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0):
        raise ValueError("nu must be strictly positive")
    diag = tensor.t[np.arange(k), np.arange(k), c0]   # t(a,a;c0)
    m2 = (nu * diag)[:, None] / tensor.t[:, :, c0]
    return power_iteration(m2, tol=tol, start=start)


def check_eta_cubic(tensor: TransitionTensor, triple: BaseTriple, eta: np.ndarray,
                    tol: float = EXACT_TOL) -> CheckReport:
    """Residual of the cubic fixed-point equation for eta, over all (a, b).

    Both sides are evaluated as exact finite sums; the left side is the
    eta-form of du(a;b), the right side the eta-form of ud(a;b).
    """
    _require_positive(tensor, "check_eta_cubic")
    t = tensor.t
    a0, _, c0 = triple.as_tuple()
    eta = np.asarray(eta, dtype=float)
    w = eta[None, :] / t[:, :, c0]                    # w[a, x] = eta[x] / t[a,x,c0]
    s0 = w.sum(axis=1)                                # s0[a]
    lhs = w / s0[:, None]                             # lhs[a, b]

    big_b = np.einsum("cx,cxb->cb", w, t)             # B[c, b] = sum_x w[c,x] t[c,x,b]
    cvec = big_b[a0, :]                               # C[a]   = B[a0, a]
    fac1 = (w[a0, :][:, None] * t[a0, :, :]) / s0[:, None]   # fac1[c, a]
    rhs = (fac1.T @ big_b) / cvec[:, None]            # rhs[a, b]

    diff = np.abs(lhs - rhs)
    residual = float(diff.max())
    where = np.unravel_index(int(diff.argmax()), diff.shape)
    return CheckReport(
        condition="cubic-equation",
        residual=residual,
        tolerance=tol,
        witnesses={"triple": triple.as_tuple(), "eta": eta,
                   "argmax": tuple(int(i) for i in where)},
    )


def build_hzmc_kernels(tensor: TransitionTensor, triple: BaseTriple,
                       eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Down and up kernels generated by the weight vector eta.

    Rows come out stochastic by construction; a final renormalization
    removes float round-off.
    """
    _require_positive(tensor, "build_hzmc_kernels")
    t = tensor.t
    a0, _, c0 = triple.as_tuple()
    eta = np.asarray(eta, dtype=float)
    w = eta[None, :] / t[:, :, c0]                    # w[a, x]
    d = np.einsum("ax,axc->ac", w, t) / w.sum(axis=1)[:, None]
    num = (w[a0, :][:, None] * t[a0, :, :]).T         # num[c, b] = w[a0,b] t[a0,b,c]
    u = num / num.sum(axis=1)[:, None]
    d, _ = normalize_rows(d)
    u, _ = normalize_rows(u)
    return d, u


def _irreducible(pattern: np.ndarray) -> bool:
    """Reachability test on the positivity pattern of a square matrix."""
    n = pattern.shape[0]
    reach = (pattern > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def stationary_distribution(d: np.ndarray, tol: float = 1e-12,
                            max_iter: int = 100_000) -> StationaryResult:
    """Stationary probability vector of a row-stochastic matrix.

    Power iteration on the transpose from the uniform start.  The iteration
    runs on (d + I)/2, which has the same stationary vectors and converges
    for periodic chains too.  Non-irreducible inputs return the iteration
    limit flagged non-unique instead of failing.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    unique = _irreducible(d)
    half = 0.5 * (d + np.eye(n))
    rho = np.full(n, 1.0 / n)
    resid = np.inf
    for it in range(1, max_iter + 1):
        new = rho @ half
        new = new / new.sum()
        resid = float(np.abs(rho @ d - rho).max())
        if resid <= tol:
            return StationaryResult(rho0=rho, residual=resid, unique=unique, iterations=it)
        rho = new
    raise SolverConvergenceError("stationary iteration did not converge", resid)


def check_toom_conditions(tensor: TransitionTensor, hzmc: HzmcSpec,
                          tol: float = EXACT_TOL) -> tuple[CheckReport, CheckReport, CheckReport]:
    """Factorization, commutation and stationarity residuals for a candidate
    zigzag chain against the kernel."""
    t = tensor.t
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    du = d @ u
    ud = u @ d

    prod = t * du[:, :, None]
    direct = d[:, None, :] * u.T[None, :, :]          # d(a;c) u(c;b) as [a, b, c]
    diff1 = np.abs(prod - direct)
    r1 = float(diff1.max())
    w1 = np.unravel_index(int(diff1.argmax()), diff1.shape)

    diff2 = np.abs(du - ud)
    r2 = float(diff2.max())
    w2 = np.unravel_index(int(diff2.argmax()), diff2.shape)

    r3 = float(np.abs(rho0 @ d - rho0).max())

    return (
        CheckReport("factorization", r1, tol,
                    witnesses={"argmax": tuple(int(i) for i in w1)}),
        CheckReport("commutation", r2, tol,
                    witnesses={"argmax": tuple(int(i) for i in w2)}),
        CheckReport("stationarity", r3, tol, witnesses={"rho0": rho0}),
    )


def _push_forward_axes(k: int) -> list[int]:
    # zigzag order (b0, c0, b1, c1, ..., b_{k+1}) from (b..., c...) block order
    perm = []
    for i in range(k + 1):
        perm.extend([i, k + 2 + i])
    perm.append(k + 1)
    return perm


def _window_guard(kappa: int, k: int):
    if k < 0:
        raise ValueError(f"window k must be >= 0, got {k}")
    if kappa ** (2 * k + 3) > SIZE_GUARD:
        raise ValueError(f"joint law would need kappa^(2k+3) = {kappa ** (2 * k + 3)} "
                         f"entries, over the {SIZE_GUARD} guard")


def push_forward_zigzag(tensor: TransitionTensor, hzmc: HzmcSpec, k: int) -> np.ndarray:
    """One synchronous step applied to the candidate chain: exact joint law of
    the next zigzag window (2k+3 cells), by exhaustive summation.

    Axes follow the zigzag reading order: new first-line cell 0, new
    second-line cell 0, new first-line cell 1, ...  The result sums to 1.
    """
    _window_guard(tensor.size, k)
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    m0 = rho0 @ d
    ud = u @ d

    nb = k + 2
    b = _LETTERS[:nb]
    c = _LETTERS[nb:nb + k + 1]
    terms = [b[0]] + [b[i] + b[i + 1] for i in range(k + 1)]
    ops = [m0] + [ud] * (k + 1)
    for i in range(k + 1):
        terms.append(b[i] + b[i + 1] + c[i])
        ops.append(tensor.t)
    sub = ",".join(terms) + "->" + b + c
    joint = np.einsum(sub, *ops, optimize=True)
    return np.transpose(joint, axes=_push_forward_axes(k))


def hzmc_cylinder_weights(hzmc: HzmcSpec, k: int) -> np.ndarray:
    """Exact cylinder weights of the candidate chain on a 2k+3 cell zigzag
    window, in the same axis order as push_forward_zigzag."""
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    _window_guard(d.shape[0], k)
    nb = k + 2
    b = _LETTERS[:nb]
    c = _LETTERS[nb:nb + k + 1]
    terms = [b[0]]
    ops = [np.asarray(rho0, dtype=float)]
    out = []
    for i in range(k + 1):
        terms.append(b[i] + c[i])
        ops.append(d)
        terms.append(c[i] + b[i + 1])
        ops.append(u)
        out.append(b[i] + c[i])
    sub = ",".join(terms) + "->" + "".join(out) + b[k + 1]
    return np.einsum(sub, *ops, optimize=True)


def bruteforce_invariance(tensor: TransitionTensor, hzmc: HzmcSpec, k_max: int,
                          tol: float = EXACT_TOL) -> CheckReport:
    """Independent oracle: compares the pushed-forward law with the chain's
    own cylinder weights on every window size up to k_max."""
    _window_guard(tensor.size, k_max)    # refuse before any window is computed
    worst = 0.0
    per_k = []
    where = None
    for k in range(k_max + 1):
        pushed = push_forward_zigzag(tensor, hzmc, k)
        direct = hzmc_cylinder_weights(hzmc, k)
        diff = np.abs(pushed - direct)
        rk = float(diff.max())
        per_k.append(rk)
        if rk >= worst:
            worst = rk
            where = (k,) + tuple(int(i) for i in np.unravel_index(int(diff.argmax()), diff.shape))
    return CheckReport(
        condition="push-forward-oracle",
        residual=worst,
        tolerance=tol,
        witnesses={"per_k": per_k, "argmax": where, "k_max": k_max},
    )


@dataclass(frozen=True)
class InvariantSolve:
    """Full pipeline outcome for one finite kernel."""

    triple: BaseTriple
    nu: EigenSolveResult
    eta: EigenSolveResult
    spec: HzmcSpec
    reports: tuple[CheckReport, ...]
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.reports)


def solve_invariant_hzmc(tensor: TransitionTensor, lattice: str = "N",
                         tol: float = EXACT_TOL) -> InvariantSolve:
    """Run the whole decision pipeline on a positive kernel.

    Always assembles the candidate chain (the eigenvector machinery never
    fails on positive input); the reports say whether it is actually
    invariant.  Reports, in order: quartic identity, diagonal quartic,
    cubic equation, factorization, commutation, stationarity.
    """
    _guard_kappa(tensor)
    _require_positive(tensor, "solve_invariant_hzmc")
    triple = select_base_triple(tensor)
    rep_b = check_belyaev(tensor, triple, tol=tol)
    rep_bd = check_belyaev_diag(tensor, triple, tol=tol)
    nu = solve_nu(tensor)
    eta = solve_eta(tensor, triple, nu.vector)
    rep_cubic = check_eta_cubic(tensor, triple, eta.vector, tol=tol)
    d, u = build_hzmc_kernels(tensor, triple, eta.vector)
    stat = stationary_distribution(d)
    spec = HzmcSpec(d=d, u=u, rho0=stat.rho0, lattice=lattice)
    rep_t1, rep_t2, rep_t3 = check_toom_conditions(tensor, spec, tol=tol)
    return InvariantSolve(
        triple=triple,
        nu=nu,
        eta=eta,
        spec=spec,
        reports=(rep_b, rep_bd, rep_cubic, rep_t1, rep_t2, rep_t3),
        extras={"stationary_unique": stat.unique, "stationary_residual": stat.residual},
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
    return TransitionTensor(FiniteAlphabet(kappa), t), d, u


def random_positive_tensor(kappa: int, seed: int) -> TransitionTensor:
    """Generic strictly positive kernel; almost surely not factorizable."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 1.05, size=(kappa, kappa, kappa))
    t, _ = normalize_rows(t)
    return TransitionTensor(FiniteAlphabet(kappa), t)
