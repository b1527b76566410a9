"""Cyclic lattices: partition function, cyclic densities, conditions, oracles.

On the two-sided lattice the site marginals form a family (rho_i) tied by
rho_{i+1} = rho_i (du); for an invariant chain the family is constant, so a
single rho0 represents it and the half line's conditions and chain apply
unchanged.  On a cycle of 2n cells the chain becomes a
normalized product measure

  m(x0, y0, ..., x_{n-1}, y_{n-1})
      = u(y_{n-1}; x0) d(x0; y0) u(y0; x1) ... d(x_{n-1}; y_{n-1}) / Z(d, u)

with partition constant Z(d, u) = trace((DU)^n).  Invariance on the cycle is
equivalent to the factorization identity (with an escape clause on pairs the
(n-1)-step chain cannot connect) together with equality of the two cyclic
products of du and ud around the cycle.
"""

from __future__ import annotations

import numpy as np

from .core_types import (EXACT_TOL, CheckReport, ChzmcSpec, TransitionTensor,
                         check_chain_entries, sup_residual)
from .finite_solver import (InvariantSolve, _chain_blocks, _construct, _factorization_sweep, _fill,
                            _push_link, _require_positive, _size_guard, _sup_distance,
                            _tail_factors, check_belyaev, select_base_triple)

ZERO_SKIP = 1e-14


def _check_total(total: float):
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"cyclic joint law sums to {total!r}, not 1")


def partition_function(d: np.ndarray, u: np.ndarray, n: int) -> float:
    """Z(d, u) = trace((DU)^n); must come out finite and positive."""
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    d, u = np.asarray(d, dtype=float), np.asarray(u, dtype=float)
    check_chain_entries(d=d, u=u)
    with np.errstate(over="ignore", invalid="ignore"):     # an inf or NaN is refused below
        z = float(np.trace(np.linalg.matrix_power(d @ u, n)))
    if not np.isfinite(z) or z <= 0:
        raise ValueError(f"partition constant {z!r} is not finite positive; spec rejected")
    return z


def _cyclic_blocks(link: np.ndarray, n: int, scale: float = 1.0):
    """Pieced walk (``finite_solver._chain_blocks``) of
    w(x0, m0, x1, m1, ..., x_{n-1}, m_{n-1}) = scale prod_i link[x_i, m_i, x_{i+1 mod n}]:
    the link from (x0, m0) times ``scale``, times the tail for x0, the
    closing link link[x_{n-1}, m_{n-1}, x0] grown leftward to x1, held as
    the link from x1 times that grown to x2 (``finite_solver._tail_factors``,
    n - 3 links).  Below three cells no link is peeled: the tail is the
    closing link itself for n = 2, and the unit after the diagonal for n = 1."""
    kappa = link.shape[0]
    if n == 1:
        diag = link[np.arange(kappa), :, np.arange(kappa)] * scale
        unit = _tail_factors(np.ones((1, 1, 1)), link, 0)
        return _chain_blocks(diag[:, :, None], lambda x0: unit)
    closing = link.transpose(2, 0, 1)
    return _chain_blocks(link * scale, lambda x0: _tail_factors(
        closing[x0:x0 + 1].reshape(1, kappa, -1), link, n - 2))


def chzmc_density(spec: ChzmcSpec) -> np.ndarray:
    """Exact cyclic joint law of the chain, normalized by the partition
    constant stored on the spec: a (kappa,) * 2n array, axes in the
    interleaved reading order (x0, y0, x1, y1, ..., x_{n-1}, y_{n-1})."""
    d, u, n = spec.d, spec.u, spec.n
    kappa = d.shape[0]
    _size_guard(kappa, 2 * n, f"the cyclic joint law of the {n}-cycle")
    weights = _fill(_cyclic_blocks(d[:, :, None] * u[None], n, 1.0 / spec.z), (kappa,) * (2 * n))
    _check_total(float(weights.sum()))
    return weights


def check_cycle_commutation(d: np.ndarray, u: np.ndarray, n: int,
                            tol: float = EXACT_TOL) -> CheckReport:
    """Equality of the du and ud products around the n-cycle.

    Screened first by the stronger matrix identity du = ud (sufficient); the
    full n-tuple sweep runs only when screening fails.  It walks the two
    products prod_i du(x_i; x_{i+1 mod n}) and prod_i ud(x_i; x_{i+1 mod n})
    in lockstep pieces (``_cyclic_blocks``), holding each product's tail for
    one x0 one link short, kappa^(n-2) entries, and never a whole tail.
    The report notes which branch decided.  Beyond the size guard a failed
    screen leaves the question undecided: the report fails with residual inf.
    """
    du = d @ u
    ud = u @ d
    screen, _ = sup_residual([(0, np.abs(du - ud))], du.shape)
    if screen <= tol:
        return CheckReport("cycle-commutation", screen, tol,
                           notes="decided by matrix commutation")
    kappa = du.shape[0]
    try:
        _size_guard(kappa, n, f"the cycle sweep of the {n}-cycle")
    except ValueError:
        return CheckReport("cycle-commutation", float("inf"), tol,
                           witnesses={"matrix_commutation_residual": screen},
                           notes="undecided: the matrix screen failed and the full cycle "
                                 "sweep exceeds the size guard")
    resid, _ = _sup_distance(_cyclic_blocks(du[:, None, :], n), _cyclic_blocks(ud[:, None, :], n),
                             (kappa,) * n, tol)
    return CheckReport("cycle-commutation", resid, tol,
                       witnesses={"matrix_commutation_residual": screen},
                       notes="decided by full cycle sweep")


def check_chzmc_conditions(tensor: TransitionTensor, spec: ChzmcSpec,
                           tol: float = EXACT_TOL) -> tuple[CheckReport, CheckReport]:
    """Cyclic invariance conditions for (tensor, spec).

    Both conditions are homogeneous in d and in u, so d and u are first
    each divided by the power of two nearest its largest row sum: exact, the
    identity on stochastic kernels, and one verdict for a spec and its
    multiples.  Factorization is enforced only on pairs (a, b) whose return
    path has positive (n-1)-step weight (du)^(n-1)(b; a); pairs below the
    zero threshold are skipped, which for everywhere-positive kernels never
    triggers.
    """
    d, u = (np.ldexp(m, -int(np.rint(np.log2(m.sum(axis=1).max())))) for m in (spec.d, spec.u))
    n, du = spec.n, d @ u
    dead = ~(np.linalg.matrix_power(du, n - 1).T > ZERO_SKIP)     # (du)^(n-1)(b; a) at [a, b]
    r9, w9 = _factorization_sweep(tensor.__getitem__, du, d, u.T, skip=dead)
    rep9 = CheckReport("cycle-factorization", r9, tol,
                       witnesses={"argmax": w9 if r9 > tol else None,
                                  "skipped_pairs": int(dead.sum())})
    rep10 = check_cycle_commutation(d, u, n, tol=tol)
    return rep9, rep10


def solve_chzmc(tensor: TransitionTensor, n: int, tol: float = EXACT_TOL) -> InvariantSolve:
    """Construct the invariant cyclic chain for a positive kernel, verifying
    the quartic identity and the cyclic commutation of the built kernels.
    Reports, in order: quartic identity, then, once it passes, cycle
    commutation; the spec is built only when both pass."""
    _require_positive(tensor, "solve_chzmc")
    triple = select_base_triple(tensor)
    rep4 = check_belyaev(tensor, tol=tol)
    if not rep4.passed:
        return InvariantSolve(triple=triple, nu=None, eta=None, spec=None, reports=(rep4,))
    nu, eta, built = _construct(tensor, triple)
    d, u = built.d, built.u
    rep11 = check_cycle_commutation(d, u, n, tol=tol)
    spec = ChzmcSpec(d=d, u=u, n=n, z=partition_function(d, u, n)) if rep11.passed else None
    return InvariantSolve(triple=triple, nu=nu, eta=eta, spec=spec, reports=(rep4, rep11))


def bruteforce_cycle_invariance(tensor: TransitionTensor, spec: ChzmcSpec,
                                tol: float = EXACT_TOL) -> CheckReport:
    """Independent cyclic oracle: pushes the exact joint law through one
    synchronous step on the cycle and measures the sup distance to itself.
    The witness ``argmax`` is None on a pass, as in bruteforce_invariance.

    Summing the x cells out of the joint law one at a time leaves the
    second line's law in closed form, prod_i ud(y_i; y_{i+1}) / z, for any
    d and u (the walk ``_cyclic_blocks((u @ d)[:, None, :], n, 1 / z)``).
    The pushed law, on (y0, new cell 0, y1, ...), is that law times
    prod_i t(y_i, y_{i+1}; .): the cyclic chain of the half line's push
    link, over z.

    Both laws are walked in cache-sized pieces, in lockstep, the chain for
    one x0 alive at a time and held one link short, so two tails of
    kappa^(2n-4) entries, a tail piece and a piece each are held, never a
    whole tail or the whole law; every entry is the product
    ``chzmc_density`` computes.  The law's piece sums are added up and
    checked as ``chzmc_density`` checks its total."""
    d, u, n = spec.d, spec.u, spec.n
    kappa = d.shape[0]
    _size_guard(kappa, 2 * n, f"the cyclic joint law of the {n}-cycle")
    sums = []

    def law():
        for start, blk in _cyclic_blocks(d[:, :, None] * u[None], n, 1.0 / spec.z):
            sums.append(blk.sum())
            yield start, blk

    resid, where = _sup_distance(_cyclic_blocks(_push_link(tensor.t, u @ d), n, 1.0 / spec.z),
                                 law(), (kappa,) * (2 * n), tol)
    _check_total(float(sum(sums)))
    return CheckReport("cycle-push-forward-oracle", resid, tol,
                       witnesses={"argmax": where, "n": n})
