"""Kernels on the real line: the Gaussian family (closed-form invariant
chain, AR(1) link), the Beta family (candidate kernels with a drift
obstruction), quadrature residuals for the invariance conditions, and
``GridKernel``, a kernel read on a quadrature grid as a finite one, which
the finite solver's nu/eta stages take as they take a tensor.

The Gaussian kernel draws the child cell from N((a+b)/m, sigma^2).  For
|m| > 2 it has the closed-form invariant zigzag chain

    d(a; c) = u(a; c) = normal density with mean phi*a, std sigma',
    r0      = centered normal with variance sigma^2 / sqrt(1 - 4/m^2),

where l = 1 + sqrt(1 - 4/m^2), phi = 2/(m l) and sigma'^2 = 2 sigma^2 / l.
Read along the zigzag, the chain is an AR(1) process with coefficient phi
and innovation variance sigma'^2.

The Beta kernel draws uniformly-in-shape Beta(alpha, beta) between the two
neighbor values and shifts left by m.  The shifted-Gamma candidates (d1, u1)
satisfy the factorization and commutation identities exactly, but no initial
probability density is stationary: each down-up step drifts by
(alpha + beta)/theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core_types import (_BLOCK, DEFAULT_GRID_POINTS, QUAD_TOL, CheckReport, DensityLaw,
                         GridMeasure, HzmcSpec, KernelDensity, MarkovKernel, _extent, _row_blocks,
                         _special, gauss_legendre_grid, gauss_legendre_rule, sup_residual,
                         threaded_map, usable_cpus)
from .finite_solver import _factorization_sweep

_GL_NODES = 64
_MU_THRESH = 1e-9


@functools.cache
def _gl_unit() -> tuple[np.ndarray, np.ndarray]:
    """The ``_GL_NODES`` Gauss-Legendre nodes and weights on [0, 1], built on
    first use by ``gauss_legendre_rule``, the grids' own rule."""
    x, w = gauss_legendre_rule(_GL_NODES)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _norm_pdf(x, mean, std):
    """The N(mean, std^2) density at x, computed in place in one new array (a
    scalar for scalar arguments).

    With z = (x - mean) / std, the exponent is taken as round(z z) (-0.5),
    which is (-0.5 z) z bit for bit: scaling by a power of two is exact on
    normal floats, and where a product is not normal the exponent is below
    1e-300 and exp gives 1 either way.  z z overflows from |z| > 2^512
    (1.3e154), (-0.5 z) z only from 1.9e154: between the two, where both
    give a density of 0, z z alone warns of the overflow.  At a scalar
    std == 1 the division, exact there, is skipped.
    """
    x = np.asarray(x, dtype=float)
    out = np.subtract(x, mean, out=np.empty(np.broadcast(x, mean, std).shape))
    if np.ndim(std) or std != 1.0:
        out /= std
    np.multiply(out, out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= std * np.sqrt(2.0 * np.pi)
    return out if out.ndim else out[()]


def _gamma_density(shape, rate):
    """The Gamma(shape, rate) density (mean shape/rate) as a function that
    overwrites a float array of arguments with the density there.

    shape log(rate) and lgamma(shape) are taken once, here.  A call works in
    place, with one more array for the log term (shape - 1) log x when
    shape != 1; when shape == 1 that term is +-0 and is skipped.  x <= 0 and
    NaN give 0, except x == 0 gives rate when shape == 1.
    """
    head = shape * np.log(rate)
    tail = math.lgamma(shape)

    def fill(x):
        nonpos = ~(x > 0.0)
        if not nonpos.any():
            nonpos = None
        zero = x == 0.0 if nonpos is not None and shape == 1.0 else None
        out = np.maximum(x, 0.0, out=x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if shape == 1.0:
                out *= -rate
            else:
                log = np.log(out)
                log *= shape - 1.0
                log += head
                out *= rate
                np.subtract(log, out, out=out)
            # adding a zero constant changes no exp
            if shape == 1.0 and head != 0.0:
                out += head
            if tail != 0.0:
                out -= tail
            np.exp(out, out=out)
        if nonpos is not None:
            out[nonpos] = 0.0
        if zero is not None:
            out[zero] = rate
        return out

    return fill


def _difference(x, y, shift) -> np.ndarray:
    """x - y + shift in a new float array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.subtract(x, y, out=np.empty(np.broadcast(x, y).shape))
    out += shift
    return out


@dataclass(frozen=True)
class GaussianPcaParams:
    """Two-neighbor Gaussian kernel parameters; needs |m| > 2."""

    m: float
    sigma: float

    def __post_init__(self):
        if abs(self.m) <= 2.0:
            raise ValueError(
                f"gaussian family requires |m| > 2 (got m={self.m}): below that the cell "
                "variance grows without bound and no integrable invariant profile exists")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def contraction(self) -> float:
        """l = 1 + sqrt(1 - 4/m^2)."""
        return 1.0 + np.sqrt(1.0 - 4.0 / self.m ** 2)

    @property
    def stationary_std(self) -> float:
        return float((1.0 - 4.0 / self.m ** 2) ** -0.25 * self.sigma)


@dataclass(frozen=True)
class Ar1Params:
    """X_i = phi X_{i-1} + N(0, innovation_var)."""

    phi: float
    innovation_var: float

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise ValueError("need |phi| < 1 for a stationary AR(1) law")
        if self.innovation_var <= 0:
            raise ValueError("innovation variance must be positive")

    @property
    def stationary_var(self) -> float:
        return self.innovation_var / (1.0 - self.phi ** 2)


@dataclass(frozen=True)
class BetaPcaParams:
    """Beta kernel parameters: Beta(alpha, beta) fraction, shift m, and the
    rate theta of the candidate chain's Gamma steps."""

    alpha: float
    beta: float
    m: float
    theta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "theta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def drift_per_step(self) -> float:
        """Mean displacement of one down-up step of the candidate chain."""
        return (self.alpha + self.beta) / self.theta


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def gaussian_kernel_density(params: GaussianPcaParams) -> KernelDensity:
    m, sigma = params.m, params.sigma

    def density(a, b, c):
        return _norm_pdf(c, (np.asarray(a, dtype=float) + b) / m, sigma)

    def sampler(a, b, u):
        return (np.asarray(a, dtype=float) + b) / m + sigma * _special().ndtri(u)

    return KernelDensity(density=density, sampler=sampler)


def _at(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The rows along the last axis of the three-axis array x, at the pairs
    (i, j) of its first two axes, where x is broadcast along them."""
    return x[i if x.shape[0] > 1 else 0, j if x.shape[1] > 1 else 0]


def diagonal_atom(a, b, c, t):
    """``gaussian_diag``'s override of a kernel's values t on a block of
    triples (see ``override_density``): the pairs it rewrites, those with
    a == b, and their rows of values, +inf at c == a and 0 elsewhere: the
    child copies the common value, and the +inf lets probes see where the
    two kernels disagree."""
    i, j, _ = np.nonzero(a == b)
    return (i, j), np.where(_at(c, i, j) == _at(a, i, j), np.inf, 0.0)


def override_density(density, override):
    """``density`` with ``override``'s values written over its own.

    An override takes a block of triples, a, b and c broadcasting to the
    shape (rows, cols, K) of the values t there, a and b constant along the
    last axis, and returns the index (i, j) of the pairs whose rows
    t[i, j] it replaces, each pair once, and values that broadcast to those
    rows.  A call whose arguments do not come in that form is read as one
    block whose pairs each hold one triple.  ``density``'s array may be
    overwritten.
    """
    def overridden(a, b, c):
        t = np.asarray(density(a, b, c))
        a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
        if t.ndim == a.ndim == b.ndim == 3 and a.shape[2] == b.shape[2] == 1:
            block = t
        else:
            block = t.reshape(-1, 1, 1)
            a, b, c = (np.broadcast_to(x, t.shape).reshape(-1, 1, 1) for x in (a, b, c))
        (i, j), values = override(a, b, c, block)
        block[i, j] = values
        out = block.reshape(t.shape)
        return out if out.ndim else out[()]

    return overridden


def gaussian_diag_kernel_density(params: GaussianPcaParams) -> KernelDensity:
    """Gaussian kernel overridden to a point mass on coinciding neighbors.

    Its density is the Gaussian's with ``diagonal_atom`` applied: off the
    diagonal a == b it is the Gaussian kernel's value bit for bit; on it,
    the child copies the common value.  The condition battery runs on the
    Gaussian and reads the override alone (``_cond_residuals``).
    """
    base = gaussian_kernel_density(params)
    density = override_density(base.density, diagonal_atom)

    def sampler(a, b, u):
        a = np.asarray(a, dtype=float)
        return np.where(a == b, a, base.sampler(a, b, u))

    return KernelDensity(density=density, sampler=sampler)


def default_gaussian_grid(params: GaussianPcaParams,
                          points: int = DEFAULT_GRID_POINTS) -> GridMeasure:
    """Gauss-Legendre grid out to 8 stationary standard deviations."""
    return gauss_legendre_grid(8.0 * params.stationary_std, points)


def ar1_parameters(params: GaussianPcaParams) -> Ar1Params:
    l = params.contraction
    return Ar1Params(phi=2.0 / (params.m * l), innovation_var=2.0 * params.sigma ** 2 / l)


def ar1_hzmc(ar: Ar1Params, s0: float) -> HzmcSpec:
    """The AR(1) zigzag chain: d = u = N(phi x, innovation_var), one kernel
    for both legs, and rho0 = N(0, s0^2)."""
    if not s0 > 0:
        raise ValueError(f"stationary std must be positive, got {s0}")
    phi = float(ar.phi)
    sp = float(np.sqrt(ar.innovation_var))
    step = MarkovKernel(
        density=lambda x, y: _norm_pdf(y, phi * np.asarray(x, dtype=float), sp),
        noise=lambda u: sp * _special().ndtri(u),
        step=lambda x, e: phi * x + e,
    )
    rho0 = DensityLaw(
        density=lambda x: _norm_pdf(x, 0.0, s0),
        sampler=lambda u: s0 * _special().ndtri(u),
        cdf=lambda x: _special().ndtr(np.asarray(x, dtype=float) / s0),
    )
    return HzmcSpec(d=step, u=step, rho0=rho0)


def gaussian_invariant_hzmc(params: GaussianPcaParams) -> HzmcSpec:
    """Closed-form invariant chain of the Gaussian kernel."""
    ar = ar1_parameters(params)
    s0 = params.stationary_std
    return replace(ar1_hzmc(ar, s0),
                   meta={"family": "gaussian_closed_form", "m": params.m,
                         "sigma": params.sigma, "l": params.contraction,
                         "phi": ar.phi, "sigma_prime_sq": ar.innovation_var,
                         "stationary_std": s0})


def gaussian_eta_eigenvalue(params: GaussianPcaParams) -> float:
    """Eigenvalue 2 (l - 1) / l of the weight solve, with nu of unit mass.

    Take c0 = 0, sigma = 1 (it cancels), r = sqrt(1 - 4/m^2) = l - 1, so
    4/m^2 = (1 - r) l.  The diagonal chain x -> N(2x/m, 1) has the stationary
    density nu(a) = r exp(-r^2 a^2 / 2) / sqrt(2 pi), and for
    eta(x) = exp(-l x^2 / 4) the Gaussian integral over x of
    eta(x) t(a, a; 0) / t(a, x; 0) = eta(x) exp(((a + x)^2 - 4a^2) / (2 m^2))
    is sqrt(8 pi) / l exp((r - 1)(2r + 1) a^2 / 4); times nu(a), the exponents
    add up to -l a^2 / 4: (2 r / l) eta(a).  With nu of unit peak it would be
    sqrt(8 pi sigma^2) / l; the paper's sqrt(pi sigma^2) / l^2 (0.58 against
    0.854 at m = 3, sigma = 1) matches neither and stays unexplained.
    """
    l = params.contraction
    return 2.0 * (l - 1.0) / l


def gaussian_closed_profiles(params: GaussianPcaParams) -> dict:
    """Closed-form diagonal and weight profiles, unnormalized:
    nu(x) = exp(-(1 - 4/m^2) x^2 / (2 sigma^2)),
    eta(x) = exp(-l x^2 / (4 sigma^2))."""
    m, sigma = params.m, params.sigma
    l = params.contraction
    coef_nu = (1.0 - 4.0 / m ** 2) / (2.0 * sigma ** 2)
    coef_eta = l / (4.0 * sigma ** 2)
    return {
        "nu": lambda x: np.exp(-coef_nu * np.asarray(x, dtype=float) ** 2),
        "eta": lambda x: np.exp(-coef_eta * np.asarray(x, dtype=float) ** 2),
    }


# ---------------------------------------------------------------------------
# Beta family
# ---------------------------------------------------------------------------

def beta_kernel_density(params: BetaPcaParams) -> KernelDensity:
    """Child cell = a + (b - a) * Beta(alpha, beta) - m.

    The density carries the 1/|b - a| change-of-variable factor so that each
    row integrates to one.  Coinciding neighbors give a point mass at a - m;
    the density reports 0 there (a null set under the line measure).
    """
    al, be, m = params.alpha, params.beta, params.m
    lbeta = math.lgamma(al) + math.lgamma(be) - math.lgamma(al + be)

    def density(a, b, c):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        span = b - a
        safe = np.where(span == 0.0, 1.0, span)
        frac = np.divide(c + m - a, safe, out=np.empty(np.broadcast(a, b, c).shape))
        ok = frac >= 0.0
        ok &= frac <= 1.0
        ok &= span != 0.0
        if al == 1.0 and be == 1.0:
            # both log terms are +-0: the density is 1/|b - a| on the support
            return np.where(ok, np.exp(-lbeta) / np.abs(safe), 0.0)
        # Only the supported entries (ok) count.  Each log is taken where its
        # argument is positive; at frac == 0 or 1 it is left at 0, the log of
        # the 1 that the formula puts there.  A term whose exponent is 1 adds
        # only +-0 and is skipped.  Clipping keeps the other entries finite.
        np.clip(frac, 0.0, 1.0, out=frac)
        with np.errstate(divide="ignore", invalid="ignore"):
            if be != 1.0:
                out = np.subtract(1.0, frac, out=frac if al == 1.0 else np.empty_like(frac))
                np.log(out, out=out, where=ok & (out > 0.0))     # log(1 - frac), 0 at frac == 1
                out *= be - 1.0
            if al != 1.0:
                np.log(frac, out=frac, where=ok & (frac > 0.0))  # log(frac), 0 at frac == 0
                frac *= al - 1.0
                if be != 1.0:
                    out += frac
                else:
                    out = frac
            out -= lbeta
            np.exp(out, out=out, where=ok)
        out /= np.abs(safe)
        np.copyto(out, 0.0, where=~ok)
        return out

    def sampler(a, b, u):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return a + (b - a) * _special().betaincinv(al, be, u) - m

    return KernelDensity(density=density, sampler=sampler)


def beta_candidate_kernels(params: BetaPcaParams) -> tuple[MarkovKernel, MarkovKernel]:
    """Shifted-Gamma candidate steps: down adds Gamma(alpha, theta) - m,
    up adds Gamma(beta, theta) + m."""
    al, be, m, th = params.alpha, params.beta, params.m, params.theta
    down, up = _gamma_density(al, th), _gamma_density(be, th)

    d1 = MarkovKernel(
        density=lambda a, c: down(_difference(c, a, m)),
        noise=lambda u: _special().gammaincinv(al, u) / th,
        step=lambda a, e: a - m + e,
        out_support=lambda a: (np.asarray(a, dtype=float) - m, np.inf),
        in_support=lambda c: (-np.inf, np.asarray(c, dtype=float) + m),
    )
    u1 = MarkovKernel(
        density=lambda c, b: up(_difference(b, c, -m)),
        noise=lambda u: _special().gammaincinv(be, u) / th,
        step=lambda c, e: c + m + e,
        out_support=lambda c: (np.asarray(c, dtype=float) + m, np.inf),
        in_support=lambda b: (-np.inf, np.asarray(b, dtype=float) - m),
    )
    return d1, u1


def beta_candidate_hzmc(params: BetaPcaParams) -> HzmcSpec:
    """Candidate chain for the Beta kernel.

    No probability density on the line is stationary for the down step (it
    is a nondegenerate shift), so the initial law here is only a documented
    reference candidate, the Gamma(alpha, theta) density; its one-step
    stationarity residual quantifies the obstruction.
    """
    d1, u1 = beta_candidate_kernels(params)
    al, th = params.alpha, params.theta
    pdf = _gamma_density(al, th)
    rho0 = DensityLaw(
        density=lambda x: pdf(np.array(x, dtype=float)),
        sampler=lambda u: _special().gammaincinv(al, u) / th,
        support=(0.0, np.inf),
    )
    return HzmcSpec(d=d1, u=u1, rho0=rho0,
                    meta={"family": "beta_candidate", "drift_per_step": params.drift_per_step})


def default_beta_grid(params: BetaPcaParams, points: int = DEFAULT_GRID_POINTS) -> GridMeasure:
    al, be, th, m = params.alpha, params.beta, params.theta, params.m
    reach = (al + np.sqrt(al)) / th + (be + np.sqrt(be)) / th + abs(m)
    return gauss_legendre_grid(8.0 * reach, points)


# ---------------------------------------------------------------------------
# Quadrature machinery
# ---------------------------------------------------------------------------

def _triples(p: np.ndarray, rows: slice, cols: slice = slice(None)) -> tuple:
    """Kernel density arguments (a, b, c) of the grid triples with a in
    ``rows`` and b in ``cols``."""
    return p[rows, None, None], p[None, cols, None], p[None, None, :]


def _pair_blocks(lo: int, hi: int, n: int, inner: int, budget: int) -> list[tuple]:
    """Rows lo to hi of a pass over pairs (a, b), b among n columns, with
    ``inner`` doubles a pair, cut into blocks (rows, cols) of about ``budget``
    doubles that follow one another in C order: whole rows while one fits
    (as _row_blocks), else pieces of one row, of one pair at least.  The
    first block is the largest, so scratch of its shape serves them all."""
    pairs = max(1, budget // inner)
    if pairs >= n:
        step = pairs // n
        return [(slice(a, min(a + step, hi)), slice(0, n)) for a in range(lo, hi, step)]
    step = -(-n // round(n / pairs))
    return [(slice(a, a + 1), slice(b, min(b + step, n)))
            for a in range(lo, hi) for b in range(0, n, step)]


def _split_rows(rows: int, cols: int, inner: int, run) -> list:
    """The results, in row order, of ``run(blocks)`` on k contiguous ranges of
    rows that cover range(rows), one thread per range (``threaded_map``: the
    caller runs the first), where k = min(CPUs this process may use, rows),
    so that one row starts no thread.  A range comes as its blocks
    (_pair_blocks, ``cols`` pairs a row, ``inner`` doubles a pair) of about
    _BLOCK doubles when k <= 2, and 2 _BLOCK / k beyond: the ranges hold two
    blocks of scratch together at most, however many CPUs there are.
    Halving the blocks on two CPUs instead cost the 257-point Beta check a
    third more time: each block pays the kernels' per-call overhead, which
    holds the GIL.
    """
    k = min(usable_cpus(), rows)
    budget = min(_BLOCK, 2 * _BLOCK // k)
    edges = [rows * i // k for i in range(k + 1)]
    ranges = [_pair_blocks(lo, hi, cols, inner, budget) for lo, hi in zip(edges, edges[1:])]
    return list(threaded_map(run, ranges, k))


@dataclass(frozen=True)
class GridKernel:
    """A kernel on the line read on a grid as a finite one: the n x n x n array
    t[a, b, c] = density(p_a, p_b, p_c) w_c, evaluated on demand when indexed.
    The quadrature weight sits in the rows, so vectors the finite solver returns
    on it are masses per node; divided by ``grid.weights``, densities."""

    kernel: KernelDensity
    grid: GridMeasure

    @property
    def size(self) -> int:
        return self.grid.size

    def __getitem__(self, key) -> np.ndarray:
        n = self.size
        full = [np.broadcast_to(np.arange(n).reshape(axis), (n, n, n))[key]
                for axis in ((n, 1, 1), (1, n, 1), (1, 1, n))]
        # an axis that an index does not vary along is cut to length one
        a, b, c = (i[tuple(slice(None, 1) if s == 0 else slice(None) for s in i.strides)]
                   for i in full)
        t = self.kernel.density(*(self.grid.points[i] for i in (a, b, c))) * self.grid.weights[c]
        return np.broadcast_to(t, full[0].shape)

    @functools.cached_property
    def mu_positive(self) -> bool:
        """True when t is positive on every grid triple; one blocked pass."""
        return all(bool(np.all(self[blk] > 0)) for blk in _row_blocks(self.size, self.size ** 2))


def _compose(density, out_support, k2: MarkovKernel, grid: GridMeasure,
             rows: np.ndarray) -> np.ndarray:
    """The integral over c of density(a, c) k2(c; b), at the pairs of the
    points a in ``rows`` and the grid points b: the composition k1 k2 when
    ``density`` and ``out_support`` are k1's (``compose_kernels``), and a
    law's image when they ignore a (``apply_law``).

    When both factors expose support bounds and every pairwise intersection
    is a finite interval, the integral runs on Gauss-Legendre nodes placed on
    exactly that interval (this keeps indicator-supported kernels exact).  An
    empty interval integrates to +0.0 whatever the kernels are at its nodes,
    and each block's columns are trimmed to the span of its pairs with a
    non-empty interval: no node beyond that span is evaluated.  The Beta
    candidates' intervals are empty at b <= a, half of the pairs.  Otherwise
    it contracts the grid-sampled matrices with the grid weights, by
    ``einsum`` and not a matrix product: a BLAS call leaves its worker
    threads spinning on the other cores for 0.1-0.3 s, where the threaded
    passes that follow it run.  Either way the rows split over threads
    (_split_rows); trimmed Beta rows hold less work the later they come, and
    the ranges stay even in rows.
    """
    p = grid.points
    r, n = rows.size, p.size
    if out_support is not None and k2.in_support is not None:
        lo1, hi1 = (np.broadcast_to(np.asarray(s, dtype=float), (r,)) for s in out_support(rows))
        lo2, hi2 = (np.broadcast_to(np.asarray(s, dtype=float), (n,)) for s in k2.in_support(p))
        # the inner integral runs on the exact continuum support of the
        # integrand (not truncated to the grid window): both kernels are
        # evaluable anywhere, and truncating would break the composition
        # identities within one shift of the boundary
        lo = np.maximum(lo1[:, None], lo2[None, :])
        hi = np.minimum(hi1[:, None], hi2[None, :])
        if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
            width = np.clip(hi - lo, 0.0, None)
            live = width > 0.0
            out = np.zeros((r, n))
            unit_x, unit_w = _gl_unit()

            def compose_rows(blocks):
                nodes = np.empty((*_extent(blocks[0]), _GL_NODES))
                vals = np.empty_like(nodes)
                for i, j in blocks:
                    span = np.flatnonzero(live[i, j].any(axis=0))
                    if not span.size:
                        continue
                    j = slice(j.start + span[0], j.start + span[-1] + 1)
                    nr, nc = _extent((i, j))
                    x = np.multiply(width[i, j, None], unit_x, out=nodes[:nr, :nc])
                    x += lo[i, j, None]
                    v = np.multiply(density(rows[i, None, None], x),
                                    k2.density(x, p[None, j, None]), out=vals[:nr, :nc])
                    v *= unit_w
                    np.multiply(v.sum(axis=2), width[i, j], out=out[i, j], where=live[i, j])

            _split_rows(r, n, _GL_NODES, compose_rows)
            return out
    m1 = density(rows[:, None], p[None, :]) * grid.weights
    m2 = k2.density(p[:, None], p[None, :])
    out = np.empty((r, n))

    def contract_rows(blocks):
        for i, j in blocks:
            out[i, j] = np.einsum("ac,cb->ab", m1[i], m2[:, j], optimize=False)

    _split_rows(r, n, 1, contract_rows)
    return out


def compose_kernels(k1: MarkovKernel, k2: MarkovKernel, grid: GridMeasure) -> np.ndarray:
    """(k1 k2)(a; b) = integral of k1(a; c) k2(c; b) over c, on the grid pairs
    (``_compose``)."""
    return _compose(k1.density, k1.out_support, k2, grid, grid.points)


def apply_law(rho: DensityLaw, kernel: MarkovKernel, grid: GridMeasure) -> np.ndarray:
    """Density of (rho kernel) at the grid points: the one row of ``_compose``
    whose left factor is rho's density on rho's support, whatever the row."""
    return _compose(lambda a, c: rho.density(c), lambda a: rho.support, kernel, grid,
                    grid.points[:1])[0]


def _differing(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """The pairs where |ta - tb| exceeds _MU_THRESH, or is NaN, at some c (the
    last axis): the max over c is NaN where any entry is, and NaN <= x is False."""
    return ~(np.abs(ta - tb).max(axis=-1) <= _MU_THRESH)


def _cond_residuals(kernel: KernelDensity, hzmc: HzmcSpec, grid: GridMeasure, override=None):
    """Factorization, commutation and stationarity residuals with their argmax
    witnesses (``sup_residual``), and the (a, b) pairs where ``override`` (see
    ``override_density``) changes ``kernel`` by more than _MU_THRESH, or to or
    from NaN (None without one).

    When the chain's two legs are one kernel (``hzmc.d is hzmc.u``, as in
    the AR(1) chain), it is composed and evaluated once: ud is du, which a
    second composition would give bit for bit.

    The factorization is ``finite_solver._factorization_sweep``, its rows
    split over threads (_split_rows); it evaluates ``kernel`` once a triple.
    The override reads each block's t and returns the pairs whose rows it
    replaces; only those rows are compared, as off them the overridden
    kernel's value is t by construction.  It runs in the threads, so it must
    call no function that ``perfbench/tracing.py`` wraps.  The ranges'
    results are taken in row order, the first of equal residuals winning,
    which gives the residual and argmax of one pass.
    """
    p = grid.points
    n = p.size
    d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
    rho_p = rho0.density(p)
    if not np.any(rho_p):
        raise ValueError(f"the chain's initial law has density 0 at each of the {n} grid nodes "
                         f"in [{p[0]:g}, {p[-1]:g}]: the grid misses its mass")
    same = u is d
    du = compose_kernels(d, u, grid)
    ud = du if same else compose_kernels(u, d, grid)
    a, b = p[:, None], p[None, :]
    d_mat = d.density(a, b)
    u_t = np.ascontiguousarray((d_mat if same else u.density(a, b)).T)  # u(c; b) at [b, c]
    differs = None if override is None else np.zeros((n, n), dtype=bool)

    def t_of(block):
        abc = _triples(p, *block)
        t = kernel.density(*abc)
        if override is not None:
            (i, j), values = override(*abc, t)
            differs[block][i, j] = _differing(values, t[i, j])
        return t

    fact = max(_split_rows(n, n, n, lambda blocks: _factorization_sweep(      # a == b skipped
        t_of, du, d_mat, u_t, blocks, np.eye(n, dtype=bool))), key=lambda r: r[0])
    comm = sup_residual([np.abs(du - ud)], du.shape)
    stat = sup_residual([np.abs(apply_law(rho0, d, grid) - rho_p)], (n,))
    return fact, comm, stat, differs


def quadrature_check_conditions(kernel: KernelDensity, hzmc: HzmcSpec, grid: GridMeasure,
                                tol: float = QUAD_TOL, override=None):
    """Factorization, commutation and stationarity residuals on the grid.

    The factorization sweep skips the exact neighbor diagonal a == b, a null
    set under the line measure where atom-carrying kernels are allowed to
    disagree; a NaN anywhere else makes its residual inf.  Given the
    ``override`` that turns the battery's ``kernel`` into the kernel a family
    steps (see ``override_density``), a fourth report, mu-equivalence (see
    mu_equivalence_probe), compares the two on the sweep's own blocks, at
    the entries the override writes; where ``kernel`` is finite, that is
    the probe's report on the two kernels.

    An overflow on a wide grid (the normal density's z z from |z| > 1.3e154,
    the pair mass w_a w_b) gives inf or a density of 0 without a warning.
    A grid on whose every node the chain's initial law has density 0 would
    pass each residual at 0 and is refused with a ValueError.
    """
    with np.errstate(over="ignore"):
        (r1, w1), (r2, w2), (r3, w3), differs = _cond_residuals(kernel, hzmc, grid, override)
        reports = (
            CheckReport("factorization", r1, tol, witnesses={"argmax": w1}),
            CheckReport("commutation", r2, tol, witnesses={"argmax": w2}),
            CheckReport("stationarity", r3, tol, witnesses={"argmax": w3}),
        )
        if differs is not None:
            reports += (_mu_report(differs, grid),)
    return reports


def mu_equivalence_probe(kernel_a: KernelDensity, kernel_b: KernelDensity,
                         grid: GridMeasure) -> CheckReport:
    """Grid mass of the neighbor pairs where two kernels disagree.

    Passes when every disagreeing pair sits within one grid cell of the
    diagonal (a one-dimensional, hence null, set on the line).
    """
    p = grid.points
    n = p.size
    differs = np.zeros((n, n), dtype=bool)
    with np.errstate(invalid="ignore"):
        for blk in _row_blocks(n, n * n):
            abc = _triples(p, blk)
            differs[blk] = _differing(kernel_a.density(*abc), kernel_b.density(*abc))
    return _mu_report(differs, grid)


def _mu_report(differs: np.ndarray, grid: GridMeasure) -> CheckReport:
    """The mu-equivalence report of the pairs (a, b) marked in ``differs``."""
    w = grid.weights
    idx = np.arange(w.size)
    band = np.abs(idx[:, None] - idx[None, :]) <= 1
    pair_mass = w[:, None] * w[None, :]
    mass_total = float(pair_mass[differs].sum())
    off = differs & ~band
    mass_off = float(pair_mass[off].sum())
    return CheckReport(
        condition="mu-equivalence",
        residual=mass_off,
        tolerance=0.0,
        witnesses={"differing_pairs": int(differs.sum()),
                   "off_band_pairs": int(off.sum()),
                   "differing_mass": mass_total},
        notes="disagreement confined to the diagonal band" if mass_off == 0.0
        else "kernels disagree on a set of positive mass",
    )
