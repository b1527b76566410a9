"""Shared domain vocabulary: reference measures, kernels, chain specs, reports.

Two concrete reference measures are supported, and only two: the counting
measure on a finite alphabet, and a weighted quadrature grid on a truncated
interval [-L, L].  Kernels come in three shapes:

* ``TransitionTensor``     -- a two-neighbor kernel on a finite alphabet,
  stored as a kappa x kappa x kappa array with stochastic rows t[a, b, :],
  with an inverse-CDF sampler as a ``KernelDensity`` has one.
* ``KernelDensity``        -- a two-neighbor kernel on the line, given by an
  evaluable density (a, b, c) -> t(a, b; c) plus an exact inverse-CDF sampler.
* ``MarkovKernel``         -- a one-step kernel on the line (the "down" and
  "up" legs of a zigzag chain), density (x, y) plus noise and step.

All containers are frozen and their arrays are write-locked after
construction, so every object in this module is safe to share across threads.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Exact-arithmetic-backed finite checks vs discretization-limited grid checks.
EXACT_TOL = 1e-10
QUAD_TOL = 1e-6
ROW_TOL = 1e-12
# Largest quadrature grid: the condition sweep is cubic in the points, and a
# Beta check at this size takes about 3.3 s, with a peak RSS near 120 MB, on
# a 2-vCPU Xeon VM.
MAX_GRID_POINTS = 1025
# Points of a grid whose size neither the model nor the caller gives.
DEFAULT_GRID_POINTS = 257
# Doubles in one block of the n^3 and n^2 * _GL_NODES grid passes: 512 KB,
# so that a block's temporaries stay in cache.  At 257 points one block is
# one row a of the n^3 triples; a _row_blocks block never holds less than
# one row.  The threaded passes of continuous_kernels hold two _BLOCKs at
# most, whatever their thread count, in pieces of rows where need be
# (_split_rows there, which runs its ranges through threaded_map).
_BLOCK = 1 << 16


def _row_blocks(n: int, row: int) -> list[slice]:
    """The leading axis of a pass over n rows of ``row`` doubles each, cut
    into blocks of about _BLOCK doubles (at least one row)."""
    step = max(1, _BLOCK // row)
    return [slice(i0, min(i0 + step, n)) for i0 in range(0, n, step)]


def _extent(block: tuple) -> tuple[int, int]:
    """Rows and columns of a block (rows, cols) of pairs, two slices."""
    rows, cols = block
    return rows.stop - rows.start, cols.stop - cols.start


def _special():
    """``scipy.special``, imported on the first call.  Only the samplers use
    it, and importing it takes most of the package's start-up, so ``check``
    and ``solve`` never load it."""
    import scipy.special
    return scipy.special


def usable_cpus() -> int:
    """CPUs this process may use: its affinity set where the system reports
    one (Linux), else ``os.cpu_count()``, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def threaded_map(fn: Callable, items: Sequence, threads: int):
    """Yields ``fn(item)`` for each item, in order.  The items go in turns of
    ``threads``: the caller computes the first of a turn and ``threads - 1``
    worker threads the rest; numpy releases the GIL, so they run at once.
    One thread or one item is a plain loop, which starts no thread.

    Workers run under the caller's numpy error state.  An exception reaches
    the caller once every worker has ended, the first item's in order where
    several fail, and closing the generator early waits for them too.  A
    result is dropped once yielded.  ``fn`` must call nothing that
    ``perfbench/tracing.py`` wraps: its span stack is one per process.
    """
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor     # imported at first use
    err = np.geterr()

    def in_worker(item):
        with np.errstate(**err):
            return fn(item)

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        for i in range(0, len(items), threads):
            turn = [pool.submit(in_worker, item) for item in items[i + 1:i + threads]]
            yield fn(items[i])
            while turn:
                yield turn.pop(0).result()     # the future, and its result, dropped


def _locked(a, dtype=float):
    """``a`` as a read-only ``dtype`` array.  A read-only array that owns its
    buffer is taken as it is, since no view of it can write; anything else
    is copied, so that a later write through the caller's array does not
    reach the result."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridMeasure:
    """Quadrature carrier for integrals over a truncated interval.

    ``points`` are strictly increasing abscissae in [-L, L] and ``weights``
    the positive quadrature weights, so that sum(f(points) * weights)
    approximates the integral of f.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _locked(self.points)
        wts = _locked(self.weights)
        if pts.ndim != 1 or wts.ndim != 1 or pts.size != wts.size:
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(wts > 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def halfwidth(self) -> float:
        return float(max(-self.points[0], self.points[-1]))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(np.asarray(values, dtype=float), self.weights))


def gauss_legendre_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the ``points``-point Gauss-Legendre rule
    on [-1, 1], without LAPACK or BLAS (numpy's ``leggauss`` runs an
    eigensolve, whose BLAS threads keep spinning on the other cores after it
    returns, where the threaded grid passes run).

    Newton's method on P_n, evaluated by the three-term recurrence, from the
    guesses cos(pi (i - 1/4) / (n + 1/2)), finds the nonnegative half of the
    nodes; the others are their mirror images, and an odd rule's middle node
    is exactly 0, where P_n is exactly 0.  Each step moves every node of the
    half at once.  The loop stops once the largest step is below 1e-13, far
    above rounding noise, so it cannot stall on a last-ulp step: Newton
    converges quadratically, and the error left after that step is below
    1e-20.  Every rule up to MAX_GRID_POINTS stops after its fourth step; one
    still moving after ten raises.
    The weights 2 / ((1 - x^2) P_n'(x)^2) are taken at the converged nodes.
    """
    n, half = points, points // 2
    z = np.cos(np.pi * (np.arange(half, 0, -1) - 0.25) / (n + 0.5))     # ascending, > 0
    z = np.concatenate((np.zeros(n % 2), z))
    for _ in range(10):
        p, dp = _legendre_and_slope(n, z)
        step = p / dp
        z -= step
        if np.max(np.abs(step)) < 1e-13:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for {n} points did not converge")
    dp = _legendre_and_slope(n, z)[1]
    w = 2.0 / ((1.0 - z * z) * dp * dp)
    return (np.concatenate((-z[::-1][:half], z)), np.concatenate((w[::-1][:half], w)))


def _legendre_and_slope(n: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(z) and P_n'(z) for |z| < 1, by the three-term recurrence."""
    prev, p = np.ones_like(z), z
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * z * p - (j - 1) * prev) / j
    return p, n * (prev - z * p) / (1.0 - z * z)


def gauss_legendre_grid(halfwidth: float, points: int = DEFAULT_GRID_POINTS) -> GridMeasure:
    """Gauss-Legendre nodes and weights (gauss_legendre_rule) scaled to
    [-halfwidth, halfwidth]."""
    if not (np.isfinite(halfwidth) and halfwidth > 0):
        raise ValueError(f"grid halfwidth must be a finite number > 0, got {halfwidth}")
    if points < 2:
        raise ValueError(f"need grid points >= 2, got {points}")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{points} grid points exceed the supported bound {MAX_GRID_POINTS}")
    x, w = gauss_legendre_rule(points)
    return GridMeasure(points=x * halfwidth, weights=w * halfwidth)


@dataclass(frozen=True)
class TransitionTensor:
    """Finite-alphabet two-neighbor kernel t[a, b, c] = T(a, b; {c}).

    The array is kappa x kappa x kappa, kappa >= 1, and every row t[a, b, :]
    must be a probability vector within ROW_TOL.
    """

    t: np.ndarray

    def __post_init__(self):
        arr = _locked(self.t)
        if arr.ndim != 3 or arr.size == 0 or len(set(arr.shape)) != 1:
            raise ValueError(f"tensor shape {arr.shape} is not kappa x kappa x kappa")
        if not np.all(arr >= 0):     # also refuses NaN, which every comparison fails
            raise ValueError("tensor entries must be nonnegative numbers")
        rowsums = arr.sum(axis=2)
        worst, bad = sup_residual([(0, np.abs(rowsums - 1.0))], rowsums.shape)
        if worst > ROW_TOL:
            raise ValueError(f"row {bad} sums to {rowsums[bad]!r}; off by {worst:g} > {ROW_TOL:g}")
        object.__setattr__(self, "t", arr)

    @property
    def size(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        """t[key]: a view for basic keys, a gathered copy for index arrays."""
        return self.t[key]

    @functools.cached_property
    def search_table(self) -> np.ndarray:
        """The inverse-CDF table that the simulator bisects, taken once and
        flattened: row a kappa + b holds the first kappa - 1 entries of
        t[a, b].cumsum() (the bits of np.cumsum(t, axis=2)), padded with +inf
        to the width 2**ceil(log2 kappa) - 1.  A row's total is left out, so
        no uniform, however close to 1, draws past letter kappa - 1."""
        k = self.size
        table = np.full((k, k, (1 << (k - 1).bit_length()) - 1), np.inf)
        table[:, :, :k - 1] = np.cumsum(self.t[:, :, :-1], axis=2)
        return _locked(table.reshape(-1))

    def sampler(self, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws from t[a, b, :] for integer letter arrays a and b
        and uniforms u: the number of entries of row (a, b) of
        ``search_table`` below each u, by a branchless bisection of
        ceil(log2 kappa) rounds."""
        table, k = self.search_table, self.size
        width = table.size // (k * k)
        at = a * k
        at += b
        at *= width                 # the start of each cell's row
        start = at.copy()
        step = (width + 1) >> 1
        while step:
            at += (table.take(at + (step - 1)) < u) * step
            step >>= 1
        at -= start
        return at

    @functools.cached_property
    def mu_positive(self) -> bool:
        """True when every entry is strictly positive; scanned once."""
        return bool(np.all(self.t > 0))

    @functools.cached_property
    def interaction(self) -> tuple[np.ndarray, float]:
        """The three-way interaction r = (I - M_a)(I - M_b)(I - M_c) log t, M_x
        the mean over one axis, read-only, and max |log t|: taken once for the
        quartic identity and its diagonal.  A kernel with a zero is refused."""
        if not self.mu_positive:
            raise ValueError("the quartic identity requires an everywhere-positive kernel")
        r = np.log(self.t)
        log_t_max = float(np.abs(r).max())
        for axis in range(3):
            r -= r.mean(axis=axis, keepdims=True)
        r.setflags(write=False)
        return r, log_t_max

    def restrict(self, indices: Sequence[int]) -> "TransitionTensor":
        """Sub-tensor on a subset of states that the kernel leaves closed.

        Valid only when each restricted row still sums to one, i.e. the
        kernel never leaves the subset from within it.
        """
        idx = np.asarray(indices, dtype=int)
        return TransitionTensor(self.t[np.ix_(idx, idx, idx)])


@dataclass(frozen=True)
class MarkovKernel:
    """One-step kernel on the line: density(x, y), noise(u) and step(x, e).

    ``density`` must accept broadcastable arrays.  A draw from density(x, .)
    is ``step(x, noise(u))``: ``noise`` maps an array of uniforms in (0, 1)
    to innovations free of x, and ``step`` is arithmetic on a float or an
    array.  ``sampler(x, u)`` is that draw; u broadcasts with x, one uniform
    per draw, so that simulations are reproducible from counter-based streams.

    ``out_support(x)`` / ``in_support(y)`` return (lo, hi) bounds for the
    support of density(x, .) / of {x : density(x, y) > 0}.  Finite bounds let
    integrators place quadrature nodes on exactly the supported interval,
    which matters for kernels with indicator factors.
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise: Callable[[np.ndarray], np.ndarray]
    step: Callable
    out_support: Callable[[np.ndarray], tuple] | None = None
    in_support: Callable[[np.ndarray], tuple] | None = None

    def sampler(self, x, u) -> np.ndarray:
        return self.step(np.asarray(x, dtype=float), self.noise(u))


@dataclass(frozen=True)
class DensityLaw:
    """Probability law on the line: density(x), sampler(u) (one draw per
    uniform, in the shape of u), optional cdf."""

    density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray] | None = None
    support: tuple = (-np.inf, np.inf)


@dataclass(frozen=True)
class KernelDensity:
    """Two-neighbor kernel on the line: density (a, b, c) plus exact sampler.

    ``sampler(a, b, u)`` maps each uniform through the inverse CDF of
    density(a, b, .); u broadcasts with a and b, one uniform per draw, and
    the draws take the broadcast shape.
    """

    density: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    sampler: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def check_chain_entries(**arrays: np.ndarray) -> None:
    """Refuse a NaN, infinite or negative entry of a chain kernel or law."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} entries must be finite numbers")
        if np.any(arr < 0):
            raise ValueError(f"{name} entries must be nonnegative")


@dataclass(frozen=True)
class HzmcSpec:
    """Candidate invariant zigzag chain: down kernel, up kernel, initial law.

    Finite case: ``d``/``u`` are stochastic matrices and ``rho0`` a
    probability vector.  Continuous case: MarkovKernel / DensityLaw.
    """

    d: object
    u: object
    rho0: object
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.d, np.ndarray):
            d = _locked(self.d)
            u = _locked(self.u)
            r = _locked(self.rho0)
            check_chain_entries(d=d, u=u, rho0=r)
            for name, mat in (("d", d), ("u", u)):
                if np.abs(mat.sum(axis=1) - 1.0).max() > 1e-9:
                    raise ValueError(f"{name} rows must sum to 1 within 1e-9")
            if abs(r.sum() - 1.0) > 1e-9:
                raise ValueError("rho0 must sum to 1 within 1e-9")
            object.__setattr__(self, "d", d)
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "rho0", r)

    @property
    def is_finite(self) -> bool:
        return isinstance(self.d, np.ndarray)


@dataclass(frozen=True)
class ChzmcSpec:
    """Cyclic zigzag chain on 2n cells with its partition constant z; d and u
    need not be stochastic, as dividing by z normalizes the law."""

    d: np.ndarray
    u: np.ndarray
    n: int
    z: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cycle length must be >= 1")
        if not np.isfinite(self.z) or self.z <= 0:
            raise ValueError(f"partition constant must be finite and positive, got {self.z!r}")
        d, u = _locked(self.d), _locked(self.u)
        check_chain_entries(d=d, u=u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class SpaceTimeDiagram:
    """Stacked states of a synchronous run: ``states[t, j]`` is the value of
    site j at step t, so the shape is (steps + 1, width).  Open-window runs
    pad missing right-edge cells with NaN; cyclic runs index sites mod width.
    """

    states: np.ndarray

    def __post_init__(self):
        arr = _locked(self.states)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"states must be a (steps + 1, width) array, got shape {arr.shape}")
        object.__setattr__(self, "states", arr)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def width(self) -> int:
        return self.states.shape[1]

    def row(self, t: int) -> np.ndarray:
        """Live cells of step t (NaN padding stripped)."""
        r = self.states[t]
        return r[~np.isnan(r)]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one condition check: max residual against a tolerance.

    ``passed`` is always residual <= tolerance; it is stored for the JSON
    emitters but never set independently.
    """

    condition: str
    residual: float
    tolerance: float
    witnesses: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_dict(self) -> dict:
        """JSON-ready fields; a numpy witness becomes its Python value."""
        wit = {key: val.tolist() if isinstance(val, (np.ndarray, np.generic)) else val
               for key, val in self.witnesses.items()}
        return {
            "condition": self.condition,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
            "witnesses": wit,
            "notes": self.notes,
        }

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.condition}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"


def sup_residual(blocks, shape: tuple) -> tuple[float, tuple]:
    """The residual rule of every condition report: the largest entry of the
    array of ``shape`` that the ``(offset, block)`` pairs make up, each block
    C-ordered from its flat offset, in any order, and its index, the first
    one in C order on ties.  A NaN counts as +inf, so an undefined residual
    fails instead of passing."""
    worst, where = -np.inf, 0
    for start, blk in blocks:
        i = int(blk.argmax())
        m = float(blk.flat[i])
        if m != m:      # argmax stops at the first NaN; an earlier +inf ties with it
            i, m = int(np.argmax(~(blk < np.inf))), np.inf
        if m > worst or (m == worst and start + i < where):
            worst, where = m, start + i
    return worst, tuple(int(j) for j in np.unravel_index(where, shape))


def normalize_rows(array: np.ndarray) -> tuple[np.ndarray, float]:
    """Rescale the last axis of a kernel array to unit sums.

    Works for both one-step matrices (rows indexed by a) and two-neighbor
    tensors (rows indexed by (a, b)).  Returns the normalized copy and the
    largest L1 change applied to any single row.  Rows that are all zero
    cannot be normalized and are rejected with their index.
    """
    arr = np.array(array, dtype=float)
    if np.any(arr < 0):
        raise ValueError("entries must be nonnegative")
    sums = arr.sum(axis=-1)
    if np.any(sums == 0):
        bad = np.argwhere(sums == 0)[0]
        raise ValueError(f"row {tuple(int(i) for i in bad)} is all zero; cannot normalize")
    out = arr / sums[..., None]
    correction = float(np.abs(out - arr).sum(axis=-1).max())
    return out, correction


# ---------------------------------------------------------------------------
# Model specification files (JSON).  Floats round-trip bit-exactly through
# decimal strings with 17 significant digits.
# ---------------------------------------------------------------------------

def encode_array(a: np.ndarray):
    """Nested lists of 17-significant-digit decimal strings."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return format(float(a), ".17g")
    return [encode_array(sub) for sub in a]


def decode_array(obj) -> np.ndarray:
    return np.asarray(obj, dtype=float)


def save_document(path, doc: dict) -> None:
    """Write a model or spec document as indented JSON; its arrays go out as
    decimal strings (``encode_array``)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=encode_array)
        fh.write("\n")


def save_model(path, kernel, lattice, grid=None) -> None:
    """Write a model document.

    ``kernel``: TransitionTensor, whose labels are written "0".."kappa-1", or a
    named-family dict with its ``grid`` spec dict {"halfwidth", "points"}.
    ``lattice``: "N" | "Z" | {"cycle": n} | ("cycle", n) as parse_model returns it.
    """
    if isinstance(lattice, tuple):
        lattice = {"cycle": lattice[1]}
    if isinstance(kernel, TransitionTensor):
        alphabet = {"labels": [str(i) for i in range(kernel.size)]}
        kernel = {"tensor": kernel.t}
    else:
        alphabet = {"grid": dict(grid)}
    save_document(path, {"lattice": lattice, "alphabet": alphabet, "kernel": dict(kernel)})


class ModelFormatError(ValueError):
    """Malformed model document (missing fields, bad shapes, bad values)."""


def number_field(value, what: str, whole: bool = False, finite: bool = True):
    """A JSON number, never a string, boolean or null; finite unless ``finite``
    is false (NaN and Infinity parse as numbers); with ``whole``, an int (3.0
    passes, 3.5 does not).  A refused number is named as the float it reads
    as, so an int beyond the float range as inf; a whole number as given."""
    kind = "whole number" if whole else "number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} must be a {kind}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:        # an int beyond the float range
        x = math.inf
    if (finite or whole) and not math.isfinite(x):
        raise ModelFormatError(f"{what} must be a finite {kind}, got {value if whole else x!r}")
    if whole and not x.is_integer():
        raise ModelFormatError(f"{what} must be a whole number, got {value!r}")
    return int(value) if whole else x


def parse_model(doc: dict) -> dict:
    """Validate a model document and materialize its pieces.

    Returns a dict with keys: "lattice" ("N" | "Z" | ("cycle", n)),
    and either "tensor" (TransitionTensor) or "family" (the kernel block of
    the named continuous family as the JSON holds it, its "family" a str),
    plus "grid" (dict or None).
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    for key in ("alphabet", "kernel", "lattice"):
        if key not in doc:
            raise ModelFormatError(f"model document missing field {key!r}")
    lat = doc["lattice"]
    cycle = lat["cycle"] if isinstance(lat, dict) and set(lat) == {"cycle"} else None
    if lat in ("N", "Z"):
        lattice = lat
    elif cycle is not None and number_field(cycle, "cycle length", whole=True) >= 1:
        lattice = ("cycle", int(cycle))
    else:
        raise ModelFormatError(f"lattice must be 'N', 'Z' or {{'cycle': n}}, got {lat!r}")

    out: dict = {"lattice": lattice, "grid": None, "tensor": None, "family": None}
    alpha = doc["alphabet"]
    kern = doc["kernel"]
    if not isinstance(alpha, dict) or not isinstance(kern, dict):
        raise ModelFormatError("alphabet and kernel must be JSON objects")
    if "labels" in alpha:
        if not isinstance(alpha["labels"], list):
            raise ModelFormatError("labels must be a list")
        if "tensor" not in kern:
            raise ModelFormatError("finite alphabet requires an inline kernel tensor")
        try:
            t = decode_array(kern["tensor"])
        except (TypeError, ValueError):
            raise ModelFormatError("tensor entries must be numbers in nested lists") from None
        k = len(alpha["labels"])
        if t.shape != (k, k, k):
            raise ModelFormatError(f"tensor shape {t.shape} does not match {k} labels")
        try:
            out["tensor"] = TransitionTensor(t)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    elif "grid" in alpha:
        g = alpha["grid"]
        if not isinstance(g, dict):
            raise ModelFormatError("grid must be a JSON object")
        out["grid"] = {"halfwidth": number_field(g["halfwidth"], "grid halfwidth")
                       if "halfwidth" in g else None,
                       "points": number_field(g.get("points", DEFAULT_GRID_POINTS),
                                              "grid points", whole=True)}
        if "family" not in kern:
            raise ModelFormatError("grid alphabet requires a named kernel family")
        out["family"] = {**kern, "family": str(kern["family"])}
    else:
        raise ModelFormatError("alphabet must carry 'labels' or 'grid'")
    return out


def load_model(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_model(doc)
