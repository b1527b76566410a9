"""Synchronous space-time simulation for the model zoo.

One step draws every new cell independently from the kernel of its two
neighbors (j, j+1).  On the open lattices "N" and "Z" the window shrinks: a
T-step run needs an initial width of at least final width + T, and nothing is
invented at the right edge.  On a cycle the last cell pairs with the first,
so the width stays.

Randomness is counter based.  Step t of a run seeded with s consumes the
block ``row_uniforms(s, t, width, per_cell)``: a Philox stream keyed by
(s, t) laid out row-major as (site, slot), so site j owns row j of the
block.  Identical (seed, model, init) give bitwise identical diagrams, no
matter how the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .core_types import HzmcSpec, SpaceTimeDiagram, TransitionTensor


def row_uniforms(seed: int, t: int, width: int, per_cell: int = 1) -> np.ndarray:
    """Uniform block for step t: shape (width, per_cell), site j owns row j."""
    bg = np.random.Philox(key=(int(seed) << 64) + int(t))
    return np.random.Generator(bg).random((width, per_cell))


def _line_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + (1 << 63)))


@dataclass(frozen=True)
class TasepRule:
    """Exclusion dynamics: radius r, hop distance v, move probability p.  The
    cells are particle positions; x hops with probability p to min(x + v,
    next - 2r), which keeps the spacing of at least 2r exactly."""

    r: float
    v: float
    p: float

    def __post_init__(self):
        if self.r < 0 or self.v < 0 or not (0 < self.p <= 1):
            raise ValueError("need r >= 0, v >= 0, and p in (0, 1]")

    def sampler(self, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        if not np.all(a + 2 * self.r <= b):
            raise ValueError("inadmissible configuration: spacing below 2r")
        return np.where(u[:, 0] < self.p, np.minimum(a + self.v, b - 2 * self.r), a)


# weight family -> (parameter count, domain, domain test, inverse CDF)
_WEIGHT_LAWS = {
    "dirac": (1, "w >= 0", lambda w: w >= 0, lambda u, w: np.full_like(u, float(w))),
    "exp": (1, "rate > 0", lambda rate: rate > 0, lambda u, rate: -np.log1p(-u) / rate),
    "uniform": (2, "0 <= lo <= hi", lambda lo, hi: 0 <= lo <= hi,
                lambda u, lo, hi: lo + (hi - lo) * u),
    "gamma": (2, "shape > 0 and rate > 0", lambda shape, rate: shape > 0 and rate > 0,
              lambda u, shape, rate: gammaincinv(shape, u) / rate),
}


@dataclass(frozen=True)
class WeightLaw:
    """Named nonnegative edge-weight law with inverse-CDF sampling.

    The family, the parameter count and the parameter domain are checked at
    construction, so a law that exists can always sample.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _WEIGHT_LAWS:
            raise ValueError(f"unknown weight family {self.family!r}")
        count, domain, admissible, _ = _WEIGHT_LAWS[self.family]
        if len(self.params) != count:
            raise ValueError(f"weight family {self.family!r} takes {count} parameter(s), "
                             f"got {len(self.params)}")
        if not (all(np.isfinite(self.params)) and admissible(*self.params)):
            raise ValueError(f"weight family {self.family!r} needs finite parameters with "
                             f"{domain}, got {tuple(self.params)}")

    def sample(self, u: np.ndarray) -> np.ndarray:
        return _WEIGHT_LAWS[self.family][3](np.asarray(u, dtype=float), *self.params)


@dataclass(frozen=True)
class FppRule:
    """Min-plus growth: new cell = min(left + T1, right + T2), T i.i.d.;
    the two weights take two uniforms per cell."""

    weights: WeightLaw

    def sampler(self, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        if np.any(a < 0) or np.any(b < 0):
            raise ValueError("row values must be nonnegative")
        return np.minimum(a + self.weights.sample(u[:, 0]), b + self.weights.sample(u[:, 1]))


@dataclass(frozen=True)
class ModelInstance:
    """A runnable model: kernel (or particle rule), lattice and seed.  The open
    lattices "N" and "Z" shrink by one cell per step; a "cycle" wraps around."""

    kernel: object       # TransitionTensor | KernelDensity | TasepRule | FppRule
    lattice: str         # "N" | "Z" | "cycle"
    seed: int = 0

    def __post_init__(self):
        if self.lattice not in ("N", "Z", "cycle"):
            raise ValueError(f"unknown lattice {self.lattice!r}: need 'N', 'Z' or 'cycle'")
        if self.lattice == "cycle" and isinstance(self.kernel, TasepRule):
            raise ValueError("exclusion dynamics run on an open shrinking window only")


def _tensor_draw(tensor: TransitionTensor, a: np.ndarray, b: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the rows tensor.t[a, b] of the kernel's
    cumulative table."""
    return (tensor.cumulative[a, b] < u[:, None]).sum(axis=1)


def sample_hzmc_lines(hzmc: HzmcSpec, length: int, n_chains: int, seed: int) -> np.ndarray:
    """Zigzag samples (x0, y0, x1, y1, ...) as an (n_chains, length) array.

    Finite chains return state indices; continuous chains return reals.
    """
    # row i drives position i: the same stream, in the same order, as one
    # draw of n_chains uniforms per position
    draws = _line_rng(seed).random((length, n_chains))
    if hzmc.is_finite:
        # inverse-CDF draws from the cumulative rows
        cum_rho, cum_d, cum_u = (np.cumsum(m, axis=-1) for m in (hzmc.rho0, hzmc.d, hzmc.u))
        first = lambda u: (cum_rho < u[:, None]).sum(axis=1)
        down = lambda x, u: (cum_d[x] < u[:, None]).sum(axis=1)
        up = lambda x, u: (cum_u[x] < u[:, None]).sum(axis=1)
    else:
        first, down, up = hzmc.rho0.sampler, hzmc.d.sampler, hzmc.u.sampler
    out = np.empty((n_chains, length))
    cur = first(draws[0])
    out[:, 0] = cur
    for i in range(1, length):
        cur = (down if i % 2 == 1 else up)(cur, draws[i])
        out[:, i] = cur
    return out


def step_pca(line: np.ndarray, model: ModelInstance, t: int = 0) -> np.ndarray:
    """One synchronous update; cell j of the output is drawn from the kernel
    of input cells (j, j+1), the last cell of a cycle pairing with the first,
    using uniform row j of the (seed, t) block."""
    line = np.asarray(line)
    if line.size < 2:
        raise ValueError("width must be >= 2")
    if model.lattice == "cycle":
        a, b = line, np.roll(line, -1)
    else:
        a, b = line[:-1], line[1:]
    kernel = model.kernel
    u = row_uniforms(model.seed, t, a.size, 2 if isinstance(kernel, FppRule) else 1)
    if isinstance(kernel, TransitionTensor):
        return _tensor_draw(kernel, a.astype(int), b.astype(int), u[:, 0])
    return kernel.sampler(a, b, u)


DIAGRAM_MAGIC = b"ZPD1"


def write_diagram_csv(diagram: SpaceTimeDiagram, path) -> None:
    """One row per step, sites comma separated; shrunk rows are shorter."""
    with open(path, "w") as fh:
        for t in range(diagram.steps + 1):
            row = diagram.row(t)
            fh.write(("%.17g," * row.size)[:-1] % tuple(row.tolist()) + "\n")


def write_diagram_binary(diagram: SpaceTimeDiagram, path) -> None:
    """Compact dump: 16-byte header (magic 'ZPD1', u32 version=1, u32 width,
    u32 steps, little endian), then (steps+1) x width float64 row-major with
    NaN padding for absent cells."""
    header = DIAGRAM_MAGIC + np.array([1, diagram.width, diagram.steps],
                                      dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(diagram.states.astype("<f8").tobytes(order="C"))


def read_diagram_binary(path) -> SpaceTimeDiagram:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != DIAGRAM_MAGIC:
        raise ValueError("not a diagram dump (bad magic)")
    version, width, steps = np.frombuffer(raw[4:16], dtype="<u4")
    if version != 1:
        raise ValueError(f"unsupported dump version {version}")
    return SpaceTimeDiagram(np.frombuffer(raw[16:], dtype="<f8").reshape(steps + 1, width))


def simulate_diagram(model: ModelInstance, init: np.ndarray, t_steps: int) -> SpaceTimeDiagram:
    """Iterate the model from ``init``; a pure function of (seed, model, init).

    Open-window rows lose one cell per step and are NaN padded on the right;
    cyclic runs keep their width.
    """
    line = np.asarray(init, dtype=float)
    if line.size < 2:
        raise ValueError("width must be >= 2")
    if t_steps < 0:
        raise ValueError(f"need t_steps >= 0, got {t_steps}")
    if model.lattice != "cycle" and t_steps >= line.size:
        raise ValueError("shrinking window: need width > t_steps")
    states = np.full((t_steps + 1, line.size), np.nan)
    states[0] = line
    for t in range(t_steps):
        line = np.asarray(step_pca(line, model, t), dtype=float)
        states[t + 1, : line.size] = line
    return SpaceTimeDiagram(states)
