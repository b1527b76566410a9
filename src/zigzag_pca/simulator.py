"""Synchronous space-time simulation for the model zoo.

One step draws every new cell independently from the kernel of its two
neighbors.  On open windows the default boundary policy is the shrinking
window: a T-step run needs an initial width of at least final width + T, and
nothing is invented at the right edge.  An optional resampling policy keeps
the width constant by drawing the edge cell from a supplied marginal law;
it is approximate and labelled as such.  Cycles wrap around.

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

from .core_types import HzmcSpec, KernelDensity, SpaceTimeDiagram, TransitionTensor


def row_uniforms(seed: int, t: int, width: int, per_cell: int = 1) -> np.ndarray:
    """Uniform block for step t: shape (width, per_cell), site j owns row j."""
    bg = np.random.Philox(key=(int(seed) << 64) + int(t))
    return np.random.Generator(bg).random((width, per_cell))


def _line_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + (1 << 63)))


@dataclass(frozen=True)
class TasepRule:
    """Exclusion dynamics: radius r, hop distance v, move probability p."""

    r: float
    v: float
    p: float

    def __post_init__(self):
        if self.r < 0 or self.v < 0 or not (0 < self.p <= 1):
            raise ValueError("need r >= 0, v >= 0, and p in (0, 1]")


@dataclass(frozen=True)
class TasepConfig:
    """Particle positions plus rule; positions must keep the 2r spacing."""

    positions: np.ndarray
    r: float
    v: float
    p: float

    def __post_init__(self):
        x = np.array(self.positions, dtype=float)
        x.setflags(write=False)
        if x.ndim != 1 or x.size < 1:
            raise ValueError("positions must be a nonempty 1-d array")
        if x.size > 1 and not np.all(x[:-1] + 2 * self.r <= x[1:]):
            raise ValueError("inadmissible configuration: spacing below 2r")
        object.__setattr__(self, "positions", x)

    @property
    def rule(self) -> TasepRule:
        return TasepRule(self.r, self.v, self.p)


@dataclass(frozen=True)
class WeightLaw:
    """Named nonnegative edge-weight law with inverse-CDF sampling."""

    family: str
    params: tuple

    def sample(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.family == "dirac":
            (w,) = self.params
            return np.full_like(u, float(w))
        if self.family == "exp":
            (rate,) = self.params
            return -np.log1p(-u) / rate
        if self.family == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        if self.family == "gamma":
            shape, rate = self.params
            return gammaincinv(shape, u) / rate
        raise ValueError(f"unknown weight family {self.family!r}")


@dataclass(frozen=True)
class FppRule:
    """Min-plus growth: new cell = min(left + T1, right + T2), T i.i.d."""

    weights: WeightLaw


@dataclass(frozen=True)
class ModelInstance:
    """A runnable model: kernel (or particle rule), lattice, width, policy, seed."""

    kernel: object       # TransitionTensor | KernelDensity | TasepRule | FppRule
    lattice: str         # "N" | "Z" | "cycle"
    width: int
    boundary: str = "shrink"   # shrink | resample | cycle
    seed: int = 0
    edge_law: object = None    # marginal for the resample policy

    def __post_init__(self):
        if self.width < 2:
            raise ValueError("width must be >= 2")
        if self.lattice == "cycle" and self.boundary != "cycle":
            object.__setattr__(self, "boundary", "cycle")
        if self.boundary == "resample" and self.edge_law is None:
            raise ValueError("resample policy needs an edge law")


def _finite_draw(matrix: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of next states from per-state rows of a stochastic matrix."""
    cum = np.cumsum(matrix, axis=1)
    return (cum[states] < u[:, None]).sum(axis=1)


def _tensor_draw(t: np.ndarray, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(t[a, b], axis=1)
    return (cum < u[:, None]).sum(axis=1)


def sample_hzmc_lines(hzmc: HzmcSpec, length: int, n_chains: int, seed: int) -> np.ndarray:
    """Zigzag samples (x0, y0, x1, y1, ...) as an (n_chains, length) array.

    Finite chains return state indices; continuous chains return reals.
    """
    rng = _line_rng(seed)
    out = np.empty((n_chains, length))
    if hzmc.is_finite:
        d, u, rho0 = hzmc.d, hzmc.u, hzmc.rho0
        cum0 = np.cumsum(rho0)
        cur = (cum0 < rng.random(n_chains)[:, None]).sum(axis=1)
        out[:, 0] = cur
        for i in range(1, length):
            mat = d if i % 2 == 1 else u
            cur = _finite_draw(mat, cur, rng.random(n_chains))
            out[:, i] = cur
        return out
    cur = hzmc.rho0.sampler(rng.random(n_chains))
    out[:, 0] = cur
    for i in range(1, length):
        kern = hzmc.d if i % 2 == 1 else hzmc.u
        cur = kern.sampler(cur, rng.random(n_chains))
        out[:, i] = cur
    return out


def sample_hzmc_line(hzmc: HzmcSpec, length: int, seed: int) -> np.ndarray:
    """Single zigzag sample; see sample_hzmc_lines."""
    return sample_hzmc_lines(hzmc, length, 1, seed)[0]


def _uniforms_per_cell(kernel) -> int:
    if isinstance(kernel, KernelDensity):
        return kernel.uniforms_per_cell
    if isinstance(kernel, FppRule):
        return 2
    return 1


def step_pca(line: np.ndarray, model: ModelInstance, t: int = 0) -> np.ndarray:
    """One synchronous update; cell j of the output is drawn from the kernel
    of input cells (j, j+1) using uniform row j of the (seed, t) block."""
    line = np.asarray(line)
    kernel = model.kernel
    if isinstance(kernel, TasepRule):
        if model.boundary not in ("shrink",):
            raise ValueError("exclusion dynamics run on an open shrinking window only")
        cfg = TasepConfig(line, kernel.r, kernel.v, kernel.p)
        # drop the rightmost particle: its update would need an unknown
        # neighbor, and the first n-1 updates do not depend on the edge rule
        return tasep_step(cfg, model.seed, t).positions[:-1]
    if isinstance(kernel, FppRule):
        return fpp_step(line, kernel.weights, model.seed, t)

    per = _uniforms_per_cell(kernel)
    if model.boundary == "cycle":
        a = line
        b = np.roll(line, -1)
        u = row_uniforms(model.seed, t, line.size, per)
        if isinstance(kernel, TransitionTensor):
            return _tensor_draw(kernel.t, a.astype(int), b.astype(int), u[:, 0])
        return kernel.sampler(a, b, u)

    a = line[:-1]
    b = line[1:]
    u = row_uniforms(model.seed, t, line.size, per)
    if isinstance(kernel, TransitionTensor):
        new = _tensor_draw(kernel.t, a.astype(int), b.astype(int), u[: line.size - 1, 0])
    else:
        new = kernel.sampler(a, b, u[: line.size - 1])
    if model.boundary == "resample":
        edge_u = u[line.size - 1]
        if isinstance(model.edge_law, np.ndarray):
            cum = np.cumsum(model.edge_law)
            edge = float((cum < edge_u[0]).sum())
        else:
            edge = model.edge_law.sampler(edge_u[:1])[0]
        new = np.append(new, edge)
    return new


def tasep_step(config: TasepConfig, seed: int, t: int = 0) -> TasepConfig:
    """Each particle hops with probability p to min(x + v, next - 2r); the
    rightmost one moves unobstructed.  Spacing is preserved exactly."""
    x = config.positions
    u = row_uniforms(seed, t, x.size, 1)[:, 0]
    ahead = np.append(x[1:] - 2 * config.r, np.inf)
    target = np.minimum(x + config.v, ahead)
    new = np.where(u < config.p, target, x)
    return TasepConfig(new, config.r, config.v, config.p)


def fpp_step(row: np.ndarray, weight_law: WeightLaw, seed: int, t: int = 0) -> np.ndarray:
    """Min-plus recursion with fresh i.i.d. edge weights; output shrinks by one."""
    row = np.asarray(row, dtype=float)
    if np.any(row < 0):
        raise ValueError("row values must be nonnegative")
    u = row_uniforms(seed, t, row.size - 1, 2)
    t1 = weight_law.sample(u[:, 0])
    t2 = weight_law.sample(u[:, 1])
    return np.minimum(row[:-1] + t1, row[1:] + t2)


DIAGRAM_MAGIC = b"ZPD1"


def write_diagram_csv(diagram: SpaceTimeDiagram, path) -> None:
    """One row per step, sites comma separated; shrunk rows are shorter."""
    with open(path, "w") as fh:
        for t in range(diagram.steps + 1):
            fh.write(",".join(format(v, ".17g") for v in diagram.row(t)))
            fh.write("\n")


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
    states = np.frombuffer(raw[16:], dtype="<f8").reshape(steps + 1, width)
    return SpaceTimeDiagram(lattice="N", width=int(width), steps=int(steps),
                            states=states.copy(), seed=0)


def simulate_diagram(model: ModelInstance, init: np.ndarray, t_steps: int) -> SpaceTimeDiagram:
    """Iterate the model from ``init``; a pure function of (seed, model, init).

    Shrinking-window rows lose one cell per step and are NaN padded on the
    right; TASEP and cyclic runs keep their width.
    """
    line = np.asarray(init, dtype=float)
    if t_steps < 0:
        raise ValueError(f"need t_steps >= 0, got {t_steps}")
    if line.size != model.width:
        raise ValueError(f"init width {line.size} != model width {model.width}")
    if model.boundary == "shrink" and t_steps >= model.width:
        raise ValueError("shrinking window: need width > t_steps")
    states = np.full((t_steps + 1, model.width), np.nan)
    states[0, : line.size] = line
    for t in range(t_steps):
        line = np.asarray(step_pca(line, model, t), dtype=float)
        states[t + 1, : line.size] = line
    return SpaceTimeDiagram(lattice=model.lattice, width=model.width,
                            steps=t_steps, states=states, seed=model.seed)
