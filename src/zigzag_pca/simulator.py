"""Synchronous space-time simulation of a finite or continuous kernel.

One step draws every new cell independently from the kernel of its two
neighbors (j, j+1).  On the open lattices "N" and "Z" the window shrinks: a
T-step run needs an initial width of at least final width + T, and nothing is
invented at the right edge.  On a cycle the last cell pairs with the first,
so the width stays.

Randomness is counter based.  Step t of a run seeded with s consumes the
block ``row_uniforms(s, t, width)``: a Philox stream keyed by (s, t), whose
uniform j site j owns.  Identical (seed, model, init) give bitwise identical
diagrams, no matter how the work is scheduled.  A counter-based stream is
fixed by its key and counter, so each thread keeps one Philox and re-keys
it for every block, made on first use.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from .core_types import HzmcSpec, SpaceTimeDiagram, TransitionTensor, threaded_map, usable_cpus


_ROW_STREAM = threading.local()     # .generator: this thread's re-keyed Philox
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_ZEROS.setflags(write=False)


def row_uniforms(seed: int, t: int, width: int) -> np.ndarray:
    """Uniform block for step t: shape (width,), site j owns entry j.

    The bits of ``Generator(Philox(key=(seed << 64) + t)).random(width)``:
    this thread's Philox is set to that key, counter 0 and an empty buffer."""
    key = (int(seed) << 64) + int(t)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"row stream key (seed {seed}, step {t}) must be in [0, 2**128)")
    gen = getattr(_ROW_STREAM, "generator", None)
    if gen is None:
        gen = _ROW_STREAM.generator = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer": _PHILOX_ZEROS, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": _PHILOX_ZEROS,
                  "key": np.array([key & (1 << 64) - 1, key >> 64], dtype=np.uint64)}}
    return gen.random(width)


def _line_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + (1 << 63)))


@dataclass(frozen=True)
class ModelInstance:
    """A runnable model: kernel, lattice and seed.  The open lattices "N" and
    "Z" shrink by one cell per step; a "cycle" wraps around."""

    kernel: object       # TransitionTensor | KernelDensity
    lattice: str         # "N" | "Z" | "cycle"
    seed: int = 0

    def __post_init__(self):
        if self.lattice not in ("N", "Z", "cycle"):
            raise ValueError(f"unknown lattice {self.lattice!r}: need 'N', 'Z' or 'cycle'")


_LINE_CHUNK = 1 << 16      # noise cells a line sampler holds at once


def sample_hzmc_lines(hzmc: HzmcSpec, length: int, n_chains: int, seed: int) -> np.ndarray:
    """Zigzag samples (x0, y0, x1, y1, ...) as an (n_chains, length) array.

    Finite chains return state indices; continuous chains return reals.
    """
    # row i drives position i: the same stream, in the same order, as one
    # draw of n_chains uniforms per position.  The rows come in chunks of
    # about _LINE_CHUNK uniforms, each chain's state carried from one chunk
    # to the next.  A finite step reads its uniform as it is; a continuous
    # leg maps a chunk's rows to noise in one call.
    rng = _line_rng(seed)
    if hzmc.is_finite:
        # a cumulative row never decreases, so a draw counts its entries below
        # u; like the step's search table, only the first kappa - 1 count, so
        # a row total rounded below u draws the last letter and not kappa
        last = hzmc.rho0.size - 1
        first = (np.cumsum(hzmc.rho0)[:last] < rng.random(n_chains)[:, None]).sum(axis=1)
        cum_d, cum_u = (np.cumsum(m, axis=1).tolist() for m in (hzmc.d, hzmc.u))
        legs = (lambda x, u: bisect_left(cum_d[x], u, 0, last),
                lambda x, u: bisect_left(cum_u[x], u, 0, last))
        carry = int
    else:
        first = hzmc.rho0.sampler(rng.random(n_chains))
        legs = (hzmc.d.step, hzmc.u.step)
        carry = float

    def walk(x, innovations, order):
        for step, e in zip(cycle(order), innovations):
            x = step(x, e)
            yield x

    out = np.empty((n_chains, length))
    out[:, 0] = first
    xs = first.tolist()
    rows = max(1, _LINE_CHUNK // n_chains)
    for lo in range(1, length, rows):
        hi = min(lo + rows, length)
        noise = rng.random((hi - lo, n_chains))
        down = 1 - lo % 2           # the chunk's first row of the down leg
        if not hzmc.is_finite:
            noise[down::2], noise[1 - down::2] = (hzmc.d.noise(noise[down::2]),
                                                  hzmc.u.noise(noise[1 - down::2]))
        order = legs if down == 0 else legs[::-1]
        for c, x in enumerate(xs):
            out[c, lo:hi] = np.fromiter(walk(x, noise[:, c].tolist(), order), float, hi - lo)
        xs = [carry(x) for x in out[:, hi - 1].tolist()]
    return out


def step_pca(line: np.ndarray, model: ModelInstance, t: int = 0) -> np.ndarray:
    """One synchronous update; cell j of the output is drawn from the kernel
    of input cells (j, j+1), the last cell of a cycle pairing with the first,
    with uniform j of the (seed, t) block.  The cells of a finite line must
    be letters 0 .. kappa - 1; ``simulate_diagram`` checks its ``init``."""
    line = np.asarray(line)
    if line.size < 2:
        raise ValueError("width must be >= 2")
    if isinstance(model.kernel, TransitionTensor):
        line = line.astype(np.intp)
    if model.lattice == "cycle":
        a, b = line, np.roll(line, -1)
    else:
        a, b = line[:-1], line[1:]
    return model.kernel.sampler(a, b, row_uniforms(model.seed, t, a.size))


DIAGRAM_MAGIC = b"ZPD1"


# The CSV writer prints every live cell exactly as format(v, ".17g"), in
# blocks of cells across rows.  A cell of 1e-4 <= |v| < 1e16 prints in fixed
# notation from its exponent X and 17-digit significand
# D = round-half-even(|v| * 10**(16 - X)).  The digits of D, as the 20 chars
# "000" + D in five 4-char words, go twice into a per-cell template of 13 words:
#   [3 unused, sign] [digits] ['.', 3 unused] [digits] [separator, 3 unused]
# A row of _MASK, chosen by (X, significant digits, sign), keeps the integer
# digits from the first copy and the fraction digits from the second; the
# "000" pad supplies the zeros of "0.000ddd".  The templates are filled and
# gathered in _CSV_GATHERS pieces of a block, so only a piece's are held.  A
# block of whole numbers in [0, 1e4) uses a 2-word template [4 digits]
# [separator].  Every other cell (zero, exponent notation, subnormals,
# infinities) keeps only its separator, and Python's text for it is spliced
# in before it.
#
# Where the process may use two CPUs or more, the caller and one worker
# thread take alternate blocks, and the caller writes them in order, so at
# most two blocks are in flight.  A float block peaks at about 80 bytes a
# cell.  Smaller blocks, or more threads, lose to the GIL: every numpy call
# holds it a while, and at 4096 cells two threads formatted slower than one.
_CSV_BLOCK = 16384
_CSV_GATHERS = 4
_POW10 = 10.0 ** np.arange(23)                  # exact doubles
# words ",", "\n" (the separators, by newline flag), "   -" and "."
_SEP, _SIGN, _DOT = np.split(np.array([[44, 0, 0, 0], [10, 0, 0, 0], [0, 0, 0, 45], [46, 0, 0, 0]],
                                      dtype=np.uint8).view(np.uint32).ravel(), [2, 3])


def _split(x):
    """Dekker's split: x = hi + lo exactly, each with at most 26 significant
    bits; lo takes the place of x."""
    hi = 134217729.0 * x
    t = hi - x
    np.subtract(hi, t, out=hi)
    return hi, np.subtract(x, hi, out=x)


def _csv_tables():
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)     # of 0 .. 9999
    words = np.ascontiguousarray(digits.T + 48).view(np.uint32).ravel()   # "0042"
    zero = digits == 0

    def run(flags):     # length of the run of zero digits at the start of flags
        return flags[0].view(np.uint8) + (flags[0] & flags[1]) + (flags[0] & flags[1] & flags[2])

    width = 4 - run(zero)                               # digits of n as an integer
    # chars of "000" + D up to the last nonzero digit, read from word k = n
    ends = np.where(zero.all(axis=0), 0, 4 * np.arange(5, dtype=np.uint8)[:, None] + 4
                    - run(zero[::-1]))
    # _MASK[x + 4, nd, neg]: the bytes printed by a cell of exponent x, nd
    # significant digits (0 for a cell left to Python) and sign neg
    pos = np.arange(52)
    x, nd, neg = (v[..., None] for v in np.ogrid[-4:16, :18, :2])
    int_from, int_to = 3 - (x < 0), np.maximum(4 + x, 3)        # chars of the first copy
    frac_from, frac_to = 4 + x, np.maximum(3 + nd, 4 + x)       # chars of the second copy
    mask = ((pos == 3) & (neg == 1)
            | (pos >= 4 + int_from) & (pos < 4 + int_to)
            | (pos == 24) & (frac_to > frac_from)
            | (pos >= 28 + frac_from) & (pos < 28 + frac_to)) & (nd > 0) | (pos == 48)
    mask = mask.reshape(-1, 52)
    # _INT_MASK[width] for the 2-word template of a whole number below 1e4
    int_mask = (pos[:8] >= 4 - np.arange(5)[:, None]) & (pos[:8] < 4) | (pos[:8] == 4)
    return (words, width, ends.ravel(), mask, mask.sum(axis=1, dtype=np.uint8), int_mask,
            int_mask.sum(axis=1, dtype=np.uint8))


_WORD4, _WIDTH4, _ENDS, _MASK, _MASK_LEN, _INT_MASK, _INT_MASK_LEN = _csv_tables()
_SPLIT10 = _split(_POW10.copy())
_GROUP = 10_000 * np.arange(5)


def _significand(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**(16 - x)) exactly, for a product in [2**53, 2**63):
    hi is then an even integer and hi + lo the exact product (two-product).
    The terms of lo are summed in place, in the order of
    ((ah ph - hi) + ah pl + al ph) + al pl.  a is overwritten."""
    p = np.subtract(16, x, dtype=np.intp)
    hi = _POW10.take(p)
    hi *= a
    ph, pl = _SPLIT10[0].take(p), _SPLIT10[1].take(p)
    del p
    ah, al = _split(a)
    lo = ah * ph
    lo -= hi
    ah *= pl
    lo += ah
    del ah
    ph *= al
    lo += ph
    del ph
    pl *= al
    lo += pl
    del pl, al
    d = hi.astype(np.int64)
    del hi
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


def _format_fixed(v: np.ndarray, words: np.ndarray):
    """Fill words[:, :5] with the digit words of cells v, "000" + D; returns
    the key of each cell into _MASK and the indices of the cells left to
    Python.  Each temporary goes after its last use, which keeps a block's
    peak near 80 bytes a cell."""
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e16)
    a[~fixed] = 1.0
    x = np.log10(a)
    x = np.clip(np.floor(x, out=x), -4, 15, out=x).astype(np.int16)
    d = _significand(a, x)
    del a
    step = (d >= 10 ** 17).view(np.int8) - (d < 10 ** 16)
    off = np.flatnonzero(step)
    if off.size:            # log10 fell on the wrong side of a power of ten
        x[off] = np.clip(x[off] + step[off], -4, 15)
        d[off] = dx = _significand(np.abs(v[off]), x[off])
        fixed[off] &= (dx >= 10 ** 16) & (dx < 10 ** 17)       # the clip held x back
    del step, off
    # the groups of "000" + D: lead digit, then four groups of 4 digits.  The
    # 9- and 8-digit halves of D, in rows 2 and 4, split together; then each
    # split row loses 10**4 times its quotient, with d as scratch
    groups = np.empty((5, v.size), dtype=np.intp)
    np.floor_divide(d, 10 ** 8, out=groups[2])
    np.subtract(d, np.multiply(groups[2], 10 ** 8, out=groups[4]), out=groups[4])
    np.floor_divide(groups[2::2], 10 ** 4, out=groups[1::2])
    np.floor_divide(groups[1], 10 ** 4, out=groups[0])
    for q in (1, 3, 0):
        groups[q + 1] -= np.multiply(groups[q], 10 ** 4, out=d)
    del d
    for g, row in enumerate(groups):
        np.take(_WORD4, row, out=words[:, g], mode="clip")
    groups += _GROUP[:, None]
    nd = _ENDS.take(groups).max(axis=0) - 3
    del groups
    key = ((x + 4) * 18 + nd) * 2 + np.signbit(v)
    left = ~fixed
    key[left] = 0
    return key, np.flatnonzero(left)


def _row_ends(states: np.ndarray) -> np.ndarray:
    """Flat index of the last live cell of each row, -1 for a row with none."""
    rows, width = states.shape
    ends = np.full(rows, -1, dtype=np.int64)
    step = max(1, _CSV_BLOCK // max(width, 1))
    for t in range(0, rows if width else 0, step):
        live = ~np.isnan(states[t:t + step, ::-1])
        has = live.any(axis=1)
        last = (np.arange(t, t + len(live)) + 1) * width - 1 - live.argmax(axis=1)
        ends[t:t + step][has] = last[has]
    return ends


def _gather(words: np.ndarray, newline: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The bytes that the _MASK rows ``key`` keep of the cells' 13-word
    templates, which their digit words and separators (by ``newline`` flag)
    fill, _CSV_GATHERS pieces at a time."""
    if key.size and (key.min() < 0 or key.max() >= len(_MASK)):
        raise ValueError("CSV cell key outside the _MASK rows")     # "clip" would hide it
    piece = -(-key.size // _CSV_GATHERS)
    cells = np.empty((min(piece, key.size), 13), dtype=np.uint32)
    cells[:, 0], cells[:, 6] = _SIGN, _DOT
    mask = np.empty((len(cells), 52), dtype=bool)
    texts = []
    for lo in range(0, key.size, piece):
        part, n = slice(lo, lo + piece), min(piece, key.size - lo)
        cells[:n, 1:6] = cells[:n, 7:12] = words[part]
        np.take(_SEP, newline[part], out=cells[:n, 12], mode="clip")
        texts.append(cells[:n].view(np.uint8)[_MASK.take(key[part], axis=0, out=mask[:n],
                                                         mode="clip")])
    del cells, mask
    return np.concatenate(texts)


def _in_block(positions: np.ndarray, s: int, size: int) -> np.ndarray:
    """The sorted flat positions that fall in the block [s, s + size), from s."""
    lo, hi = np.searchsorted(positions, [s, s + size])
    return positions[lo:hi] - s


def _format_block(block: np.ndarray, line_ends: np.ndarray, empty_rows: np.ndarray) -> list:
    """The text of a block of cells, as the pieces to write in order;
    ``line_ends`` and ``empty_rows`` are the block positions of the last
    live cell of a row and of the start of a row with no live cell."""
    at = np.flatnonzero(~np.isnan(block))
    v = block[at]
    newline = np.zeros(v.size, dtype=np.uint8)
    newline[np.searchsorted(at, line_ends)] = 1
    # text spliced in before a live cell: the line of a row with no live
    # cell, and Python's text of a cell before its separator
    splice = [(i, 0, b"\n") for i in np.searchsorted(at, empty_rows).tolist()]
    del at
    if not v.size or (v.min() >= 0 and v.max() < 10_000 and np.all(v == np.floor(v))
                      and not np.signbit(v).any()):
        n = v.astype(np.intp)
        width = _WIDTH4.take(n)
        out = np.stack([_WORD4.take(n), _SEP.take(newline)], axis=1).view(np.uint8)[
            _INT_MASK.take(width, axis=0)]
        length, key = _INT_MASK_LEN, width      # a cell's text is length[key] bytes
    else:
        words = np.empty((v.size, 5), dtype=np.uint32)
        key, rest = _format_fixed(v, words)
        splice += [(i, 1, format(v[i], ".17g").encode()) for i in rest.tolist()]
        del v
        out = _gather(words, newline, key)
        length = _MASK_LEN
    if not splice:
        return [out]
    starts = np.zeros(key.size + 1, dtype=np.intp)      # of each cell's text, and the end
    np.cumsum(length.take(key), out=starts[1:])
    pieces, done = [], 0
    for i, _, text in sorted(splice):
        cut = starts[i]
        pieces += [out[done:cut], text]
        done = cut
    return pieces + [out[done:]]


def write_diagram_csv(diagram: SpaceTimeDiagram, path) -> None:
    """One row per step, its live (non-NaN) cells comma separated, each
    written as ``format(v, ".17g")``; shrunk rows are shorter, and a row with
    no live cell is an empty line.  The bytes do not depend on how many
    threads format the blocks."""
    flat = diagram.states.reshape(-1)
    ends = _row_ends(diagram.states)
    row_ends = ends[ends >= 0]
    empty_rows = np.flatnonzero(ends < 0) * diagram.width
    starts = range(0, max(flat.size, 1), _CSV_BLOCK)

    def block(s):
        return _format_block(flat[s:s + _CSV_BLOCK], _in_block(row_ends, s, _CSV_BLOCK),
                             _in_block(empty_rows, s, _CSV_BLOCK))

    with open(path, "wb") as fh:    # the caller and at most one worker take alternate blocks
        for text in threaded_map(block, starts, min(2, usable_cpus())):
            fh.writelines(text)
            del text        # not held while the next block is formatted


def write_diagram_binary(diagram: SpaceTimeDiagram, path) -> None:
    """Compact dump: 16-byte header (magic 'ZPD1', u32 version=1, u32 width,
    u32 steps, little endian), then (steps+1) x width float64 row-major with
    NaN padding for absent cells."""
    header = DIAGRAM_MAGIC + np.array([1, diagram.width, diagram.steps],
                                      dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(diagram.states, dtype="<f8"))


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
    if isinstance(model.kernel, TransitionTensor) and not (
            line.min() >= 0 and line.max() < model.kernel.size):
        raise ValueError(f"init cells must be letters in [0, {model.kernel.size})")
    states = np.full((t_steps + 1, line.size), np.nan)
    states[0] = line
    for t in range(t_steps):
        line = np.asarray(step_pca(line, model, t), dtype=float)
        states[t + 1, : line.size] = line
    states.setflags(write=False)        # the diagram takes it without a copy
    return SpaceTimeDiagram(states)
