"""Seeded model and spec files plus the fixed command list of each workload.

Every tensor is built here from the workload seed, with no call into the
package, so a later change to the package's own instance generators leaves
the benchmark inputs unchanged.  Files are written in the documented model
format: decimal strings with 17 significant digits, and cyclic lattices as
``{"cycle": n}``.  The same (workload, seed) always yields byte-identical
files; ``run.py`` checks that on every run.

Sizes stay inside the package's size guards (kappa^(2k+3) <= 1e7 on the half
line, kappa^(2n) <= 1e7 on cycles): inputs beyond them end in an uncaught
exception today, and that defect is not what this benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

# Seed of the Monte-Carlo part of the Gaussian ``verify``.  That part is a
# Kolmogorov-Smirnov test at level about 0.01, so any seed fails it with
# probability about 0.01; a fixed seed keeps its verdict the same on every
# workload seed.  With m and sigma fixed the verdict is a known pass.
GAUSS_VERIFY_SEED = 11

GAUSSIAN = {"family": "gaussian", "m": 3, "sigma": 1}
GAUSSIAN_DIAG = {"family": "gaussian_diag", "m": 3, "sigma": 1}
BETA = {"family": "beta", "alpha": 1, "beta": 1, "m": 1, "theta": 1}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome it must produce.

    ``fails``: conditions that must be reported as failed (with
    ``fails_exact`` no other condition may fail).  ``passes``: conditions
    that must be reported with residual <= tolerance.  ``notes``: condition
    -> required notes text.  ``spec``: type of the spec file a passing
    ``solve`` writes.  ``shape``: (width, steps) of a ``simulate``.
    """

    name: str
    kind: str
    argv: tuple
    exit: int
    fails: tuple = ()
    fails_exact: bool = False
    passes: tuple = ()
    notes: dict = field(default_factory=dict)
    spec: str | None = None
    shape: tuple | None = None
    kappa: int | None = None

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


def _enc(a):
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return format(float(a), ".17g")
    return [_enc(sub) for sub in a]


def _stochastic(rng, k: int) -> np.ndarray:
    m = rng.uniform(0.05, 1.05, size=(k, k))
    return m / m.sum(axis=1, keepdims=True)


def factorized_tensor(rng, kappa: int) -> np.ndarray:
    """t[a,b,c] = d[a,c] u[c,b] / (du)[a,b] with commuting stochastic d, u
    taken as polynomials in one random positive stochastic matrix."""
    m = _stochastic(rng, kappa)
    alpha, beta = rng.uniform(0.3, 0.9, size=2)
    d = (1 - alpha) * np.eye(kappa) + alpha * m
    u = beta * m + (1 - beta) * (m @ m)
    t = d[:, None, :] * u.T[None, :, :] / (d @ u)[:, :, None]
    return t / t.sum(axis=2, keepdims=True)


def generic_tensor(rng, kappa: int) -> np.ndarray:
    """Strictly positive kernel with independent rows; almost surely fails
    the quartic identity."""
    t = rng.uniform(0.05, 1.05, size=(kappa, kappa, kappa))
    return t / t.sum(axis=2, keepdims=True)


def finite_model(t: np.ndarray, lattice) -> dict:
    return {"alphabet": {"labels": [str(i) for i in range(t.shape[0])]},
            "kernel": {"tensor": _enc(t)},
            "lattice": lattice}


def grid_model(family: dict, points: int) -> dict:
    return {"alphabet": {"grid": {"points": points}}, "kernel": dict(family), "lattice": "N"}


def noncommuting_hzmc(rng, kappa: int) -> dict:
    """Half-line spec with independent random d and u, which do not commute."""
    rho0 = rng.uniform(0.5, 1.5, size=kappa)
    return {"type": "hzmc", "lattice": "N", "d": _enc(_stochastic(rng, kappa)),
            "u": _enc(_stochastic(rng, kappa)), "rho0": _enc(rho0 / rho0.sum())}


def noncommuting_chzmc(rng, kappa: int, n: int) -> dict:
    """Cycle spec with independent random d and u, which do not commute."""
    return {"type": "chzmc", "n": n, "d": _enc(_stochastic(rng, kappa)),
            "u": _enc(_stochastic(rng, kappa))}


def _rng(workload: str, seed: int):
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _finite_decide(rng, f, seed):
    cmds, files = [], {}
    for kappa in (12, 14, 16):
        fac, gen = f"fac{kappa}", f"gen{kappa}"
        files[fac] = finite_model(factorized_tensor(rng, kappa), "N")
        files[gen] = finite_model(generic_tensor(rng, kappa), "N")
        cmds += [
            Command(f"check-{fac}", "check", ("check", "--model", f(fac)), 0, kappa=kappa),
            Command(f"solve-{fac}", "solve", ("solve", "--model", f(fac), "--out", f(fac + "-spec")),
                    0, spec="hzmc", kappa=kappa),
            Command(f"verify-{fac}", "verify", ("verify", "--model", f(fac), "--spec", f(fac + "-spec"),
                                                "--kmax", "1"),
                    0, passes=("push-forward-oracle",), kappa=kappa),
            Command(f"check-{gen}", "check", ("check", "--model", f(gen)), 1,
                    fails=("quartic-identity",), kappa=kappa),
            Command(f"solve-{gen}", "solve", ("solve", "--model", f(gen), "--out", f(gen + "-spec")),
                    1, fails=("quartic-identity",), kappa=kappa),
        ]
    return cmds, files


# (kappa, window): kmax on the half line, n on cycles.  Each is the largest
# the size guard admits for its kappa, except kappa 2 on the half line: at
# kmax 10 that one verify took half of the pass, and too few pairs of it fit
# in a run for a steady ratio to the reference (see NOTES.md).
_HALF_LINE = ((2, 9), (3, 5))
_CYCLES = ((2, 11), (3, 7))


def _oracle_window(rng, f, seed):
    cmds, files = [], {}
    runs = [(f"half{k}", k, "N", w) for k, w in _HALF_LINE]
    runs += [(f"cycle{k}n{w}", k, {"cycle": w}, w) for k, w in _CYCLES]
    for name, kappa, lattice, window in runs:
        files[name] = finite_model(factorized_tensor(rng, kappa), lattice)
        half = lattice == "N"
        verify = ("verify", "--model", f(name), "--spec", f(name + "-spec"))
        cmds += [
            Command(f"check-{name}", "check", ("check", "--model", f(name)), 0, kappa=kappa),
            Command(f"solve-{name}", "solve", ("solve", "--model", f(name), "--out", f(name + "-spec")),
                    0, spec="hzmc" if half else "chzmc", kappa=kappa),
            Command(f"verify-{name}", "verify", verify + (("--kmax", str(window)) if half else ()),
                    0, passes=("push-forward-oracle",) if half else ("cycle-push-forward-oracle",),
                    kappa=kappa),
        ]
    # d and u drawn independently do not commute: the half-line oracle must
    # fail, and the cycle check must take the full sweep and fail
    kappa, kmax = _HALF_LINE[1]
    files["nc-half-spec"] = noncommuting_hzmc(rng, kappa)
    cmds.append(Command("verify-nc-half", "verify",
                        ("verify", "--model", f(f"half{kappa}"), "--spec", f("nc-half-spec"),
                         "--kmax", str(kmax)),
                        1, fails=("push-forward-oracle",), kappa=kappa))
    kappa, n = _CYCLES[1]
    files["nc-cycle-spec"] = noncommuting_chzmc(rng, kappa, n)
    cmds.append(Command("verify-nc-cycle", "verify",
                        ("verify", "--model", f(f"cycle{kappa}n{n}"), "--spec", f("nc-cycle-spec")),
                        1, fails=("cycle-commutation", "cycle-push-forward-oracle"),
                        notes={"cycle-commutation": "decided by full cycle sweep"}, kappa=kappa))
    return cmds, files


def _grid_check(rng, f, seed):
    files = {"gauss129": grid_model(GAUSSIAN, 129), "gauss257": grid_model(GAUSSIAN, 257),
             "gdiag257": grid_model(GAUSSIAN_DIAG, 257), "beta257": grid_model(BETA, 257)}
    cmds = [
        Command("check-gauss129", "check", ("check", "--model", f("gauss129")), 0),
        Command("check-gauss257", "check", ("check", "--model", f("gauss257")), 0),
        Command("check-gdiag257", "check", ("check", "--model", f("gdiag257")), 0,
                passes=("mu-equivalence",)),
        Command("check-beta257", "check", ("check", "--model", f("beta257")), 1,
                fails=("stationarity",), fails_exact=True),
        Command("solve-gauss257", "solve", ("solve", "--model", f("gauss257"),
                                            "--out", f("gauss257-spec")), 0, spec="hzmc"),
        Command("verify-gauss257", "verify", ("verify", "--model", f("gauss257"),
                                              "--spec", f("gauss257-spec"),
                                              "--seed", str(GAUSS_VERIFY_SEED)),
                0, passes=("monte-carlo-stationarity",)),
    ]
    return cmds, files


# (width, steps): wide and short, where sampling the initial zigzag line is
# most of the compute; narrow and long, where per-step stepping is.
SIM_SHAPES = {"wide": (4_001, 100), "long": (601, 500)}


def _simulate(rng, f, seed):
    files = {"fac4": finite_model(factorized_tensor(rng, 4), "N"),
             "gauss": grid_model(GAUSSIAN, 257)}
    cmds = []
    for model in files:
        for shape, (width, steps) in SIM_SHAPES.items():
            out = f"{model}-{shape}"
            cmds.append(Command(f"simulate-{out}", "simulate",
                                ("simulate", "--model", f(model), "--width", str(width),
                                 "--steps", str(steps), "--seed", str(seed),
                                 "--out", os.path.splitext(f(out))[0]),
                                0, shape=(width, steps)))
    return cmds, files


# workload -> f(rng, path of a named file, seed) -> (commands, files)
_WORKLOAD_INPUTS = {"finite-decide": _finite_decide, "oracle-window": _oracle_window,
                    "grid-check": _grid_check, "simulate": _simulate}
WORKLOADS = tuple(_WORKLOAD_INPUTS)


def build(workload: str, seed: int, workdir: str) -> tuple[list[Command], str]:
    """Write the workload's input files under ``workdir``; return its
    command list, whose paths point into ``workdir``, and a SHA-256 over the
    names and bytes of the files written."""
    def f(name):
        return os.path.join(workdir, name + ".json")

    cmds, files = _WORKLOAD_INPUTS[workload](_rng(workload, seed), f, seed)
    os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    for name, doc in files.items():
        text = json.dumps(doc, indent=1) + "\n"
        with open(f(name), "w") as fh:
            fh.write(text)
        digest.update(name.encode() + b"\0" + text.encode())
    return cmds, digest.hexdigest()
