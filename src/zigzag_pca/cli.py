"""Command-line surface: check, solve, verify, simulate, report.

Exit codes: 0 everything passed, 1 a condition failed, 2 bad input
(unreadable or malformed files, parameters outside their domain).  All
randomness flows from --seed; reports embed the seed, grid and tolerance so
runs are reproducible from the JSON alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import continuous_kernels as ck
from . import finite_solver as fs
from . import lattice_ext as lx
from . import simulator as sim
from . import stats as st
from .core_types import (EXACT_TOL, QUAD_TOL, CheckReport, ChzmcSpec, HzmcSpec,
                         ModelFormatError, decode_array, encode_array, gauss_legendre_grid,
                         load_model, number_field, save_document)


def _read_params(cls, block):
    """``cls`` from the kernel block's fields of the same names: one
    ``number_field`` per dataclass field, in field order."""
    return cls(*(number_field(block.get(f.name), f"kernel field {f.name!r}") for f in fields(cls)))


def _fpp_rule(block) -> sim.FppRule:
    weights = block.get("weight_params", [1.0])
    if not isinstance(weights, list):
        raise ValueError(f"kernel field 'weight_params' must be a list, got {weights!r}")
    law = tuple(number_field(w, "kernel field 'weight_params'") for w in weights)
    return sim.FppRule(sim.WeightLaw(block.get("weight_family", "exp"), law))


@dataclass(frozen=True)
class Family:
    """What the commands know of one kernel kind: a named family, or ``FINITE``,
    which no model file names.

    ``params`` reads a family's kernel block (a finite model's parameters are
    its tensor): ``_read_params`` of the family's parameter class, or FPP's
    ``_fpp_rule``.  ``kernel`` is what simulate steps and ``battery`` the
    kernel the condition battery runs on; where they differ, check also
    probes that the two agree off a null set.  ``chain`` is what simulate
    draws its first line from and the battery tests (check reports its
    ``meta`` but the family name); ``init`` is the first line without one.
    """

    kernel: Callable                    # parameters -> kernel or particle rule
    params: Callable | None = None      # kernel block -> parameters
    battery: Callable | None = None     # parameters -> KernelDensity
    chain: Callable | None = None       # parameters -> HzmcSpec
    grid: Callable | None = None        # (parameters, points) -> default grid
    init: Callable | None = None        # (kernel block, parameters, width) -> line


_GAUSSIAN = dict(params=functools.partial(_read_params, ck.GaussianPcaParams),
                 battery=ck.gaussian_kernel_density, chain=ck.gaussian_invariant_hzmc,
                 grid=ck.default_gaussian_grid)

FAMILIES = {
    "gaussian": Family(kernel=ck.gaussian_kernel_density, **_GAUSSIAN),
    "gaussian_diag": Family(kernel=ck.gaussian_diag_kernel_density, **_GAUSSIAN),
    "beta": Family(
        params=functools.partial(_read_params, ck.BetaPcaParams),
        kernel=ck.beta_kernel_density, battery=ck.beta_kernel_density,
        chain=ck.beta_candidate_hzmc, grid=ck.default_beta_grid),
    "tasep": Family(
        params=functools.partial(_read_params, sim.TasepRule), kernel=lambda rule: rule,
        init=lambda b, rule, width: (number_field(b.get("spacing", 2.0 * rule.r),
                                                  "kernel field 'spacing'") * np.arange(width))),
    "fpp": Family(
        params=_fpp_rule, kernel=lambda rule: rule,
        init=lambda b, rule, width: np.full(width, number_field(b.get("init_value", 0.0),
                                                                "kernel field 'init_value'"))),
}


# the positive construction's chain: simulate refuses a zero entry as solve does
FINITE = Family(kernel=lambda t: t,
                chain=lambda t: fs._require_positive(t, "simulate") or
                fs.solve_invariant_hzmc(t).spec)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read(path, what: str, reader=_read_json):
    """``reader(path)``; a missing, unparsable or malformed file raises ValueError."""
    try:
        doc = reader(path)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error in {path} at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    except ModelFormatError as exc:
        raise ValueError(f"bad model document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object")
    return doc


def _payload(args, reports, grid=None, **extras) -> dict:
    doc = {
        "command": args.command,
        "model": args.model,
        "seed": args.seed,
        "tolerance": args.tol,
        "grid": None if grid is None else {"points": int(grid.size),
                                           "halfwidth": float(grid.halfwidth)},
        "reports": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    doc.update(extras)
    return doc


def _emit(doc: dict, out_path) -> None:
    """Write ``doc`` as indented JSON to ``out_path``, then print it: a bad path prints nothing."""
    text = json.dumps(doc, indent=1) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _report(args, reports, **fields) -> int:
    _emit(_payload(args, reports, **fields), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _write_spec(doc: dict, out) -> int:
    save_document(out, doc)
    print(f"wrote {out}")
    return 0


# The construction of each finite cell: (tensor, lattice, tol) -> reports, the
# fields check shows, the fields a failed solve shows, and the spec document
# (arrays left for ``save_document`` to encode), None unless every report passed.

def _construct_line(tensor, lattice, tol: float):
    res = fs.solve_invariant_hzmc(tensor, tol=tol)
    extras = {"triple": res.triple, "nu": res.nu.vector.tolist(),
              "eta": res.eta.vector.tolist(), "rho0": res.spec.rho0.tolist()}
    doc = {"type": "hzmc", "lattice": lattice, "d": res.spec.d, "u": res.spec.u,
           "rho0": res.spec.rho0, "triple": extras["triple"], "eta": res.eta.vector,
           "nu": res.nu.vector} if res.ok else None
    return list(res.reports), extras, extras, doc


def _construct_cycle(tensor, lattice, tol: float):
    n = lattice[1]
    res = lx.solve_chzmc(tensor, n, tol=tol)
    extras = {"cycle": n}
    if res.spec is not None:
        extras["z"] = res.spec.z
    if res.eta is not None:
        extras.update(eta=res.eta.vector.tolist(), nu=res.nu.vector.tolist())
    doc = {"type": "chzmc", "n": n, "z": encode_array(res.spec.z), "d": res.spec.d,
           "u": res.spec.u, "eta": res.eta.vector, "nu": res.nu.vector} if res.ok else None
    return list(res.reports), extras, {}, doc


def _check_finite(construct, args, model, fam, tensor) -> int:
    if not tensor.mu_positive:
        rep = CheckReport("quartic-identity", float("inf"), args.tol,
                          notes="kernel is not everywhere positive; the positive "
                                "construction route does not apply")
        return _report(args, [rep])
    reports, extras, _, _ = construct(tensor, model["lattice"], args.tol)
    return _report(args, reports, **extras)


def _solve_finite(construct, args, model, fam, tensor) -> int:
    fs._require_positive(tensor, "solve")
    reports, _, shown, doc = construct(tensor, model["lattice"], args.tol)
    if doc is None:
        _emit(_payload(args, reports, **shown), None)
        return 1
    return _write_spec(doc, args.out)


def _spec_field(spec: dict, key: str, cast=decode_array):
    try:
        return cast(spec[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"spec field {key!r} is missing or malformed") from None


def _verify_line(args, model, fam, tensor) -> int:
    spec = _read(args.spec, "spec")
    square = (tensor.size, tensor.size)
    if spec.get("type") != "hzmc" or "d" not in spec:
        raise ValueError("finite model needs an hzmc spec with inline kernels")
    d, u, rho0 = (_spec_field(spec, key) for key in ("d", "u", "rho0"))
    if d.shape != square or u.shape != square or rho0.shape != square[:1]:
        raise ValueError("spec kernels incompatible with model alphabet")
    if spec.get("lattice", "N") not in ("N", "Z"):
        raise ValueError(f"lattice must be 'N' or 'Z', got {spec['lattice']!r}")
    kmax = 2 if args.kmax is None else args.kmax
    rep = fs.bruteforce_invariance(tensor, HzmcSpec(d=d, u=u, rho0=rho0), kmax, tol=args.tol)
    return _report(args, [rep], kmax=kmax)


def _verify_cycle(args, model, fam, tensor) -> int:
    spec = _read(args.spec, "spec")
    square = (tensor.size, tensor.size)
    if spec.get("type") != "chzmc":
        raise ValueError("cyclic model needs a chzmc spec")
    d, u = (_spec_field(spec, key) for key in ("d", "u"))
    n = _spec_field(spec, "n", lambda v: number_field(v, "cycle length", whole=True))
    if n != model["lattice"][1]:
        raise ValueError(f"spec cycle {n} != model cycle {model['lattice'][1]}")
    if d.shape != square or u.shape != square:
        raise ValueError("spec kernels incompatible with model alphabet")
    cspec = ChzmcSpec(d=d, u=u, n=n, z=lx.partition_function(d, u, n))
    reports = list(lx.check_chzmc_conditions(tensor, cspec, tol=args.tol))
    reports.append(lx.bruteforce_cycle_invariance(tensor, cspec, tol=args.tol))
    return _report(args, reports, z=cspec.z)


def _grid_battery(args, model, fam: Family, params, hz: HzmcSpec, probe: bool = False):
    """Reports and grid of the quadrature battery on the chain ``hz``, on the model's grid
    with the command-line overrides on top.  With ``probe``, a family whose kernel is not
    the battery's also gets the mu-equivalence report of the two."""
    points = model["grid"]["points"] if args.grid_points is None else args.grid_points
    halfwidth = model["grid"]["halfwidth"] if args.grid_halfwidth is None else args.grid_halfwidth
    grid = (fam.grid(params, points) if halfwidth is None
            else gauss_legendre_grid(halfwidth, points))
    kernel = fam.kernel(params) if probe and fam.kernel is not fam.battery else None
    reports = list(ck.quadrature_check_conditions(fam.battery(params), hz, grid, tol=args.tol,
                                                  family_kernel=kernel))
    return reports, grid


def _check_grid(args, model, fam: Family, params) -> int:
    hz = fam.chain(params)
    reports, grid = _grid_battery(args, model, fam, params, hz, probe=True)
    extras = {key: val for key, val in hz.meta.items() if key != "family"}
    return _report(args, reports, grid=grid, **extras)


def _solve_closed_form(args, model, fam: Family, params) -> int:
    return _write_spec({"type": "hzmc", **fam.chain(params).meta}, args.out)


def _solve_beta(args, model, fam: Family, params) -> int:
    """Beta's candidate chain drifts: solve runs its battery and names the drift."""
    reports, grid = _grid_battery(args, model, fam, params, fam.chain(params))
    _emit(_payload(args, reports, grid=grid,
                   failure="no stationary initial law: the stationarity condition cannot be "
                           f"met (drift {params.drift_per_step:g} per down-up step)"), None)
    return 1


def _verify_grid(args, model, fam: Family, params) -> int:
    spec = _read(args.spec, "spec")
    name = fam.chain(params).meta["family"]
    if spec.get("family") != name:
        raise ValueError(f"continuous verify needs a {name} spec")
    number = lambda key: _spec_field(spec, key, lambda v: number_field(v, key))
    if any(number(f.name) != getattr(params, f.name) for f in fields(params)):
        raise ValueError("spec parameters do not match the model")
    # the AR(1) chain the spec states (verify reaches only the Gaussian families)
    hz = ck.ar1_hzmc(ck.Ar1Params(phi=number("phi"), innovation_var=number("sigma_prime_sq")),
                     number("stationary_std"))
    width = 20_001 if args.mc_width is None else args.mc_width     # the Monte-Carlo line
    if width < 2:               # before the battery: the refusal costs no quadrature
        raise ValueError("width must be >= 2")
    if 3 * width > fs.SIZE_GUARD:       # the zigzag line of 2 width + 1 cells, the stepped line
        raise ValueError(f"--width {width} would hold {3 * width} float64 cells, "
                         f"over the {fs.SIZE_GUARD} guard")
    reports, grid = _grid_battery(args, model, fam, params, hz)
    zig = sim.sample_hzmc_lines(hz, 2 * width + 1, 1, args.seed)[0]
    inst = sim.ModelInstance(kernel=fam.battery(params), lattice="N", seed=args.seed)
    z = sim.step_pca(zig[1::2], inst, t=0)
    ks = st.ks_distance(z[::7], hz.rho0.cdf)
    reports.append(CheckReport("monte-carlo-stationarity", ks.distance, ks.threshold,
                               witnesses={"n": ks.n},
                               notes="KS of the stepped line against the stationary law"))
    return _report(args, reports, grid=grid)


def cmd_simulate(args, model, fam: Family, params) -> int:
    width = args.width
    if width < 2 or not 0 <= args.steps < width:     # before any solve or draw
        raise ValueError(f"simulate needs --width >= 2 and 0 <= --steps < --width "
                         f"(the window loses one cell a step), got {width} and {args.steps}")
    cells = width * (args.steps + 3)        # steps + 1 diagram rows and the first zigzag line
    if cells > fs.SIZE_GUARD:
        raise ValueError(f"--width {width} and --steps {args.steps} would hold {cells} "
                         f"float64 cells, over the {fs.SIZE_GUARD} guard")
    init = (fam.init(model["family"], params, width) if fam.chain is None else
            sim.sample_hzmc_lines(fam.chain(params), 2 * width - 1, 1, args.seed)[0][0::2])
    inst = sim.ModelInstance(kernel=fam.kernel(params), lattice=model["lattice"], seed=args.seed)
    diagram = sim.simulate_diagram(inst, init, args.steps)

    out = args.out or "diagram"
    sim.write_diagram_csv(diagram, out + ".csv")
    sim.write_diagram_binary(diagram, out + ".bin")

    final = diagram.row(diagram.steps)
    summary = {"command": "simulate", "model": args.model, "seed": args.seed,
               "steps": args.steps, "width": args.width,
               "final_width": int(final.size),
               "files": [out + ".csv", out + ".bin"]}
    if final.size >= 10:
        summary["final_line"] = asdict(st.summarize_line(final))
    if diagram.steps >= 1 and final.size >= 6:      # a zigzag of 2n - 1 >= 10 cells
        # simulate runs on open rows only, and an open row is one cell longer than the next
        prev, n = diagram.row(diagram.steps - 1), final.size
        zig = np.empty(2 * n - 1)
        zig[0::2] = prev[:n]
        zig[1::2] = final[:-1]
        summary["final_zigzag"] = asdict(st.summarize_line(zig))
    _emit(summary, out + ".summary.json")
    return 0


def cmd_report(doc: dict) -> int:
    entries = doc.get("reports")
    if not isinstance(entries, list) or not all(isinstance(rep, dict) for rep in entries):
        raise ValueError("not a report: field 'reports' must be a list of objects")
    if not isinstance(doc.get("passed"), bool):
        raise ValueError("not a report: field 'passed' must be true or false")
    reports = []
    for i, rep in enumerate(entries):
        # a failed condition may report residual inf
        residual, tolerance = (number_field(rep.get(key), f"report {i} field {key!r}",
                                            finite=False) for key in ("residual", "tolerance"))
        reports.append(CheckReport(rep.get("condition"), residual, tolerance,
                                   notes=rep.get("notes", "")))
        if rep.get("passed") is not reports[-1].passed:
            raise ValueError(f"report {i} field 'passed' disagrees with residual <= tolerance")
    passed = all(r.passed for r in reports)
    if doc["passed"] is not passed:
        raise ValueError("report field 'passed' disagrees with its entries")
    for rep in reports:
        print(f"{rep} {rep.notes}".rstrip())
    print(f"overall: {'pass' if passed else 'FAIL'}")
    return 0


def _cell(check, solve, verify, simulate, options=()) -> dict:
    return dict(check=check, solve=solve, verify=verify, simulate=simulate, options=options)


# What each command runs on each (kernel kind, lattice) cell, "line" being 'N' or 'Z': the
# function main calls with (args, model, family, parameters), or why the command exits 2.
# ``options`` are the flags of CELL_OPTIONS that the cell reads; the others exit 2.
CELL_OPTIONS = {"grid_points": "--grid-points", "grid_halfwidth": "--grid-halfwidth",
                "kmax": "--kmax", "mc_width": "--width"}      # dest -> flag
_GRID = ("--grid-points", "--grid-halfwidth")
_PARTICLE = "a particle rule has no condition battery or chain; use simulate"
ROUTES = {
    ("finite", "line"): _cell(functools.partial(_check_finite, _construct_line),
                              functools.partial(_solve_finite, _construct_line),
                              _verify_line, cmd_simulate, ("--kmax",)),
    ("finite", "cycle"): _cell(functools.partial(_check_finite, _construct_cycle),
                               functools.partial(_solve_finite, _construct_cycle), _verify_cycle,
                               "an exact sampler of the cyclic law does not exist yet"),
    **{(name, "line"): _cell(_check_grid, _solve_closed_form, _verify_grid, cmd_simulate,
                             (*_GRID, "--width")) for name in ("gaussian", "gaussian_diag")},
    ("beta", "line"): _cell(_check_grid, _solve_beta, "no invariant chain to verify (solve "
                            "names the drift)", cmd_simulate, _GRID),
    **{(name, "line"): _cell(_PARTICLE, _PARTICLE, _PARTICLE, cmd_simulate)
       for name in ("tasep", "fpp")},
    **{(name, "cycle"): _cell(*["named families run on the lattice 'N' or 'Z' only"] * 4)
       for name in FAMILIES},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    p = argparse.ArgumentParser(prog="zigzag-pca",
                                description="decide, construct and validate invariant "
                                            "zigzag chains of two-neighbor stochastic "
                                            "cellular dynamics")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_text, out_required=False, battery=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--out", required=out_required, help="output path")
        sp.add_argument("--seed", type=int, default=0)
        if battery:
            sp.add_argument("--tol", type=float, default=None)
            sp.add_argument("--grid-points", type=int, default=None)
            sp.add_argument("--grid-halfwidth", type=float, default=None)
        return sp

    command("check", "run the applicable condition battery")
    command("solve", "construct and write the invariant chain", out_required=True)
    sp = command("verify", "independent oracle against a solved spec")
    sp.add_argument("--spec", required=True, help="spec JSON from solve")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--width", dest="mc_width", type=int, default=None)
    sp = command("simulate", "run the model and dump the diagram", battery=False)
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--width", type=int, default=1000)

    sp = sub.add_parser("report", help="pretty-print a report JSON")
    sp.add_argument("--in", dest="infile", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(_read(args.infile, "report"))
        if not 0 <= args.seed < 1 << 64:        # (seed << 64) + t keys a Philox stream
            raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
        model = _read(args.model, "model", load_model)
        block, lattice = model["family"], model["lattice"]
        kind = "finite" if block is None else block["family"]
        if block is not None and kind not in FAMILIES:
            raise ValueError(f"unknown kernel family {kind!r}")
        fam = FINITE if block is None else FAMILIES[kind]
        params = model["tensor"] if block is None else fam.params(block)
        line = lattice in ("N", "Z")
        cell = ROUTES[kind, "line" if line else "cycle"]
        where = (("a finite-alphabet model" if block is None else f"family {kind!r}")
                 + f" on {lattice if line else {'cycle': lattice[1]}!r}")
        route = cell[args.command]
        if isinstance(route, str):
            raise ValueError(f"{args.command} does not apply to {where}: {route}")
        for dest, flag in CELL_OPTIONS.items():
            if getattr(args, dest, None) is not None and flag not in cell["options"]:
                raise ValueError(f"{flag} does not apply to {where}")
        if hasattr(args, "tol"):        # the battery commands; --tol 0 means zero
            args.tol = (EXACT_TOL if block is None else QUAD_TOL) if args.tol is None else args.tol
            if not (math.isfinite(args.tol) and args.tol >= 0):
                raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
        return route(args, model, fam, params)
    except (OSError, ValueError) as exc:     # bad input: exit 2, one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
