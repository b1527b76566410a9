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
    """What the commands know of one named kernel family.

    ``params`` reads the kernel block: ``_read_params`` of the family's
    parameter class, whose fields the model file names, or FPP's
    ``_fpp_rule``.  ``kernel`` is what simulate steps and ``battery`` the
    kernel the condition battery runs on; where they differ, check also
    probes that the two agree off a null set.  ``obstruction`` says why solve
    cannot build an invariant chain; without one, ``chain`` is the
    closed-form invariant chain that solve writes and verify tests; check
    reports its ``meta`` but the family name.  ``init`` is the initial line
    of a family without a chain.
    """

    params: Callable                    # kernel block -> parameters
    kernel: Callable                    # parameters -> kernel or particle rule
    battery: Callable | None = None     # parameters -> KernelDensity
    chain: Callable | None = None       # parameters -> HzmcSpec
    grid: Callable | None = None        # (parameters, points) -> default grid
    obstruction: Callable | None = None  # parameters -> why solve fails
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
        chain=ck.beta_candidate_hzmc, grid=ck.default_beta_grid,
        obstruction=lambda p: ("no stationary initial law: the stationarity condition cannot "
                               f"be met (drift {p.drift_per_step:g} per down-up step)")),
    "tasep": Family(
        params=functools.partial(_read_params, sim.TasepRule), kernel=lambda rule: rule,
        init=lambda b, rule, width: (number_field(b.get("spacing", 2.0 * rule.r),
                                                  "kernel field 'spacing'") * np.arange(width))),
    "fpp": Family(
        params=_fpp_rule, kernel=lambda rule: rule,
        init=lambda b, rule, width: np.full(width, number_field(b.get("init_value", 0.0),
                                                                "kernel field 'init_value'"))),
}


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


def _grid(args, model, fam: Family, params):
    """Grid from the model document, with command-line overrides on top."""
    points = model["grid"]["points"] if args.grid_points is None else args.grid_points
    halfwidth = model["grid"]["halfwidth"] if args.grid_halfwidth is None else args.grid_halfwidth
    if halfwidth is None:
        return fam.grid(params, points)
    return gauss_legendre_grid(halfwidth, points)


def _tol(args, default: float) -> float:
    """``--tol`` if given (a finite number >= 0; 0 means zero), else ``default``."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    return args.tol


def _payload(args, command: str, reports, grid=None, tol=None, **extras) -> dict:
    doc = {
        "command": command,
        "model": args.model,
        "seed": args.seed,
        "tolerance": tol,
        "grid": None if grid is None else {"points": int(grid.size),
                                           "halfwidth": float(grid.halfwidth)},
        "reports": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    doc.update(extras)
    return doc


def _emit(doc: dict, out_path) -> None:
    """Print ``doc`` as indented JSON and write the same text to ``out_path``."""
    text = json.dumps(doc, indent=1) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _report(args, command: str, reports, **fields) -> int:
    _emit(_payload(args, command, reports, **fields), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _write_spec(doc: dict, out) -> int:
    save_document(out, doc)
    print(f"wrote {out}")
    return 0


def _finite_battery(model, tol: float):
    """Reports, report fields and spec document (arrays left for
    ``_write_spec`` to encode) of a positive finite-alphabet model's solve;
    the document is None unless every report passed."""
    tensor = model["tensor"]
    lattice = model["lattice"]
    if isinstance(lattice, tuple):
        res = lx.solve_chzmc(tensor, lattice[1], tol=tol)
        extras = {"cycle": lattice[1]}
        if res.spec is not None:
            extras["z"] = res.spec.z
        if res.eta is not None:
            extras["eta"] = res.eta.vector.tolist()
            extras["nu"] = res.nu.vector.tolist()
        doc = {"type": "chzmc", "n": lattice[1], "z": encode_array(res.spec.z),
               "d": res.spec.d, "u": res.spec.u, "eta": res.eta.vector,
               "nu": res.nu.vector} if res.ok else None
        return list(res.reports), extras, doc
    res = fs.solve_invariant_hzmc(tensor, tol=tol)
    extras = {
        "triple": res.triple,
        "nu": res.nu.vector.tolist(),
        "eta": res.eta.vector.tolist(),
        "rho0": res.spec.rho0.tolist(),
    }
    doc = {"type": "hzmc", "lattice": lattice, "d": res.spec.d, "u": res.spec.u,
           "rho0": res.spec.rho0, "triple": extras["triple"], "eta": res.eta.vector,
           "nu": res.nu.vector} if res.ok else None
    return list(res.reports), extras, doc


def _grid_battery(args, model, fam: Family, params, hz: HzmcSpec, probe: bool = False):
    """Quadrature condition battery of a named family on the chain ``hz``:
    reports, grid, tolerance.  With ``probe``, a family whose kernel is not
    the battery's also gets the mu-equivalence report of the two."""
    tol = _tol(args, QUAD_TOL)
    grid = _grid(args, model, fam, params)
    kernel = fam.kernel(params) if probe and fam.kernel is not fam.battery else None
    reports = list(ck.quadrature_check_conditions(fam.battery(params), hz, grid, tol=tol,
                                                  family_kernel=kernel))
    return reports, grid, tol


def cmd_check(args, model, fam: Family | None, params) -> int:
    if fam is None:
        tol = _tol(args, EXACT_TOL)
        if not model["tensor"].mu_positive:
            rep = CheckReport("quartic-identity", float("inf"), tol,
                              notes="kernel is not everywhere positive; the positive "
                                    "construction route does not apply")
            return _report(args, "check", [rep], tol=tol)
        reports, extras, _ = _finite_battery(model, tol)
        return _report(args, "check", reports, tol=tol, **extras)
    if fam.battery is None:
        raise ValueError(f"family {model['family']['family']!r} has no condition battery; "
                         "use simulate")
    hz = fam.chain(params)
    reports, grid, tol = _grid_battery(args, model, fam, params, hz, probe=True)
    extras = {key: val for key, val in hz.meta.items() if key != "family"}
    return _report(args, "check", reports, grid=grid, tol=tol, **extras)


def cmd_solve(args, model, fam: Family | None, params) -> int:
    if fam is None:
        tol = _tol(args, EXACT_TOL)
        fs._require_positive(model["tensor"], "solve")
        reports, extras, doc = _finite_battery(model, tol)
        if doc is None:
            shown = {} if isinstance(model["lattice"], tuple) else extras
            _emit(_payload(args, "solve", reports, tol=tol, **shown), None)
            return 1
        return _write_spec(doc, args.out)
    if fam.chain is None:
        raise ValueError(f"cannot solve family {model['family']['family']!r}")
    if fam.obstruction is None:
        return _write_spec({"type": "hzmc", **fam.chain(params).meta}, args.out)
    reports, grid, tol = _grid_battery(args, model, fam, params, fam.chain(params))
    _emit(_payload(args, "solve", reports, grid=grid, tol=tol,
                   failure=fam.obstruction(params)), None)
    return 1


def _spec_field(spec: dict, key: str, cast=decode_array):
    try:
        return cast(spec[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"spec field {key!r} is missing or malformed") from None


def cmd_verify(args, model, fam: Family | None, params) -> int:
    spec = _read(args.spec, "spec")
    if fam is None:
        tensor = model["tensor"]
        tol = _tol(args, EXACT_TOL)
        lattice = model["lattice"]
        square = (tensor.size, tensor.size)
        if isinstance(lattice, tuple):
            if spec.get("type") != "chzmc":
                raise ValueError("cyclic model needs a chzmc spec")
            d = _spec_field(spec, "d")
            u = _spec_field(spec, "u")
            n = _spec_field(spec, "n", lambda v: number_field(v, "cycle length", whole=True))
            if n != lattice[1]:
                raise ValueError(f"spec cycle {n} != model cycle {lattice[1]}")
            if d.shape != square or u.shape != square:
                raise ValueError("spec kernels incompatible with model alphabet")
            z = lx.partition_function(d, u, n)
            cspec = ChzmcSpec(d=d, u=u, n=n, z=z)
            reports = list(lx.check_chzmc_conditions(tensor, cspec, tol=tol))
            reports.append(lx.bruteforce_cycle_invariance(tensor, cspec, tol=tol))
            return _report(args, "verify", reports, tol=tol, z=z)
        if spec.get("type") != "hzmc" or "d" not in spec:
            raise ValueError("finite model needs an hzmc spec with inline kernels")
        d, u, rho0 = (_spec_field(spec, key) for key in ("d", "u", "rho0"))
        if d.shape != square or u.shape != square or rho0.shape != square[:1]:
            raise ValueError("spec kernels incompatible with model alphabet")
        if spec.get("lattice", "N") not in ("N", "Z"):
            raise ValueError(f"lattice must be 'N' or 'Z', got {spec['lattice']!r}")
        hz = HzmcSpec(d=d, u=u, rho0=rho0)
        kmax = 2 if args.kmax is None else args.kmax
        rep = fs.bruteforce_invariance(tensor, hz, kmax, tol=tol)
        return _report(args, "verify", [rep], tol=tol, kmax=kmax)

    if fam.chain is None or fam.obstruction is not None:
        raise ValueError(f"verify does not apply to family {model['family']['family']!r}")
    name = fam.chain(params).meta["family"]
    if spec.get("family") != name:
        raise ValueError(f"continuous verify needs a {name} spec")
    number = lambda key: _spec_field(spec, key, lambda v: number_field(v, key))
    if any(number(f.name) != getattr(params, f.name) for f in fields(params)):
        raise ValueError("spec parameters do not match the model")
    # the AR(1) chain the spec states (verify reaches only the Gaussian families)
    hz = ck.ar1_hzmc(ck.Ar1Params(phi=number("phi"), innovation_var=number("sigma_prime_sq")),
                     number("stationary_std"))
    width = 20_001 if args.width is None else args.width     # the Monte-Carlo line
    if width < 2:               # before the battery: the refusal costs no quadrature
        raise ValueError("width must be >= 2")
    reports, grid, tol = _grid_battery(args, model, fam, params, hz)
    zig = sim.sample_hzmc_lines(hz, 2 * width + 1, 1, args.seed)[0]
    inst = sim.ModelInstance(kernel=fam.battery(params), lattice="N", seed=args.seed)
    z = sim.step_pca(zig[1::2], inst, t=0)
    ks = st.ks_distance(z[::7], hz.rho0.cdf)
    reports.append(CheckReport("monte-carlo-stationarity", ks.distance, ks.threshold,
                               witnesses={"n": ks.n},
                               notes="KS of the stepped line against the stationary law"))
    return _report(args, "verify", reports, grid=grid, tol=tol)


def cmd_simulate(args, model, fam: Family | None, params) -> int:
    width = args.width
    if width < 2 or not 0 <= args.steps < width:     # before any solve or draw
        raise ValueError(f"simulate needs --width >= 2 and 0 <= --steps < --width "
                         f"(the window loses one cell a step), got {width} and {args.steps}")
    if fam is None:
        fs._require_positive(model["tensor"], "simulate")
        kernel, chain = model["tensor"], fs.solve_invariant_hzmc(model["tensor"]).spec
    else:
        kernel, chain = fam.kernel(params), fam.chain(params) if fam.chain else None
    if chain is not None:
        init = sim.sample_hzmc_lines(chain, 2 * width - 1, 1, args.seed)[0][0::2]
    else:
        init = fam.init(model["family"], params, width)
    inst = sim.ModelInstance(kernel=kernel, lattice=model["lattice"], seed=args.seed)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    p = argparse.ArgumentParser(prog="zigzag-pca",
                                description="decide, construct and validate invariant "
                                            "zigzag chains of two-neighbor stochastic "
                                            "cellular dynamics")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, out_required=False, battery=True):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--out", required=out_required, help="output path")
        sp.add_argument("--seed", type=int, default=0)
        if battery:
            sp.add_argument("--tol", type=float, default=None)
            sp.add_argument("--grid-points", type=int, default=None)
            sp.add_argument("--grid-halfwidth", type=float, default=None)
        return sp

    command("check", cmd_check, "run the applicable condition battery")
    command("solve", cmd_solve, "construct and write the invariant chain", out_required=True)
    sp = command("verify", cmd_verify, "independent oracle against a solved spec")
    sp.add_argument("--spec", required=True, help="spec JSON from solve")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--width", type=int, default=None)
    sp = command("simulate", cmd_simulate, "run the model and dump the diagram", battery=False)
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
        block, fam, params = model["family"], None, None
        if block is not None:
            fam = FAMILIES.get(block["family"])
            if fam is None:
                raise ValueError(f"unknown kernel family {block['family']!r}")
            params = fam.params(block)
        elif (getattr(args, "grid_points", None),
              getattr(args, "grid_halfwidth", None)) != (None, None):
            raise ValueError("--grid-points and --grid-halfwidth apply to named families, "
                             "not to a finite-alphabet model")
        elif args.command == "verify" and args.width is not None:
            raise ValueError("--width of verify applies to named families, "
                             "not to a finite-alphabet model")
        if isinstance(model["lattice"], tuple) and (fam is not None or args.command == "simulate"):
            what = "simulate" if fam is None else f"family {block['family']!r}"
            raise ValueError(f"{what} runs on the lattice 'N' or 'Z', not on "
                             f"{{'cycle': {model['lattice'][1]}}}")
        if getattr(args, "kmax", None) is not None and (fam is not None
                                                        or isinstance(model["lattice"], tuple)):
            raise ValueError("--kmax of verify applies to a finite-alphabet model on the "
                             "lattice 'N' or 'Z', not to a named family or a cycle")
        return args.func(args, model, fam, params)
    except (OSError, ValueError) as exc:     # bad input: exit 2, one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
