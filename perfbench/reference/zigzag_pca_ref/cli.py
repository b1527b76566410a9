"""Command-line surface: check, solve, verify, simulate, report.

Exit codes: 0 everything passed, 1 a condition failed, 2 bad input
(unreadable or malformed files, parameters outside their domain).  All
randomness flows from --seed; reports embed the seed, grid and tolerance so
runs are reproducible from the JSON alone.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from scipy.special import ndtr

from . import continuous_kernels as ck
from . import finite_solver as fs
from . import lattice_ext as lx
from . import simulator as sim
from . import stats as st
from .core_types import (EXACT_TOL, QUAD_TOL, CheckReport, ChzmcSpec, HzmcSpec,
                         ModelFormatError, decode_array, encode_array,
                         gauss_legendre_grid, load_model)

SIM_FAMILIES = ("tasep", "fpp")


def _fail_input(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_model_checked(path):
    try:
        return load_model(path), None
    except FileNotFoundError:
        return None, f"model file not found: {path}"
    except json.JSONDecodeError as exc:
        return None, f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except ModelFormatError as exc:
        return None, f"bad model document: {exc}"


def _grid_for(args, family: dict, model_grid: dict | None = None):
    """Grid from the model document, with command-line overrides on top."""
    model_grid = model_grid or {}
    points = args.grid_points or model_grid.get("points") or 257
    halfwidth = args.grid_halfwidth or model_grid.get("halfwidth")
    if halfwidth:
        return gauss_legendre_grid(halfwidth, points)
    name = family["family"]
    if name in ("gaussian", "gaussian_diag"):
        return ck.default_gaussian_grid(_gauss_params(family), points)
    if name == "beta":
        return ck.default_beta_grid(_beta_params(family), points)
    raise ValueError(f"no default grid for family {name!r}")


def _gauss_params(family: dict) -> ck.GaussianPcaParams:
    return ck.GaussianPcaParams(m=family["m"], sigma=family["sigma"])


def _beta_params(family: dict) -> ck.BetaPcaParams:
    return ck.BetaPcaParams(alpha=family["alpha"], beta=family["beta"],
                            m_shift=family["m"], theta_rate=family["theta"])


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
    text = json.dumps(doc, indent=1)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _finite_battery(model, tol: float):
    """Reports plus solve payload for a finite-alphabet model, or an
    explanation when the positive route does not apply."""
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
        return list(res.reports), res, extras
    res = fs.solve_invariant_hzmc(tensor, lattice="Z" if lattice == "Z" else "N", tol=tol)
    extras = {
        "triple": list(res.triple.as_tuple()),
        "nu": res.nu.vector.tolist(),
        "eta": res.eta.vector.tolist(),
        "rho0": res.spec.rho0.tolist(),
    }
    return list(res.reports), res, extras


def cmd_check(args) -> int:
    model, err = _load_model_checked(args.model)
    if err:
        return _fail_input(err)
    if model["tensor"] is not None:
        tol = args.tol or EXACT_TOL
        tensor = model["tensor"]
        if not tensor.mu_positive:
            rep = CheckReport("quartic-identity", float("inf"), tol,
                              notes="kernel is not everywhere positive; the positive "
                                    "construction route does not apply")
            _emit(_payload(args, "check", [rep], tol=tol), args.out)
            return 1
        reports, res, extras = _finite_battery(model, tol)
        _emit(_payload(args, "check", reports, tol=tol, **extras), args.out)
        return 0 if all(r.passed for r in reports) else 1

    family = model["family"]
    name = family["family"]
    if name in SIM_FAMILIES:
        return _fail_input(f"family {name!r} has no condition battery; use simulate")
    tol = args.tol or QUAD_TOL
    try:
        if name in ("gaussian", "gaussian_diag"):
            params = _gauss_params(family)
            grid = _grid_for(args, family, model["grid"])
            kern = (ck.gaussian_kernel_density(params) if name == "gaussian"
                    else ck.gaussian_diag_kernel_density(params))
            hz = ck.gaussian_invariant_hzmc(params)
            reports = list(ck.quadrature_check_conditions(
                ck.gaussian_kernel_density(params), hz, grid, tol=tol))
            extras = {k: v for k, v in hz.meta.items() if k != "family"}
            if name == "gaussian_diag":
                reports.append(ck.mu_equivalence_probe(
                    kern, ck.gaussian_kernel_density(params), grid))
        elif name == "beta":
            params = _beta_params(family)
            grid = _grid_for(args, family, model["grid"])
            kern = ck.beta_kernel_density(params)
            hz = ck.beta_candidate_hzmc(params)
            reports = list(ck.quadrature_check_conditions(kern, hz, grid, tol=tol))
            extras = {"drift_per_step": params.drift_per_step}
        else:
            return _fail_input(f"unknown kernel family {name!r}")
    except ValueError as exc:
        return _fail_input(str(exc))
    _emit(_payload(args, "check", reports, grid=grid, tol=tol, **extras), args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_solve(args) -> int:
    model, err = _load_model_checked(args.model)
    if err:
        return _fail_input(err)
    out = args.out
    if not out:
        return _fail_input("solve needs --out for the spec file")
    if model["tensor"] is not None:
        tol = args.tol or EXACT_TOL
        tensor = model["tensor"]
        if not tensor.mu_positive:
            return _fail_input("solve requires an everywhere-positive kernel")
        lattice = model["lattice"]
        if isinstance(lattice, tuple):
            res = lx.solve_chzmc(tensor, lattice[1], tol=tol)
            if not res.ok:
                _emit(_payload(args, "solve", res.reports, tol=tol), None)
                return 1
            doc = {"type": "chzmc", "n": lattice[1], "z": format(res.spec.z, ".17g"),
                   "d": encode_array(res.spec.d), "u": encode_array(res.spec.u),
                   "eta": encode_array(res.eta.vector), "nu": encode_array(res.nu.vector)}
        else:
            reports, res, extras = _finite_battery(model, tol)
            if not all(r.passed for r in reports):
                _emit(_payload(args, "solve", reports, tol=tol, **extras), None)
                return 1
            doc = {"type": "hzmc", "lattice": "Z" if lattice == "Z" else "N",
                   "d": encode_array(res.spec.d), "u": encode_array(res.spec.u),
                   "rho0": encode_array(res.spec.rho0),
                   "triple": list(res.triple.as_tuple()),
                   "eta": encode_array(res.eta.vector), "nu": encode_array(res.nu.vector)}
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {out}")
        return 0

    family = model["family"]
    name = family["family"]
    tol = args.tol or QUAD_TOL
    try:
        if name in ("gaussian", "gaussian_diag"):
            params = _gauss_params(family)
            hz = ck.gaussian_invariant_hzmc(params)
            doc = {"type": "hzmc", "family": "gaussian_closed_form"}
            doc.update({k: v for k, v in hz.meta.items() if k != "family"})
            with open(out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            print(f"wrote {out}")
            return 0
        if name == "beta":
            params = _beta_params(family)
            grid = _grid_for(args, family, model["grid"])
            kern = ck.beta_kernel_density(params)
            hz = ck.beta_candidate_hzmc(params)
            reports = ck.quadrature_check_conditions(kern, hz, grid, tol=tol)
            _emit(_payload(args, "solve", reports, grid=grid, tol=tol,
                           failure="no stationary initial law: the stationarity "
                                   "condition cannot be met (drift "
                                   f"{params.drift_per_step:g} per down-up step)"),
                  None)
            return 1
    except ValueError as exc:
        return _fail_input(str(exc))
    return _fail_input(f"cannot solve family {name!r}")


def _load_spec_checked(path):
    try:
        with open(path) as fh:
            return json.load(fh), None
    except FileNotFoundError:
        return None, f"spec file not found: {path}"
    except json.JSONDecodeError as exc:
        return None, f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"


def cmd_verify(args) -> int:
    model, err = _load_model_checked(args.model)
    if err:
        return _fail_input(err)
    spec_doc, err = _load_spec_checked(args.spec)
    if err:
        return _fail_input(err)

    if model["tensor"] is not None:
        tensor = model["tensor"]
        tol = args.tol or EXACT_TOL
        lattice = model["lattice"]
        if isinstance(lattice, tuple):
            if spec_doc.get("type") != "chzmc":
                return _fail_input("cyclic model needs a chzmc spec")
            d = decode_array(spec_doc["d"])
            u = decode_array(spec_doc["u"])
            n = int(spec_doc["n"])
            if n != lattice[1]:
                return _fail_input(f"spec cycle {n} != model cycle {lattice[1]}")
            if d.shape != (tensor.size, tensor.size):
                return _fail_input("spec kernels incompatible with model alphabet")
            z = lx.partition_function(d, u, n)
            cspec = ChzmcSpec(d=d, u=u, n=n, z=z)
            reports = list(lx.check_chzmc_conditions(tensor, cspec, tol=tol))
            reports.append(lx.bruteforce_cycle_invariance(tensor, cspec, tol=tol))
            _emit(_payload(args, "verify", reports, tol=tol, z=z), args.out)
            return 0 if all(r.passed for r in reports) else 1
        if spec_doc.get("type") != "hzmc" or "d" not in spec_doc:
            return _fail_input("finite model needs an hzmc spec with inline kernels")
        d = decode_array(spec_doc["d"])
        if d.shape != (tensor.size, tensor.size):
            return _fail_input("spec kernels incompatible with model alphabet")
        hz = HzmcSpec(d=d, u=decode_array(spec_doc["u"]),
                      rho0=decode_array(spec_doc["rho0"]),
                      lattice=spec_doc.get("lattice", "N"))
        rep = fs.bruteforce_invariance(tensor, hz, args.kmax, tol=tol)
        _emit(_payload(args, "verify", [rep], tol=tol, kmax=args.kmax), args.out)
        return 0 if rep.passed else 1

    family = model["family"]
    name = family["family"]
    if name not in ("gaussian", "gaussian_diag"):
        return _fail_input(f"verify does not apply to family {name!r}")
    if spec_doc.get("family") != "gaussian_closed_form":
        return _fail_input("continuous verify needs a gaussian_closed_form spec")
    try:
        params = _gauss_params(family)
    except ValueError as exc:
        return _fail_input(str(exc))
    if abs(spec_doc["m"] - params.m) > 0 or abs(spec_doc["sigma"] - params.sigma) > 0:
        return _fail_input("spec parameters do not match the model")
    tol = args.tol or QUAD_TOL
    grid = _grid_for(args, family, model["grid"])
    kern = ck.gaussian_kernel_density(params)
    hz = ck.gaussian_invariant_hzmc(params)
    reports = list(ck.quadrature_check_conditions(kern, hz, grid, tol=tol))

    width = args.width or 20_001
    zig = sim.sample_hzmc_line(hz, 2 * width + 1, seed=args.seed)
    y = zig[1::2]
    inst = sim.ModelInstance(kernel=kern, lattice="N", width=width, seed=args.seed)
    z = sim.step_pca(y, inst, t=0)
    s0 = params.stationary_std
    ks = st.ks_distance(z[::7], lambda x: ndtr(x / s0))
    reports.append(CheckReport("monte-carlo-stationarity", ks.distance, ks.threshold,
                               witnesses={"n": ks.n},
                               notes="KS of the stepped line against the stationary law"))
    _emit(_payload(args, "verify", reports, grid=grid, tol=tol), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _simulate_init(model, family, args):
    """Initial line plus the model instance for the simulate command."""
    width = args.width
    if model["tensor"] is not None:
        tensor = model["tensor"]
        res = fs.solve_invariant_hzmc(tensor)
        zig = sim.sample_hzmc_lines(res.spec, 2 * width - 1, 1, args.seed)[0]
        init = zig[0::2]
        inst = sim.ModelInstance(kernel=tensor, lattice="N", width=width, seed=args.seed)
        return inst, init
    name = family["family"]
    if name in ("gaussian", "gaussian_diag"):
        params = _gauss_params(family)
        hz = ck.gaussian_invariant_hzmc(params)
        kern = (ck.gaussian_kernel_density(params) if name == "gaussian"
                else ck.gaussian_diag_kernel_density(params))
        init = sim.sample_hzmc_lines(hz, 2 * width - 1, 1, args.seed)[0][0::2]
        return sim.ModelInstance(kernel=kern, lattice="N", width=width, seed=args.seed), init
    if name == "beta":
        params = _beta_params(family)
        hz = ck.beta_candidate_hzmc(params)
        kern = ck.beta_kernel_density(params)
        init = sim.sample_hzmc_lines(hz, 2 * width - 1, 1, args.seed)[0][0::2]
        return sim.ModelInstance(kernel=kern, lattice="N", width=width, seed=args.seed), init
    if name == "tasep":
        rule = sim.TasepRule(r=family["r"], v=family["v"], p=family["p"])
        spacing = family.get("spacing", 2.0 * family["r"])
        init = spacing * np.arange(width)
        return sim.ModelInstance(kernel=rule, lattice="Z", width=width, seed=args.seed), init
    if name == "fpp":
        law = sim.WeightLaw(family.get("weight_family", "exp"),
                            tuple(family.get("weight_params", (1.0,))))
        init = np.full(width, float(family.get("init_value", 0.0)))
        return sim.ModelInstance(kernel=sim.FppRule(law), lattice="N", width=width,
                                 seed=args.seed), init
    raise ValueError(f"cannot simulate family {name!r}")


def cmd_simulate(args) -> int:
    model, err = _load_model_checked(args.model)
    if err:
        return _fail_input(err)
    family = model["family"] or {}
    try:
        inst, init = _simulate_init(model, family, args)
        diagram = sim.simulate_diagram(inst, init, args.steps)
    except ValueError as exc:
        return _fail_input(str(exc))

    out = args.out or "diagram"
    sim.write_diagram_csv(diagram, out + ".csv")
    sim.write_diagram_binary(diagram, out + ".bin")

    final = diagram.row(diagram.steps)
    summary = {"command": "simulate", "model": args.model, "seed": args.seed,
               "steps": args.steps, "width": args.width,
               "final_width": int(final.size),
               "files": [out + ".csv", out + ".bin"]}
    if final.size >= 10:
        summary["final_line"] = st.summarize_line(final).to_dict()
    if diagram.steps >= 1:
        prev = diagram.row(diagram.steps - 1)
        n = final.size
        if n >= 5 and prev.size >= n:
            zig = np.empty(2 * n - 1)
            zig[0::2] = prev[:n]
            zig[1::2] = final[: n - 1]
            if zig.size >= 10:
                summary["final_zigzag"] = st.summarize_line(zig).to_dict()
    _emit(summary, out + ".summary.json")
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.infile) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return _fail_input(f"report file not found: {args.infile}")
    except json.JSONDecodeError as exc:
        return _fail_input(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    for rep in doc.get("reports", []):
        flag = "pass" if rep.get("passed") else "FAIL"
        print(f"[{flag}] {rep.get('condition')}: residual {rep.get('residual'):.3e} "
              f"(tol {rep.get('tolerance'):.1e}) {rep.get('notes', '')}".rstrip())
    print(f"overall: {'pass' if doc.get('passed') else 'FAIL'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zigzag-pca",
                                description="decide, construct and validate invariant "
                                            "zigzag chains of two-neighbor stochastic "
                                            "cellular dynamics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--grid-points", type=int, default=None, dest="grid_points")
        sp.add_argument("--grid-halfwidth", type=float, default=None, dest="grid_halfwidth")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--kmax", type=int, default=2)
        sp.add_argument("--steps", type=int, default=10)
        sp.add_argument("--width", type=int, default=None)

    sp = sub.add_parser("check", help="run the applicable condition battery")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("solve", help="construct and write the invariant chain")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="independent oracle against a solved spec")
    common(sp)
    sp.add_argument("--spec", required=True, help="spec JSON from solve")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="run the model and dump the diagram")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("report", help="pretty-print a report JSON")
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate" and args.width is None:
        args.width = 1000
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
