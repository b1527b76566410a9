"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` patches the functions named in its ``TRACED`` table
and reads counters from their arguments (``tensor``, ``k_max``, ``spec``,
``grid``, ``length``, ``n_chains``, ``path``) and results.  A rename in the
package would crash a traced benchmark run; these tests run the finite and
the Gaussian commands under the tracer so the rename fails here.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from zigzag_pca import cli
from zigzag_pca.core_types import save_model
from conftest import three_letter_tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracer():
    tracing = _load_tracing()
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _run(tr, cmd, *argv):
    tr.cmd = cmd
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])     # looked up now: the tracer patches it


def test_finite_commands_produce_spans_and_counters(tmp_path, tracer):
    two = three_letter_tensor().restrict([1, 2])
    half, cycle = tmp_path / "half.json", tmp_path / "cycle.json"
    save_model(half, two, "N")
    save_model(cycle, two, {"cycle": 3})
    for name, model in (("half", half), ("cycle", cycle)):
        spec = tmp_path / f"{name}_spec.json"
        assert _run(tracer, f"{name}-check", "check", "--model", model) == 0
        assert _run(tracer, f"{name}-solve", "solve", "--model", model, "--out", spec) == 0
        assert _run(tracer, f"{name}-verify", "verify", "--model", model, "--spec", spec) == 0

    spans = tracer.dump()
    names = {s["name"] for s in spans}
    # the oracles walk their laws in blocks and call none of push_forward_zigzag,
    # hzmc_cylinder_weights or chzmc_density; install() still looks those up
    for expected in ("cli.main", "core_types.load_model", "finite_solver.solve_invariant_hzmc",
                     "finite_solver.stationary_distribution", "finite_solver.bruteforce_invariance",
                     "lattice_ext.solve_chzmc", "lattice_ext.check_cycle_commutation",
                     "lattice_ext.partition_function", "lattice_ext.bruteforce_cycle_invariance"):
        assert expected in names, expected

    def counters(name, key):
        return [s[key] for s in spans if s["name"] == name]

    assert counters("finite_solver.solve_nu", "iters")
    assert counters("finite_solver.stationary_distribution", "iters")
    # default --kmax 2 on two letters: 2^3 + 2^5 + 2^7 entries
    assert counters("finite_solver.bruteforce_invariance", "entries_computed") == [168]
    assert counters("lattice_ext.bruteforce_cycle_invariance", "entries_computed") == [2 ** 6]
    assert set(counters("lattice_ext.check_cycle_commutation", "sweeps")) <= {0, 1}
    assert len(counters("lattice_ext.check_cycle_commutation", "sweeps")) >= 3



def test_finite_simulate_produces_spans_and_counters(tmp_path, tracer):
    two = three_letter_tensor().restrict([1, 2])
    model, out = tmp_path / "half.json", tmp_path / "sim"
    save_model(model, two, "N")
    width, steps = 40, 6
    assert _run(tracer, "simulate", "simulate", "--model", model, "--width", width,
                "--steps", steps, "--out", out) == 0

    spans = tracer.dump()
    names = [s["name"] for s in spans]

    def counters(name, key):
        return [s[key] for s in spans if s["name"] == name]

    # the initial line is the even half of a zigzag of 2 width - 1 cells
    assert counters("simulator.sample_hzmc_lines", "cells") == [2 * width - 1]
    assert names.count("simulator.simulate_diagram") == 1
    assert names.count("simulator.step_pca") == names.count("simulator.row_uniforms") == steps
    for writer, suffix in (("write_diagram_csv", ".csv"), ("write_diagram_binary", ".bin")):
        size = (tmp_path / f"sim{suffix}").stat().st_size
        assert counters(f"simulator.{writer}", "bytes") == [size]


def test_gaussian_commands_produce_spans_and_counters(tmp_path, tracer):
    model, spec = tmp_path / "gauss.json", tmp_path / "gauss_spec.json"
    points = 33
    save_model(model, {"family": "gaussian", "m": 3, "sigma": 1}, "N", {"points": points})
    assert _run(tracer, "check", "check", "--model", model) == 0
    assert _run(tracer, "solve", "solve", "--model", model, "--out", spec) == 0
    assert _run(tracer, "verify", "verify", "--model", model, "--spec", spec,
                "--width", 101) == 0

    spans = tracer.dump()
    for cmd in ("check", "verify"):
        names = {s["name"] for s in spans if s["cmd"] == cmd}
        for expected in ("continuous_kernels.quadrature_check_conditions",
                         "continuous_kernels._cond_residuals",
                         "continuous_kernels.compose_kernels", "continuous_kernels.apply_law"):
            assert expected in names, (cmd, expected)
    evals = [s["density_evals_computed"] for s in spans
             if s["name"] == "continuous_kernels._cond_residuals"]
    assert evals == [points ** 3] * 2
