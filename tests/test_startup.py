"""Start-up loads numpy and nothing heavier: no scipy and no thread pool.

``scipy.special`` is imported where a continuous kernel first calls it: by
the samplers.  The finite commands, ``report``, ``--help``, the Gaussian
``check`` and ``solve``, the ``gaussian_diag`` ``check`` and the Beta
``check`` and ``solve`` never load it.  Each test runs the CLI in a fresh
interpreter, because this one has imported scipy already; the commands that
do load scipy must print and write the same bytes there as here.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import zigzag_pca
from zigzag_pca import finite_solver as fs
from zigzag_pca.cli import main
from zigzag_pca.core_types import save_model

# Runs each argv list of the JSON document in argv[1] through ``main`` and
# prints, per command, the exit code, stdout and the scipy modules loaded.
CHILD = r"""
import contextlib, io, json, sys
from zigzag_pca.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    results.append([code, out.getvalue(), loaded])
print(json.dumps(results))
"""


def _fresh(commands):
    src = os.path.dirname(os.path.dirname(zigzag_pca.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_import_loads_no_thread_pool():
    """The grid passes import their thread pool where they first split rows."""
    src = os.path.dirname(os.path.dirname(zigzag_pca.__file__))
    code = ("import sys, zigzag_pca, zigzag_pca.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "[]\n"


def test_import_builds_no_philox_and_no_search_table():
    """The row stream's Philox and a tensor's search table are made on first
    use: one Philox for the first block a thread draws, none for the next."""
    src = os.path.dirname(os.path.dirname(zigzag_pca.__file__))
    code = """if True:
        import gc, numpy as np
        made, real = [], np.random.Philox
        np.random.Philox = lambda *a, **k: made.append(1) or real(*a, **k)
        import zigzag_pca, zigzag_pca.cli
        from zigzag_pca import simulator as sim
        from zigzag_pca.core_types import TransitionTensor
        tables = [o for o in gc.get_objects()
                  if isinstance(o, TransitionTensor) and "search_table" in vars(o)]
        at_import = (len(made), len(tables), sorted(vars(sim._ROW_STREAM)))
        sim.row_uniforms(1, 2, 3)
        sim.row_uniforms(4, 5, 6)
        print(at_import, len(made))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "(0, 0, []) 1\n"


def test_one_thread_pool_in_the_package():
    """Every thread the package starts comes from ``core_types.threaded_map``,
    and ``simulator`` reaches nothing private of ``continuous_kernels``."""
    package = pathlib.Path(zigzag_pca.__file__).parent
    pools, private = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom) else
                     [getattr(node, "id", getattr(node, "attr", None))])
            pools += [path.stem for name in names if name == "ThreadPoolExecutor"]
            if (path.stem == "simulator" and isinstance(node, ast.ImportFrom)
                    and node.module == "continuous_kernels"):
                private += [name for name in names if name.startswith("_")]
    assert pools == ["core_types", "core_types"]      # its import and its one pool
    assert private == []


def test_one_quadrature_in_the_package():
    """One function of the package places Gauss-Legendre nodes on intervals
    (``continuous_kernels._compose``, whose rows give both the compositions
    and a law's image): a second quadrature would call ``_gl_unit`` too."""
    package = pathlib.Path(zigzag_pca.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and "_gl_unit" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    for stmt in fn.body for node in ast.walk(stmt)):
                callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["continuous_kernels._compose"]


def _here(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    paths = {name: root / f"{name}.json"
             for name in ("half", "cycle", "gauss", "gdiag", "beta")}
    save_model(paths["half"], fs.make_factorized_tensor(3, 11)[0], "N")
    save_model(paths["cycle"], fs.make_factorized_tensor(2, 13)[0], {"cycle": 3})
    save_model(paths["gauss"], {"family": "gaussian", "m": 3, "sigma": 1}, "N", {"points": 129})
    save_model(paths["gdiag"], {"family": "gaussian_diag", "m": 3, "sigma": 1}, "N",
               {"points": 33})
    save_model(paths["beta"], {"family": "beta", "alpha": 1, "beta": 1, "m": 1, "theta": 1}, "N",
               {"points": 17, "halfwidth": 6.0})
    paths["root"] = root
    return paths


def test_finite_and_gaussian_decisions_load_no_scipy(models):
    root = models["root"]
    commands = []
    for name, flags in (("half", ["--kmax", "3"]), ("cycle", [])):
        model, spec = str(models[name]), str(root / f"{name}.spec.json")
        commands += [["check", "--model", model],
                     ["solve", "--model", model, "--out", spec],
                     ["verify", "--model", model, "--spec", spec] + flags]
    half, report = str(models["half"]), str(root / "half.report.json")
    commands += [["simulate", "--model", half, "--width", "60", "--steps", "12",
                  "--out", str(root / "half.sim")],
                 ["check", "--model", half, "--out", report],
                 ["report", "--in", report],
                 ["--help"],
                 ["check", "--model", str(models["gauss"])],
                 ["check", "--model", str(models["gdiag"])],
                 ["solve", "--model", str(models["gauss"]), "--out", str(root / "gauss.spec.json")]]
    # Beta has no invariant chain: its check and solve exit 1
    beta = [["check", "--model", str(models["beta"])],
            ["solve", "--model", str(models["beta"]), "--out", str(root / "beta.spec.json")]]
    results = _fresh(commands + beta)
    assert len(results) == len(commands + beta)
    for argv, (code, out, loaded) in zip(commands + beta, results):
        assert code == (1 if argv in beta else 0), (argv, out)
        assert out, argv
        assert loaded == [], (argv, loaded)


def test_lazily_loaded_commands_match_in_process(models):
    root = models["root"]
    gauss, spec = str(models["gauss"]), root / "gauss.verify.spec.json"
    assert _here(["solve", "--model", gauss, "--out", str(spec)])[0] == 0
    commands = [["simulate", "--model", gauss, "--width", "120", "--steps", "30", "--seed", "4",
                 "--out", str(root / "gauss.sim")],
                ["verify", "--model", gauss, "--spec", str(spec), "--width", "2001", "--seed", "3"],
                ["check", "--model", str(models["beta"])],
                ["simulate", "--model", str(models["beta"]), "--width", "120", "--steps", "30",
                 "--seed", "5", "--out", str(root / "beta.sim")]]
    written = [root / f"{stem}.{ext}" for stem in ("gauss.sim", "beta.sim")
               for ext in ("bin", "csv", "summary.json")]
    fresh = _fresh(commands)
    # the first sampler call loads scipy.special, so this child took the lazy path
    assert "scipy.special" in fresh[0][2]
    fresh_files = _digests(written)
    for argv, (code, out, _) in zip(commands, fresh):
        assert (code, out) == _here(argv), argv
    assert _digests(written) == fresh_files
