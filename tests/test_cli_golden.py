"""The decisions of ``check``, ``solve`` and ``verify`` are pinned byte for byte.

Each case runs the commands on one model and pins, per command, the exit
code and the SHA-256 of what it decided: the report JSON (the ``--out``
file, or stdout where the command writes no file) with its ``model`` path
removed, and the spec file a passing ``solve`` writes.  A change that moves
one bit of a residual, a witness, a note or a spec fails here, so a
refactor that claims the same behaviour from less code can show it.  The
digests depend on the floating-point results of numpy (matrix products,
eigensolves, reductions).  Re-take them only when those change, or when a
change redefines what a report computes and its CHANGES.md entry names each
digest that moves; never to absorb any other change in this package.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from zigzag_pca import finite_solver as fs
from zigzag_pca.cli import main
from zigzag_pca.core_types import encode_array, save_model


def _stochastic(rng, kappa):
    m = rng.uniform(0.05, 1.05, size=(kappa, kappa))
    return m / m.sum(axis=1, keepdims=True)


def _hzmc_spec(rng, kappa):
    """Half-line spec with independent random d and u, which do not commute."""
    rho0 = rng.uniform(0.5, 1.5, size=kappa)
    return {"type": "hzmc", "lattice": "N", "d": encode_array(_stochastic(rng, kappa)),
            "u": encode_array(_stochastic(rng, kappa)), "rho0": encode_array(rho0 / rho0.sum())}


def _chzmc_spec(rng, kappa, n):
    """Cycle spec with independent random d and u: the cycle check takes its full sweep."""
    return {"type": "chzmc", "n": n, "d": encode_array(_stochastic(rng, kappa)),
            "u": encode_array(_stochastic(rng, kappa))}


def _finite(path, tensor, lattice):
    save_model(path, tensor, lattice)


GAUSSIAN = {"family": "gaussian", "m": 3, "sigma": 1}

# case -> (model writer, spec that verify reads, verify flags).  Without a
# spec of its own a case verifies the one its solve wrote; with flags None
# it runs no verify (verify does not apply to beta)
CASES = {
    "fac3-half": (lambda p: _finite(p, fs.make_factorized_tensor(3, 11)[0], "N"), None,
                  ("--kmax", "3")),
    "gen3-half": (lambda p: _finite(p, fs.random_positive_tensor(3, 5), "N"),
                  lambda: _hzmc_spec(np.random.default_rng(5), 3), ("--kmax", "2")),
    "fac2-cycle3": (lambda p: _finite(p, fs.make_factorized_tensor(2, 13)[0], {"cycle": 3}),
                    None, ()),
    "fac3-cycle4-sweep": (lambda p: _finite(p, fs.make_factorized_tensor(3, 17)[0],
                                            {"cycle": 4}),
                          lambda: _chzmc_spec(np.random.default_rng(17), 3, 4), ()),
    "gaussian": (lambda p: save_model(p, GAUSSIAN, "N", {"points": 33}), None,
                 ("--width", "2001", "--seed", "11")),
    "gaussian_diag": (lambda p: save_model(p, dict(GAUSSIAN, family="gaussian_diag"), "N",
                                           {"points": 33}),
                      None, ("--width", "2001", "--seed", "11")),
    "beta": (lambda p: save_model(p, {"family": "beta", "alpha": 1, "beta": 1, "m": 1,
                                      "theta": 1}, "N", {"points": 33}),
             None, None),
}


# case -> ((exit code, sha256) of check, of solve, of verify)
GOLDEN = {
    "beta": (
        (1, "4e1adecd54c293c07d6bfe780a4c91424a80152334f0c9ebe36482fd2a701e20"),
        (1, "81568a7e7ee2390180965ade4868288ea8555b0f53d13ebd0e8121c6dcac78a5"),
    ),
    "fac2-cycle3": (
        (0, "197cc37f801a076177b72e2f2b8f206fcf96bb53678daaf52ffcca6f7bed0b7a"),
        (0, "2ea31dddd189154cbd4b30ee5cdb3ccfc8c63452cb4c32cd67eefc649a94ac9b"),
        (0, "bb96c09aa238dc926178234d894788343325f371e413fab57f2d732e5c3b43b6"),
    ),
    "fac3-cycle4-sweep": (
        (0, "43d6198ff292bd201cb433b372ef25e3c7d6e499465e20e8058bfc08b832eb27"),
        (0, "3e302b4704309969d523801ff3d802d3381713e81c3b5d4e913c27c1fa507c69"),
        (1, "d7cc56da30735b904a4dafef0db6fa47d6fd3628cdbf4f5c47114345251e8f4a"),
    ),
    "fac3-half": (
        (0, "9f9f69a4499912ffc709acad15913585a4143e4d2c75164109e8bbe6c502e781"),
        (0, "3e2434e5a3e8bf05c41313aec9653eaaf1bc335eba98a10390234331fd5d988c"),
        (0, "3a68ea3202832feabb617feaf006b44c77c7995a299670543a40653da079cb74"),
    ),
    "gaussian": (
        (0, "f4eb71975dd170d9213e648994f3dde61ebfc552de6690269e5bec19518cbdcd"),
        (0, "2e3412633ec5b6bfbc717ac09082d5b085aafcedb48d44f20d82151664dd7419"),
        (0, "4bd0f926ebf58c9c28ae8aef3c76d5aa2efd5fd32dab4b45952cf1a89bde5a23"),
    ),
    "gaussian_diag": (
        (0, "53ad0b419b8f823892e90626a05bd1f1623fa83a474a963caba26d6d866ec16e"),
        (0, "2e3412633ec5b6bfbc717ac09082d5b085aafcedb48d44f20d82151664dd7419"),
        (0, "4bd0f926ebf58c9c28ae8aef3c76d5aa2efd5fd32dab4b45952cf1a89bde5a23"),
    ),
    "gen3-half": (
        (1, "01aac1f19c3e0c85d9a5a834706d128d5979deca5ce2545078511ab4c414eabf"),
        (1, "4e1a493e36591f7674f9e539b7c2fb4942ff6a2e7661d4c7de334ac7d7bbb444"),
        (1, "bf2165d87419e4fecb5234379a764e3c08508b9c079663e5593b91239c0890fa"),
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _report_sha(text: str) -> str:
    doc = json.loads(text)
    doc.pop("model")
    return _sha(json.dumps(doc, indent=1).encode())


def _decide(tmp_path, name):
    write, given, flags = CASES[name]
    model = tmp_path / "model.json"
    write(model)
    report, spec = tmp_path / "report.json", tmp_path / "spec.json"
    code, _ = _run(["check", "--model", model, "--out", report])
    out = [(code, _report_sha(report.read_text()))]
    code, text = _run(["solve", "--model", model, "--out", spec])
    out.append((code, _sha(spec.read_bytes()) if code == 0 else _report_sha(text)))
    if given is not None:
        spec.write_text(json.dumps(given(), indent=1) + "\n")
    if flags is not None:
        report.unlink()
        code, _ = _run(["verify", "--model", model, "--spec", spec, "--out", report, *flags])
        out.append((code, _report_sha(report.read_text())))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decisions_are_pinned(tmp_path, name):
    assert _decide(tmp_path, name) == GOLDEN[name]
