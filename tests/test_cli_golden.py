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
        (1, "74e3dfd1cd5eb0626ef128c71208b997895a3aed814afeba8c1cc5800471fe48"),
        (1, "2b39e479726f91c8cef695b61d495f88e1193c7ad913d93fa2b514b158d69296"),
    ),
    "fac2-cycle3": (
        (0, "31f1400aa1e6c86d8a2f39a66c97d3de978cdf639180892ea8f1ecc69dd8a853"),
        (0, "2ea31dddd189154cbd4b30ee5cdb3ccfc8c63452cb4c32cd67eefc649a94ac9b"),
        (0, "b01cd881f54755ba84944c165bc83af8d4d27aadd781b426d64335eb6305676e"),
    ),
    "fac3-cycle4-sweep": (
        (0, "f8436b474c42d3a1831f4d2c77c014dfbb3a37aece8e5f7a5a5d7c573f5a4092"),
        (0, "3e302b4704309969d523801ff3d802d3381713e81c3b5d4e913c27c1fa507c69"),
        (1, "fa5924696673c521775c5dbadf4b0e7d4b3bbfc2db647b28455e63da437795b0"),
    ),
    "fac3-half": (
        (0, "13cd788832c1d51a4a529dc7d2f0ad03b5d1a0e8fe43ed2a6d22ae51e6014b1f"),
        (0, "3e2434e5a3e8bf05c41313aec9653eaaf1bc335eba98a10390234331fd5d988c"),
        (0, "823982653ceb2f2e6d11a120bd8eee74e4d285ce1d72bf28014d9394c2800306"),
    ),
    "gaussian": (
        (0, "30800e7f2656b8c8e7485fc284ba34b8f3968f5cc8b375611790a2efe64bf0b9"),
        (0, "2e3412633ec5b6bfbc717ac09082d5b085aafcedb48d44f20d82151664dd7419"),
        (0, "4bd0f926ebf58c9c28ae8aef3c76d5aa2efd5fd32dab4b45952cf1a89bde5a23"),
    ),
    "gaussian_diag": (
        (0, "d61e9d96ef39978f809bcdd71a2eeec54cf0c7ef98c5923ff8138c4d4b2ebc15"),
        (0, "2e3412633ec5b6bfbc717ac09082d5b085aafcedb48d44f20d82151664dd7419"),
        (0, "4bd0f926ebf58c9c28ae8aef3c76d5aa2efd5fd32dab4b45952cf1a89bde5a23"),
    ),
    "gen3-half": (
        (1, "07bd6d96b7e6436d6bbb9c83c7b3db8a114d2b687f0165a15f1de77240a042fb"),
        (1, "6a2b4b7e78b4ee4bd94183266f7ae0ffca9a3e3420f79013bb389b44eb397dd2"),
        (1, "4bd067002dc1a9c960b5d478a31248bab243bac47ee80bf37c9066d21526a7ce"),
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
