"""Seeded ``simulate`` runs are bitwise reproducible.

Each case pins the SHA-256 of the ``.bin`` and ``.csv`` dumps and of the
summary's ``final_line``/``final_zigzag`` statistics (canonical JSON) for one
model at one seed.  A change to the simulator that moves a single bit of a
diagram fails here.  The digests depend on the floating-point results of
numpy and scipy (inverse CDFs, reductions); re-take them only when those
change, never to absorb a change in this package.
"""

import contextlib
import hashlib
import io
import json

import pytest

from zigzag_pca import finite_solver as fs
from zigzag_pca import simulator as sim
from zigzag_pca.cli import main
from zigzag_pca.core_types import save_model
from conftest import _cpus

WIDTH, STEPS, SEED = 160, 40, 7

MODELS = {
    "fac4": None,   # make_factorized_tensor(4, 11), on the half line
    "gaussian": {"family": "gaussian", "m": 3, "sigma": 1},
}

# model -> (.bin sha256, .csv sha256, summary statistics sha256)
GOLDEN = {
    "fac4": ("4343d652779e0a7d1496ac4ce996a30e09a918c5b5277434d15a31df2591f2e1",
             "51b0e92020bde6a82f23ad51cef688aad84571498646fe88ce38d5001bad696d",
             "bfee92ecf4df3e38123df26f0305d55b682a73d40548864a3a7502f4b0730d8b"),
    "gaussian": ("da454a3d23216dc8819e7aeb06d5b092c72e18f4ab4851cd168897cc150dd169",
                 "b37c78f402ed0917158e4299035d107c0213eeafef44f70025699d4b487e19d1",
                 "81864cf68849e5840489435d9a9ce50d6b2a20fccbb0bc76aede677e7809f9f5"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(tmp_path, name):
    path = tmp_path / f"{name}.json"
    if MODELS[name] is None:
        tensor = fs.make_factorized_tensor(4, 11)[0]
        save_model(path, tensor, "N")
    else:
        save_model(path, MODELS[name], "N", {"points": 9})
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--model", str(path), "--width", str(WIDTH),
                     "--steps", str(STEPS), "--seed", str(SEED), "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / f"{name}.summary.json").read_text())
    stats = {key: summary[key] for key in ("final_line", "final_zigzag")}
    return (_sha((tmp_path / f"{name}.bin").read_bytes()),
            _sha((tmp_path / f"{name}.csv").read_bytes()),
            _sha(json.dumps(stats, sort_keys=True).encode()))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_simulate_output_is_pinned(tmp_path, name):
    assert _simulate(tmp_path, name) == GOLDEN[name]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_output_does_not_depend_on_cpus(tmp_path, monkeypatch, name, cpus):
    # a diagram of 41 x 160 cells is one block at the writer's block size:
    # blocks of 512 cells split it over the caller and a worker
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(sim, "_CSV_BLOCK", 512)
    assert _simulate(tmp_path, name) == GOLDEN[name]
