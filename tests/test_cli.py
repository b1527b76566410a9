import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

import zigzag_pca
from zigzag_pca import cli
from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca import simulator as sim
from zigzag_pca import stats as st
from zigzag_pca.cli import main
from zigzag_pca.core_types import (MAX_GRID_POINTS, TransitionTensor, decode_array,
                                   encode_array, save_model)
from conftest import near_identity_tensor, three_letter_tensor


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    two = three_letter_tensor().restrict([1, 2])
    paths = {}

    paths["two_letter"] = root / "two_letter.json"
    save_model(paths["two_letter"], two, "N")

    fac3 = fs.make_factorized_tensor(3, 11)[0]
    paths["factorized3"] = root / "factorized3.json"
    save_model(paths["factorized3"], fac3, "N")

    paths["two_letter_cycle"] = root / "two_letter_cycle.json"
    save_model(paths["two_letter_cycle"], two, {"cycle": 3})

    rnd = fs.random_positive_tensor(2, 41)
    paths["random"] = root / "random.json"
    save_model(paths["random"], rnd, "N")

    paths["gauss"] = root / "gauss.json"
    save_model(paths["gauss"], {"family": "gaussian", "m": 3, "sigma": 1}, "N", {"points": 129})

    paths["gauss_diag"] = root / "gauss_diag.json"
    save_model(paths["gauss_diag"], {"family": "gaussian_diag", "m": 3, "sigma": 1}, "N",
               {"points": 129})

    paths["gauss_bad"] = root / "gauss_bad.json"
    save_model(paths["gauss_bad"], {"family": "gaussian", "m": 1.5, "sigma": 1}, "N",
               {"points": 129})

    paths["beta"] = root / "beta.json"
    save_model(paths["beta"], {"family": "beta", "alpha": 1, "beta": 1, "m": 1, "theta": 1}, "N",
               {"points": 129})

    paths["broken"] = root / "broken.json"
    paths["broken"].write_text('{"alphabet": [}\n')

    paths["root"] = root
    return paths


def run_main(*argv):
    return main([str(a) for a in argv])


class TestCheck:
    def test_two_letter_reports_weights(self, files, capsys):
        code = run_main("check", "--model", files["two_letter"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["passed"]
        assert np.abs(np.array(doc["eta"]) - [1 / 3, 2 / 3]).max() < 1e-10
        assert doc["triple"] == [0, 0, 0]

    def test_random_tensor_fails_with_quartic_residual(self, files, capsys):
        code = run_main("check", "--model", files["random"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        quartic = [r for r in doc["reports"] if r["condition"] == "quartic-identity"][0]
        assert not quartic["passed"]
        assert quartic["residual"] > 1e-3

    def test_gaussian_passes(self, files, capsys):
        code = run_main("check", "--model", files["gauss"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["grid"]["points"] == 129
        assert doc["phi"] == pytest.approx(0.3819660112501051, abs=1e-12)

    def test_gaussian_diag_reports_battery_then_probe(self, files, capsys):
        # the battery runs on the Gaussian kernel; the probe compares the
        # family's kernel with it on the battery's own blocks
        code = run_main("check", "--model", files["gauss_diag"])
        doc = json.loads(capsys.readouterr().out)
        par = ck.GaussianPcaParams(3.0, 1.0)
        grid = ck.default_gaussian_grid(par, 129)
        gauss = ck.gaussian_kernel_density(par)
        expected = (ck.quadrature_check_conditions(gauss, ck.gaussian_invariant_hzmc(par), grid)
                    + (ck.mu_equivalence_probe(ck.gaussian_diag_kernel_density(par), gauss, grid),))
        assert code == 0
        assert doc["reports"] == json.loads(json.dumps([r.to_dict() for r in expected]))
        assert [r["condition"] for r in doc["reports"]] == [
            "factorization", "commutation", "stationarity", "mu-equivalence"]
        assert doc["reports"][3]["witnesses"]["differing_pairs"] == 129

    def test_gaussian_diag_check_evaluates_each_triple_once(self, tmp_path, monkeypatch, capsys):
        # the probe reads the battery's own blocks: no second normal density per triple
        triples = {}
        pdf = ck._norm_pdf

        def counted(x, mean, std):
            out = pdf(x, mean, std)
            if np.ndim(out) == 3:       # the sweep's blocks; the chain's kernels are matrices
                triples[family] += np.size(out)
            return out

        monkeypatch.setattr(ck, "_norm_pdf", counted)
        for family in ("gaussian", "gaussian_diag"):
            path = tmp_path / f"{family}.json"
            save_model(path, {"family": family, "m": 3, "sigma": 1}, "N", {"points": 33})
            triples[family] = 0
            assert run_main("check", "--model", path) == 0
        capsys.readouterr()
        assert triples == {"gaussian": 33 ** 3, "gaussian_diag": 33 ** 3}

    def test_equal_legs_are_composed_once(self, tmp_path, monkeypatch, capsys):
        # the AR(1) chain has d is u, so ud is du; Beta's legs differ
        compose = ck.compose_kernels
        calls = []

        def spy(k1, k2, grid):
            calls.append(k1 is k2)
            return compose(k1, k2, grid)

        monkeypatch.setattr(ck, "compose_kernels", spy)
        families = {"gaussian": {"m": 3, "sigma": 1}, "gaussian_diag": {"m": 3, "sigma": 1},
                    "beta": {"alpha": 1, "beta": 1, "m": 1, "theta": 1}}
        for family, params in families.items():
            path = tmp_path / f"{family}.json"
            save_model(path, {"family": family, **params}, "N", {"points": 33})
            calls.clear()
            assert run_main("check", "--model", path) == (1 if family == "beta" else 0)
            reports = {r["condition"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
            assert calls == ([False, False] if family == "beta" else [True]), family
            if family != "beta":
                assert reports["commutation"]["residual"] == 0.0
                assert reports["commutation"]["witnesses"]["argmax"] == [0, 0]
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", tmp_path / "gaussian.json", "--out", spec) == 0
        calls.clear()
        assert run_main("verify", "--model", tmp_path / "gaussian.json", "--spec", spec,
                        "--width", 101) == 0
        assert calls == [True]
        capsys.readouterr()

    def test_passing_condition_reports_name_no_witness(self, files, capsys):
        assert run_main("check", "--model", files["two_letter"]) == 0
        reports = {r["condition"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
        for cond in ("factorization", "commutation", "cubic-equation"):
            assert reports[cond]["passed"] and reports[cond]["witnesses"]["argmax"] is None

    def test_domain_guard_is_input_error(self, files, capsys):
        code = run_main("check", "--model", files["gauss_bad"])
        err = capsys.readouterr().err
        assert code == 2
        assert "|m| > 2" in err

    def test_malformed_file_reports_position(self, files, capsys):
        code = run_main("check", "--model", files["broken"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_missing_file(self, files, capsys):
        code = run_main("check", "--model", files["root"] / "nope.json")
        assert code == 2

    @pytest.mark.parametrize("model", ["beta", "two_letter"])
    def test_tol_zero_means_zero(self, files, capsys, model):
        run_main("check", "--model", files[model], "--tol", 0)
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == 0.0
        assert all(r["tolerance"] == 0.0 for r in doc["reports"])

    def test_beta_fails_stationarity_only(self, files, capsys):
        code = run_main("check", "--model", files["beta"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        by_name = {r["condition"]: r for r in doc["reports"]}
        assert by_name["factorization"]["passed"]
        assert by_name["commutation"]["passed"]
        assert not by_name["stationarity"]["passed"]


    @pytest.mark.parametrize("halfwidth", ["1e154", "1e300"])
    @pytest.mark.parametrize("model", ["gauss", "gauss_diag"])
    def test_huge_grid_fails_without_a_warning(self, files, capsys, model, halfwidth):
        # the normal density's z z overflows from |z| > 1.3e154, and at 1e300
        # gaussian_diag's pair mass w_a w_b does too: inf fails a report, and
        # no numpy warning reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_main("check", "--model", files[model], "--grid-points", 33,
                            "--grid-halfwidth", halfwidth)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert not json.loads(captured.out)["passed"]

    @pytest.mark.parametrize("model, command, halfwidth", [
        ("gauss", "check", "1e4"), ("gauss", "check", "1e154"),
        ("gauss_diag", "check", "1e4"), ("gauss_diag", "check", "1e154"),
        ("gauss", "verify", "1e4"), ("gauss", "verify", "1e154"), ("beta", "solve", "1e154")])
    def test_grid_that_misses_the_initial_law_is_refused(self, files, capsys, tmp_path, model,
                                                          command, halfwidth):
        # an even grid this wide has no node near the chain's mass: every
        # density underflows to 0 and each residual would read 0.0
        args = {"check": [], "solve": ["--out", tmp_path / "spec.json"],
                "verify": ["--spec", tmp_path / "gauss.spec.json"]}[command]
        if command == "verify":
            assert run_main("solve", "--model", files[model], "--out", args[1]) == 0
            capsys.readouterr()
        code = run_main(command, "--model", files[model], *args, "--grid-points", 32,
                        "--grid-halfwidth", halfwidth)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: the chain's initial law has density 0 at each of "
                                       "the 32 grid nodes")
        assert not (tmp_path / "spec.json").exists()


class TestNearlyReducible:
    """Kernels whose diagonal chain t(x, x; .) is nearly reducible."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_factorized_kernel_passes_check(self, tmp_path, capsys, eps):
        tens, _ = near_identity_tensor(3, eps)
        path = tmp_path / "near.json"
        save_model(path, tens, "N")
        assert run_main("check", "--model", path) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["reports"]) == 6 and all(r["passed"] for r in doc["reports"])
        assert captured.err == ""

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_factorized_kernel_solves_on_a_cycle(self, tmp_path, capsys, eps):
        tens, _ = near_identity_tensor(3, eps)
        path, spec = tmp_path / "near.json", tmp_path / "spec.json"
        save_model(path, tens, {"cycle": 3})
        assert run_main("solve", "--model", path, "--out", spec) == 0
        assert run_main("verify", "--model", path, "--spec", spec) == 0

    def test_non_factorizable_kernel_fails_without_traceback(self, tmp_path, capsys):
        eps = 1e-8
        t = np.full((2, 2, 2), 0.5)
        t[0, 0] = [1 - eps, eps]
        t[1, 1] = [2 * eps, 1 - 2 * eps]
        path = tmp_path / "near.json"
        save_model(path, TransitionTensor(t), "N")
        assert run_main("check", "--model", path) == 1
        captured = capsys.readouterr()
        assert not json.loads(captured.out)["passed"]
        assert captured.err == ""


class TestVerdictsDoNotMoveWithLabels:
    """Relabel and mirror gates.  t relabeled by a permutation p of the
    alphabet, t[p][:, p][:, :, p], and t read right to left, t(b, a; c), have
    an invariant chain exactly when t has, so check, solve and verify of the
    solved spec exit alike on all of them.  Exit codes are compared, not
    residuals: the construction is anchored at a base triple that moves with
    the labels, and its residuals move with it."""

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 1e-8, 1e-6])
    @pytest.mark.parametrize("kappa,lattice", [(2, "Z"), (3, "Z"), (8, "Z"), (16, "Z"),
                                               (2, "cycle"), (3, "cycle")])
    def test_exit_codes_agree(self, tmp_path, capsys, kappa, lattice, eps):
        f = fs.make_factorized_tensor(kappa, 0)[0].t
        t = (1 - eps) * f + eps * fs.random_positive_tensor(kappa, 1000).t
        perms = [np.random.default_rng(seed).permutation(kappa) for seed in range(4)]
        variants = [t, t.transpose(1, 0, 2)] + [t[p][:, p][:, :, p] for p in perms]
        # the half line's oracle takes --kmax, the cycle's walks its whole length
        lat, kmax = ("Z", ("--kmax", 1)) if lattice == "Z" else ({"cycle": 3}, ())
        codes = []
        for i, v in enumerate(variants):
            model, spec = tmp_path / f"model{i}.json", tmp_path / f"spec{i}.json"
            save_model(model, TransitionTensor(np.ascontiguousarray(v)), lat)
            solved = run_main("solve", "--model", model, "--out", spec)
            codes.append((run_main("check", "--model", model), solved,
                          run_main("verify", "--model", model, "--spec", spec, *kmax)
                          if solved == 0 else None))
        capsys.readouterr()
        assert codes == [codes[0]] * len(variants), codes


class TestSolveVerify:
    def test_two_letter_roundtrip(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files["two_letter"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        assert np.abs(np.array(doc["d"], dtype=float)
                      - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]).max() < 1e-12
        assert np.abs(np.array(doc["u"], dtype=float)
                      - [[1 / 3, 2 / 3], [2 / 3, 1 / 3]]).max() < 1e-12
        assert np.abs(np.array(doc["rho0"], dtype=float) - 0.5).max() < 1e-12
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec,
                        "--kmax", 3) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"][0]["condition"] == "push-forward-oracle"
        assert out["reports"][0]["residual"] < 1e-10
        assert out["reports"][0]["witnesses"]["argmax"] is None
        assert out["reports"][0]["witnesses"]["complete"] is True     # rho0 = (1/2, 1/2)

    def test_verify_reports_are_reproducible(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        run_main("solve", "--model", files["two_letter"], "--out", spec)
        capsys.readouterr()
        run_main("verify", "--model", files["two_letter"], "--spec", spec, "--seed", 9)
        first = capsys.readouterr().out
        run_main("verify", "--model", files["two_letter"], "--spec", spec, "--seed", 9)
        second = capsys.readouterr().out
        assert first == second

    def test_cycle_roundtrip(self, files, capsys, tmp_path):
        spec = tmp_path / "cspec.json"
        assert run_main("solve", "--model", files["two_letter_cycle"], "--out", spec) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter_cycle"], "--spec", spec) == 0
        out = json.loads(capsys.readouterr().out)
        by_name = {r["condition"]: r for r in out["reports"]}
        for cond in ("cycle-factorization", "cycle-push-forward-oracle"):
            assert by_name[cond]["passed"] and by_name[cond]["witnesses"]["argmax"] is None

    @pytest.mark.filterwarnings("error")    # a numpy RuntimeWarning is not one error line
    @pytest.mark.parametrize("edit", ["sign-gauge", "infinite-entry", "scaled"])
    def test_cyclic_spec_entries(self, files, capsys, tmp_path, edit):
        # the sign gauge S d S, S u S with S = diag(1, -1) keeps every trace
        # of (DU)^n, so only an entry check tells it from the solved chain
        spec = tmp_path / "cspec.json"
        assert run_main("solve", "--model", files["two_letter_cycle"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        d, u = decode_array(doc["d"]), decode_array(doc["u"])
        if edit == "sign-gauge":
            sign = np.diag([1.0, -1.0])
            d, u = sign @ d @ sign, sign @ u @ sign
        elif edit == "infinite-entry":
            d[0, 1] = np.inf
        else:
            d = 5 * d          # not stochastic, but the same law after division by z
        doc["d"], doc["u"] = encode_array(d), encode_array(u)
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_main("verify", "--model", files["two_letter_cycle"], "--spec", spec)
        captured = capsys.readouterr()
        if edit == "scaled":
            assert code == 0
            return
        assert code == 2 and captured.out == ""
        assert _single_error_line(captured.err)
        assert ("d entries must be nonnegative" if edit == "sign-gauge"
                else "d entries must be finite numbers") in captured.err

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1.0, 5.0, 1e3])
    @pytest.mark.parametrize("pair", ["solved", "independent"])
    def test_cyclic_spec_verdict_does_not_depend_on_scale(self, capsys, tmp_path, scale, pair):
        # d and u times a constant give the same cyclic law, so the cycle
        # conditions must give the oracle's verdict at every scale; an
        # independent stochastic pair neither factorizes t nor commutes
        model, spec = tmp_path / "model.json", tmp_path / "cspec.json"
        save_model(model, fs.make_factorized_tensor(3, 17)[0], {"cycle": 4})
        assert run_main("solve", "--model", model, "--out", spec) == 0
        doc = json.loads(spec.read_text())
        d, u = decode_array(doc["d"]), decode_array(doc["u"])
        if pair == "independent":
            rng = np.random.default_rng(3)
            d, u = (m / m.sum(axis=1, keepdims=True) for m in rng.uniform(0.1, 1.0, (2, 3, 3)))
        doc["d"], doc["u"] = encode_array(scale * d), encode_array(scale * u)
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_main("verify", "--model", model, "--spec", spec)
        reports = {r["condition"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
        valid = pair == "solved"
        assert code == (0 if valid else 1)
        assert reports["cycle-push-forward-oracle"]["passed"] == valid
        for cond in ("cycle-factorization", "cycle-commutation"):
            assert reports[cond]["passed"] == valid, cond
        assert reports["cycle-factorization"]["witnesses"]["skipped_pairs"] == 0

    @pytest.mark.parametrize("n, code", [(3.0, 0), (3.5, 2), (True, 2), ("x", 2)])
    def test_spec_cycle_length_must_be_whole(self, files, capsys, tmp_path, n, code):
        spec = tmp_path / "cspec.json"
        assert run_main("solve", "--model", files["two_letter_cycle"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        doc["n"] = n
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter_cycle"], "--spec", spec) == code
        if code == 2:
            assert "spec field 'n' is missing or malformed" in capsys.readouterr().err

    def test_tampered_spec_fails_with_location(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        run_main("solve", "--model", files["two_letter"], "--out", spec)
        doc = json.loads(spec.read_text())
        doc["u"] = [doc["u"][1], doc["u"][0]]
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_main("verify", "--model", files["two_letter"], "--spec", spec)
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["reports"][0]["witnesses"]["argmax"] is not None

    def test_gaussian_solve_has_closed_form_fields(self, files, capsys, tmp_path):
        spec = tmp_path / "gspec.json"
        assert run_main("solve", "--model", files["gauss"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        for key in ("l", "phi", "sigma_prime_sq", "stationary_std"):
            assert key in doc

    def test_gaussian_verify(self, files, capsys, tmp_path):
        spec = tmp_path / "gspec.json"
        run_main("solve", "--model", files["gauss"], "--out", spec)
        capsys.readouterr()
        code = run_main("verify", "--model", files["gauss"], "--spec", spec,
                        "--width", 20001, "--seed", 3)
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        names = [r["condition"] for r in out["reports"]]
        assert "monte-carlo-stationarity" in names

    def test_gaussian_verify_tests_the_chain_its_spec_states(self, files, capsys, tmp_path):
        spec = tmp_path / "gspec.json"
        run_main("solve", "--model", files["gauss"], "--out", spec)
        doc = json.loads(spec.read_text())
        doc.update(phi=0.1, stationary_std=5.0, sigma_prime_sq=9.0)
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_main("verify", "--model", files["gauss"], "--spec", spec, "--width", 2001)
        failed = {r["condition"] for r in json.loads(capsys.readouterr().out)["reports"]
                  if not r["passed"]}
        assert code == 1
        assert {"factorization", "stationarity"} <= failed

    def test_gaussian_verify_of_a_solved_spec_tests_the_closed_form(self, files, capsys,
                                                                   tmp_path):
        # solve's fields round-trip exactly, so verify runs the family's own chain
        spec = tmp_path / "gspec.json"
        run_main("solve", "--model", files["gauss"], "--out", spec)
        capsys.readouterr()
        assert run_main("verify", "--model", files["gauss"], "--spec", spec,
                        "--width", 2001, "--seed", 4) == 0
        got = json.loads(capsys.readouterr().out)["reports"]
        par = ck.GaussianPcaParams(3, 1)
        hz = ck.gaussian_invariant_hzmc(par)
        grid = ck.default_gaussian_grid(par, 129)
        want = ck.quadrature_check_conditions(ck.gaussian_kernel_density(par), hz, grid)
        assert [r["residual"] for r in got[:3]] == [r.residual for r in want]
        zig = sim.sample_hzmc_lines(hz, 2 * 2001 + 1, 1, 4)[0]
        model = sim.ModelInstance(ck.gaussian_kernel_density(par), "N", seed=4)
        ks = st.ks_distance(sim.step_pca(zig[1::2], model)[::7], hz.rho0.cdf)
        assert got[3]["condition"] == "monte-carlo-stationarity"
        assert got[3]["residual"] == ks.distance

    def test_beta_solve_cites_stationarity(self, files, capsys):
        code = run_main("solve", "--model", files["beta"], "--out", "/tmp/never.json")
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert "stationarity" in doc["failure"]

    @pytest.mark.parametrize("lattice", ["Q", {"cycle": 3}], ids=["Q", "cycle3"])
    def test_half_line_verify_refuses_a_spec_lattice_beyond_n_and_z(self, files, capsys,
                                                                     tmp_path, lattice):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files["two_letter"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        doc["lattice"] = lattice
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and _single_error_line(captured.err)
        assert f"lattice must be 'N' or 'Z', got {lattice!r}" in captured.err

    @pytest.mark.parametrize("model, flags", [("two_letter", ()), ("two_letter_cycle", ()),
                                              ("gauss", ("--width", 101))],
                             ids=["half-line", "cycle3", "gauss"])
    def test_out_copy_equals_stdout(self, files, capsys, tmp_path, model, flags):
        spec, report = tmp_path / "spec.json", tmp_path / "report.json"
        assert run_main("check", "--model", files[model], "--out", report) == 0
        assert capsys.readouterr().out == report.read_text()
        assert run_main("solve", "--model", files[model], "--out", spec) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", files[model], "--spec", spec, "--out", report,
                        *flags) == 0
        assert capsys.readouterr().out == report.read_text()


class TestTwoSidedLattice:
    """On "Z" the chain and its conditions are the half line's: only the
    model's lattice, echoed in the spec, tells the two apart."""

    def test_z_decides_as_n(self, tmp_path, capsys):
        tens = fs.make_factorized_tensor(3, 11)[0]
        runs = {}
        for lattice in ("N", "Z"):
            model, spec = tmp_path / f"{lattice}.json", tmp_path / f"{lattice}_spec.json"
            save_model(model, tens, lattice)
            assert run_main("check", "--model", model) == 0
            check = json.loads(capsys.readouterr().out)["reports"]
            assert run_main("solve", "--model", model, "--out", spec) == 0
            capsys.readouterr()
            written = json.loads(spec.read_text())
            assert written["lattice"] == lattice
            assert run_main("verify", "--model", model, "--spec", spec) == 0
            verify = json.loads(capsys.readouterr().out)["reports"]
            runs[lattice] = check, {k: v for k, v in written.items() if k != "lattice"}, verify
        assert runs["Z"] == runs["N"]


class TestSimulate:
    def test_zero_steps_echo(self, files, capsys, tmp_path):
        out = tmp_path / "echo"
        code = run_main("simulate", "--model", files["gauss"], "--steps", 0,
                        "--width", 50, "--seed", 1, "--out", out)
        assert code == 0
        lines = (tmp_path / "echo.csv").read_text().strip().split("\n")
        assert len(lines) == 1
        assert len(lines[0].split(",")) == 50

    def test_gaussian_summary_and_binary(self, files, capsys, tmp_path):
        out = tmp_path / "g"
        code = run_main("simulate", "--model", files["gauss"], "--steps", 3,
                        "--width", 500, "--seed", 4, "--out", out)
        assert code == 0
        summary = json.loads((tmp_path / "g.summary.json").read_text())
        assert summary["final_width"] == 497
        assert "final_zigzag" in summary
        from zigzag_pca.simulator import read_diagram_binary
        diag = read_diagram_binary(tmp_path / "g.bin")
        assert diag.steps == 3 and diag.width == 500

    def test_gaussian_zigzag_statistics_in_summary(self, files, capsys, tmp_path):
        out = tmp_path / "stat"
        code = run_main("simulate", "--model", files["gauss"], "--steps", 3,
                        "--width", 20_000, "--seed", 12, "--out", out)
        assert code == 0
        summary = json.loads((tmp_path / "stat.summary.json").read_text())
        zig = summary["final_zigzag"]
        phi = 0.3819660112501051
        assert abs(zig["autocorr"][0] - phi) < 3 * zig["se_autocorr"][0]

    def test_zigzag_sample_is_not_held(self, files, capsys, tmp_path):
        # the run peaks in the sampler, on the 2 width - 1 zigzag and its walk
        # (32.8 bytes a cell); holding the zigzag through the diagram reads 40.8
        width, out = 200_000, tmp_path / "wide"
        run_main("simulate", "--model", files["gauss"], "--steps", 0, "--width", 10, "--out", out)
        tracemalloc.start()
        try:
            assert run_main("simulate", "--model", files["gauss"], "--steps", 0,
                            "--width", width, "--seed", 3, "--out", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36 * width

    def test_deterministic_per_seed(self, files, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_main("simulate", "--model", files["gauss"], "--steps", 2,
                 "--width", 64, "--seed", 5, "--out", a)
        run_main("simulate", "--model", files["gauss"], "--steps", 2,
                 "--width", 64, "--seed", 5, "--out", b)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestReport:
    def test_spec_file_is_not_a_report(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files["two_letter"], "--out", spec) == 0
        capsys.readouterr()
        assert run_main("report", "--in", spec) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not a report" in captured.err

    def test_pretty_print(self, files, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        run_main("check", "--model", files["two_letter"], "--out", rep)
        capsys.readouterr()
        assert run_main("report", "--in", rep) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        assert "quartic-identity" in out


ROUTE_FAMILIES = {"gaussian": {"m": 3, "sigma": 1}, "gaussian_diag": {"m": 3, "sigma": 1},
                  "beta": {"alpha": 1, "beta": 1, "m": 1, "theta": 1}}
COMMANDS = ("check", "solve", "verify", "simulate")
# (kernel kind, lattice) -> exit codes of check, solve, verify and simulate
CELL_EXITS = {("finite", "line"): (0, 0, 0, 0), ("finite", "cycle"): (0, 0, 0, 2),
              ("gaussian", "line"): (0, 0, 0, 0), ("gaussian_diag", "line"): (0, 0, 0, 0),
              ("beta", "line"): (1, 1, 2, 0),
              **{(name, "cycle"): (2, 2, 2, 2) for name in ROUTE_FAMILIES}}


class TestRoutes:
    """Each command on each (kernel kind x lattice) cell runs or is refused
    with exit 2 and one error line that names the cell."""

    def test_every_cell_is_pinned(self):
        assert set(CELL_EXITS) == set(cli.ROUTES)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("kind, lattice", list(CELL_EXITS), ids="-".join)
    def test_every_cell(self, tmp_path, capsys, kind, lattice, command):
        model, cycle = tmp_path / "model.json", {"cycle": 3 if kind == "finite" else 4}
        on = "N" if lattice == "line" else cycle
        if kind == "finite":
            save_model(model, three_letter_tensor().restrict([1, 2]), on)
        else:
            _write_model(model, {"alphabet": {"grid": {"points": 33}}, "lattice": on,
                                 "kernel": {"family": kind, **ROUTE_FAMILIES[kind]}})
        spec = tmp_path / "spec.json"
        if run_main("solve", "--model", model, "--out", spec) != 0:
            spec = model            # any JSON object: a cell that cannot solve refuses verify
        capsys.readouterr()
        extra = {"solve": ("--out", tmp_path / "out.json"), "verify": ("--spec", spec),
                 "simulate": ("--width", 20, "--steps", 3, "--out", tmp_path / "sim")}
        code = run_main(command, "--model", model, *extra.get(command, ()))
        captured = capsys.readouterr()
        assert code == CELL_EXITS[kind, lattice][COMMANDS.index(command)]
        if code != 2:
            assert captured.err == ""
            return
        assert captured.out == "" and _single_error_line(captured.err)
        name = "a finite-alphabet model" if kind == "finite" else f"family {kind!r}"
        assert f"{command} does not apply to {name} on {on!r}: " in captured.err


# every (kernel kind, lattice, command) route that runs, and a value of each optional flag
# that differs from every route's default and that every route reading the flag accepts
RUNNING = [(kind, lattice, command) for (kind, lattice), cell in cli.ROUTES.items()
           for command in COMMANDS if not isinstance(cell[command], str)]
FLAG_VALUES = {"--seed": 7, "--tol": 0.5, "--grid-points": 17, "--grid-halfwidth": 9.0,
               "--kmax": 1, "--width": 40, "--steps": 2}
_UNIFORM = encode_array(np.full((2, 2), 0.5))


class TestRouteFlags:
    """The flags a route lists in ``cli.ROUTES`` are the flags it reads: each listed flag
    changes what the route prints or writes, and each other flag exits 2 with one error
    line, before any file is written."""

    @staticmethod
    def _model(root, kind, lattice):
        """A model on which every running command of the cell exits 0 or 1, and a spec for
        its verify: written by hand on the finite cells, whose generic kernel solve cannot
        build, else the one solve writes."""
        root.mkdir(exist_ok=True)
        model, spec = root / "model.json", root / "spec.json"
        on = "N" if lattice == "line" else {"cycle": 3}
        if kind == "finite":
            save_model(model, fs.random_positive_tensor(2, 41), on)
            doc = ({"type": "hzmc", "d": _UNIFORM, "u": _UNIFORM, "rho0": ["0.5", "0.5"]}
                   if lattice == "line" else {"type": "chzmc", "n": 3, "d": _UNIFORM,
                                              "u": _UNIFORM})
            spec.write_text(json.dumps(doc))
        else:
            _write_model(model, {"alphabet": {"grid": {"points": 33}}, "lattice": on,
                                 "kernel": {"family": kind, **ROUTE_FAMILIES[kind]}})
            run_main("solve", "--model", model, "--out", spec)
        return model, spec

    @staticmethod
    def _run(root, model, spec, command, *flags):
        """(exit code, stdout, stderr, bytes of every file written) of one run that
        writes into an empty directory ``root / "out"``, removed after."""
        out = root / "out"
        out.mkdir()
        extra = {"check": ("--out", out / "report.json"), "solve": ("--out", out / "spec.json"),
                 "verify": ("--spec", spec, "--out", out / "report.json"),
                 "simulate": ("--out", out / "sim")}[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_main(command, "--model", model, *extra, *flags)
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for p in out.iterdir():
            p.unlink()
        out.rmdir()
        return code, stdout.getvalue(), stderr.getvalue(), written

    @pytest.mark.parametrize("kind, lattice, command", RUNNING, ids=map("-".join, RUNNING))
    def test_each_flag_is_read_or_refused(self, tmp_path, capsys, kind, lattice, command):
        model, spec = self._model(tmp_path / "in", kind, lattice)
        capsys.readouterr()
        base = self._run(tmp_path, model, spec, command)
        assert base[0] in (0, 1) and base[2] == ""
        reads = cli.ROUTES[kind, lattice][command][1]
        for flag, value in FLAG_VALUES.items():
            code, out, err, written = self._run(tmp_path, model, spec, command, flag, value)
            if flag in reads:
                assert code in (0, 1) and err == "", (flag, err)
                assert (out, written) != (base[1], base[3]), f"{flag} changed nothing"
            else:
                assert code == 2 and out == "" and written == {}, flag
                assert _single_error_line(err) and f"{flag} does not apply to {command} " in err

    @pytest.mark.parametrize("model, argv", [
        ("two_letter", ("verify", "--seed", 5)), ("two_letter_cycle", ("verify", "--seed", 5)),
        ("gauss", ("solve", "--grid-points", 100000)), ("gauss", ("solve", "--grid-halfwidth", -3)),
        ("gauss", ("solve", "--tol", 5)), ("gauss_diag", ("solve", "--tol", 5))])
    def test_flags_refused_before_their_values_are_read(self, files, capsys, tmp_path, model,
                                                        argv):
        command, *flag = argv
        extra = ("--spec", files[model]) if command == "verify" else ()
        code = run_main(command, "--model", files[model], "--out", tmp_path / "out", *extra,
                        *flag)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and _single_error_line(captured.err)
        assert f"{flag[0]} does not apply to {command} " in captured.err
        assert list(tmp_path.iterdir()) == []


def test_console_entry_point(files):
    # the child imports the package from where this process found it, so the
    # test needs neither an install nor PYTHONPATH
    src = os.path.dirname(os.path.dirname(zigzag_pca.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "zigzag_pca.cli", "check",
                           "--model", str(files["two_letter"])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]


def _write_model(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _single_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


GAUSS_DOC = {"alphabet": {"grid": {"points": 33}},
             "kernel": {"family": "gaussian", "m": 3, "sigma": 1}, "lattice": "N"}
TENSOR_DOC = {"alphabet": {"labels": ["0", "1"]},
              "kernel": {"tensor": [[[0.5, 0.5], [0.8, 0.2]], [[0.2, 0.8], [0.5, 0.5]]]},
              "lattice": "N"}


class TestBadInput:
    @pytest.mark.parametrize("doc", [
        {**GAUSS_DOC, "alphabet": {"grid": {"points": "abc"}}},
        {**GAUSS_DOC, "kernel": {"family": "gaussian", "m": 3}},
        {**GAUSS_DOC, "kernel": {"family": "gaussian", "m": "3", "sigma": 1}},
        {**TENSOR_DOC, "kernel": {"tensor": [[[0.5, "x"], [0.8, 0.2]], [[0.2, 0.8], [0.5, 0.5]]]}},
        {**TENSOR_DOC, "kernel": {"tensor": [[[0.5, None], [0.8, 0.2]], [[0.2, 0.8], [0.5, 0.5]]]}},
        {**TENSOR_DOC, "lattice": {"cycle": "z"}},
        {**TENSOR_DOC, "lattice": {"cycle": "3"}},
        {**GAUSS_DOC, "alphabet": {"grid": {"points": "33"}}},
        {**GAUSS_DOC, "alphabet": {"grid": {"points": 33.5}}},
        {**GAUSS_DOC, "alphabet": {"grid": {"points": True}}},
        {**GAUSS_DOC, "alphabet": {"grid": {"points": 33, "halfwidth": "8"}}},
        {**GAUSS_DOC, "alphabet": {"grid": {"points": 33, "halfwidth": None}}},
        {**GAUSS_DOC, "kernel": {"family": "gaussian", "m": 3, "sigma": True}},
        {**GAUSS_DOC, "kernel": {"family": "gaussian", "m": 10 ** 400, "sigma": 1}},
        {**TENSOR_DOC, "lattice": {"cycle": 10 ** 400}},
        {**GAUSS_DOC, "kernel": {"family": "finite"}},
        {**GAUSS_DOC, "kernel": {"family": "nosuch", "m": 3, "sigma": 1}},
    ], ids=["points-abc", "missing-sigma", "m-string", "tensor-entry", "tensor-null", "cycle-z",
            "cycle-string", "points-string", "points-fractional", "points-boolean",
            "halfwidth-string", "halfwidth-null", "sigma-boolean", "m-beyond-float",
            "cycle-beyond-float", "family-finite", "family-unknown"])
    def test_malformed_model_is_one_error_line(self, tmp_path, capsys, doc):
        path = _write_model(tmp_path / "bad.json", doc)
        assert run_main("check", "--model", path) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        if doc["kernel"].get("family") in ("finite", "nosuch"):     # no family has these names
            assert "unknown kernel family" in err

    @pytest.mark.parametrize("cycle", [3.5, True])
    def test_cycle_length_must_be_whole(self, tmp_path, capsys, cycle):
        path = _write_model(tmp_path / "bad.json", {**TENSOR_DOC, "lattice": {"cycle": cycle}})
        assert run_main("check", "--model", path) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert f"cycle length must be a whole number, got {cycle!r}" in err

    @pytest.mark.parametrize("field,value", [("m", "3"), ("sigma", True), ("m", None),
                                             ("m", float("nan"))],
                             ids=["m-string", "sigma-boolean", "m-null", "m-nan"])
    def test_gaussian_spec_field_must_be_a_number(self, files, capsys, tmp_path, field, value):
        spec = tmp_path / "gspec.json"
        assert run_main("solve", "--model", files["gauss"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        doc[field] = value
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main("verify", "--model", files["gauss"], "--spec", spec, "--width", 101) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert f"spec field {field!r} is missing or malformed" in err

    @pytest.mark.parametrize("field,value,message", [
        ("phi", None, "spec field 'phi' is missing or malformed"),
        ("phi", float("nan"), "spec field 'phi' is missing or malformed"),
        ("sigma_prime_sq", float("inf"), "spec field 'sigma_prime_sq' is missing or malformed"),
        ("stationary_std", "1.3", "spec field 'stationary_std' is missing or malformed"),
        ("phi", 1.0, "need |phi| < 1"),
        ("phi", -1.5, "need |phi| < 1"),
        ("sigma_prime_sq", 0.0, "innovation variance must be positive"),
        ("sigma_prime_sq", -1.0, "innovation variance must be positive"),
        ("stationary_std", 0.0, "stationary std must be positive"),
        ("stationary_std", -2.0, "stationary std must be positive"),
    ], ids=["phi-missing", "phi-nan", "variance-inf", "std-string", "phi-one", "phi-beyond",
            "variance-zero", "variance-negative", "std-zero", "std-negative"])
    def test_gaussian_chain_field_out_of_domain(self, files, capsys, tmp_path, field, value,
                                                message):
        spec = tmp_path / "gspec.json"
        assert run_main("solve", "--model", files["gauss"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main("verify", "--model", files["gauss"], "--spec", spec, "--width", 101) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert message in err

    def test_overflowing_cyclic_spec_is_one_error_line(self, capsys, tmp_path):
        three = three_letter_tensor()
        model, spec = tmp_path / "c3.json", tmp_path / "c3spec.json"
        save_model(model, three, {"cycle": 3})
        big = [["1e100"] * 3] * 3
        spec.write_text(json.dumps({"type": "chzmc", "n": 3, "d": big, "u": big}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy's overflow warnings included
            assert run_main("verify", "--model", model, "--spec", spec) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert "partition constant inf" in err

    @pytest.mark.parametrize("width", [1, 0, -5])
    def test_verify_width_refused_before_the_battery(self, files, capsys, tmp_path,
                                                     monkeypatch, width):
        spec = tmp_path / "gspec.json"
        assert run_main("solve", "--model", files["gauss"], "--out", spec) == 0
        capsys.readouterr()
        entered = []
        monkeypatch.setattr(ck, "quadrature_check_conditions",
                            lambda *a, **k: entered.append(a) or ())
        assert run_main("verify", "--model", files["gauss"], "--spec", spec,
                        "--width", width) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert "width must be >= 2" in err
        assert entered == []

    @pytest.mark.parametrize("model,command", [("gauss", "simulate"), ("two_letter", "simulate"),
                                               ("gauss", "verify")])
    def test_huge_width_is_one_error_line(self, files, capsys, tmp_path, model, command):
        if command == "verify":
            spec = tmp_path / "gspec.json"
            assert run_main("solve", "--model", files[model], "--out", spec) == 0
            capsys.readouterr()
            extra = ("--spec", spec)
        else:
            extra = ("--steps", 1, "--out", tmp_path / "sim")
        start = time.perf_counter()
        assert run_main(command, "--model", files[model], *extra, "--width", 10**12) == 2
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert captured.out == "" and _single_error_line(captured.err)
        assert f"float64 cells, over the {fs.SIZE_GUARD} guard" in captured.err
        assert elapsed < 0.5
        assert not list(tmp_path.glob("sim*"))

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_width_guard_admits_its_bound(self, files, capsys, tmp_path, monkeypatch, command):
        # simulate holds (steps + 3) lines of width cells, verify 3
        if command == "verify":
            spec = tmp_path / "gspec.json"
            assert run_main("solve", "--model", files["gauss"], "--out", spec) == 0
            model, extra, lines = files["gauss"], ("--spec", spec), 3
        else:
            model, extra, lines = files["gauss"], ("--steps", 3, "--out", tmp_path / "sim"), 6
        monkeypatch.setattr(fs, "SIZE_GUARD", 40 * lines)
        capsys.readouterr()
        assert run_main(command, "--model", model, *extra, "--width", 40) in (0, 1)
        capsys.readouterr()
        assert run_main(command, "--model", model, *extra, "--width", 41) == 2
        assert f"{41 * lines} float64 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [-5, 2, 20_001])
    @pytest.mark.parametrize("model", ["two_letter", "two_letter_cycle", "factorized3"])
    def test_verify_width_refused_on_a_finite_model(self, files, capsys, tmp_path, model,
                                                    width):
        path = files[model]
        spec = tmp_path / "spec.json"
        kmax = () if model == "two_letter_cycle" else ("--kmax", 0)    # the cycle refuses it
        assert run_main("solve", "--model", path, "--out", spec) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", path, "--spec", spec, *kmax) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", path, "--spec", spec, *kmax,
                        "--width", width) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)
        assert "--width" in captured.err

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_out_that_cannot_be_written_prints_no_report(self, files, capsys, tmp_path,
                                                         command):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files["gauss"], "--out", spec) == 0
        capsys.readouterr()
        extra = ("--spec", spec, "--width", 101) if command == "verify" else ()
        assert run_main(command, "--model", files["gauss"], *extra,
                        "--out", tmp_path / "missing" / "report.json") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and _single_error_line(captured.err)

    @pytest.mark.parametrize("edit", ["u-first-row", "u-3x4", "rho0-short", "rho0-matrix"])
    def test_half_line_spec_shapes(self, files, capsys, tmp_path, edit):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files["two_letter"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        if edit == "u-first-row":
            doc["u"] = doc["u"][:1]          # broadcast against d by the oracle
        elif edit == "u-3x4":
            doc["u"] = [["0.25"] * 4] * 3
        elif edit == "rho0-short":
            doc["rho0"] = ["1"]
        else:
            doc["rho0"] = [doc["rho0"]] * 2
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert "spec kernels incompatible with model alphabet" in err

    @pytest.mark.parametrize("edit", ["u-first-row", "u-3x4"])
    def test_cyclic_spec_shapes(self, files, capsys, tmp_path, edit):
        spec = tmp_path / "cspec.json"
        assert run_main("solve", "--model", files["two_letter_cycle"], "--out", spec) == 0
        doc = json.loads(spec.read_text())
        doc["u"] = doc["u"][:1] if edit == "u-first-row" else [["0.25"] * 4] * 3
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter_cycle"], "--spec", spec) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert "spec kernels incompatible with model alphabet" in err

    def test_whole_float_cycle_length_accepted(self, tmp_path, capsys):
        path = _write_model(tmp_path / "c.json", {**TENSOR_DOC, "lattice": {"cycle": 3.0}})
        assert run_main("check", "--model", path) in (0, 1)
        assert json.loads(capsys.readouterr().out)["cycle"] == 3

    @pytest.mark.parametrize("model,flags", [
        ("gauss", ("--tol", "nan")), ("gauss", ("--tol", "-1")), ("two_letter", ("--tol", "inf")),
        ("two_letter", ("--tol=-1e-12",)), ("gauss", ("--grid-points", 0)),
        ("gauss", ("--grid-points", MAX_GRID_POINTS + 1)), ("gauss", ("--grid-halfwidth", 0)),
        ("two_letter", ("--grid-points", 0, "--grid-halfwidth", -5)),
        ("two_letter", ("--grid-points", 33)), ("two_letter", ("--grid-halfwidth", 5)),
        ("two_letter_cycle", ("--grid-points", 33)),
    ], ids=["tol-nan", "tol-negative", "finite-tol-inf", "finite-tol-negative", "points-0",
            "points-over-bound", "halfwidth-0", "finite-bad-grid", "finite-grid-points",
            "finite-grid-halfwidth", "cycle-grid-points"])
    def test_bad_flag_is_one_error_line(self, files, capsys, model, flags):
        assert run_main("check", "--model", files[model], *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)

    FAMILY_FIELDS = {"gaussian": {"m": 3, "sigma": 1}, "gaussian_diag": {"m": 3, "sigma": 1},
                     "beta": {"alpha": 2, "beta": 3, "m": 1, "theta": 1}}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("family,field", [(f, k) for f, block in FAMILY_FIELDS.items()
                                              for k in block])
    def test_non_finite_family_field_is_one_error_line(self, tmp_path, capsys, family, field,
                                                       value):
        # json writes NaN and Infinity, and json.load reads them back as floats
        kernel = {"family": family, **self.FAMILY_FIELDS[family], field: value}
        path = _write_model(tmp_path / "bad.json", {"alphabet": {"grid": {"points": 9}},
                                                    "kernel": kernel, "lattice": "N"})
        assert run_main("check", "--model", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)
        assert f"{field!r} must be a finite number" in captured.err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_model_halfwidth_is_one_error_line(self, tmp_path, capsys, value):
        doc = {**GAUSS_DOC, "alphabet": {"grid": {"points": 33, "halfwidth": value}}}
        path = _write_model(tmp_path / "bad.json", doc)
        assert run_main("check", "--model", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)
        assert "halfwidth must be a finite number" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_halfwidth_flag_is_one_error_line(self, files, capsys, value):
        assert run_main("check", "--model", files["gauss"], f"--grid-halfwidth={value}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)
        assert "halfwidth must be a finite number" in captured.err

    def test_report_with_infinite_residual_still_prints(self, tmp_path, capsys):
        # a NaN-producing sweep fails with residual inf, which json writes as
        # Infinity: a report of it must stay readable
        doc = {"reports": [{"condition": "factorization", "residual": float("inf"),
                            "tolerance": 1e-6, "passed": False}], "passed": False}
        path = _write_model(tmp_path / "report.json", doc)
        assert run_main("report", "--in", path) == 0
        assert "[FAIL] factorization: residual inf" in capsys.readouterr().out

    def test_huge_model_grid_refused_before_allocation(self, tmp_path, capsys):
        path = _write_model(tmp_path / "huge.json",
                            {**GAUSS_DOC, "alphabet": {"grid": {"points": 1e9}}})
        assert run_main("check", "--model", path) == 2
        assert "bound" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"reports": [{"condition": "x"}], "passed": True},
        {"reports": [{"condition": "x", "residual": 0.0, "tolerance": "1e-10"}]},
        {"reports": ["x"]},
        {"reports": {"condition": "x"}},
        {},
        {"reports": [], "passed": "yes"},
        # forged verdicts: a stored flag that residual <= tolerance contradicts
        {"reports": [{"condition": "x", "residual": 1.0, "tolerance": 0.0, "passed": True}],
         "passed": True},
        {"reports": [{"condition": "x", "residual": 1.0, "tolerance": 0.0, "passed": False}],
         "passed": True},
    ], ids=["no-residual", "string-tolerance", "entry-not-object", "reports-not-list", "empty",
            "passed-not-boolean", "forged-entry-pass", "forged-overall-pass"])
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, doc):
        path = _write_model(tmp_path / "report.json", doc)
        assert run_main("report", "--in", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)

    def test_window_beyond_size_guard(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        run_main("solve", "--model", files["two_letter"], "--out", spec)
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec,
                        "--kmax", 20) == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [12, 13])
    def test_screen_miss_beyond_the_sweep_guard_exits_one(self, capsys, tmp_path, seed):
        # a valid cycle whose built d and u commute only to rounding: at
        # --tol 1e-16 the screen misses and the 2^30 sweep is beyond the guard
        tens = fs.make_factorized_tensor(2, seed)[0]
        model, spec = tmp_path / "c30.json", tmp_path / "spec.json"
        save_model(model, tens, {"cycle": 30})
        for argv in (("check",), ("solve", "--out", spec)):
            assert run_main(*argv, "--model", model, "--tol", "1e-16") == 1
            rep = json.loads(capsys.readouterr().out)["reports"][-1]
            assert rep["condition"] == "cycle-commutation" and rep["residual"] == float("inf")
            assert rep["notes"] == ("undecided: the matrix screen failed and the full cycle "
                                    "sweep exceeds the size guard")
            assert rep["witnesses"]["matrix_commutation_residual"] > 1e-16
        assert not spec.exists()

    @pytest.mark.parametrize("lattice", ["N", {"cycle": 3}], ids=["half-line", "cycle3"])
    def test_alphabet_beyond_max_kappa_refused(self, capsys, tmp_path, lattice):
        k = fs.MAX_KAPPA + 1
        tens = TransitionTensor(np.full((k, k, k), 1.0 / k))
        model, spec = tmp_path / "k65.json", tmp_path / "spec.json"
        save_model(model, tens, lattice)
        for argv in (("check",), ("solve", "--out", spec)):
            assert run_main(*argv, "--model", model) == 2
            err = capsys.readouterr().err
            assert _single_error_line(err) and f"supported bound {fs.MAX_KAPPA}" in err
        assert not spec.exists()

    @pytest.mark.parametrize("model", ["gauss", "two_letter_cycle"])
    def test_kmax_refused_where_nothing_reads_it(self, files, capsys, tmp_path, model):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files[model], "--out", spec) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", files[model], "--spec", spec, "--kmax", -5) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err) and "--kmax" in captured.err

    def test_half_line_verify_defaults_to_kmax_two(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        assert run_main("solve", "--model", files["two_letter"], "--out", spec) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kmax"] == 2 and doc["reports"][0]["witnesses"]["k_max"] == 2

    def test_cycle_beyond_size_guard(self, capsys, tmp_path):
        two = three_letter_tensor().restrict([1, 2])
        model, spec = tmp_path / "c30.json", tmp_path / "c30spec.json"
        save_model(model, two, {"cycle": 30})
        assert run_main("solve", "--model", model, "--out", spec) == 0
        capsys.readouterr()
        assert run_main("verify", "--model", model, "--spec", spec) == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa, lattice, kmax", [
        (3, "N", 10_000_000),        # kappa^(2k+3) has millions of digits
        (3, {"cycle": 10_000}, None),    # kappa^(2n) has 9543 digits; a cycle takes no --kmax
        (1, "N", 10_000),            # one entry a window, but a loop per cell
    ], ids=["kappa3-kmax1e7", "kappa3-cycle1e4", "kappa1-kmax1e4"])
    def test_oversized_window_refused_at_once(self, capsys, tmp_path, kappa, lattice, kmax):
        tens = (fs.make_factorized_tensor(3, 11)[0] if kappa == 3
                else TransitionTensor(np.ones((1, 1, 1))))
        model, spec = tmp_path / "model.json", tmp_path / "spec.json"
        save_model(model, tens, lattice)
        assert run_main("solve", "--model", model, "--out", spec) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = run_main("verify", "--model", model, "--spec", spec,
                        *(() if kmax is None else ("--kmax", kmax)))
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and _single_error_line(err) and "guard" in err
        assert re.search(r"\d{31}", err) is None
        assert elapsed < 0.1

    def test_negative_kmax_is_not_a_vacuous_pass(self, files, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        run_main("solve", "--model", files["two_letter"], "--out", spec)
        capsys.readouterr()
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec,
                        "--kmax", -1) == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["d", "u", "rho0"])
    def test_nan_spec_is_not_a_vacuous_pass(self, files, capsys, tmp_path, field):
        # a NaN entry passes the row-sum checks and made every window NaN
        spec = tmp_path / "spec.json"
        run_main("solve", "--model", files["two_letter"], "--out", spec)
        capsys.readouterr()
        doc = json.loads(spec.read_text())
        entry = doc[field] if field == "rho0" else doc[field][0]
        entry[0] = "nan"
        spec.write_text(json.dumps(doc))
        assert run_main("verify", "--model", files["two_letter"], "--spec", spec) == 2
        assert "finite" in capsys.readouterr().err

    def test_negative_steps(self, files, capsys, tmp_path):
        assert run_main("simulate", "--model", files["two_letter"], "--steps", -1,
                        "--out", tmp_path / "sim") == 2
        assert _single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("width, steps", [(0, 0), (-3, 0), (1, 0), (5, 5), (5, 9)],
                             ids=["0", "-3", "1", "5-steps5", "5-steps9"])
    @pytest.mark.parametrize("model", ["two_letter", "gauss", "gauss_diag"])
    def test_simulate_width_refused_before_any_draw(self, files, capsys, tmp_path,
                                                    monkeypatch, model, width, steps):
        # the window loses one cell a step, so --steps >= --width is refused too
        entered = []
        monkeypatch.setattr(fs, "solve_invariant_hzmc", lambda *a, **k: entered.append(a))
        monkeypatch.setattr(sim, "sample_hzmc_lines", lambda *a, **k: entered.append(a))
        assert run_main("simulate", "--model", files[model], "--width", width, "--steps", steps,
                        "--out", tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "--width >= 2" in err
        assert entered == [] and not (tmp_path / "sim.csv").exists()

    SEED_CASES = [("simulate", "two_letter"), ("simulate", "gauss"), ("verify", "gauss")]

    @staticmethod
    def _run_with_seed(files, tmp_path, command, model, seed):
        spec = tmp_path / "spec.json"
        extra = ("--spec", spec, "--width", 2001) if command == "verify" else ("--width", 10,
                                                                              "--steps", 2)
        return run_main(command, "--model", files[model], "--seed", seed, *extra,
                        "--out", tmp_path / "out")

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize("command, model", SEED_CASES)
    def test_seed_outside_the_key_range_refused_before_any_draw(
            self, files, capsys, tmp_path, monkeypatch, command, model, seed):
        # refused before the model or the spec (not written here) is read
        entered = []
        monkeypatch.setattr(ck, "quadrature_check_conditions", lambda *a, **k: entered.append(a))
        monkeypatch.setattr(sim, "sample_hzmc_lines", lambda *a, **k: entered.append(a))
        assert self._run_with_seed(files, tmp_path, command, model, seed) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "--seed must be in [0, 2**64)" in err
        assert entered == [] and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, model", SEED_CASES)
    def test_largest_seed_accepted(self, files, capsys, tmp_path, command, model):
        run_main("solve", "--model", files[model], "--out", tmp_path / "spec.json")
        assert self._run_with_seed(files, tmp_path, command, model, (1 << 64) - 1) == 0

    def test_simulate_refuses_a_kernel_with_a_zero_entry(self, capsys, tmp_path):
        t = np.full((2, 2, 2), 0.5)
        t[0, 1] = [1.0, 0.0]
        tens = TransitionTensor(t)
        path = tmp_path / "zero.json"
        save_model(path, tens, "N")
        assert run_main("simulate", "--model", path, "--width", 10, "--steps", 2,
                        "--out", tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert "simulate requires an everywhere-positive kernel" in err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("command", ["check", "solve", "verify", "simulate"])
    def test_family_on_a_cycle_is_refused(self, tmp_path, capsys, command):
        path = _write_model(tmp_path / "gc.json", {**GAUSS_DOC, "lattice": {"cycle": 4}})
        extra = {"solve": ("--out", tmp_path / "s.json"), "verify": ("--spec", path),
                 "simulate": ("--out", tmp_path / "sim")}.get(command, ())
        assert run_main(command, "--model", path, *extra) == 2
        assert "'cycle': 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "solve", "verify", "simulate"])
    @pytest.mark.parametrize("kernel", [
        {"family": "tasep", "r": 0.5, "v": 2.0, "p": 1.0, "spacing": 1.0},
        {"family": "fpp", "weight_family": "gamma", "weight_params": [2, 1.5], "init_value": 1},
    ], ids=["tasep", "fpp"])
    def test_particle_rule_is_an_unknown_family(self, tmp_path, capsys, kernel, command):
        # the exclusion and first-passage rules have no chain, and no family reads them
        path = _write_model(tmp_path / "rule.json", {"alphabet": {"grid": {"points": 9}},
                                                     "kernel": kernel, "lattice": "N"})
        extra = {"solve": ("--out", tmp_path / "s.json"), "verify": ("--spec", path),
                 "simulate": ("--out", tmp_path / "sim")}.get(command, ())
        assert run_main(command, "--model", path, *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown kernel family {kernel['family']!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rule.json"]

    def test_finite_simulate_on_a_cycle_is_refused(self, files, capsys, tmp_path):
        assert run_main("simulate", "--model", files["two_letter_cycle"], "--steps", 3,
                        "--width", 10, "--out", tmp_path / "sim") == 2
        assert "'cycle': 3" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()



class TestFamilyParameters:
    """A named family's parameters are read once, under the model file's names."""

    FIELDS = TestBadInput.FAMILY_FIELDS

    @pytest.mark.parametrize("family,field,value", [
        ("beta", "theta", -1), ("beta", "theta", 5e-324), ("beta", "alpha", 0),
        ("gaussian", "m", 1), ("gaussian", "sigma", 0), ("gaussian_diag", "m", -2)])
    def test_out_of_domain_value_names_the_model_field(self, tmp_path, capsys, family, field,
                                                       value):
        kernel = {"family": family, **self.FIELDS[family], field: value}
        path = _write_model(tmp_path / "bad.json", {"alphabet": {"grid": {"points": 9}},
                                                    "kernel": kernel, "lattice": "N"})
        assert run_main("check", "--model", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _single_error_line(captured.err)
        assert re.search(rf"\b{field}\b", captured.err), captured.err

    SIGMA_RUNS = {"check": (), "solve": ("--out", "spec.json"),
                  "simulate": ("--width", 64, "--steps", 3, "--out", "sim")}

    def _run_sigma(self, tmp_path, family, sigma, command):
        path = _write_model(tmp_path / "model.json", {"alphabet": {"grid": {"points": 33}},
                                                      "kernel": {"family": family, "m": 3,
                                                                 "sigma": sigma},
                                                      "lattice": "N"})
        extra = [tmp_path / a if a in ("spec.json", "sim") else a
                 for a in self.SIGMA_RUNS[command]]
        return run_main(command, "--model", path, *extra)

    @pytest.mark.parametrize("command", sorted(SIGMA_RUNS))
    @pytest.mark.parametrize("family", ["gaussian", "gaussian_diag"])
    @pytest.mark.parametrize("sigma", [1e160, 1e300])
    def test_sigma_beyond_the_float_range_is_one_error_line(self, tmp_path, capsys, family,
                                                            sigma, command):
        # 2 sigma^2 / l, the spec's sigma_prime_sq, cannot be a finite double
        assert self._run_sigma(tmp_path, family, sigma, command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and _single_error_line(captured.err)
        assert f"sigma {sigma:g} is too large" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("command", sorted(SIGMA_RUNS))
    @pytest.mark.parametrize("family", ["gaussian", "gaussian_diag"])
    def test_sigma_1e154_still_runs(self, tmp_path, capsys, family, command):
        assert self._run_sigma(tmp_path, family, 1e154, command) == 0
        assert capsys.readouterr().err == ""
        if command == "solve":
            spec = json.loads((tmp_path / "spec.json").read_text())
            assert spec["sigma_prime_sq"] == 2.0 * (1e154 ** 2 / spec["l"])

    @pytest.mark.parametrize("field", ["sigma_prime_sq", "stationary_std"])
    def test_gaussian_spec_too_narrow_for_the_grid_fails(self, files, capsys, tmp_path, field):
        # the chain's densities pass 1e308 on the grid: exit 1, with no numpy warning
        spec = tmp_path / "spec.json"
        run_main("solve", "--model", files["gauss"], "--out", spec)
        spec.write_text(json.dumps({**json.loads(spec.read_text()), field: 5e-324}))
        capsys.readouterr()
        assert run_main("verify", "--model", files["gauss"], "--spec", spec, "--width", 64) == 1
        assert capsys.readouterr().err == ""

    def test_beta_domain_message(self, tmp_path, capsys):
        kernel = {"family": "beta", "alpha": 1, "beta": 1, "m": 1, "theta": -1}
        path = _write_model(tmp_path / "bad.json", {"alphabet": {"grid": {"points": 9}},
                                                    "kernel": kernel, "lattice": "N"})
        assert run_main("check", "--model", path) == 2
        assert capsys.readouterr().err == "error: theta must be positive\n"

    @pytest.mark.parametrize("alphabet,kernel,what", [
        ({"grid": {"points": 9}}, {"family": "gaussian", "m": 10 ** 400, "sigma": 1},
         "kernel field 'm'"),
        ({"grid": {"points": 9, "halfwidth": 10 ** 400}}, {"family": "gaussian", "m": 3,
                                                           "sigma": 1}, "grid halfwidth")])
    def test_int_beyond_the_float_range_reads_as_inf(self, tmp_path, capsys, alphabet, kernel,
                                                     what):
        path = _write_model(tmp_path / "big.json", {"alphabet": alphabet, "kernel": kernel,
                                                    "lattice": "N"})
        assert run_main("check", "--model", path) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert err.endswith(f"{what} must be a finite number, got inf\n")

    @pytest.mark.parametrize("family", ["gaussian", "gaussian_diag", "beta"])
    def test_one_number_field_call_per_parameter(self, tmp_path, capsys, monkeypatch, family):
        calls = []
        real = cli.number_field

        def counting(value, what, *args, **kwargs):
            calls.append(what)
            return real(value, what, *args, **kwargs)

        monkeypatch.setattr(cli, "number_field", counting)
        kernel = {"family": family, **self.FIELDS[family]}
        path = _write_model(tmp_path / "ok.json", {"alphabet": {"grid": {"points": 9}},
                                                   "kernel": kernel, "lattice": "N"})
        run_main("check", "--model", path)
        capsys.readouterr()
        assert calls == [f"kernel field {key!r}" for key in self.FIELDS[family]]

    def test_parser_is_built_once(self, files, capsys):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert run_main("check", "--model", files["two_letter"]) == 0
        capsys.readouterr()
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser.cache_info().hits == 1

# The fuzzer's documents: a finite half-line model, a finite cycle model, one model of each
# named family, the spec each model's solve writes, and a check report.  A mutation replaces
# or drops one field, sometimes two, with a value of FUZZ_POOL; a flag takes a value of the
# same pool.  Whatever the input, the exit code is 0, 1 or 2, no exception escapes (a numpy
# RuntimeWarning is one here, see pyproject.toml), and exit 2 prints one error line.
FUZZ_MODELS = {
    "finite-line": TENSOR_DOC,
    "finite-cycle": {**TENSOR_DOC, "lattice": {"cycle": 3}},
    "gaussian": GAUSS_DOC,
    "gaussian_diag": {**GAUSS_DOC, "kernel": {"family": "gaussian_diag", "m": 3, "sigma": 1}},
    "beta": {"alphabet": {"grid": {"points": 17, "halfwidth": 6.0}},
             "kernel": {"family": "beta", "alpha": 1, "beta": 1, "m": 1, "theta": 1},
             "lattice": "N"},
}
FUZZ_POOL = ["drop", "abc", None, True, False, [1.0], [], {}, 0, -0.0, 1, -1, -3, 2.5, 33,
             10 ** 7, 10 ** 30, 1 << 64, 1e160, -1e160, 1e-160, -1e-160, 1e300, 5e-324,
             float("nan"), float("inf"), -float("inf")]
# the model whose sigma ** 2 once raised OverflowError out of check, solve and simulate
_SIGMA_1E160 = ("gaussian", {**GAUSS_DOC, "kernel": {"family": "gaussian", "m": 3,
                                                     "sigma": 1e160}})


def _fuzz(examples):
    """A fixed example budget, drawn the same on every run."""
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])



@pytest.fixture(scope="module")
def fuzz_docs(tmp_path_factory):
    """The specs that solve writes for the fuzzer's models, and a check report."""
    root = tmp_path_factory.mktemp("fuzz")
    specs = {}
    for name, doc in FUZZ_MODELS.items():
        model, spec = _write_model(root / f"{name}.json", doc), root / f"{name}-spec.json"
        if run_main("solve", "--model", model, "--out", spec) == 0:
            specs[name] = json.loads(spec.read_text())
    run_main("check", "--model", root / "finite-line.json", "--out", root / "report.json")
    return specs, json.loads((root / "report.json").read_text())


def _paths(doc, prefix=()):
    """Every (path, value) inside a model document, objects and lists alike."""
    yield prefix
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, replacement):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if replacement == "drop":
        del node[last]
    else:
        node[last] = replacement
    return doc


@hst.composite
def _mutated(draw, bases):
    """(name, the named document with one field replaced or dropped, sometimes two)."""
    name = draw(hst.sampled_from(sorted(bases)))
    doc = bases[name]
    for _ in range(draw(hst.sampled_from([1, 1, 2]))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        path = draw(hst.sampled_from(paths))
        replacement = draw(hst.sampled_from(FUZZ_POOL))
        if replacement == "drop" and isinstance(path[-1], int):
            replacement = None
        doc = _mutate(doc, path, replacement)
    return name, doc


def _holds_the_exit_contract(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run_main(*argv)
        except SystemExit as exc:      # argparse refuses a flag value: usage, then one error
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        assert err == "" or _single_error_line(err), err


def _route_argv(tmp_path, name, command, spec):
    """The argv of ``command`` on the model in tmp_path, with the flags that keep each route
    small (a Gaussian verify's Monte-Carlo line of 64 cells)."""
    extra = {"solve": ("--out", tmp_path / "out.json"),
             "verify": ("--spec", spec, *(("--width", 64) if "gauss" in name else ())),
             "simulate": ("--steps", 3, "--width", 64, "--out", tmp_path / "sim")}
    return (command, "--model", tmp_path / "fuzz.json", *extra.get(command, ()))


def _write_spec(tmp_path, specs, name, doc=None):
    return _write_model(tmp_path / "spec.json", doc if doc is not None else specs.get(name, {}))


@_fuzz(450)
@example(case=_SIGMA_1E160, command="check")
@example(case=_SIGMA_1E160, command="solve")
@example(case=_SIGMA_1E160, command="simulate")
@given(case=_mutated(FUZZ_MODELS), command=hst.sampled_from(COMMANDS))
def test_exit_code_contract_on_mutated_models(tmp_path, fuzz_docs, case, command):
    name, doc = case
    _write_model(tmp_path / "fuzz.json", doc)
    spec = _write_spec(tmp_path, fuzz_docs[0], name)
    _holds_the_exit_contract(*_route_argv(tmp_path, name, command, spec))


@_fuzz(200)
@given(data=hst.data())
def test_exit_code_contract_on_mutated_specs(tmp_path, fuzz_docs, data):
    name, doc = data.draw(_mutated(fuzz_docs[0]))
    _write_model(tmp_path / "fuzz.json", FUZZ_MODELS[name])
    spec = _write_spec(tmp_path, fuzz_docs[0], name, doc)
    _holds_the_exit_contract(*_route_argv(tmp_path, name, "verify", spec))


@_fuzz(120)
@given(data=hst.data())
def test_exit_code_contract_on_mutated_reports(tmp_path, fuzz_docs, data):
    _, doc = data.draw(_mutated({"report": fuzz_docs[1]}))
    _holds_the_exit_contract("report", "--in", _write_model(tmp_path / "report.json", doc))


@_fuzz(450)
@given(name=hst.sampled_from(sorted(FUZZ_MODELS)), command=hst.sampled_from(COMMANDS),
       flag=hst.sampled_from(sorted(cli.OPTIONS)),
       value=hst.sampled_from([v for v in FUZZ_POOL if v != "drop"]))
def test_exit_code_contract_on_flags(tmp_path, fuzz_docs, name, command, flag, value):
    _write_model(tmp_path / "fuzz.json", FUZZ_MODELS[name])
    spec = _write_spec(tmp_path, fuzz_docs[0], name)
    _holds_the_exit_contract(*_route_argv(tmp_path, name, command, spec), flag, value)
