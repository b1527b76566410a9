"""Each demo's ``main()`` runs to the end without a warning."""

import contextlib
import importlib.util
import io
import pathlib
import warnings

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [p.stem for p in DEMOS] == ["beta_drift", "cyclic_chain", "finite_pipeline",
                                       "gaussian_ar1"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        module.main()
    assert out.getvalue().strip()
