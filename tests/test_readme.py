"""The examples of README.md hold as written.

Every fenced ```python block runs to the end in a fresh namespace, and every
```json block, a model example, passes ``parse_model``.  A signature change
that leaves a documented example broken fails here.
"""

import json
import pathlib
import re

import pytest

from zigzag_pca.core_types import parse_model

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README.read_text(), re.M | re.S)
PYTHON = [code for lang, code in BLOCKS if lang == "python"]
MODELS = [text for lang, text in BLOCKS if lang == "json"]


def test_readme_has_examples():
    assert len(PYTHON) >= 2 and len(MODELS) >= 2


@pytest.mark.parametrize("code", PYTHON, ids=[f"python{i}" for i in range(len(PYTHON))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("text", MODELS, ids=[f"json{i}" for i in range(len(MODELS))])
def test_json_block_is_a_model(text):
    model = parse_model(json.loads(text))
    assert (model["tensor"] is None) != (model["family"] is None)
