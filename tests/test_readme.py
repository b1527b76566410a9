"""The examples of README.md hold as written.

Every fenced ```python block runs to the end in a fresh namespace, and every
```json block, a model example, passes ``parse_model``.  A signature change
that leaves a documented example broken fails here, and so does a family
whose parameters the "Families:" sentence names otherwise than the code.
"""

import dataclasses
import functools
import json
import pathlib
import re

import pytest

from zigzag_pca import cli
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


def test_families_sentence_names_each_parameter_class():
    # "`name` (`field`, ...; notes)": the fields before the first ";"
    sentence = re.search(r"^Families: (.*?)\.$", README.read_text(), re.M | re.S).group(1)
    listed = {name: re.findall(r"`(\w+)`", inner.split(";")[0])
              for name, inner in re.findall(r"`(\w+)`\s+\(([^()]*)\)", sentence)}
    read = {name: fam.params.args[0] for name, fam in cli.FAMILIES.items()
            if isinstance(fam.params, functools.partial) and fam.params.func is cli._read_params}
    assert set(read) == {"gaussian", "gaussian_diag", "beta", "tasep"}
    for name, cls in read.items():
        assert listed.get(name) == [f.name for f in dataclasses.fields(cls)], name
