"""The examples of README.md hold as written.

Every fenced ```python block runs to the end in a fresh namespace, and every
```json block, a model example, passes ``parse_model``.  A signature change
that leaves a documented example broken fails here, and so does a family
whose parameters the "Families:" sentence names otherwise than the code, a
capability table that says otherwise than ``cli.ROUTES``, or a usage block
whose options are not those the parser registers.
"""

import argparse
import dataclasses
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
    assert set(listed) == set(cli.FAMILIES)
    for name, fam in cli.FAMILIES.items():
        assert listed[name] == [f.name for f in dataclasses.fields(fam.params)], name


def test_capability_table_is_the_route_table():
    # "| `name`, lattice | check | solve | verify | simulate | reads |", finite unquoted
    rows = re.findall(r"^\| `?(\w+)`?, (line|cycle) \| (.*) \|$", README.read_text(), re.M)
    assert sorted((kind, lattice) for kind, lattice, _ in rows) == sorted(cli.ROUTES)
    for kind, lattice, entries in rows:
        *routes, reads = entries.split(" | ")
        cell = cli.ROUTES[kind, lattice]
        assert routes == [r if isinstance(r, str) else "✓"
                          for r in (cell[c] for c in ("check", "solve", "verify", "simulate"))]
        assert re.findall(r"`(--[\w-]+)`", reads) == list(cell["options"]), (kind, lattice)


def test_usage_block_lists_the_options_each_subcommand_registers():
    usage = re.search(r"^```\n(zigzag-pca check .*?)^```$", README.read_text(), re.M | re.S)
    listed = {name: set(re.findall(r"--[\w-]+", text)) for name, text in
              re.findall(r"^zigzag-pca (\w+)(.*?)(?=^zigzag-pca |\Z)", usage.group(1), re.M | re.S)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
                  for name, sp in sub.choices.items()}
    assert listed == registered
