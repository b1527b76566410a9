"""The examples of README.md hold as written.

Every fenced ```python block runs to the end in a fresh namespace, and every
```json block, a model example, passes ``parse_model``.  A signature change
that leaves a documented example broken fails here, and so does a family
whose parameters the "Families:" sentence names otherwise than the code, a
capability table that says otherwise than ``cli.ROUTES`` (each route's flags
and their defaults included), or a usage block whose options are not those
some route of the subcommand reads.
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


def _reads(entry):
    """The flags a ✓ entry lists, each with its default (None where it shows none)."""
    return {flag: None if value == "" else float(value)
            for flag, value in re.findall(r"`(--[\w-]+) ?([^`]*)`", entry)}


def test_capability_table_is_the_route_table():
    # "| `name`, lattice | check | solve | verify | simulate |", finite unquoted; a running
    # route is "✓" and its flags with their defaults, "`--kmax 2`", a refused one its reason
    rows = re.findall(r"^\| `?(\w+)`?, (line|cycle) \| (.*) \|$", README.read_text(), re.M)
    assert sorted((kind, lattice) for kind, lattice, _ in rows) == sorted(cli.ROUTES)
    for kind, lattice, entries in rows:
        cell = cli.ROUTES[kind, lattice]
        for command, entry in zip(("check", "solve", "verify", "simulate"), entries.split(" | ")):
            route = cell[command]
            if isinstance(route, str):
                assert entry == route, (kind, lattice, command)
                continue
            assert entry.startswith("✓"), (kind, lattice, command)
            assert list(_reads(entry).items()) == list(route[1].items()), (kind, lattice, command)


def test_usage_block_lists_the_flags_each_subcommand_reads():
    # per subcommand: the flags it always takes, and every flag some route of it reads
    usage = re.search(r"^```\n(zigzag-pca check .*?)^```$", README.read_text(), re.M | re.S)
    listed = {name: set(re.findall(r"--[\w-]+", text)) for name, text in
              re.findall(r"^zigzag-pca (\w+)(.*?)(?=^zigzag-pca |\Z)", usage.group(1), re.M | re.S)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
                  for name, sp in sub.choices.items()}
    read = {name: {flag for cell in cli.ROUTES.values() if not isinstance(cell[name], str)
                   for flag in cell[name][1]} for name in ("check", "solve", "verify", "simulate")}
    assert set(listed) == set(registered)
    for name, flags in registered.items():
        assert listed[name] == (flags - set(cli.OPTIONS)) | read.get(name, set()), name
