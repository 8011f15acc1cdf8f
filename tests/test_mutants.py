"""tools/mutants.py stays in step with src/ and tests/: every mutant can be
applied, and every test it names exists.  The mutant run itself takes
minutes and is run by hand; these checks take milliseconds."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutants  # its dataclass looks its module up there
_spec.loader.exec_module(mutants)

MUTANTS = mutants.MUTANTS
NODE_IDS = sorted({t for m in MUTANTS for t in m.tests})


def defined_names(body: list[ast.stmt]) -> dict[str, list[ast.stmt]]:
    """The classes and functions a module or class body defines, with their bodies."""
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name: node.body for node in body if isinstance(node, kinds)}


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_string_occurs_once_and_the_edit_changes_it(m):
    text = (ROOT / "src" / m.file).read_text()
    assert text.count(m.old) == 1
    assert m.new != m.old and m.tests


@pytest.mark.parametrize("node_id", NODE_IDS)
def test_node_id_names_a_defined_test(node_id):
    path, *names = node_id.split("::")
    assert (ROOT / path).is_file() and names
    body = ast.parse((ROOT / path).read_text()).body
    # a parametrized case keeps its function's name before the "["
    for name in [*names[:-1], re.sub(r"\[.*\]$", "", names[-1])]:
        defined = defined_names(body)
        assert name in defined, f"{name} is not defined in {path}"
        body = defined[name]
