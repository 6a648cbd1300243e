"""No module of the package compares against an estimation mode's name, or
tests a mode's prefix: a rule about modes is stated once, in gest's mode
tables (``_SUBSTITUTION``, ``MODE_PROXY_KIND``, ``PROXY_FREE_MODES``), and
read from there."""

import ast
from pathlib import Path

import pytest

from dtr_adhere.gest import MODES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dtr_adhere"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _literals(node):
    """The string constants of a comparison operand, a literal tuple, list
    or set of them included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _literals(element)


def mode_comparisons(source: str) -> list:
    """``(line, literal)`` for every comparison in ``source`` with a mode's
    name as a literal operand, and every ``.startswith`` call with a literal
    argument that begins a mode's name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            found += [(node.lineno, value) for operand in (node.left, *node.comparators)
                      for value in _literals(operand) if value in MODES]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "startswith"):
            found += [(node.lineno, value) for argument in node.args
                      for value in _literals(argument)
                      if any(mode.startswith(value) for mode in MODES)]
    return sorted(found)


def test_the_check_finds_a_mode_comparison():
    source = ('TABLE = {"standard-actual": 1}\n'
              'if mode == "standard-actual" or "modified-reported" != mode:\n'
              '    pass\n'
              'ok = mode in ("modified-prescribed", "other")\n'
              'fine = mode == "standard" or text.startswith(("X1,", "modified!"))\n'
              'if mode.startswith("modified") or name.startswith(("x", "standard-")):\n'
              '    pass\n')
    assert mode_comparisons(source) == [(2, "modified-reported"), (2, "standard-actual"),
                                        (4, "modified-prescribed"), (6, "modified"),
                                        (6, "standard-")]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_compares_against_a_mode_name(module):
    assert mode_comparisons((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []
