"""Every error the library raises with a message of its own is asserted by a
test: the longest literal run of each ``raise`` message of a library error in
a ``src/`` module appears in a string of some test module, so a new error
site cannot land untested.  The library errors are ``ValueError``,
``RuntimeError`` and every class ``src/`` derives from them (``ConfigError``,
``DataError``, ``DesignError``, ``EstimationError``, ``SandwichError``, ...).
A test string counts also with its regex escapes removed, so that
``match=r"\\(n\\)"`` asserts "(n)"."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dtr_adhere"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# every test module but this one, whose own strings are examples, not tests
TEST_SOURCES = sorted(path for path in TESTS.glob("*.py") if path.name != Path(__file__).name)
ROOTS = ("ValueError", "RuntimeError")


def error_classes(sources) -> set:
    """``ROOTS`` and every class of ``sources`` derived from one of them,
    directly or through another."""
    bases = {node.name: {getattr(base, "id", None) for base in node.bases}
             for source in sources for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ClassDef)}
    found = set(ROOTS)
    while more := {name for name, named in bases.items() if named & found} - found:
        found |= more
    return found


def error_sites(source: str, classes: set) -> list:
    """``(line, literal)`` for each ``raise C(...)`` in ``source``, C one of
    ``classes``, whose message has literal text: the message's longest
    literal run, stripped of spaces, colons, commas and quotes.  A message
    that is another error's text, ``str(err)`` or ``f"{path}: {err}"``, has
    none."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in classes and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr):
            runs = [part.value for part in message.values if isinstance(part, ast.Constant)]
        elif isinstance(message, ast.Constant) and isinstance(message.value, str):
            runs = [message.value]
        else:
            continue
        literal = max(runs, key=len, default="").strip(" :,'")
        if literal:
            sites.append((node.lineno, literal))
    return sites


def strings(source: str) -> list:
    """Every string constant of ``source``, f-string parts included, each
    also with its regex escapes removed."""
    texts = [node.value for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return texts + [re.sub(r"\\(.)", r"\1", text) for text in texts]


def untested(source: str, test_sources, classes: set) -> list:
    texts = [text for test_source in test_sources for text in strings(test_source)]
    return [(line, literal) for line, literal in error_sites(source, classes)
            if not any(literal in text for text in texts)]


def test_the_check_finds_an_untested_site():
    source = (
        "class ConfigError(ValueError):\n    pass\n"
        "class GridError(ConfigError):\n    pass\n"
        "def load(path, key, err):\n"
        "    raise ConfigError(f'config is missing {key!r}')\n"
        "    raise GridError(f'{path}: grid has no rows')\n"
        "    raise ValueError('stages must be >= 1 (got 0)')\n"
        "    raise ConfigError(str(err))\n"
        "    raise KeyError('not a library error')\n")
    tests = ["CASES = {'a': \"config is missing 'mode'\"}\n",
             "MATCH = r'^stages must be >= 1 \\(got 0\\)$'\n"]
    classes = error_classes([source])
    assert classes == {"ValueError", "RuntimeError", "ConfigError", "GridError"}
    assert error_sites(source, classes) == [(6, "config is missing"), (7, "grid has no rows"),
                                            (8, "stages must be >= 1 (got 0)")]
    assert untested(source, tests, classes) == [(7, "grid has no rows")]


def package_classes() -> set:
    return error_classes((PACKAGE / f"{name}.py").read_text(encoding="utf-8")
                         for name in MODULES)


def test_the_check_reads_the_package():
    classes = package_classes()
    assert {"ConfigError", "DataError", "FormulaError", "SandwichError"} <= classes
    cli = error_sites((PACKAGE / "cli.py").read_text(encoding="utf-8"), classes)
    assert "config file not found" in {literal for _, literal in cli}


def test_the_check_reads_no_test_of_its_own():
    """A site whose message only this module holds is untested."""
    source = "def fail():\n    raise ValueError('a message only the error-site check holds')\n"
    tests = [path.read_text(encoding="utf-8") for path in TEST_SOURCES]
    assert Path(__file__).name not in {path.name for path in TEST_SOURCES}
    assert untested(source, tests, set(ROOTS)) == [
        (2, "a message only the error-site check holds")]


@pytest.mark.parametrize("module", MODULES)
def test_every_library_error_site_is_tested(module):
    tests = [path.read_text(encoding="utf-8") for path in TEST_SOURCES]
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert untested(source, tests, package_classes()) == []
