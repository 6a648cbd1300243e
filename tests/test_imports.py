"""Every module of the package uses each name it imports, and imports no
other module's private (single-underscore) name; the tests' row-copy helper
uses no private name of the package at all."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dtr_adhere"
# (module, name) imported on purpose without a use, and why.
ALLOWED = {
    ("gest", "fit_logistic"):
        "perfbench's test_install_wraps_every_binding_and_restores asserts gest.fit_logistic",
    ("gest", "build_design_matrix"):
        "perfbench's test_install_wraps_every_binding_and_restores asserts "
        "gest.build_design_matrix",
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _annotations(tree):
    """The annotation expressions of ``tree``, a quoted one parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            yield from (arg.annotation for arg in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg, args.kwarg)
                        if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in _annotations(tree)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_finds_an_unused_import():
    # os is unused; Optional appears only in a quoted annotation
    source = ("import os\nimport sys\nfrom typing import Optional\n\n"
              "def f(x: 'Optional[int]'):\n    return sys.argv\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    unused = [name for name in unused_imports(source) if (module, name) not in ALLOWED]
    assert unused == []


def test_every_allowed_import_is_still_unused():
    for module, name in ALLOWED:
        assert name in unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def private_imports(source: str) -> list:
    """The single-underscore names ``source`` imports from the package; a
    dunder such as ``__version__`` is public."""
    return sorted(
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_the_check_finds_a_private_import():
    source = ("from . import __version__\nfrom .gest import _fit_stages, psi_flat\n"
              "from dtr_adhere.model import _compile\nfrom os import _exit\n")
    assert private_imports(source) == ["_compile", "_fit_stages"]


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_no_private_name_is_imported(module):
    assert private_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def private_attributes(source: str) -> list:
    """The single-underscore attributes ``source`` reads, as in
    ``data._check_stage``; a dunder is public."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and not node.attr.endswith("__")})


def test_the_check_finds_a_private_attribute():
    source = "data._check_stage(1)\nname = type(data).__name__\ndata._n\n"
    assert private_attributes(source) == ["_check_stage", "_n"]


def test_the_row_copy_helper_uses_only_public_names():
    """The tests' dataset of copied rows is built as any caller builds one,
    through ``Dataset(...)`` and its checks."""
    source = (TESTS / "row_copy.py").read_text(encoding="utf-8")
    assert private_imports(source) == [] and private_attributes(source) == []
