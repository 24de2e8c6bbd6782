"""The README names only what exists: every backticked repository path, every
backticked ``module.name`` of a package module, and every backticked name
with the ``lendingnets.`` prefix, whose module must be in the package; its
"Package layout" table lists exactly the package's modules.  So do the package's
own docstrings and comments: every double-backticked private name in them
(``_x``, ``module._x`` or ``Class._x``) is defined in the package.

Private names are renamed and removed as the code is simplified; this test
catches the prose that would go stale with them.
"""

import ast
import importlib
import re
from pathlib import Path

import lendingnets

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SOURCES = sorted(Path(lendingnets.__file__).parent.glob("*.py"))
MODULES = {p.stem for p in SOURCES} - {"__init__"}


def test_readme_paths_exist():
    paths = set(re.findall(r"`((?:tests|samples|bench|src)/[^`\s]*)`", README))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []


def unresolved_module_names(text: str) -> list[str]:
    """Each backticked dotted name in ``text`` that names a package module, or has the
    ``lendingnets.`` prefix, and does not resolve: its module is not in the package, or an
    attribute after it is missing."""
    unresolved = []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text))):
        module, *rest = name.removeprefix("lendingnets.").split(".")
        if module not in MODULES:
            if name.startswith("lendingnets."):
                unresolved.append(name)
            continue
        obj = importlib.import_module(f"lendingnets.{module}")
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(name)
    return unresolved


def test_readme_module_names_resolve():
    assert unresolved_module_names(README) == []


def test_a_stale_module_name_is_reported():
    text = "`lendingnets.fixtures` moved; `lendingnets.analysis.explore`, `nets.LendingNet` and `os.path` resolve."
    assert unresolved_module_names(text) == ["lendingnets.fixtures"]


def test_the_package_layout_lists_every_module():
    layout = README.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\| `lendingnets\.(\w+)` \|", layout, re.M)) == sorted(MODULES)


def defined_names() -> set[str]:
    """Every name the package's source defines: each function and class, each name or attribute
    assigned, each keyword argument, and each string constant that is an identifier (a slot, a
    key a value is kept under, an attribute set by name)."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def stale_private_names(text: str, defined: set[str]) -> list[str]:
    """Each double-backticked private name in ``text`` that the package does not define: a name
    after a package module must be an attribute of it, and any other name must be defined."""
    stale = set()
    for name in re.findall(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``", text):
        parts = name.split(".")
        if not any(part.startswith("_") for part in parts):
            continue
        if parts[0] in MODULES:
            obj = importlib.import_module(f"lendingnets.{parts[0]}")
            for part in parts[1:]:
                obj = getattr(obj, part, None)
            if obj is None:
                stale.add(name)
        elif not defined.issuperset(parts):
            stale.add(name)
    return sorted(stale)


def test_docstring_private_names_are_defined():
    defined = defined_names()
    stale = [f"{path.name}: {name}" for path in SOURCES
             for name in stale_private_names(path.read_text(encoding="utf-8"), defined)]
    assert stale == []


def test_a_stale_private_name_is_reported():
    text = (
        '"""Credits are read on the places ``_credit_places`` names, and done sets by\n'
        "``analysis._granting`` and ``_Fields.granting``; ``_reading``, ``analysis._done_set``,\n"
        '``_Fields.owe`` and ``ReachGraph._node`` are defined, and ``Node`` is no private name."""\n'
    )
    assert stale_private_names(text, defined_names()) == ["_Fields.granting", "_credit_places", "analysis._granting"]
