"""Every name a library or test module imports at module level is read in that
module, and every private function, class or constant a library module defines,
and every private method or property of its classes, is read somewhere in the
package.  So is every field of a private class and every slot of a class: a
node or table keeps no state that no function reads.

``__init__.py`` is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import lendingnets

MODULES = sorted(p for p in Path(lendingnets.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = [*sorted(TESTS.glob("*.py")), TESTS / "golden" / "regenerate.py"]


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    bound.discard("annotations")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name if p in MODULES else p.relative_to(TESTS.parent).as_posix())
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = "from __future__ import annotations\nimport os.path\nfrom re import match, sub as s\ns('', '', '')\n"
    assert unread_imports(source) == ["match", "os"]


def private_definitions(source: str) -> set[str]:
    """The module-level functions, classes and assigned names, and the methods and
    properties of module-level classes, whose names start with one underscore."""
    body = ast.parse(source).body
    members = [statement for cls in body if isinstance(cls, ast.ClassDef) for statement in cls.body]
    names = {statement.name for statement in body + members if isinstance(statement, (ast.FunctionDef, ast.ClassDef))}
    for statement in body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names.update(node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """The names the source reads, bare (not as an assignment's target) or as an attribute."""
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_private_definition_is_read_in_the_package():
    package = [p.read_text(encoding="utf-8") for p in Path(lendingnets.__file__).parent.glob("*.py")]
    defined = set().union(*(private_definitions(p.read_text(encoding="utf-8")) for p in MODULES))
    assert sorted(defined - set().union(*map(read_names, package))) == []


def test_an_unread_private_definition_is_reported():
    source = (
        "def _used():\n    pass\n\n\nclass _Unused:\n    pass\n\n\ndef __dunder__():\n    _used(_READ)\n\n\n"
        "_READ, public = 1, 2\n_UNREAD: dict = {}\n__all__ = []\n"
    )
    assert private_definitions(source) == {"_used", "_Unused", "_READ", "_UNREAD"}
    assert sorted(private_definitions(source) - read_names(source)) == ["_UNREAD", "_Unused"]


def test_an_unread_private_member_is_reported():
    source = (
        "class Graph:\n"
        "    @property\n    def _read(self):\n        return self._unread_helper\n\n"
        "    @property\n    def _unread(self):\n        return 1\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def public(self):\n        return self._read\n"
    )
    assert private_definitions(source) == {"_read", "_unread"}
    assert sorted(private_definitions(source) - read_names(source)) == ["_unread"]


def kept_state(source: str) -> set[str]:
    """The annotated fields of the module-level classes whose names start with one underscore,
    and the ``__slots__`` of every module-level class."""
    names = set()
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for statement in cls.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                if cls.name.startswith("_") and not cls.name.startswith("__"):
                    names.add(statement.target.id)
            elif isinstance(statement, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in statement.targets):
                names.update(ast.literal_eval(statement.value))
    return names


def loaded_attributes(source: str) -> set[str]:
    """The attributes the source reads: an attribute assigned to is not read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_and_slot_is_read_in_the_package():
    package = [p.read_text(encoding="utf-8") for p in Path(lendingnets.__file__).parent.glob("*.py")]
    kept = set().union(*map(kept_state, package))
    assert {"_packed", "_key", "_fields", "_layout", "width", "owe", "tables"} <= kept
    assert sorted(kept - set().union(*map(loaded_attributes, package))) == []


def test_an_unread_field_or_slot_is_reported():
    source = (
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass _Table:\n    read: int\n    unread: int\n\n\n"
        "@dataclass\nclass Public:\n    field: int\n\n\n"
        "class Node:\n    __slots__ = ('_kept', '_stored')\n\n"
        "    def __init__(self, table):\n        self._kept, self._stored = table, table.read\n\n"
        "    def public(self):\n        return self._kept\n"
    )
    assert kept_state(source) == {"read", "unread", "_kept", "_stored"}
    assert sorted(kept_state(source) - loaded_attributes(source)) == ["_stored", "unread"]
