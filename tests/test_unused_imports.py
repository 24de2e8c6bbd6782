"""Every name a library module imports at module level is read in that module.

``__init__.py`` is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import lendingnets

MODULES = sorted(p for p in Path(lendingnets.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = "from __future__ import annotations\nimport os.path\nfrom re import match, sub as s\ns('', '', '')\n"
    assert unread_imports(source) == ["match", "os"]
