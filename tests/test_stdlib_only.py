"""The package imports nothing outside the standard library.

Every absolute import in ``src/lendingnets/*.py``, at module level or inside
a function, must name a top-level module of ``sys.stdlib_module_names``;
relative imports (``from .nets import ...``) stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

import lendingnets

MODULES = sorted(Path(lendingnets.__file__).parent.glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the absolute imports in ``source`` that are not standard modules."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name.split(".")[0] for name in names} - sys.stdlib_module_names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_a_foreign_import_is_reported():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\nfrom .nets import Verdict\n"
        "from yaml.loader import Loader\n\n\ndef f():\n    import attr\n    from collections import deque\n"
    )
    assert foreign_imports(source) == ["attr", "numpy", "yaml"]
