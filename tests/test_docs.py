"""The README names only what exists: every backticked repository path, and
every backticked ``module.name`` of a package module.

Private names are renamed and removed as the code is simplified; this test
catches the prose that would go stale with them.
"""

import importlib
import re
from pathlib import Path

import lendingnets

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {p.stem for p in Path(lendingnets.__file__).parent.glob("*.py")} - {"__init__"}


def test_readme_paths_exist():
    paths = set(re.findall(r"`((?:tests|samples|bench|src)/[^`\s]*)`", README))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []


def test_readme_module_names_resolve():
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README))
    unresolved = []
    for name in sorted(names):
        module, *rest = name.removeprefix("lendingnets.").split(".")
        if module not in MODULES:
            continue
        obj = importlib.import_module(f"lendingnets.{module}")
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(name)
    assert unresolved == []
