"""``analysis`` is the one module that knows the walk's layout.

No other module in ``src/lendingnets/`` may import ``_Layout`` or
``_layout``, or read the attributes a layout or a node keeps its indices in:
``_counts``, ``_vector``, ``_layout`` and ``owing``, nor a node's packed
state: ``_packed``, ``_key`` and ``_fields``, nor a graph's lists of its
states' ints, ``_packs`` and ``_keys``, nor the read of a net's labels its
fields keep, ``reading``.  Other modules pass nets, graphs and nodes to
``analysis`` and read what it returns.
"""

import ast
from pathlib import Path

import pytest

import lendingnets

MODULES = sorted(Path(lendingnets.__file__).parent.glob("*.py"))
OWNER = "analysis.py"
LAYOUT_NAMES = {"_Layout", "_layout"}
LAYOUT_ATTRIBUTES = {"_counts", "_vector", "_layout", "owing", "_packed", "_key", "_fields", "_packs", "_keys",
                     "reading"}


def layout_reads(source: str) -> list[str]:
    """Each import of a layout name and each read of a layout attribute in ``source``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names if alias.name in LAYOUT_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES:
            found.append(f"{node.lineno}: .{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != OWNER], ids=lambda p: p.name)
def test_no_other_module_reads_the_layout(path):
    assert layout_reads(path.read_text(encoding="utf-8")) == []


def test_the_owner_is_a_module_of_the_package():
    assert OWNER in {p.name for p in MODULES}


def test_a_layout_read_is_reported():
    source = (
        "from .analysis import Node, _layout, _walk\nfrom .analysis import _Layout as L\n\n\n"
        "def f(net, node):\n    return _layout(net).owing, node._counts, node._vector, node._layout, node.honored\n"
        "\n\ndef g(node):\n    return node._packed, node._key, node._fields\n"
        "\n\ndef h(graph):\n    return graph._packs, graph._keys, graph._fields.reading\n"
    )
    assert layout_reads(source) == [
        "10: ._fields", "10: ._key", "10: ._packed", "14: ._fields", "14: ._keys", "14: ._packs", "14: .reading",
        "1: import _layout", "2: import _Layout", "6: ._counts", "6: ._layout", "6: ._vector", "6: .owing",
    ]
