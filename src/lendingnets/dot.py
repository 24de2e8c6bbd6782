"""Graphviz rendering of lending nets.

Places are circles, lending places double circles, transitions boxes.
Labels and token counts are drawn inside the nodes; output is sorted so the
same net always yields the same bytes.
"""

from __future__ import annotations

from .contracts import ContractNet
from .nets import LendingNet


def _quote(text: str) -> str:
    # Ids cannot contain quotes or backslashes, so \n sequences pass through.
    return '"' + text.replace('"', '\\"') + '"'


def _place_text(net: LendingNet, pid: str) -> str:
    parts = [pid]
    label = net.place_labels.get(pid)
    if label is not None:
        parts.append(label)
    tokens = net.initial.get(pid, 0)
    if tokens == 1:
        parts.append("•")
    elif tokens > 1:
        parts.append(f"{tokens}•")
    return "\\n".join(parts)


def export_dot(net: LendingNet | ContractNet, name: str = "net") -> str:
    if isinstance(net, ContractNet):
        net = net.net
    name = name.replace("\\", "\\\\")  # Unlike an id, a name (a file's stem) may hold a backslash.
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", "  node [fontsize=11];"]
    for pid in sorted(net.places):
        peripheries = 2 if pid in net.lending else 1
        lines.append(
            f"  {_quote(pid)} [shape=circle, peripheries={peripheries}, "
            f"label={_quote(_place_text(net, pid))}];"
        )
    for tid in sorted(net.transitions):
        label = net.transition_labels.get(tid)
        text = f"{tid}\\n{label}" if label is not None else tid
        lines.append(f"  {_quote(tid)} [shape=box, label={_quote(text)}];")
    for src, dst in sorted(net.flow):
        lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
