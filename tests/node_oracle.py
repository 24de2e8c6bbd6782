"""The reachability graph as ``explore`` built it before nodes kept dense vectors.

Copied unchanged apart from its imports and what it keeps per node: every
kept node is built eagerly as a ``(marking, fired, honored)`` tuple, the
fields a node then held, with sparse, id-keyed ``marking`` and ``fired``,
and ``honored`` the ``min`` over every place, not only the places that can
owe.  ``describe`` is ``Node.describe`` of such a node, on its fields.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from bfs_oracle import _bfs
from lendingnets.analysis import _steps
from lendingnets.nets import DEFAULT_BUDGET, LendingNet, _check_budget


class EagerGraph(NamedTuple):
    nodes: tuple[tuple, ...]
    edges: tuple[tuple, ...]
    complete: bool


def explore(net: LendingNet, budget: int = DEFAULT_BUDGET) -> EagerGraph:
    """Breadth-first closure of single steps from the initial marking.

    Successors are expanded in sorted transition order, so repeated calls
    enumerate identical nodes and edges.  ``complete`` is False when the node
    budget ran out before the closure was reached.
    """
    _check_budget(budget)
    places = sorted(net.places)
    transitions = sorted(net.transitions)
    nodes: list[tuple] = []

    def keep(marking: list[int], fired: tuple[int, ...]) -> None:
        # Through a list: tuple() of an iterator of unknown length shrinks its
        # result in place, which fragments the heap of a long-lived process.
        nodes.append((
            tuple(list(compress(zip(places, marking), marking))),
            tuple(list(compress(zip(transitions, fired), fired))),
            min(marking, default=0) >= 0,
        ))

    marking = [net.initial.get(p, 0) for p in places]
    keep(marking, (0,) * len(transitions))
    steps = [step[:3] for step in _bfs(_steps(net, places, transitions), marking, budget, keep)]
    edges = tuple(step for step in steps if step[2] is not None)
    return EagerGraph(nodes=tuple(nodes), edges=edges, complete=len(edges) == len(steps))


def describe(marking: tuple, fired: tuple) -> str:
    marks = ", ".join(f"{p}={n}" for p, n in marking) or "empty"
    fires = ", ".join(t if n == 1 else f"{t}x{n}" for t, n in fired) or "none"
    return f"marking [{marks}] fired [{fires}]"
