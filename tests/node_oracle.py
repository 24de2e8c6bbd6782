"""The reachability graph as ``explore`` built it before nodes kept dense vectors.

Copied unchanged apart from its imports: every kept node is built eagerly as
``Node(marking, fired, honored)`` with sparse, id-keyed fields, and
``honored`` is the ``min`` over every place, not only the places that can owe.
"""

from __future__ import annotations

from itertools import compress

from bfs_oracle import _bfs
from lendingnets.analysis import Node, ReachGraph, _steps
from lendingnets.nets import DEFAULT_BUDGET, LendingNet, _check_budget


def explore(net: LendingNet, budget: int = DEFAULT_BUDGET) -> ReachGraph:
    """Breadth-first closure of single steps from the initial marking.

    Successors are expanded in sorted transition order, so repeated calls
    enumerate identical nodes and edges.  ``complete`` is False when the node
    budget ran out before the closure was reached.
    """
    _check_budget(budget)
    places = sorted(net.places)
    transitions = sorted(net.transitions)
    nodes: list[Node] = []

    def keep(marking: list[int], fired: tuple[int, ...]) -> None:
        # Through a list: tuple() of an iterator of unknown length shrinks its
        # result in place, which fragments the heap of a long-lived process.
        nodes.append(Node(
            marking=tuple(list(compress(zip(places, marking), marking))),
            fired=tuple(list(compress(zip(transitions, fired), fired))),
            honored=min(marking, default=0) >= 0,
        ))

    marking = [net.initial.get(p, 0) for p in places]
    keep(marking, (0,) * len(transitions))
    steps = [step[:3] for step in _bfs(_steps(net, places, transitions), marking, budget, keep)]
    edges = tuple(step for step in steps if step[2] is not None)
    return ReachGraph(net=net, nodes=tuple(nodes), edges=edges, complete=len(edges) == len(steps))
