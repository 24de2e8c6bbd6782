"""The walk of one component per call, kept as the oracle for the one walk call.

These are the definitions ``lendingnets.analysis`` ran on before one ``_walk``
call walked every part of a question: ``_walk`` walked one ``rows`` tuple from
a start count list, and ``_walk_components`` called it once per component, each
walk with its own set-up and root.  Both are copied unchanged apart from their
imports, the moves table, which the walk no longer keeps and ``_moves`` below
builds as it did, the lines that build a ``Node``, and what a walk returns:
a node now holds its counts and fired vector packed into two ints of one
field width (``analysis._fields``) and reads its honored flag off the counts,
so each node built here is checked to be honored exactly when the oracle's
debt is 0, and a walk returns its nodes, edges and completeness, since a
graph is built only from the library's own walk.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Callable, Mapping

from lendingnets.analysis import Node, _fields, _layout
from lendingnets.nets import LendingNet, PlaceId


def _moves(steps: tuple[tuple, ...], owing: dict[PlaceId, int]) -> tuple[tuple, ...]:
    """Per row ``(k, t, guard, pre, post)`` of ``steps``, ``(t, takes, gives, touch, retest, lends,
    repays)``: the places whose count firing row k lowers and raises, the bitmask of the rows
    whose guard holds one of them with each one's ``(1 << j, guard)``, and the owing places it
    can take to -1 and lift to 0."""
    guarded: dict[int, int] = {}
    for k, _, guard, _, _ in steps:
        for p in guard:
            guarded[p] = guarded.get(p, 0) | 1 << k
    owes = set(owing.values())
    moves = []
    for k, t, _, pre, post in steps:
        takes = tuple([p for p in pre if p not in post])
        gives = tuple([p for p in post if p not in pre])
        touch = 0
        for p in (*takes, *gives):
            touch |= guarded.get(p, 0)
        retest = tuple([(1 << j, guard) for j, _, guard, _, _ in steps if touch >> j & 1])
        moves.append((t, takes, gives, touch, retest,
                      tuple([p for p in takes if p in owes]), tuple([p for p in gives if p in owes])))
    return tuple(moves)


def _walk(net: LendingNet, rows: tuple, start: list[int], budget: int,
          flag: Callable[[Node], object] | None = None) -> tuple[tuple[Node, ...], tuple[tuple], bool]:
    """Breadth-first search of the layout ``rows`` of ``net``, one component or every row, from
    ``start``, the counts of the layout's places, keeping at most ``budget`` states.

    Only the component's transitions fire, so only its places change; the
    other consumed places keep their start counts, and each kept state is the
    product node with every other component at its root.  The walk ends,
    incomplete, at the first kept node where ``flag(node)`` holds, after the
    edge that found it: that node is the walk's last.  Returns the kept nodes,
    the edges and whether the walk is complete.

    A queued state carries the bitmask of its enabled rows, expanded in
    ascending (sorted transition) order, and its debt, the number of owing
    places below 0.  Firing row k re-tests only the rows it touches
    (``_Layout.moves``), all in its component, and moves the debt only on
    the owing places it lowers or raises (README, "How exploration works").

    States are keyed by one int, the fired vector packed into fields of
    ``width`` bits, and the fired tuple is built only for kept states.  No
    field carries: the path to a kept state runs through distinct kept
    states, so no count of a successor exceeds ``len(index)``, which is below
    ``2 ** width`` (README, "How exploration works").  The walk never writes
    to a count list once a node holds it (nor to ``start``).
    """
    layout = _layout(net)
    moves, width = _moves(layout.steps, layout.owing), min(budget, sys.maxsize).bit_length()
    packing = _fields(layout, start, budget)
    fired = (0,) * len(layout.transitions)
    tokens = start.__getitem__
    enabled = sum([1 << k for k, _, guard, _, _ in rows if all(map(tokens, guard))])
    debt = sum([start[k] < 0 for k in layout.owing.values()])
    nodes = [Node(packing.pack(start), 0, packing, layout)]
    assert nodes[0].honored == (not debt)
    complete = flag is None or not flag(nodes[0])
    edges, index = [], {0: 0}
    queue = deque([(0, start, fired, 0, enabled, debt)] if complete else ())
    while queue:
        i, counts, fired, key, enabled, debt = queue.popleft()
        todo = enabled
        while todo:
            bit = todo & -todo
            todo ^= bit
            k = bit.bit_length() - 1
            move = moves[k]
            succ_key = key + (1 << k * width)
            j = index.get(succ_key)
            if j is None:
                if len(nodes) >= budget:
                    complete = False
                    continue
                _, takes, gives, touch, retest, lends, repays = move
                succ = counts.copy()
                for p in takes:
                    succ[p] -= 1
                for p in gives:
                    succ[p] += 1
                succ_debt = debt
                for p in lends:
                    succ_debt += succ[p] == -1
                for p in repays:
                    succ_debt -= succ[p] == 0
                tokens = succ.__getitem__
                succ_enabled = enabled & ~touch
                for row, guard in retest:
                    # Non-lending places lose tokens only past a guard, so never go negative.
                    if all(map(tokens, guard)):
                        succ_enabled |= row
                succ_fired = list(fired)
                succ_fired[k] += 1
                succ_fired = tuple(succ_fired)
                j = index[succ_key] = len(nodes)
                nodes.append(Node(packing.pack(succ), sum([n << packing.width * k for k, n in enumerate(succ_fired)]),
                                  packing, layout))
                assert nodes[j].honored == (not succ_debt)
                if flag is not None and flag(nodes[j]):
                    # The walk ends once the edge to the flagged node is kept.
                    complete, todo = False, 0
                    queue.clear()
                else:
                    queue.append((j, succ, succ_fired, succ_key, succ_enabled, succ_debt))
            edges.append((i, move[0], j))
    return tuple(nodes), tuple(edges), complete


def _walk_components(net: LendingNet, parts: list[tuple[tuple, Callable | None]], start: Mapping[PlaceId, int],
                     budget: int) -> list[tuple[tuple[Node, ...], tuple[tuple], bool]]:
    """Walk each ``(rows, flag)`` of ``parts``, one component's rows and its flag, in turn
    from the marking ``start`` under one budget.

    The components share their root, so the budget counts it once plus each
    component's further states.  The walks end after one that the budget cut
    short or, with a flag, after one whose last node is not flagged.
    """
    walks, marking = [], _layout(net).counts(start)
    for rows, flag in parts:
        nodes, edges, complete = _walk(net, rows, marking, budget, flag)
        walks.append((nodes, edges, complete))
        budget -= len(nodes) - 1
        if not (complete if flag is None else flag(nodes[-1])):
            break
    return walks

