"""The breadth-first search and occurrence check before the walk kept enabled rows and debt.

``_bfs`` and ``is_occurrence_net`` are copied unchanged apart from their
imports.  ``_bfs`` re-tests the guard of every row at every state it expands
and keys states by one int, the fired vector packed into fixed-width fields;
the walk then read each kept state's honored flag as the ``min`` over the
owing counts.  ``is_occurrence_net`` stops at the first edge the search
yields that fires a transition a second time.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Callable, Iterator

from lendingnets.analysis import _layout
from lendingnets.nets import DEFAULT_BUDGET, LendingNet, Verdict, _check_budget


def _bfs(steps: list[tuple], marking: list[int], budget: int, keep: Callable) -> Iterator[tuple]:
    """Breadth-first search from ``marking``, state 0, which the caller has kept.

    Calls ``keep(marking, fired)`` for each new state it keeps and yields each
    edge as ``(src, t, dst, n)``: ``n`` counts the earlier firings of ``t`` in the
    run to ``src``, and ``dst`` is None when the budget kept a new state out.
    A fired vector counts the firings of row ``(k, t, ...)`` at index ``k``,
    the row's index in the layout, so it is sized from the last row's.
    The search copies a state's marking before it builds each successor and
    never writes to a marking it has passed to ``keep`` (nor to ``marking``),
    so ``keep`` may hold on to the list.

    States are keyed by one int, the fired vector packed into fields of
    ``width`` bits, and the fired tuple is built only for kept states.  No
    field carries: the path to a kept state runs through distinct kept
    states, so no count of a successor exceeds ``len(index)``, which is below
    ``2 ** width`` (README, "How exploration works").
    """
    width = min(budget, sys.maxsize).bit_length()
    index = {0: 0}
    queue = deque([(0, marking, (0,) * (steps[-1][0] + 1 if steps else 0), 0)])
    while queue:
        i, marking, fired, key = queue.popleft()
        tokens = marking.__getitem__
        for k, t, guard, pre, post in steps:
            # Non-lending places lose tokens only past this guard, so never go negative.
            if not all(map(tokens, guard)):
                continue
            succ_key = key + (1 << k * width)
            j = index.get(succ_key)
            if j is None and len(index) < budget:
                succ = marking.copy()
                for p in pre:
                    succ[p] -= 1
                for p in post:
                    succ[p] += 1
                succ_fired = list(fired)
                succ_fired[k] += 1
                succ_fired = tuple(succ_fired)
                j = index[succ_key] = len(index)
                keep(succ, succ_fired)
                queue.append((j, succ, succ_fired, succ_key))
            yield i, t, j, fired[k]


def is_occurrence_net(net: LendingNet, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that no reachable run fires any transition twice.

    The search keeps fired vectors over the consumed places only and builds
    no node: the other places never disable a step.
    """
    _check_budget(budget)
    layout = _layout(net)
    complete = True
    for _, t, j, earlier in _bfs(layout.steps, layout.counts(net.initial), budget, lambda marking, fired: None):
        if earlier:
            return Verdict.fails(witness=t, detail=f"transition {t!r} can fire twice in one run")
        complete = complete and j is not None
    if not complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    return Verdict.holds()
