"""The breadth-first search before it keyed states by one int.

``_bfs`` is copied unchanged: it keys its seen-index by each state's fired
tuple and builds that tuple for every enabled step, kept or not.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator


def _bfs(steps: list[tuple], marking: list[int], budget: int, keep: Callable) -> Iterator[tuple]:
    """Breadth-first search from ``marking``, state 0, which the caller has kept.

    Calls ``keep(marking, fired)`` for each new state it keeps and yields each
    edge as ``(src, t, dst, n)``: ``n`` counts the earlier firings of ``t`` in the
    run to ``src``, and ``dst`` is None when the budget kept a new state out.
    The search copies a state's marking before it builds each successor and
    never writes to a marking it has passed to ``keep`` (nor to ``marking``),
    so ``keep`` may hold on to the list.
    """
    fired = (0,) * len(steps)
    index = {fired: 0}
    queue = deque([(0, marking, fired)])
    while queue:
        i, marking, fired = queue.popleft()
        tokens = marking.__getitem__
        for k, t, guard, pre, post in steps:
            # Non-lending places lose tokens only past this guard, so never go negative.
            if not all(map(tokens, guard)):
                continue
            succ_fired = list(fired)
            succ_fired[k] += 1
            succ_fired = tuple(succ_fired)
            j = index.get(succ_fired)
            if j is None and len(index) < budget:
                succ = marking.copy()
                for p in pre:
                    succ[p] -= 1
                for p in post:
                    succ[p] += 1
                j = index[succ_fired] = len(index)
                keep(succ, succ_fired)
                queue.append((j, succ, succ_fired))
            yield i, t, j, fired[k]
