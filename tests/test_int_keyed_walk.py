"""The breadth-first search keyed by one int, against the tuple-keyed search it replaced.

``analysis._bfs`` keys each state by its fired vector packed into fields of
``min(budget, sys.maxsize).bit_length()`` bits and builds the fired tuple
only for the states it keeps.  ``bfs_oracle`` keeps the earlier search,
keyed by the fired tuple.  Both must yield the same edges and keep the same
(marking, fired) states in the same order, and ``is_occurrence_net`` must
give the same verdict and witness on either.  The pump nets fire one
transition again and again, so a count reaches the largest value its field
can hold; a carry into the next field would merge two states.
"""

import math
import random
import sys

import pytest

import bfs_oracle
import lendingnets.analysis
from lendingnets import LendingNet, Outcome, compile_contract, is_occurrence_net
from lendingnets.analysis import _bfs, _layout
from lendingnets.nets import DEFAULT_BUDGET

from generators import pairs_contract, random_contract, random_cyclic_net, random_net

BUDGETS = (1, 2, 3, 4, 7, 8, 15, 16, DEFAULT_BUDGET)
CYCLIC_BUDGET = 1_000


def walk(search, net: LendingNet, budget):
    """Every edge the search yields and every (marking, fired) state it keeps, in order."""
    layout = _layout(net)
    marking = layout.counts(net.initial)
    kept = []
    edges = list(search(layout.steps, marking, budget, lambda marking, fired: kept.append((marking, fired))))
    return edges, [(tuple(marking), fired) for marking, fired in kept]


def pump(transitions: int) -> LendingNet:
    """One place whose token each of ``transitions`` unlabeled transitions takes and puts back."""
    names = [f"t{k}" for k in range(transitions)]
    return LendingNet.build(places=("p",), transitions=names,
                            flow={arc for t in names for arc in (("p", t), (t, "p"))}, initial={"p": 1})


def sample_nets() -> list[tuple[LendingNet, int]]:
    """Seeded random, cyclic and compiled nets, each with the largest budget it is walked at.

    Most cyclic nets are unbounded, and a walk of 100,000 states takes about
    a second; two of them are walked that far, the rest at most 1,000 states.
    """
    rng = random.Random(1818)
    nets = []
    for k in range(12):
        nets += [(random_net(rng, f"n{k}"), DEFAULT_BUDGET),
                 (random_cyclic_net(rng, f"c{k}"), DEFAULT_BUDGET if k < 2 else CYCLIC_BUDGET),
                 (compile_contract(random_contract(rng)).net, DEFAULT_BUDGET)]
    return nets


def assert_same_walk(net: LendingNet, budget, monkeypatch):
    edges, kept = walk(_bfs, net, budget)
    assert (edges, kept) == walk(bfs_oracle._bfs, net, budget)
    got = is_occurrence_net(net, budget)
    with monkeypatch.context() as patched:
        patched.setattr(lendingnets.analysis, "_bfs", bfs_oracle._bfs)
        assert got == is_occurrence_net(net, budget)
    return edges, kept


@pytest.mark.parametrize("budget", BUDGETS)
def test_the_int_keyed_walk_equals_the_tuple_keyed_walk(budget, monkeypatch):
    fired_twice = 0
    for net, largest in sample_nets():
        edges, _ = assert_same_walk(net, min(budget, largest), monkeypatch)
        fired_twice += any(n for *_, n in edges)
    # Some cyclic nets fire a transition again within the budget, except where only the root is kept.
    assert fired_twice or budget == 1


@pytest.mark.parametrize("k", range(1, 11))
def test_a_count_fills_its_field_without_a_carry(k, monkeypatch):
    for budget in (2 ** k - 1, 2 ** k):
        for transitions in (1, 2, 3):
            edges, kept = assert_same_walk(pump(transitions), budget, monkeypatch)
            # The root is kept by the caller, so the search keeps the other budget - 1 states.
            assert len(kept) == len(set(kept)) == budget - 1
            if transitions == 1:
                # The cut-off successor fires t0 ``budget`` times: the largest count a field of the
                # budget's bit length must hold, and at 2**k - 1 all its bits are set.
                width = min(budget, sys.maxsize).bit_length()
                assert edges[-1] == (budget - 1, "t0", None, budget - 1)
                assert budget == (2 ** width - 1 if budget < 2 ** k else 2 ** (width - 1))


def test_an_occurrence_net_walks_alike_without_a_bound(monkeypatch):
    rng = random.Random(36)
    nets = [compile_contract(pairs_contract(n)).net for n in (1, 2, 3, 4)]
    nets += [random_net(rng, f"n{k}") for k in range(10)]
    for net in nets:
        edges, kept = assert_same_walk(net, math.inf, monkeypatch)
        assert all(j is not None for _, _, j, _ in edges)
        assert is_occurrence_net(net, math.inf).outcome is Outcome.HOLDS
