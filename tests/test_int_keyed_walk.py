"""The walk that keeps each state's enabled rows and packed counts, against the search it replaced.

``analysis._walk`` carries per queued state the bitmask of its enabled rows
and its counts packed into one int, and re-tests only the rows whose guard
the fired row touches.
``bfs_oracle._bfs`` keeps the earlier search, which re-tested every row's
guard at every state; the walk then read each state's honored flag as the
``min`` over the owing counts.  On whole nets and on each component, both
must give the same edges, keep the same (counts, fired) states in the same
order, and agree on completeness and honored flags.  A walk with a flag
must keep the same states up to the first flagged one, its last node, and
none after it; ``is_occurrence_net``, a walk that stops at the first kept
state enabling a transition it already fired, must give
``bfs_oracle.is_occurrence_net``'s verdict and witness.  The pump nets fire one transition again and again, so a count
reaches the largest value its field can hold; a carry into the next field
would merge two states.  The drain nets keep a transition enabled after it
fires, so it must re-test its own guard.
"""

import math
import random
import sys

import pytest

import bfs_oracle
from lendingnets import LendingNet, Outcome, ReachGraph, compile_contract, explore, is_occurrence_net
from lendingnets.analysis import Node, _components, _fields, _layout, _split, _walk
from lendingnets.nets import DEFAULT_BUDGET

from generators import pairs_contract, random_contract, random_cyclic_net, random_net, settled_pairs

BUDGETS = (1, 2, 3, 4, 7, 8, 15, 16, DEFAULT_BUDGET)
CYCLIC_BUDGET = 1_000


def oracle_walk(net: LendingNet, rows, budget):
    """What ``_walk`` returned when it ran ``bfs_oracle._bfs``: the edges, the kept
    (counts, fired) states with their honored flags and the completeness flag; and every
    step the search yielded."""
    layout = _layout(net)
    owing = layout.owing.values()
    kept = []

    def keep(counts, fired):
        # The search sized fired vectors from the last row it walked; the walk sizes them from the layout.
        fired = fired + (0,) * (len(layout.transitions) - len(fired))
        kept.append((tuple(counts), fired, min(map(counts.__getitem__, owing), default=0) >= 0))

    start = layout.counts(net.initial)
    keep(start, ())
    steps, edges, complete = [], [], True
    for step in bfs_oracle._bfs(rows, start, budget, keep):
        steps.append(step)
        i, t, j, _ = step
        if j is None:
            complete = False
            continue
        edges.append((i, t, j))
    return edges, kept, complete, steps


def walked(net: LendingNet, rows, budget, flag=None):
    """``_walk``'s graph read as ``oracle_walk`` reads the search.  A ``flag`` is a test of a node;
    the walk takes it on a state's two ints, through the node they make."""
    layout = _layout(net)
    fields = _fields(layout, layout.counts(net.initial), budget)
    test = None if flag is None else lambda packed, key: flag(Node(packed, key, fields, layout))
    packing, [walk] = _walk(net, [(rows, test)], net.initial, budget)
    graph = ReachGraph(net, packing, walk)
    kept = [(tuple(node._counts), tuple(node._vector), node.honored) for node in graph.nodes]
    return list(graph.edges), kept, graph.complete


def pump(transitions: int) -> LendingNet:
    """One place whose token each of ``transitions`` unlabeled transitions takes and puts back."""
    names = [f"t{k}" for k in range(transitions)]
    return LendingNet.build(places=("p",), transitions=names,
                            flow={arc for t in names for arc in (("p", t), (t, "p"))}, initial={"p": 1})


def drain(tokens: int, transitions: int) -> LendingNet:
    """One place of ``tokens`` tokens, each of ``transitions`` transitions taking one to a place of its own
    and a shared place that lends: a transition stays enabled after it fires, until the place is empty."""
    names = [f"t{k}" for k in range(transitions)]
    flow = {arc for k, t in enumerate(names) for arc in (("p", t), ("l", t), (t, f"q{k}"))}
    return LendingNet.build(places=("p", "l", *(f"q{k}" for k in range(transitions))), transitions=names,
                            flow=flow, initial={"p": tokens}, lending={"l"})


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


def odd(counts, fired) -> bool:
    """A test that holds at some states and not at others, in no order the walk favours."""
    return (sum(counts) + 3 * sum(fired)) % 2 == 1


def every_other(node) -> bool:
    """``odd`` read off a kept node: the flag the walks are stopped with."""
    return odd(node._counts, node._vector)


def assert_same_walk(net: LendingNet, budget):
    """The walk of every row and of each component equals the oracle's, and with a flag
    (up to ``CYCLIC_BUDGET`` states) stops at the oracle's first flagged state, and the
    occurrence check gives the oracle's verdict; returns the whole net's steps."""
    whole = _layout(net).steps
    for rows in (whole, *_components(net)):
        want = oracle_walk(net, rows, budget)
        assert walked(net, rows, budget) == want[:3]
        whole = want if rows is whole else whole
        assert_stops_at_the_first_flagged_state(net, rows, min(budget, CYCLIC_BUDGET))
    assert is_occurrence_net(net, budget) == bfs_oracle.is_occurrence_net(net, budget)
    return whole


def assert_stops_at_the_first_flagged_state(net: LendingNet, rows, budget) -> int | None:
    """The walk with ``every_other`` keeps the oracle's states up to and including the first
    flagged one, its last node, and the edges up to the one that found it, and is
    incomplete; with no flagged state it is the flagless walk.  Returns the flagged state's index or None."""
    edges, kept, complete, _ = oracle_walk(net, rows, budget)
    first = next((i for i, (counts, fired, _) in enumerate(kept) if odd(counts, fired)), None)
    if first is None:
        assert walked(net, rows, budget, every_other) == (edges, kept, complete)
        return None
    found = [dst for _, _, dst in edges].index(first) + 1 if first else 0
    assert walked(net, rows, budget, every_other) == (edges[:found], kept[:first + 1], False)
    return first


@pytest.mark.parametrize("budget", BUDGETS)
def test_the_walk_equals_the_search_that_retested_every_guard(budget):
    fired_twice = owing = 0
    for net, largest in sample_nets():
        edges, kept, *_, steps = assert_same_walk(net, min(budget, largest))
        fired_twice += any(n for *_, n in steps)
        owing += not all(honored for *_, honored in kept)
    # Some cyclic nets fire a transition again, and some walks keep a state that owes,
    # within the budget, except where only the root is kept.
    assert (fired_twice and owing) or budget == 1


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_flagged_walk_ends_at_its_first_flagged_state(budget):
    firsts = set()
    for net, _ in sample_nets():
        for rows in (_layout(net).steps, *_components(net)):
            first = assert_stops_at_the_first_flagged_state(net, rows, min(budget, CYCLIC_BUDGET))
            firsts.add(first if first is None else min(first, 1))
    # Some walks keep no flagged state, some stop at the root and some later, once more than the root is kept.
    assert firsts == {None, 0, 1} or budget == 1


def test_a_firing_re_tests_its_own_guard():
    """A drained place keeps its consumers enabled while it holds a token, and each firing owes once more."""
    for budget in BUDGETS:
        for tokens in (1, 2, 3):
            for transitions in (1, 2, 3):
                _, kept, *_ = assert_same_walk(drain(tokens, transitions), budget)
                # One state per fired vector of at most ``tokens`` firings; only the root owes nothing.
                assert len(kept) == min(budget, math.comb(tokens + transitions, transitions))
                assert [honored for *_, honored in kept] == [True] + [False] * (len(kept) - 1)


@pytest.mark.parametrize("k", range(1, 11))
def test_a_count_fills_its_field_without_a_carry(k):
    for budget in (2 ** k - 1, 2 ** k):
        for transitions in (1, 2, 3):
            net = pump(transitions)
            edges, kept, complete, steps = assert_same_walk(net, budget)
            assert len(kept) == len(set(kept)) == budget and not complete
            assert is_occurrence_net(net, budget).witness == "t0" or budget == 1
            if transitions == 1:
                # The cut-off successor fires t0 ``budget`` times: the largest count a field of the
                # budget's bit length must hold, and at 2**k - 1 all its bits are set.
                width = min(budget, sys.maxsize).bit_length()
                assert steps[-1] == (budget - 1, "t0", None, budget - 1)
                assert budget == (2 ** width - 1 if budget < 2 ** k else 2 ** (width - 1))


def test_an_occurrence_net_walks_alike_without_a_bound():
    rng = random.Random(36)
    nets = [compile_contract(pairs_contract(n)).net for n in (1, 2, 3, 4)]
    nets += [random_net(rng, f"n{k}") for k in range(10)]
    for net in nets:
        _, _, complete, *_ = assert_same_walk(net, math.inf)
        assert complete
        assert is_occurrence_net(net, math.inf).outcome is Outcome.HOLDS


def test_the_occurrence_check_stops_at_its_witness():
    """``t2`` gives back the tokens that ``t0`` and ``t1`` took, so the first state enabling a transition
    it fired enables both: the witness is the first.  Without a bound the walk still ends there."""
    refill = LendingNet.build(places=("a0", "a1", "b0", "b1"), transitions=("t0", "t1", "t2"),
                              flow={("a0", "t0"), ("t0", "b0"), ("a1", "t1"), ("t1", "b1"),
                                    ("b0", "t2"), ("b1", "t2"), ("t2", "a0"), ("t2", "a1")},
                              initial={"a0": 1, "a1": 1})
    for budget in (*BUDGETS, math.inf):
        assert is_occurrence_net(refill, budget) == bfs_oracle.is_occurrence_net(refill, budget)
    assert is_occurrence_net(refill, math.inf).witness == "t0"
    assert is_occurrence_net(pump(1), math.inf).witness == "t0"


def test_a_firing_touches_only_rows_of_its_own_component():
    """``touch`` of row k holds the rows whose guard meets a place that row k changes; each
    consumes a place that row k consumes or produces, so ``_split`` joins it with row k."""
    nets = [net for net, _ in sample_nets()] + [compile_contract(settled_pairs(n)).net for n in range(1, 7)]
    touched = 0
    for net in nets:
        layout = _layout(net)
        component = {row[0]: {r[0] for r in rows} for rows in _split(net) for row in rows}
        fields = explore(net, 1).root._fields
        for k, (_, _, _, touch, retest) in enumerate(fields.rows):
            rows = {j for j in range(len(layout.steps)) if touch >> j & 1}
            assert rows <= component[k]
            assert [bit for bit, _, _ in retest] == [1 << j for j in sorted(rows)]
            touched += len(rows)
    assert touched
