"""The walk's packed fields at their limits, against the search that kept plain count lists.

``analysis._walk`` packs each state's counts into one int, a biased field
per consumed place, and its fired vector into another.  The fields are sized
from a bound on the firings along a path and the largest start count; a
carry or borrow between two fields would merge two states, change a count or
flip a guard or honored test.  ``bfs_oracle._bfs`` keeps each state as a list,
so on nets built to reach each limit, at every budget and without one, the
walk must keep the same (counts, fired) states in the same order, with the
same edges, honored flags and completeness:

* a lending place that many consumers drive down to minus the bound;
* a place that starts with ``2**40`` tokens, so a count field must widen;
* starts above the initial marking, as urgency's done marking is, given
  to ``_walk`` as its ``start``, as a marking or as the fields it sets on
  the layout's initial counts, which must walk alike;
* one transition fired B times, at the top of its key field's range, and
  once more.
"""

import itertools
import math
import random

import pytest

import bfs_oracle
from lendingnets import LendingNet, ReachGraph, compile_contract
from lendingnets.analysis import _components, _done_marking, _layout, _walk
from lendingnets.compiler import delivery_pid, star_pid
from test_int_keyed_walk import BUDGETS, CYCLIC_BUDGET

from generators import pairs_contract, random_contract

BIG = 2 ** 40


def lenders(n: int) -> LendingNet:
    """``n`` transitions, each taking its own place's one token and one from the shared lending place
    ``l``: each fires at most once, so at most ``n`` times in all, and all of them drive ``l`` to ``-n``.
    ``l`` is the lowest field, so a borrow out of it would lower ``s0``."""
    names = [f"t{k}" for k in range(n)]
    flow = {arc for k, t in enumerate(names) for arc in ((f"s{k}", t), ("l", t), (t, f"q{k}"))}
    return LendingNet.build(places=("l", *(f"s{k}" for k in range(n)), *(f"q{k}" for k in range(n))),
                            transitions=names, flow=flow, initial={f"s{k}": 1 for k in range(n)}, lending={"l"})


def chain(tokens: int) -> LendingNet:
    """One transition taking a token of ``p`` and one of the lending place ``l`` until ``p`` is empty:
    a chain of ``tokens + 1`` states, so under a budget ``l`` falls as far as the budget allows."""
    return LendingNet.build(places=("l", "p", "q"), transitions=("t",), flow={("p", "t"), ("l", "t"), ("t", "q")},
                            initial={"p": tokens}, lending={"l"})


def wide(once: bool) -> LendingNet:
    """``t`` moves a token from ``b``, which starts with ``2**40``, to ``r`` and ``u`` takes it on
    to ``b`` again; with ``once``, each also takes the token of a place of its own, so each fires
    at most once."""
    flow = {("b", "t"), ("t", "r"), ("r", "u"), ("u", "b")}
    if once:
        flow |= {("s", "t"), ("v", "u")}
    return LendingNet.build(places=("b", "r", "s", "v"), transitions=("t", "u"), flow=flow,
                            initial={"b": BIG, "s": 1, "v": 1} if once else {"b": BIG})


def above_initial(net: LendingNet, extra: int) -> dict:
    """The initial marking with ``extra`` more tokens on every consumed place."""
    return net.initial | {p: net.initial.get(p, 0) + extra for p in _layout(net).places}


def oracle(net: LendingNet, rows, start, budget):
    """The edges, kept (counts, fired, honored) states and completeness of ``bfs_oracle._bfs`` from ``start``."""
    layout = _layout(net)
    kept = []

    def keep(counts, fired):
        fired = fired + (0,) * (len(layout.transitions) - len(fired))
        kept.append((tuple(counts), fired, min(map(counts.__getitem__, layout.owing.values()), default=0) >= 0))

    counts = layout.counts(start)
    keep(counts, ())
    edges, complete = [], True
    for i, t, j, _ in bfs_oracle._bfs(rows, counts, budget, keep):
        if j is None:
            complete = False
        else:
            edges.append((i, t, j))
    return edges, kept, complete


def walked(net: LendingNet, rows, start, budget):
    fields, [walk] = _walk(net, [(rows, None)], start, budget)
    graph = ReachGraph(net, fields, walk)
    nodes = [(tuple(node._counts), tuple(node._vector), node.honored) for node in graph.nodes]
    layout = _layout(net)
    assert [[node.tokens(p) for p in layout.places] for node in graph.nodes] == [list(c) for c, _, _ in nodes]
    return list(graph.edges), nodes, graph.complete


def assert_same_walks(net: LendingNet, start, budget):
    """Every row and each component walk alike from ``start``; returns the whole net's kept states."""
    whole = _layout(net).steps
    for rows in (whole, *_components(net)):
        want = oracle(net, rows, start, budget)
        assert walked(net, rows, start, budget) == want
        kept = want[1] if rows is whole else kept
    return kept


@pytest.mark.parametrize("budget", (*BUDGETS, math.inf))
def test_a_lending_place_falls_to_minus_the_bound(budget):
    for n in (1, 2, 3, 6):
        kept = assert_same_walks(lenders(n), lenders(n).initial, budget)
        # One state per set of fired transitions; the last fired them all, so l is at -n there.
        assert len(kept) == min(2 ** n, budget)
        assert kept[-1][0][0] == -n or len(kept) < 2 ** n
    for tokens in (1, 5, 40):
        kept = assert_same_walks(chain(tokens), chain(tokens).initial, budget)
        # A chain keeps one state per firing: under a budget, l falls to one less than the budget.
        assert [counts[0] for counts, _, _ in kept] == [-k for k in range(min(tokens + 1, budget))]
        assert [honored for *_, honored in kept] == [True] + [False] * (len(kept) - 1)


@pytest.mark.parametrize("budget", (*BUDGETS, math.inf))
def test_a_count_of_two_to_the_forty_widens_its_field(budget):
    # Without ``once`` the net has about 2**41 states: it is walked to at most ``CYCLIC_BUDGET``.
    for net, most in ((wide(True), budget), (wide(False), min(budget, CYCLIC_BUDGET))):
        kept = assert_same_walks(net, net.initial, most)
        assert kept[0][0][0] == BIG and (len(kept) == 1 or kept[1][0][0] == BIG - 1)


def done_markings(c):
    """Urgency's done marking of ``c``'s compiled net for each set of its atoms: the control places
    of the done atoms empty, and a token on each of their body delivery places, which start empty."""
    net = compile_contract(c).net
    atoms = sorted({cl.head for cl in c.clauses})
    for mask in range(2 ** len(atoms)):
        done = {a for k, a in enumerate(atoms) if mask >> k & 1}
        delivered = {delivery_pid(a, cl): 1 for cl in c.clauses for a in cl.body & done}
        yield net, net.initial | {star_pid(a): 0 for a in done} | delivered


@pytest.mark.parametrize("budget", (*BUDGETS, math.inf))
def test_starts_above_the_initial_marking(budget):
    """From a start above the initial marking a transition that fires at most once from the
    initial marking may fire more often, and a count may start far above every initial count."""
    starts = [(net, start, budget) for net, start in done_markings(pairs_contract(2))]
    for net in (lenders(3), wide(True)):
        starts += [(net, above_initial(net, extra), budget) for extra in (1, 2, 3)]
        # BIG more tokens let a transition fire BIG times: walked to at most ``CYCLIC_BUDGET`` states.
        starts.append((net, above_initial(net, BIG), min(budget, CYCLIC_BUDGET)))
    for net, start, most in starts:
        assert_same_walks(net, start, most)


def set_fields(net: LendingNet):
    """Starts given as the ``(k, n)`` fields they set on the layout's initial counts: none, each done
    marking of a set of at most two labels (``_done_marking``), and counts far above and below 0."""
    layout = _layout(net)
    labels = sorted(set(net.place_labels.values()) | set(net.transition_labels.values()))
    yield ()
    for n in (1, 2):
        for done in itertools.combinations(labels, n):
            yield _done_marking(net, layout, done)
    for k, n in ((0, 2), (len(layout.places) - 1, BIG), (0, -3)):
        if layout.places:
            yield ((k, n),)


@pytest.mark.parametrize("budget", (1, 3, 40, math.inf))
def test_a_start_of_set_fields_walks_as_its_marking_does(budget):
    """``_walk`` from the fields a start sets keeps the walk, fields included, of the same start
    given as a marking: the root packed once per fields plus each set field's change."""
    rng = random.Random(8)
    nets = [lenders(3), chain(4), wide(True), shot(), compile_contract(pairs_contract(2)).net]
    nets += [compile_contract(random_contract(rng, max_clauses=6)).net for _ in range(30)]
    walked = 0
    for net in nets:
        layout = _layout(net)
        for sets in set_fields(net):
            marking = dict(zip(layout.places, layout.start)) | {layout.places[k]: n for k, n in sets}
            parts = [(rows, None) for rows in (layout.steps, *_components(net))]
            most = min(budget, CYCLIC_BUDGET)
            fields, walks = _walk(net, parts, sets, most)
            assert (fields, walks) == _walk(net, parts, marking, most), (net, sets)
            assert {packs[0] for packs, *_ in walks} == {fields.pack(layout.counts(marking))}
            walked += 1
    assert walked > 200


def spin(transitions: int) -> LendingNet:
    """``transitions`` transitions that each take a token of the lending place ``l`` and give it back:
    every count stays at 0, so M is 0, and each transition can fire as often as the budget allows."""
    names = [f"t{k}" for k in range(transitions)]
    return LendingNet.build(places=("l",), transitions=names, flow={arc for t in names for arc in (("l", t), (t, "l"))},
                            lending={"l"})


def shot() -> LendingNet:
    """``t`` takes a token of ``s``, which does not lend and has no producer: ``t`` fires at most
    once from the initial marking, and from a start of M tokens on ``s`` exactly M times."""
    return LendingNet.build(places=("s", "q"), transitions=("t",), flow={("s", "t"), ("t", "q")}, initial={"s": 1})


def width(net: LendingNet, start, budget) -> int:
    return _walk(net, [(_layout(net).steps, None)], start, budget)[0].width


@pytest.mark.parametrize("budget", (*BUDGETS, math.inf))
def test_a_key_field_holds_the_bound_at_its_top(budget):
    """A key field holds a transition's firings with no bias, up to the bound B < 2**(F - 2).

    Under a budget, ``t0`` of ``spin`` fires B = budget times on the successor the budget keeps
    out; with M = 0, F is the bit length of B plus 2, so at B = 2**k - 1 the field holds B at
    the top of that range, and at B = 2**k, one more firing, F widens by one bit.  Without a
    budget, ``shot`` from M tokens is bounded by ``once`` to B = M firings, all of them walked:
    at M = 2**k - 1 the walk keeps B firings of ``t``, and at 2**k one more.
    """
    if budget != math.inf:
        most = min(budget, CYCLIC_BUDGET)
        for n in (1, 2, 3):
            kept = assert_same_walks(spin(n), spin(n).initial, most)
            assert len(kept) == most
            # The budget keeps out the successor of the last state: ``spin(1)``'s fires t0 ``most`` times.
            assert kept[-1][1] == (most - 1,) or n > 1
        f = width(spin(1), spin(1).initial, most)
        assert most < 2 ** (f - 2)
        if most & (most + 1) == 0:
            assert most == 2 ** (f - 2) - 1
        elif most & (most - 1) == 0:
            assert f == width(spin(1), spin(1).initial, most - 1) + 1
    for k in range(1, 11):
        for m in (2 ** k - 1, 2 ** k):
            net = shot()
            start = net.initial | {"s": m}
            kept = assert_same_walks(net, start, budget)
            assert [fired for _, fired, _ in kept] == [(n,) for n in range(min(m + 1, budget))]
