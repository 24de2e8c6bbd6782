"""What is derived from an immutable value is built once and kept with it.

``compile_contract(c, prune)`` keeps its net in ``c``'s instance dict, one
per ``prune`` flag; a net keeps one table, its layout (``_layout``: the
consumed places, the transitions and their rows), and its components, and
no other derived table.  Every compilation has the same consumed part, so a
contract is compiled once, to its consumed-places net, which urgency walks:
each ``compile_contract`` net shares it, with its layout and components, and
builds its own sinks only when they are read.  Answers must not depend on
what was compiled first, kept values must stay out of ``==``, ``hash`` and
``repr``, and none may keep its owner alive, or be copied or pickled with it.
A graph's node index is keyed by fired pairs, so building it builds no
marking.
"""

import copy
import gc
import itertools
import pickle
import random
import weakref
from dataclasses import fields, replace

import pytest

import lendingnets.analysis
import lendingnets.compiler
from lendingnets import (
    IncompleteExplorationError,
    NetStructureError,
    agreement_reachable,
    agreement_via_net,
    compile_contract,
    explore,
    urgent_via_net,
    weakly_terminates_in,
)
from lendingnets.analysis import _Layout, _urgent_at_root
from lendingnets.compiler import _urgency_net
from lendingnets.nets import DEFAULT_BUDGET

from compile_oracle import full_compile
from generators import credit_ring, pairs_contract, random_contract

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)


def owned_subsets(c):
    atoms = sorted(c.ownership)
    return [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]


def answer(fn, *args):
    try:
        return fn(*args)
    except IncompleteExplorationError as exc:
        return ("incomplete", str(exc))


@pytest.fixture
def compiled(monkeypatch):
    """The contracts ``compiler._compile`` is called on, one entry per call."""
    calls = []
    compile_once = lendingnets.compiler._compile

    def recording(c, *args):
        calls.append(c)
        return compile_once(c, *args)

    monkeypatch.setattr(lendingnets.compiler, "_compile", recording)
    return calls


def contracts():
    rng = random.Random(0x17)
    return [pairs_contract(3), credit_ring(4, 1)] + [random_contract(rng) for _ in range(20)]


def test_compile_contract_returns_one_object_per_contract_and_flag(compiled):
    c, twin = pairs_contract(3), pairs_contract(3)
    full, pruned = compile_contract(c), compile_contract(c, prune=True)
    assert compile_contract(c) is full and compile_contract(c, False) is full
    assert compile_contract(c, prune=True) is pruned and compile_contract(c, True) is pruned
    assert pruned is not full and pruned == full  # every atom of pairs(n) is a head
    assert len(compiled) == 1  # the consumed-places net, which both share
    other = compile_contract(twin)
    assert other is not full and other == full and len(compiled) == 2


@pytest.mark.parametrize("prune", [False, True])
def test_urgency_after_compile_contract_compiles_nothing(compiled, prune):
    for c in contracts():
        cn = compile_contract(c, prune=prune)
        compiled.clear()
        for done in owned_subsets(c):
            urgent_via_net(c, done)
        assert compiled == []
        assert compile_contract(c, prune=prune) is cn and vars(cn.net)["_consumed"] is _urgency_net(c).net


ORDERS = {
    "nothing": lambda c: None,
    "full": lambda c: compile_contract(c),
    "pruned": lambda c: compile_contract(c, prune=True),
    "urgency first": lambda c: (urgent_via_net(c, ()), compile_contract(c), compile_contract(c, True)),
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_urgency_answers_do_not_depend_on_what_was_compiled_first(order):
    for c in contracts():
        ORDERS[order](c)
        for done in owned_subsets(c):
            for budget in BUDGETS:
                want = answer(_urgent_at_root, full_compile(c, False, done).net, budget)
                assert answer(urgent_via_net, c, done, budget) == want, (c.clauses, sorted(done), budget)


def test_each_net_is_tabulated_once_across_the_checks(monkeypatch):
    tabulated = []
    steps = lendingnets.analysis._steps

    def counting(net, *args):
        tabulated.append(net)
        return steps(net, *args)

    monkeypatch.setattr(lendingnets.analysis, "_steps", counting)
    c = pairs_contract(3)
    cn = compile_contract(c)
    graph = explore(cn.net)
    for _ in range(2):
        assert agreement_reachable(cn).outcome is agreement_reachable(cn, graph=graph).outcome
        assert weakly_terminates_in(cn).outcome is weakly_terminates_in(cn, graph=graph).outcome
        assert agreement_via_net(c).outcome is agreement_reachable(cn).outcome
        for done in owned_subsets(c):
            urgent_via_net(c, done)
    explore(cn.net)
    assert len(tabulated) == 1 and tabulated[0] is _urgency_net(c).net


def test_a_net_keeps_its_layout_and_components_and_no_other_table():
    c = pairs_contract(3)
    cn = compile_contract(c)
    agreement_reachable(cn)
    weakly_terminates_in(cn)
    for done in owned_subsets(c):
        urgent_via_net(c, done)
    graph = explore(cn.net)
    agreement_reachable(cn, graph=graph)
    weakly_terminates_in(cn, graph=graph)
    # The adjacency maps and the sort key are the net's own, not tables derived for the walks.
    own = {f.name for f in fields(cn.net)} | {"_pre", "_post", "_canon"}
    consumed = _urgency_net(c).net
    assert set(vars(consumed)) - own == {"_layout", "_components"}
    # The compiled net's sinks are deferred: it keeps the consumed net, and a layout that shares its rows.
    assert set(vars(cn.net)) - own == {"_layout", "_consumed"}
    layout, shared = vars(cn.net)["_layout"], vars(consumed)["_layout"]
    assert layout.steps is shared.steps and layout.tables is shared.tables


def test_kept_values_leave_equality_hash_and_repr_alone():
    c, twin = pairs_contract(2), pairs_contract(2)
    before = repr(c), hash(c), repr(c.clauses)
    cn = compile_contract(c)
    compile_contract(c, prune=True)
    urgent_via_net(c, {"a0"})
    graph = explore(cn.net)
    agreement_reachable(cn, graph=graph)
    assert (repr(c), hash(c), repr(c.clauses)) == before
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
    fresh = compile_contract(twin)
    assert cn == fresh and hash(cn) == hash(fresh) and repr(cn) == repr(fresh)
    assert cn.net == fresh.net and repr(cn.net) == repr(fresh.net)


def test_a_compiled_contract_dies_with_its_last_reference():
    c = pairs_contract(2)
    cn = compile_contract(c)
    compile_contract(c, prune=True)
    assert urgent_via_net(c, {"a0"}) == frozenset({"b0", "a1"})
    agreement_reachable(cn, graph=explore(cn.net))
    refs = weakref.ref(c), weakref.ref(cn), weakref.ref(cn.net)
    gc.disable()
    try:
        del c, cn
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.fixture
def markings(monkeypatch):
    """How often ``_Layout.marking`` builds a node's full marking."""
    calls = []
    build = _Layout.marking

    def counting(self, *args):
        calls.append(1)
        return build(self, *args)

    monkeypatch.setattr(_Layout, "marking", counting)
    return calls


def test_the_node_index_finds_every_node_without_building_a_marking(markings):
    net = compile_contract(pairs_contract(6)).net
    graph = explore(net)
    assert len(graph.nodes) == 729
    graph._index
    assert markings == []
    assert [graph.index_of(node) for node in graph.nodes] == list(range(729))
    assert markings == []
    again = explore(net)
    assert all(graph.index_of(node) == i for i, node in enumerate(again.nodes))


def test_a_place_that_no_transition_consumes_is_read_without_building_a_marking(markings):
    """``tokens`` reads such a place by the state equation, also one that starts marked."""
    rng = random.Random(0x2F)
    net = compile_contract(pairs_contract(6)).net
    sink = min(p for p in net.places if not net.postset(p))
    nets = [net, replace(net, initial={**net.initial, sink: 2})]
    nets += [compile_contract(random_contract(rng)).net for _ in range(20)]
    for net in nets:
        graph = explore(net)
        others = sorted(net.places - set(graph.root._layout.at))
        reads = [[node.tokens(p) for p in others] for node in graph.nodes]
        assert markings == []
        counts = [dict(node.marking) for node in graph.nodes]
        assert reads == [[count.get(p, 0) for p in others] for count in counts]
        markings.clear()


def test_a_node_of_another_net_with_the_same_firings_is_not_found():
    net = compile_contract(pairs_contract(6)).net
    sink = min(p for p in net.places if not net.postset(p))
    graph, other = explore(net), explore(replace(net, initial={**net.initial, sink: 1}))
    node = other.nodes[5]
    assert node.fired == graph.nodes[5].fired and node != graph.nodes[5]
    with pytest.raises(NetStructureError, match="does not belong"):
        graph.index_of(node)
    with pytest.raises(NetStructureError, match="does not belong"):
        graph.out_edges(explore(compile_contract(pairs_contract(7)).net).nodes[-1])


def test_copies_and_pickles_carry_the_fields_alone():
    c = pairs_contract(30)
    size = len(pickle.dumps(c))
    cn = compile_contract(c, prune=True)
    urgent_via_net(c, {"a0"})
    assert agreement_reachable(cn).detail  # the witness's text builds the pruned net's sinks
    assert len(pickle.dumps(c)) == size
    for value in (c, cn, cn.net, _urgency_net(c), _urgency_net(c).net):
        fresh = type(value)(*[getattr(value, f.name) for f in fields(value)])
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert vars(clone).keys() == vars(fresh).keys(), type(value)
            assert type(clone) is type(value) and clone == value and value == clone
