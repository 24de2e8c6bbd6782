"""Graph nodes that keep the walk's dense vectors, against eagerly built nodes.

``explore`` stores each kept node's token counts and fired vector in one
order per graph and builds the sparse ``(id, count)`` fields on each read;
``honored`` and credits are read only on the places that can owe.
``node_oracle`` keeps the earlier ``explore``, which built every node's
``(marking, fired, honored)`` fields up front and took ``honored`` from every
place; ``contract_oracle`` keeps the configuration read over the whole
marking.  Every read must agree.
"""

import random

import pytest

import contract_oracle
import node_oracle
from lendingnets import (
    ContractNet,
    LendingNet,
    Outcome,
    agreement_reachable,
    compile_contract,
    explore,
    honored_done_sets,
    reachable_configurations,
    weakly_terminates_in,
)
from lendingnets.analysis import Node, _Layout
from lendingnets.contracts import configuration
from lendingnets.nets import DEFAULT_BUDGET

from generators import pairs_contract, random_contract, random_cyclic_net, random_net
from test_node_reading import result_of, unlabeled_debt_net

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)
# Most cyclic nets have unbounded graphs, and a walk cut short at 100,000
# nodes takes seconds per net yet reads no differently from one cut at 1,000.
CYCLIC_BUDGET = 1_000
NOT_A_PLACE = "nowhere"


def sample_contract_nets() -> list[tuple[ContractNet, int]]:
    """Seeded random and cyclic nets, with empty contract terms, compiled random
    contracts and ``pairs(1..4)``, each with the largest budget it is walked at."""
    rng = random.Random(14)
    nets = []
    for k in range(10):
        nets.append((ContractNet(net=random_net(rng, f"n{k}"), participants=(), ownership={}, goals=()),
                     DEFAULT_BUDGET))
        nets.append((ContractNet(net=random_cyclic_net(rng, f"c{k}"), participants=(), ownership={}, goals=()),
                     CYCLIC_BUDGET))
        nets.append((compile_contract(random_contract(rng)), DEFAULT_BUDGET))
    nets += [(compile_contract(pairs_contract(n)), DEFAULT_BUDGET) for n in (1, 2, 3, 4)]
    return nets + [(ContractNet(net=net, participants=(), ownership={}, goals=()), largest)
                   for net, largest in sink_nets()]


def sink_nets() -> list[tuple[LendingNet, int]]:
    """Nets with places that no transition consumes, each with the largest budget it is walked at.

    ``kept`` is a marked sink that ``t3`` also feeds, ``both`` a labeled sink
    with the two producers ``t1`` and ``t2``, and ``plain`` an unlabeled sink;
    ``t1`` borrows from the lending place ``q``, which ``t3`` repays.  In the
    second net ``pump`` puts its token back, so it fires again and again and
    feeds ``plain`` once per firing.
    """
    flow = {("m1", "t1"), ("q", "t1"), ("t1", "both"), ("m2", "t2"), ("t2", "both"), ("t2", "plain"),
            ("m3", "t3"), ("t3", "q"), ("t3", "kept"), ("t3", "plain")}
    net = LendingNet.build(
        places=("both", "kept", "m1", "m2", "m3", "plain", "q"),
        transitions=("t1", "t2", "t3"),
        flow=flow,
        place_labels={"both": "a", "q": "b"},
        transition_labels={"t1": "a", "t2": "a", "t3": "b"},
        initial={"kept": 2, "m1": 1, "m2": 1, "m3": 1},
        lending=("q",),
    )
    pump = LendingNet.build(
        places=("both", "kept", "m1", "m2", "m3", "m4", "plain", "q"),
        transitions=("pump", "t1", "t2", "t3"),
        flow=flow | {("m4", "pump"), ("pump", "m4"), ("pump", "plain")},
        place_labels={"both": "a", "q": "b"},
        transition_labels={"t1": "a", "t2": "a", "t3": "b"},
        initial={"kept": 2, "m1": 1, "m2": 1, "m3": 1, "m4": 1},
        lending=("q",),
    )
    return [(net, DEFAULT_BUDGET), (pump, 40)]


CONTRACT_NETS = sample_contract_nets()


@pytest.mark.parametrize("budget", BUDGETS)
def test_nodes_read_as_the_eager_nodes_of_the_oracle(budget):
    for cn, largest in CONTRACT_NETS:
        net, places, budget = cn.net, sorted(cn.net.places), min(budget, largest)
        assert NOT_A_PLACE not in net.places
        graph, want = explore(net, budget), node_oracle.explore(net, budget)
        assert graph.edges == want.edges and graph.complete == want.complete
        assert len(graph.nodes) == len(want.nodes)
        # A node keeps counts for the consumed places only; it reads the others by the state equation.
        consumed = tuple(sorted({p for t in net.transitions for p in net.preset(t)}))
        assert graph.root._layout.places == consumed
        assert all(len(node._counts) == len(consumed) for node in graph.nodes)
        # On two fresh graphs, hashing and equality are the first reads of every node.
        fresh, other = explore(net, budget), explore(net, budget)
        assert [fresh.index_of(twin) for twin in other.nodes] == list(range(len(want.nodes)))
        for i, (node, (marking, fired, honored)) in enumerate(zip(graph.nodes, want.nodes)):
            tokens = dict(marking)
            assert [node.tokens(p) for p in places] == [tokens.get(p, 0) for p in places]
            assert node.tokens(NOT_A_PLACE) == 0 and NOT_A_PLACE not in tokens
            assert node.honored == honored
            assert node.fired_set() == frozenset(t for t, _ in fired)
            assert node.describe() == node_oracle.describe(marking, fired)
            assert repr(node) == f"Node(marking={marking!r}, fired={fired!r})"
            assert node.marking == marking and node.fired == fired
            assert hash(node) == hash((marking, fired))
            twin = other.nodes[i]
            assert graph.index_of(twin) == i
            assert twin == node and hash(twin) == hash(node) and twin.honored == node.honored


@pytest.mark.parametrize("budget", BUDGETS)
def test_credits_read_on_the_places_that_can_owe_equal_the_whole_marking(budget):
    for cn, largest in CONTRACT_NETS + [(unlabeled_debt_net(False), budget), (unlabeled_debt_net(True), budget)]:
        budget = min(budget, largest)
        graph = explore(cn.net, budget)
        for node in graph.nodes:
            assert configuration(cn, node) == contract_oracle.configuration(cn, node)
        for new, old in ((reachable_configurations, contract_oracle.reachable_configurations),
                         (honored_done_sets, contract_oracle.honored_done_sets)):
            expected = result_of(old, cn, budget, explore(cn.net, budget))
            assert result_of(new, cn, budget, graph) == expected, new.__name__
            assert result_of(new, cn, budget) == expected, new.__name__


def test_the_checks_on_a_graph_build_sparse_fields_only_for_the_witness(monkeypatch):
    """Each id-keyed marking ``_Layout.marking`` builds, and each read of ``Node.fired`` (as
    ``ReachGraph._index`` makes of every node), is recorded as its node's (counts, fired) pair.
    A check records none; the first read of its verdict's ``detail`` records the witness's, once."""
    built, read = [], []
    marking, fired = _Layout.marking, Node.fired.fget

    def counting(layout, counts, pairs):
        built.append((counts, pairs))
        return marking(layout, counts, pairs)

    def reading(node):
        read.append(state(node))
        return fired(node)

    def state(node):
        return node._counts, fired(node)

    monkeypatch.setattr(_Layout, "marking", counting)
    monkeypatch.setattr(Node, "fired", property(reading))
    cn = compile_contract(pairs_contract(4))
    graph = explore(cn.net)
    assert weakly_terminates_in(cn, graph=graph).outcome is Outcome.HOLDS
    assert len(honored_done_sets(cn, graph=graph)) == 2 ** 4
    assert len(reachable_configurations(cn, graph=graph)) == 3 ** 4
    assert built == read == []
    found = agreement_reachable(cn, graph=graph)
    assert found.outcome is Outcome.HOLDS and built == read == []
    detail = found.detail
    [witness] = [node for node in graph.nodes if state(node) in built]
    assert built == read == [state(witness)]
    assert found.detail is detail and built == read == [state(witness)]
    assert detail == witness.describe()

    graph = explore(cn.net)
    built.clear()
    read.clear()
    narrow = ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership,
                         goals={frozenset({"a0"})})
    failed = weakly_terminates_in(narrow, graph=graph)
    assert failed.outcome is Outcome.FAILS and built == read == []
    detail = failed.detail
    assert built == read == [state(failed.witness)]
    assert failed.detail is detail and built == read == [state(failed.witness)]
