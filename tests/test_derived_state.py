"""Value classes built from their defining fields alone.

``LendingNet``, ``PCLContract`` and ``ContractNet`` take only their public
fields, and ``ReachGraph`` only its net, packing and walk; the sort keys, and
a graph's nodes, node index and done sets, are computed on first read.  The references below are the earlier code, kept as oracles:
the normalising ``LendingNet.build`` and ``contract``, the field-by-field
``with_alphabet``, and the breadth-first ``backward_closure`` over in-edges.
"""

import inspect
import random
from collections import deque
from dataclasses import fields

import pytest

import lendingnets.analysis
import lendingnets.contracts
from lendingnets import (
    ContractNet,
    LendingNet,
    NetStructureError,
    Outcome,
    PCLContract,
    ReachGraph,
    agreement_reachable,
    backward_closure,
    compile_contract,
    compose_contracts,
    contract,
    explore,
    honored_always_reachable,
    trace_set,
    urgent_at,
    urgent_for_done_set,
    weakly_terminates,
    weakly_terminates_covering,
    weakly_terminates_in,
)

from fixtures import fixture_nets
from generators import compatible_contract_pair, pairs_contract, random_contract, random_cyclic_net, random_net


def reference_build(
    *,
    places=(),
    transitions=(),
    flow=(),
    place_labels=None,
    transition_labels=None,
    initial=None,
    lending=(),
    alphabet=None,
):
    """``LendingNet.build`` as it normalised its arguments before calling the constructor."""
    place_labels = dict(place_labels or {})
    transition_labels = dict(transition_labels or {})
    if alphabet is None:
        alphabet = set(place_labels.values()) | set(transition_labels.values())
    return LendingNet(
        places=frozenset(places),
        transitions=frozenset(transitions),
        flow=frozenset(flow),
        place_labels=place_labels,
        transition_labels=transition_labels,
        initial=dict(initial or {}),
        lending=frozenset(lending),
        alphabet=frozenset(alphabet),
    )


def reference_contract(clauses=(), participants=(), ownership=None, goals=((),)):
    """``contract`` as it normalised its arguments before calling the constructor."""
    return PCLContract(
        clauses=frozenset(clauses),
        participants=frozenset(participants),
        ownership=dict(ownership or {}),
        goals=frozenset(frozenset(g) for g in goals),
    )


def reference_with_alphabet(net, atoms):
    """``with_alphabet`` as a field-by-field rebuild."""
    return LendingNet(
        places=net.places,
        transitions=net.transitions,
        flow=net.flow,
        place_labels=net.place_labels,
        transition_labels=net.transition_labels,
        initial=net.initial,
        lending=net.lending,
        alphabet=frozenset(atoms),
    )


def reference_backward_closure(graph, targets):
    """Breadth-first search backwards along in-edges from the targets."""
    into = {}
    for src, _, dst in graph.edges:
        into.setdefault(dst, []).append(src)
    reached = set()
    queue = deque()
    for i in targets:
        if i not in reached:
            reached.add(i)
            queue.append(i)
    while queue:
        j = queue.popleft()
        for src in into.get(j, ()):
            if src not in reached:
                reached.add(src)
                queue.append(src)
    return reached


def net_fields(net):
    return {f.name: getattr(net, f.name) for f in fields(net)}


def sample_contracts():
    rng = random.Random(8)
    out = [random_contract(rng) for _ in range(60)]
    out += [compose_contracts(*compatible_contract_pair(rng)) for _ in range(30)]
    return out + [pairs_contract(n) for n in (1, 2, 3, 4)]


def sample_graphs():
    graphs = [explore(compile_contract(c).net) for c in sample_contracts()]
    rng = random.Random(9)
    for k in range(40):
        graphs.append(explore(random_net(rng, f"n{k}")))
        graphs.append(explore(random_cyclic_net(rng, f"c{k}"), rng.choice((1, 2, 5, 12, 30))))
    return graphs


GRAPHS = sample_graphs()


@pytest.mark.parametrize("cls, names", [
    (LendingNet, ["places", "transitions", "flow", "place_labels", "transition_labels", "initial", "lending", "alphabet"]),
    (PCLContract, ["clauses", "participants", "ownership", "goals"]),
    (ContractNet, ["net", "participants", "ownership", "goals"]),
    (ReachGraph, ["net", "fields", "walk"]),
])
def test_constructors_take_only_the_public_fields(cls, names):
    assert list(inspect.signature(cls).parameters) == names
    with pytest.raises(TypeError, match="unexpected keyword argument '_canon'"):
        cls(**{name: None for name in names}, _canon=())


def test_sort_keys_are_built_on_first_comparison():
    net = fixture_nets()[0]
    c = pairs_contract(2)
    cn = compile_contract(c)
    for value in (net, c, cn):
        assert "_canon" not in vars(value)
    hash(net)
    assert "_canon" in vars(net)
    assert c == pairs_contract(2) and "_canon" in vars(c)
    assert hash(cn) == hash(compile_contract(pairs_contract(2))) and "_canon" in vars(cn)


def test_graph_indexes_are_built_on_first_use():
    graph = explore(compile_contract(pairs_contract(2)).net)
    assert "_index" not in vars(graph)
    assert graph.index_of(graph.nodes[4]) == 4
    assert "_index" in vars(graph)


def test_graph_nodes_are_built_on_first_read_and_kept():
    """A root, a node or its out-edges are read without building ``nodes``; once built, they are kept."""
    graph = explore(compile_contract(pairs_contract(2)).net)
    assert graph.root == graph._node(0) and graph.out_edges(graph._node(4)) == graph.out_edges(4)
    assert "nodes" not in vars(graph)
    nodes = graph.nodes
    assert "nodes" in vars(graph) and graph.nodes is nodes and len(nodes) == len(graph) == 9
    assert graph.root is nodes[0] and all(graph._node(i) is node for i, node in enumerate(nodes))


def test_graph_readers_keep_no_out_edge_table(monkeypatch):
    """Every reader takes out-edges from the edge list: a graph keeps its node index and its credit-free
    nodes (``contracts._honored``), and no other table."""
    cn = compile_contract(pairs_contract(2))
    graph = explore(cn.net)
    traced = []

    def recording(*args):
        traced.append(explore(*args))
        return traced[-1]

    monkeypatch.setattr(lendingnets.analysis, "explore", recording)
    assert trace_set(cn.net)[1]
    agreement_reachable(cn, graph=graph)
    weakly_terminates_in(cn, graph=graph)
    assert urgent_at(graph, 0) == urgent_for_done_set(cn.net, (), graph=graph)
    assert backward_closure(graph, [len(graph.nodes) - 1]) and graph.out_edges(graph.nodes[4])
    for read in (graph, *traced):
        assert set(vars(read)) <= {"net", "nodes", "edges", "complete", "_index", "_credit_free"}


def test_omitted_fields_are_empty():
    assert LendingNet() == reference_build()
    assert LendingNet().alphabet == frozenset()
    assert PCLContract() == reference_contract() == contract()
    assert PCLContract().goals == frozenset({frozenset()})
    unlabeled = LendingNet.build(places=["p"], transitions=["t"], flow=[("p", "t")], transition_labels={"t": None})
    assert unlabeled.transition_labels == {} and unlabeled.alphabet == frozenset()


@pytest.mark.parametrize("omit_alphabet", [False, True])
def test_build_is_the_constructor(omit_alphabet):
    rng = random.Random(3)
    nets = fixture_nets() + [random_net(rng, f"n{k}") for k in range(80)]
    for net in nets:
        kw = net_fields(net)
        kw = {k: (list(v) if isinstance(v, frozenset) else v) for k, v in kw.items()}
        if omit_alphabet:
            del kw["alphabet"]
        built = LendingNet.build(**kw)
        assert built == LendingNet(**kw) == reference_build(**kw)
        assert net_fields(built) == net_fields(reference_build(**kw))


def test_contract_is_the_constructor():
    for c in sample_contracts():
        kw = {"clauses": list(c.clauses), "participants": list(c.participants),
              "ownership": c.ownership, "goals": [sorted(g) for g in c.goals]}
        assert contract(**kw) == PCLContract(**kw) == reference_contract(**kw) == c
        assert contract(kw["clauses"], kw["participants"], kw["ownership"]) == reference_contract(
            kw["clauses"], kw["participants"], kw["ownership"])


def test_with_alphabet_equals_the_field_by_field_rebuild():
    rng = random.Random(4)
    for net in fixture_nets() + [random_net(rng, f"n{k}") for k in range(40)]:
        for extra in ((), ("zz",), ("a", "b", "c", "d", "e")):
            atoms = set(net.alphabet) | set(extra)
            widened = net.with_alphabet(atoms)
            assert net_fields(widened) == net_fields(reference_with_alphabet(net, atoms))
            assert widened == reference_with_alphabet(net, atoms)


def component_walks(monkeypatch) -> list:
    """The graphs of the component walks that ``contracts._all_can_reach`` decides without a graph."""
    graphs = []
    stuck = lendingnets.contracts._first_stuck

    def recording(parts, *args):
        graphs.extend(graph for graph, _ in parts)
        return stuck(parts, *args)

    monkeypatch.setattr(lendingnets.contracts, "_first_stuck", recording)
    for c in sample_contracts():
        weakly_terminates_in(compile_contract(c))
    return graphs


def test_every_edge_leads_to_a_later_node(monkeypatch):
    """And edges are listed by source.  No constructor checks a graph's edges: the walk writes them
    in this order, and every reader (``analysis._out``, ``_reaching``) relies on it."""
    walks = component_walks(monkeypatch)
    assert any(len(graph.nodes) >= 81 for graph in GRAPHS) and any(len(graph) > 1 for graph in walks)
    for graph in GRAPHS + walks:
        assert leads_forward_by_source(len(graph.nodes), graph.edges)


def leads_forward_by_source(n: int, edges) -> bool:
    """Every edge leads from a node to a later one of the ``n``, and the edges are listed by source."""
    sources = [src for src, _, _ in edges]
    return all(0 <= src < dst < n for src, _, dst in edges) and sources == sorted(sources)


# ``(0, "t", 2)`` leads forward but is listed after the edge out of node 1.
@pytest.mark.parametrize("edge", [(1, "t", 0), (0, "t", 0), (0, "t", 9), (-1, "t", 0), (0, "t", 2)])
def test_a_graph_with_an_edge_that_does_not_lead_forward_is_rejected(edge):
    """By the guard above, which each such edge, planted in a walked graph's list, fires."""
    graph = explore(compile_contract(pairs_contract(1)).net)
    assert len(graph) == 3 and graph.edges[-1][0] == 1 and leads_forward_by_source(3, graph.edges)
    assert not leads_forward_by_source(3, graph.edges + (edge,))


def test_backward_sweep_equals_the_breadth_first_closure():
    rng = random.Random(5)
    for graph in GRAPHS:
        n = len(graph.nodes)
        target_sets = [[], list(range(n)), [n - 1], [i for i, node in enumerate(graph.nodes) if node.honored]]
        target_sets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(3)]
        for targets in target_sets:
            assert backward_closure(graph, targets) == reference_backward_closure(graph, targets)


@pytest.mark.parametrize("outside", [-1, "len", True, 1.0, None, "0"])
def test_a_target_outside_the_graph_is_rejected(outside):
    graph = explore(compile_contract(pairs_contract(2)).net)
    target = len(graph.nodes) if outside == "len" else outside
    with pytest.raises(NetStructureError, match="out of range|not an int"):
        backward_closure(graph, [0, target])
    with pytest.raises(NetStructureError, match="out of range|not an int"):
        urgent_at(graph, target)


def test_incomplete_verdicts_name_the_budget_of_the_graph_they_read():
    c = pairs_contract(3)
    cn = compile_contract(c)
    graph = explore(cn.net, 3)
    assert not graph.complete and len(graph.nodes) == 3
    verdicts = [
        agreement_reachable(cn, graph=graph),
        weakly_terminates_in(cn, graph=graph),
        weakly_terminates_covering(cn, graph=graph),
        weakly_terminates(cn.net, lambda node: node.honored, graph=graph),
    ]
    for verdict in verdicts:
        assert (verdict.outcome, verdict.detail) == (Outcome.INCONCLUSIVE, "exploration budget 3 exhausted")
    without_graph = [
        agreement_reachable(cn, 3),
        weakly_terminates_in(cn, 3),
        weakly_terminates_covering(cn, 3),
        weakly_terminates(cn.net, lambda node: node.honored, 3),
    ]
    assert without_graph == verdicts
    assert honored_always_reachable(graph).detail == "exploration incomplete"
