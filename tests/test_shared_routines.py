"""The net side's shared routines against the separate searches they replaced.

The references below are standalone searches kept as oracles: the
occurrence-net check and the exploration loop as they were written before
they shared one walk, and urgency at a node by a forward search per step.
The last tests count the calls of the one stuck routine and the one urgency
routine, which serve explored graphs and component walks alike.
"""

import random
import re
from collections import Counter, deque
from itertools import combinations

import pytest

import lendingnets
import lendingnets.analysis
import lendingnets.compiler
import lendingnets.contracts
from lendingnets import (
    DEFAULT_BUDGET,
    HONORED_GOAL,
    ContractNet,
    Outcome,
    ToolkitError,
    Verdict,
    compile_contract,
    enabled_transitions,
    explore,
    fire,
    honored_always_reachable,
    is_occurrence_net,
    is_safe,
    trace_set,
    urgent,
    urgent_at,
    urgent_for_done_set,
    urgent_via_net,
    validate,
    weakly_terminates,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.logic import bounded_proof_traces

from generators import pairs_contract, random_contract, random_cyclic_net, random_net

BUDGETS = (1, 2, 3, 5, 8, 40, DEFAULT_BUDGET)

PUBLIC_NAMES = (
    "Atom CompositionError Configuration ContractError ContractNet DEFAULT_BUDGET "
    "DocumentError FiringError FiringSequence HONORED_GOAL HornClause "
    "IncompleteExplorationError LendingNet Marking MarkingPredicate NetDocument "
    "NetStructureError Node Outcome PCLContract PlaceId ReachGraph ToolkitError "
    "TransitionId Verdict Violation admits_agreement agreement_reachable "
    "agreement_via_net analysis approximates backward_closure clause_tid "
    "combine_goals compatibility_problems compatible compile_compose_commutes "
    "compile_contract compiler compose compose_contract_nets compose_contracts "
    "compose_many concat configuration configuration_from_marking conjoin contract "
    "contract_net_document contracts dedupe delivery_pid detect_kind dot enabled "
    "enabled_transitions errors explore export_dot extend_with_facts fact fire "
    "formats honored_always_reachable honored_done_sets interleave "
    "is_correctly_labeled is_honored is_occurrence_net is_safe is_strategy logic "
    "marking_of_state nets oplus parse_contract parse_net proof_traces "
    "provable_atoms reachable_configurations run serialize_contract serialize_net "
    "star_pid state_of subnet tag_net trace_atom_sets trace_equivalent trace_of "
    "trace_set urgent urgent_at urgent_atoms urgent_for_done_set urgent_logic "
    "urgent_via_net validate weakly_terminates weakly_terminates_covering "
    "weakly_terminates_in widen_alphabet with_facts"
).split()


def _key(marking):
    return tuple(sorted((p, n) for p, n in marking.items() if n))


def reference_is_occurrence_net(net, budget=DEFAULT_BUDGET):
    """The occurrence check as its own breadth-first search, counting expansions."""
    start = net.initial_marking()
    seen = {(_key(start), ())}
    queue = deque([(start, Counter())])
    expansions = 0
    while queue:
        marking, state = queue.popleft()
        expansions += 1
        if expansions > budget:
            return Verdict.inconclusive(f"exploration budget {budget} exhausted")
        for t in enabled_transitions(net, marking):
            if state[t] >= 1:
                return Verdict.fails(witness=t, detail=f"transition {t!r} can fire twice in one run")
            nxt = fire(net, marking, t)
            nstate = state.copy()
            nstate[t] += 1
            key = (_key(nxt), tuple(sorted(nstate.items())))
            if key not in seen:
                seen.add(key)
                queue.append((nxt, nstate))
    return Verdict.holds()


def reference_explore(net, budget):
    """The exploration loop with full markings rebuilt place by place."""
    start = (_key(net.initial_marking()), ())
    nodes, index, edges = [start], {start: 0}, []
    queue = deque([0])
    complete = True
    while queue:
        i = queue.popleft()
        marking_key, fired = nodes[i]
        marking = {p: dict(marking_key).get(p, 0) for p in net.places}
        for t in enabled_transitions(net, marking):
            state = Counter(dict(fired))
            state[t] += 1
            succ = (_key(fire(net, marking, t)), tuple(sorted(state.items())))
            j = index.get(succ)
            if j is None:
                if len(nodes) >= budget:
                    complete = False
                    continue
                j = index[succ] = len(nodes)
                nodes.append(succ)
                queue.append(j)
            edges.append((i, t, j))
    return nodes, edges, complete


def reference_urgent_at(graph, i):
    """Labelled first steps from node ``i`` after which a forward search finds an honored node."""
    def can_honor(j):
        seen, queue = {j}, deque([j])
        while queue:
            k = queue.popleft()
            if graph.nodes[k].honored:
                return True
            for _, m in graph.out_edges(k):
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        return False

    labels = graph.net.transition_labels
    return {labels[t] for t, j in graph.out_edges(i) if t in labels and can_honor(j)}


def fired_labels(net, node):
    return frozenset(net.transition_labels[t] for t in node.fired_set() if t in net.transition_labels)


def sample_nets():
    rng = random.Random(2012)
    for i in range(60):
        yield random_net(rng, f"o{i}")
        yield random_cyclic_net(rng, f"c{i}")


def label_subsets(net):
    atoms = sorted(net.alphabet)
    for size in range(len(atoms) + 1):
        yield from (frozenset(c) for c in combinations(atoms, size))


def test_cyclic_generator_yields_both_outcomes():
    outcomes = {reference_is_occurrence_net(net).outcome for net in sample_nets()}
    assert outcomes == {Outcome.HOLDS, Outcome.FAILS}


@pytest.mark.parametrize("budget", BUDGETS)
def test_occurrence_check_matches_its_standalone_search(budget):
    for net in sample_nets():
        assert is_occurrence_net(net, budget) == reference_is_occurrence_net(net, budget), net


@pytest.mark.parametrize("budget", BUDGETS[:-1] + (200,))
def test_explore_keeps_node_and_edge_order(budget):
    for net in sample_nets():
        graph = explore(net, budget)
        nodes, edges, complete = reference_explore(net, budget)
        assert [(n.marking, n.fired) for n in graph.nodes] == nodes
        assert list(graph.edges) == edges
        assert graph.complete is complete


def test_urgency_over_a_done_set_is_the_union_of_urgency_at_its_nodes():
    checked = 0
    for net in sample_nets():
        graph = explore(net, 200)
        if not graph.complete:
            continue
        for done in label_subsets(net):
            expected, reference = set(), set()
            for i, node in enumerate(graph.nodes):
                if fired_labels(net, node) == done:
                    expected |= urgent_at(graph, i)
                    reference |= reference_urgent_at(graph, i)
            assert urgent_for_done_set(net, done, graph=graph) == expected == reference
            checked += 1
    assert checked > 300


def test_contract_urgency_is_net_urgency_on_the_compiled_net():
    rng = random.Random(11)
    for _ in range(60):
        cn = compile_contract(random_contract(rng))
        graph = explore(cn.net)
        for done in label_subsets(cn.net):
            assert urgent(cn, done, graph=graph) == urgent_for_done_set(cn.net, done, graph=graph)
            assert urgent(cn, done) == urgent_for_done_set(cn.net, done)


NONSENSE_BUDGETS = (2.5, float("nan"), True, "3")


@pytest.mark.parametrize("budget", (0, -1, *NONSENSE_BUDGETS))
def test_budgets_below_one_are_rejected_by_every_search(budget):
    net = random_net(random.Random(3), "b")
    for search in (explore, is_occurrence_net, is_safe, trace_set):
        with pytest.raises(ToolkitError, match="budget must be at least 1"):
            search(net, budget)
    with pytest.raises(ToolkitError, match="budget must be at least 1"):
        weakly_terminates(net, lambda node: True, budget)


@pytest.mark.parametrize("budget", NONSENSE_BUDGETS)
def test_budgets_that_are_not_whole_counts_are_rejected_by_the_contract_checks(budget):
    c = pairs_contract(3)
    for check in (
        lambda: weakly_terminates_in(compile_contract(c), budget),
        lambda: urgent_via_net(c, (), budget),
        lambda: bounded_proof_traces(c.clauses, budget),
    ):
        with pytest.raises(ToolkitError, match=f"budget must be at least 1 and an int, got {re.escape(repr(budget))}"):
            check()


def test_every_public_name_still_imports():
    missing = [name for name in PUBLIC_NAMES if not hasattr(lendingnets, name)]
    assert missing == []
    assert set(PUBLIC_NAMES) <= set(lendingnets.__all__)


def test_the_occurrence_check_builds_no_node(monkeypatch):
    built = []
    node = lendingnets.analysis.Node

    def counting(*args, **kwargs):
        built.append(1)
        return node(*args, **kwargs)

    monkeypatch.setattr(lendingnets.analysis, "Node", counting)
    cn = compile_contract(pairs_contract(4))
    assert validate(cn) == []
    assert built == []
    # A walk builds no node either: its graph builds them when they are read.
    graph = explore(cn.net)
    assert built == []
    assert len(graph.nodes) == 81 and len(built) == 81


def test_each_question_has_one_routine(monkeypatch):
    """Every stuck check makes one call of ``_first_stuck`` and every urgency query one of
    ``_urgent``, with a graph passed in or not."""
    calls = []
    modules = (lendingnets.analysis, lendingnets.compiler, lendingnets.contracts)
    for name in ("_first_stuck", "_urgent"):
        routine = getattr(lendingnets.analysis, name)

        def counting(*args, name=name, routine=routine):
            calls.append(name)
            return routine(*args)

        for module in modules:
            if getattr(module, name, None) is routine:
                monkeypatch.setattr(module, name, counting)
    c = pairs_contract(2)
    cn = compile_contract(c)
    graph = explore(cn.net)
    stuck = {
        "weakly_terminates": lambda: weakly_terminates(cn.net, HONORED_GOAL),
        "honored_always_reachable": lambda: honored_always_reachable(graph),
        "weakly_terminates_in": lambda: weakly_terminates_in(cn),
        "weakly_terminates_in(graph=)": lambda: weakly_terminates_in(cn, graph=graph),
        "weakly_terminates_covering": lambda: weakly_terminates_covering(cn),
        "weakly_terminates_covering(graph=)": lambda: weakly_terminates_covering(cn, graph=graph),
    }
    urgency = {
        "urgent_at": lambda: urgent_at(graph, 0),
        "urgent_for_done_set(graph=)": lambda: urgent_for_done_set(cn.net, {"a0"}, graph=graph),
        "urgent(graph=)": lambda: urgent(cn, {"a0"}, graph=graph),
        "urgent_via_net": lambda: urgent_via_net(c, {"a0"}),
    }
    for routine, checks in (("_first_stuck", stuck), ("_urgent", urgency)):
        for what, check in checks.items():
            calls.clear()
            check()
            assert calls == [routine], what


def test_an_explored_graph_is_the_one_part_case():
    """No target is read on an incomplete graph, and a stuck node comes back as the graph holds it."""
    cn = compile_contract(pairs_contract(3))
    read = []
    verdict = weakly_terminates(cn.net, lambda node: read.append(node) or True, graph=explore(cn.net, 5))
    assert verdict.detail == "exploration budget 5 exhausted" and read == []
    graph = explore(cn.net)
    narrow = ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership, goals={frozenset({"a0"})})
    for verdict in (weakly_terminates(cn.net, lambda node: False, graph=graph), weakly_terminates_in(narrow, graph=graph)):
        assert verdict.outcome is Outcome.FAILS
        assert any(verdict.witness is node for node in graph.nodes)
