"""Reachability graphs, weak termination, urgency, trace sets."""

import random
from collections import deque

import pytest

from lendingnets import (
    HONORED_GOAL,
    IncompleteExplorationError,
    MarkingPredicate,
    NetStructureError,
    Outcome,
    backward_closure,
    explore,
    honored_always_reachable,
    oplus,
    trace_set,
    urgent_at,
    urgent_for_done_set,
    weakly_terminates,
)
from lendingnets.fixtures import (
    circular_lending_net,
    handshake_lending_a,
    handshake_strict_a,
    handshake_strict_b,
    prepaid_choice_net,
)
from lendingnets.analysis import as_goal_fn

from generators import random_net


class TestExplore:
    def test_circular_net_graph_shape(self):
        graph = explore(circular_lending_net())
        assert len(graph.nodes) == 4
        assert len(graph.edges) == 3
        assert graph.complete
        assert graph.root.fired == ()

    def test_deadlocked_composition_has_single_node(self):
        dead = oplus(handshake_strict_a(), handshake_strict_b())
        graph = explore(dead)
        assert len(graph.nodes) == 1
        assert graph.edges == ()

    def test_repeated_exploration_is_identical(self):
        net = prepaid_choice_net()
        first = explore(net)
        second = explore(net)
        assert first.nodes == second.nodes
        assert first.edges == second.edges

    def test_budget_marks_graph_incomplete(self):
        graph = explore(circular_lending_net(), budget=2)
        assert not graph.complete
        assert len(graph.nodes) == 2

    def test_node_marking_and_fired_accessors(self):
        graph = explore(circular_lending_net())
        _, _, after_c = graph.edges[0]
        node = graph.nodes[after_c]
        assert node.tokens("p1") == 1
        assert node.tokens("p0") == 0
        assert node.fired_set() == frozenset({"c"})
        assert not node.honored


class TestWeakTermination:
    def pair_goal(self):
        return MarkingPredicate(zero=frozenset({"la.p3", "sb.p3"}), honored=True)

    def test_lending_handshake_terminates(self):
        live = oplus(handshake_lending_a(), handshake_strict_b())
        assert weakly_terminates(live, self.pair_goal()).outcome is Outcome.HOLDS

    def test_strict_handshake_deadlocks_with_root_witness(self):
        dead = oplus(handshake_strict_a(), handshake_strict_b())
        goal = MarkingPredicate(zero=frozenset({"sa.p3", "sb.p3"}), honored=True)
        verdict = weakly_terminates(dead, goal)
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness == explore(dead).root

    def test_trivial_goal_always_holds(self):
        assert weakly_terminates(circular_lending_net(), lambda node: True).outcome is Outcome.HOLDS

    def test_budget_exhaustion_is_inconclusive(self):
        live = oplus(handshake_lending_a(), handshake_strict_b())
        verdict = weakly_terminates(live, self.pair_goal(), budget=1)
        assert verdict.outcome is Outcome.INCONCLUSIVE

    def test_goal_disjunction(self):
        net = prepaid_choice_net()
        goal = (
            MarkingPredicate(positive=frozenset({"p3"}), honored=True),
            MarkingPredicate(positive=frozenset({"p1"}), honored=True),
        )
        assert weakly_terminates(net, goal).outcome is Outcome.FAILS


class TestUrgency:
    def test_handshake_urgency_sequence(self):
        live = oplus(handshake_lending_a(), handshake_strict_b())
        graph = explore(live)
        assert urgent_at(graph, 0) == frozenset({"a"})
        after_a = next(
            i for i, n in enumerate(graph.nodes) if n.fired_set() == frozenset({"la.ta"})
        )
        assert urgent_at(graph, after_a) == frozenset({"b"})

    def test_component_nets_have_no_urgent_atoms(self):
        for net in (handshake_strict_a(), handshake_strict_b(), handshake_lending_a()):
            assert urgent_at(explore(net), 0) == frozenset()
        dead = oplus(handshake_strict_a(), handshake_strict_b())
        assert urgent_at(explore(dead), 0) == frozenset()

    def test_prepaid_choice_urgency(self):
        net = prepaid_choice_net()
        graph = explore(net)
        assert urgent_at(graph, 0) == frozenset({"a", "b", "c"})
        assert urgent_for_done_set(net, {"a"}, graph=graph) == frozenset({"b"})
        assert urgent_for_done_set(net, {"c"}, graph=graph) == frozenset()
        assert urgent_for_done_set(net, {"a", "b", "c"}, graph=graph) == frozenset()

    def test_incomplete_graph_refuses_urgency(self):
        graph = explore(circular_lending_net(), budget=2)
        with pytest.raises(IncompleteExplorationError):
            urgent_at(graph, 0)


def brute_force_can_reach(graph, targets):
    hits = set(targets)
    good = []
    for i in range(len(graph.nodes)):
        seen = {i}
        queue = deque([i])
        found = False
        while queue:
            j = queue.popleft()
            if j in hits:
                found = True
                break
            for _, k in graph.out_edges(j):
                if k not in seen:
                    seen.add(k)
                    queue.append(k)
        if found:
            good.append(i)
    return set(good)


def test_backward_closure_matches_per_node_forward_search():
    rng = random.Random(41)
    covered = 0
    for i in range(60):
        net = random_net(rng, f"b{i}")
        graph = explore(net, budget=400)
        if not graph.complete or len(graph.nodes) > 12:
            continue
        covered += 1
        honored = [j for j, n in enumerate(graph.nodes) if n.honored]
        assert backward_closure(graph, honored) == brute_force_can_reach(graph, honored)
        sinks = [j for j in range(len(graph.nodes)) if not graph.out_edges(j)]
        assert backward_closure(graph, sinks) == brute_force_can_reach(graph, sinks)
    assert covered >= 20


def test_weak_termination_toward_subgoal_forces_urgency_at_root():
    # With a goal inside the honored markings, a root that is not yet a goal
    # node but has enabled transitions must have an urgent first step.
    live = oplus(handshake_lending_a(), handshake_strict_b())
    goal = MarkingPredicate(zero=frozenset({"la.p3", "sb.p3"}), honored=True)
    graph = explore(live)
    assert weakly_terminates(live, goal, graph=graph).outcome is Outcome.HOLDS
    assert not goal.holds_at(graph.root)
    assert graph.out_edges(0)
    assert urgent_at(graph, 0) != frozenset()


def test_honored_always_reachable():
    live = oplus(handshake_lending_a(), handshake_strict_b())
    assert honored_always_reachable(explore(live)).outcome is Outcome.HOLDS
    solo = handshake_lending_a()
    verdict = honored_always_reachable(explore(solo))
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness.tokens("la.p1") == -1


class TestTraceSets:
    def test_strict_handshake_traces(self):
        words, complete = trace_set(handshake_strict_a())
        assert complete and words == {()}

    def test_lending_handshake_traces(self):
        words, complete = trace_set(handshake_lending_a())
        assert complete and words == {(), ("a",)}

    def test_composition_traces(self):
        live = oplus(handshake_lending_a(), handshake_strict_b())
        words, complete = trace_set(live)
        assert complete
        assert words == {(), ("a",), ("a", "b")}

    def test_budget_truncates_enumeration(self):
        live = oplus(handshake_lending_a(), handshake_strict_b())
        _, complete = trace_set(live, budget=1)
        assert not complete


def test_goal_predicate_forms():
    net = prepaid_choice_net()
    graph = explore(net)
    assert HONORED_GOAL.holds_at(graph.root)
    unsat = MarkingPredicate(unsat=True)
    assert not any(unsat.holds_at(node) for node in graph.nodes)
    verdict = weakly_terminates(net, unsat, graph=graph)
    assert verdict.outcome is Outcome.FAILS


def test_a_goal_disjunct_that_is_no_marking_predicate_is_refused():
    with pytest.raises(NetStructureError, match="not a marking predicate: 'honored'"):
        as_goal_fn([HONORED_GOAL, "honored"])
