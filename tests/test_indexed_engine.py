"""The integer-indexed exploration engine against the exploration loop it replaced.

``reference_explore`` is that earlier loop, kept as an oracle: it fires
transitions on full place maps, sorts every successor into a sparse node,
dedups on the whole (marking, fired) pair and checks every firing for a
non-lending place in debt.  The engine must enumerate the same nodes and
edges in the same order on compiled contract nets at every budget.
"""

import random
from collections import Counter, deque

import pytest

from lendingnets import (
    DEFAULT_BUDGET,
    FiringError,
    IncompleteExplorationError,
    compile_contract,
    enabled_transitions,
    explore,
    fire,
    honored_done_sets,
    reachable_configurations,
)

from fixtures import exchange_pair_contract
from generators import credit_ring, pairs_contract, random_contract

BUDGETS = (1, 2, 3, 5, 40)


def _sparse(marking, state):
    return (
        tuple(sorted((p, n) for p, n in marking.items() if n)),
        tuple(sorted(state.items())),
    )


def reference_explore(net, budget):
    """Breadth-first (marking, fired) search on place maps; nodes, edges, completeness."""
    start = _sparse(net.initial_marking(), Counter())
    nodes, index, edges = [start], {start: 0}, []
    queue = deque([0])
    complete = True
    while queue:
        i = queue.popleft()
        marking_key, fired = nodes[i]
        marking = {p: dict(marking_key).get(p, 0) for p in net.places}
        for t in enabled_transitions(net, marking):
            nxt = fire(net, marking, t)
            for p, n in nxt.items():
                if n < 0 and p not in net.lending:
                    raise FiringError(t, p, f"place {p!r} went negative without lending")
            state = Counter(dict(fired))
            state[t] += 1
            succ = _sparse(nxt, state)
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


def contract_nets():
    rng = random.Random(3)
    for _ in range(40):
        yield compile_contract(random_contract(rng)).net
    for n in range(1, 5):
        yield compile_contract(pairs_contract(n)).net
    for n in range(3, 6):
        for side in (None, 0, n - 1):
            yield compile_contract(credit_ring(n, side)).net


def assert_same_walk(net, budget):
    graph = explore(net, budget)
    nodes, edges, complete = reference_explore(net, budget)
    assert [(n.marking, n.fired) for n in graph.nodes] == nodes
    assert list(graph.edges) == edges
    assert graph.complete is complete


@pytest.mark.parametrize("budget", BUDGETS)
def test_engine_matches_the_reference_loop_under_a_budget(budget):
    for net in contract_nets():
        assert_same_walk(net, budget)


def test_engine_matches_the_reference_loop_at_full_size():
    for net in contract_nets():
        size = len(explore(net).nodes)
        for budget in (size, DEFAULT_BUDGET):
            assert_same_walk(net, budget)
        assert explore(net, size).complete
        if size > 1:
            assert not explore(net, size - 1).complete


@pytest.mark.parametrize("n", range(1, 5))
def test_pairs_graph_has_three_to_the_n_nodes(n):
    graph = explore(compile_contract(pairs_contract(n)).net)
    assert graph.complete
    assert len(graph.nodes) == 3**n


def test_no_explored_node_owes_on_a_non_lending_place():
    explored = 0
    for net in contract_nets():
        for node in explore(net).nodes:
            assert all(n >= 0 for p, n in node.marking if p not in net.lending), node
            explored += 1
    assert explored > 500


def test_configuration_queries_refuse_an_incomplete_graph():
    cn = compile_contract(exchange_pair_contract())
    assert honored_done_sets(cn) == {frozenset(), frozenset({"a", "b"})}
    assert not explore(cn.net, 1).complete
    with pytest.raises(IncompleteExplorationError):
        honored_done_sets(cn, budget=1)
    with pytest.raises(IncompleteExplorationError):
        reachable_configurations(cn, budget=1)
    with pytest.raises(IncompleteExplorationError):
        honored_done_sets(cn, graph=explore(cn.net, 2))
