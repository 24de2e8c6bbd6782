"""Every state a component walk keeps is a node of the product graph.

A component's rows keep their index in the merged table, so a state's fired
vector is laid out like the merged walk's, and the state is the product node
with every other component at its root (README, "How independent components
are decided").  Each one must be found in ``explore(net)`` and read as the
node found there, and agreement's witness, joined from the components' first
targets, must read as the one found on the full graph.
"""

import random

from lendingnets import Outcome, ReachGraph, agreement_reachable, compile_contract, explore
from lendingnets.analysis import _components, _walk
from lendingnets.nets import DEFAULT_BUDGET

from generators import pairs_contract, random_contract, settled_pairs


def contract_nets():
    rng = random.Random(190)
    contracts = [random_contract(rng) for _ in range(120)]
    contracts += [pairs_contract(n) for n in range(1, 5)] + [settled_pairs(n) for n in range(1, 4)]
    return [compile_contract(c) for c in contracts]


def test_every_walk_state_is_a_node_of_the_product_graph():
    split = 0
    for cn in contract_nets():
        net = cn.net
        full = explore(net)
        fields, walked = _walk(net, [(c, None) for c in _components(net)], net.initial, DEFAULT_BUDGET)
        walks = [ReachGraph(net, fields, walk) for walk in walked]
        split += len(walks) >= 2
        for graph in walks:
            assert graph.complete
            for node in graph.nodes:
                found = full.nodes[full.index_of(node)]
                assert found == node and hash(found) == hash(node)
                assert found.describe() == node.describe() and found.fired_set() == node.fired_set()
                assert found.honored == node.honored
    assert split


def test_the_joined_agreement_witness_is_the_full_graph_witness():
    holds = 0
    for cn in contract_nets():
        got = agreement_reachable(cn)
        assert got == agreement_reachable(cn, graph=explore(cn.net))
        holds += got.outcome is Outcome.HOLDS and "fired [none]" not in got.detail
    assert holds
