"""One ``_walk`` call walks every part of a question, against the call per component it replaced.

``walk_oracle._walk_components`` walked each ``(rows, flag)`` part with a
``_walk`` call of its own, each with its own set-up and root.  ``_walk`` now
walks them all in one call from one start marking under one budget.  Both
must return the same graphs, part by part: each node's marking, fired vector
and honored flag, the edges and the completeness flag.  They are compared
with no flag, over the components and over the goal split, and with the
flags agreement stops its walks at, on the credit families and seeded random
contracts at small budgets and the default.  Every graph the one call
returns starts at the same root state, in the same packing.  A flag here is
a test of a node, read by decoding it (``decode_oracle``); ``_walk`` takes
it on a state's two ints, through the node they make.
"""

import random

import pytest

import decode_oracle
import walk_oracle
from lendingnets import ReachGraph, compile_contract
from lendingnets.analysis import Node, _components, _fields, _layout, _parts, _walk
from lendingnets.nets import DEFAULT_BUDGET

from generators import credit_ring, pairs_contract, random_contract, settled_pairs

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)


def contract_nets():
    rng = random.Random(2828)
    contracts = [pairs_contract(n) for n in range(1, 5)] + [settled_pairs(n) for n in range(2, 5)]
    contracts += [credit_ring(4, 2)] + [random_contract(rng) for _ in range(60)]
    return [compile_contract(c) for c in contracts]


def agreement_parts(cn) -> list[tuple]:
    """The parts agreement walks: each share of the goal split, flagged at its first credit-free
    state whose done set covers a goal set of the share."""
    net = cn.net
    free = decode_oracle._credit_free(net, net)

    def goal(share):
        return lambda node: free(node) and decode_oracle._covers_goal_set(decode_oracle._done_set(net, node), share)

    return [(rows, goal(share)) for rows, share in _parts(net, cn.goals)]


def on_ints(net, parts: list[tuple], budget: int) -> list[tuple]:
    """``parts`` with each flag taken on a state's two ints, as ``_walk`` calls it."""
    layout = _layout(net)
    fields = _fields(layout, layout.counts(net.initial), budget)

    def flag(test):
        return None if test is None else lambda packed, key: test(Node(packed, key, fields, layout))

    return [(rows, flag(test)) for rows, test in parts]


def questions(cn) -> dict[str, list[tuple]]:
    net = cn.net
    return {
        "components": [(rows, None) for rows in _components(net)],
        "goal split": [(rows, None) for rows, _ in _parts(net, cn.goals)],
        "agreement flags": agreement_parts(cn),
    }


def read(nodes, edges, complete) -> tuple:
    return [(node.marking, node._vector, node.honored) for node in nodes], edges, complete


@pytest.mark.parametrize("budget", BUDGETS)
def test_one_call_returns_the_graphs_of_one_call_per_part(budget):
    split = cut = flagged = 0
    for cn in contract_nets():
        net = cn.net
        for name, parts in questions(cn).items():
            want = walk_oracle._walk_components(net, parts, net.initial, budget)
            fields, walks = _walk(net, on_ints(net, parts, budget), net.initial, budget)
            got = [ReachGraph(net, fields, walk) for walk in walks]
            assert [read(g.nodes, g.edges, g.complete) for g in got] == [read(*w) for w in want], (name, budget)
            root = got[0]
            assert all(graph.net is net and (graph._packs[0], graph._keys[0], graph._fields) ==
                       (root._packs[0], 0, root._fields) for graph in got)
            split += len(got) >= 2
            cut += len(got) < len(parts)
            flagged += any(flag is not None and flag(graph.nodes[-1]) for (_, flag), graph in zip(parts, got))
    # Some calls end before their last part and some walks end at a flagged node; once more
    # than the root is kept, some calls walk several parts.
    assert cut and flagged and (split or budget == 1)

