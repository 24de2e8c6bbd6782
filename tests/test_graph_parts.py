"""A graph as the contract checks read it: a list of parts, each with its goals.

A graph that holds its component walks (``analysis._SplitGraph``) holds each
of them as a graph, one that kept only its root too, and the checks read them
with their shares of the goal split; any other graph is the one part, with
every goal.  ``explore_oracle`` keeps the eager walk of the whole product.
Copies and pickles of a graph read as the graph they copy, and a copy of a
held graph walks no product.
"""

import copy
import pickle

import explore_oracle
from lendingnets import (
    ContractNet,
    Outcome,
    ReachGraph,
    agreement_reachable,
    compile_contract,
    explore,
    urgent_for_done_set,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import _held

from generators import pairs_contract
from test_split_graph import answers, dead_cycles_and_a_ring, kept_states, with_goals

CHECKS = (agreement_reachable, weakly_terminates_in, weakly_terminates_covering)

COPIES = (copy.copy, copy.deepcopy, lambda graph: pickle.loads(pickle.dumps(graph)))


def test_a_walk_that_kept_only_its_root_is_a_one_state_part():
    """Three cycles dead at the root and a ring: the dead walks are held as one-state graphs.  A
    dead part whose share holds the empty set is its own first target, and one whose share does
    not is stuck at its root; either way the answers are the whole product's."""
    cn = compile_contract(dead_cycles_and_a_ring())
    ring = {"x0z", "x1z", "x2z"}
    for goals in (cn.goals, [ring], [ring | {"c0", "d0"}], [ring, {"c1", "d1"} | ring], [set()]):
        narrow = with_goals(cn, goals)
        graph = explore(narrow.net)
        parts = _held(narrow.net, graph)
        assert [len(part) for part in parts] == [1, 1, 1, 8]
        assert all(type(part) is ReachGraph and part.complete for part in parts)
        assert answers(narrow, graph) == answers(narrow, explore_oracle.explore(narrow.net)), goals
    assert agreement_reachable(with_goals(cn, [ring]), graph=explore(cn.net)).outcome is Outcome.HOLDS
    assert weakly_terminates_in(with_goals(cn, [ring | {"c0", "d0"}]), graph=explore(cn.net)).outcome is Outcome.FAILS


def test_urgent_for_done_set_walks_the_net_once(monkeypatch):
    """Without a graph, urgency at a done set reads the whole walk, made at once: one ``_walk``
    call keeping pairs(4)'s 81 states, and no walk of its parts first."""
    net = compile_contract(pairs_contract(4)).net
    kept = kept_states(monkeypatch)
    assert urgent_for_done_set(net, {"a0"}) == frozenset({"b0", "a1", "a2", "a3"})
    assert kept == [81]


def reads(cn: ContractNet, graph) -> tuple:
    """What a copy must read alike: completeness, length, the three verdicts, edges and node texts."""
    verdicts = [check(cn, graph=graph) for check in CHECKS]
    return graph.complete, len(graph), verdicts, graph.edges, [node.describe() for node in graph.nodes]


def on_net(cn: ContractNet, graph) -> ContractNet:
    """``cn`` on the net ``graph`` was copied with: a deep copy or pickle copies the net too."""
    return ContractNet(net=graph.net, participants=cn.participants, ownership=cn.ownership, goals=cn.goals)


def test_copies_and_pickles_read_as_the_graph(monkeypatch):
    whole = compile_contract(pairs_contract(3))
    held = compile_contract(pairs_contract(4))
    cases = [(whole, explore(whole.net)), (whole, explore(whole.net, 5)), (held, explore(held.net))]
    assert _held(held.net, cases[-1][1]) is not None and _held(whole.net, cases[0][1]) is None
    kept = kept_states(monkeypatch)
    copies = [(cn, graph, way(graph)) for cn, graph in cases for way in COPIES]
    assert kept == []
    for cn, graph, copied in copies:
        assert type(copied) is type(graph) and (copied.net is graph.net) == (copied._fields is graph._fields)
        if _held(cn.net, graph) is not None:
            # A copy of a held graph holds the parts too: its checks walk nothing.
            assert _held(copied.net, copied) is not None and "edges" not in vars(copied)
            assert all(check(on_net(cn, copied), graph=copied).outcome is Outcome.HOLDS for check in CHECKS)
            assert kept == []
    for cn, graph, copied in copies:
        assert reads(on_net(cn, copied), copied) == reads(cn, graph)
        assert copied.index_of(copied.nodes[-1]) == len(copied) - 1
