"""The graph checks as they read done sets and credit-free nodes by decoding each node.

Before the checks read a graph's states by mask, ``contracts._honored``
listed the (index, done set) pair of each credit-free node and kept the list
on the graph when the contract's net was the graph's own; ``_credit_free``
read a node's ``honored`` flag when every place that can owe is labeled and
its credits otherwise; ``_done_set`` decoded the node's key; and
``urgent_for_done_set`` chose its nodes by that done set.  The definitions
below are copied from there, graph paths only, unchanged apart from their
imports and the key the pairs are kept under (``_decoded_credit_free``).
``_credit_places``, which named the places a credit is read on, is copied
too: the layout no longer keeps a table of them for its own net, so the copy
builds it for every net, as it did for another net than the layout's.
``_credits``, which read a node's credits from that table field by field,
and ``reachable_configurations``, which built every node and read its
configuration, are copied as they were before the graph-level reader
(``analysis._configurations``) replaced them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import compress
from operator import attrgetter

from lendingnets.analysis import (
    Node,
    ReachGraph,
    _Layout,
    _first_stuck,
    _layout,
    _urgent,
)
from lendingnets.contracts import Configuration, ContractNet
from lendingnets.errors import IncompleteExplorationError, NetStructureError
from lendingnets.nets import Atom, LendingNet, Verdict, _kept


def _done_set(net: LendingNet, node: Node) -> frozenset[Atom]:
    layout, fired = node._layout, node._vector
    if layout is vars(net).get("_layout"):
        return frozenset(filter(None, compress(layout.labels, fired)))
    labels = net.transition_labels
    return frozenset([labels[t] for t in compress(layout.transitions, fired) if t in labels])


def _credit_places(net: LendingNet, layout: _Layout) -> dict[int, Atom]:
    return {k: net.place_labels[p] for p, k in layout.owing.items() if p in net.place_labels}


def _credits(net: LendingNet, node: Node) -> frozenset[Atom]:
    below = node._fields.owed(node._packed)
    if not below:
        return frozenset()
    width, credits = node._fields.width, _credit_places(net, node._layout)
    return frozenset([label for k, label in credits.items() if below >> (k + 1) * width - 1 & 1])


def configuration(cn: ContractNet, node: Node) -> Configuration:
    return Configuration(done=_done_set(cn.net, node), credits=_credits(cn.net, node))


def _credit_free(net: LendingNet, walked: LendingNet) -> Callable[[Node], bool]:
    layout = _layout(walked)
    if len(_credit_places(net, layout)) == len(layout.owing):
        return attrgetter("honored")
    return lambda node: not _credits(net, node)


def _honored(cn: ContractNet, graph: ReachGraph) -> list[tuple[int, frozenset[Atom]]]:
    net = cn.net

    def credit_free() -> list[tuple[int, frozenset[Atom]]]:
        free = _credit_free(net, graph.net)
        return [(i, _done_set(net, node)) for i, node in enumerate(graph.nodes) if free(node)]

    return _kept(graph, "_decoded_credit_free", credit_free) if net is graph.net else credit_free()


def _is_goal_set(done: frozenset[Atom], goals: frozenset[frozenset[Atom]]) -> bool:
    return done in goals


def _covers_goal_set(done: frozenset[Atom], goals: frozenset[frozenset[Atom]]) -> bool:
    return any(goal <= done for goal in goals)


def _all_can_reach(cn: ContractNet, graph: ReachGraph, reached: Callable) -> Verdict:
    def stuck_detail(stuck: Node) -> str:
        cfg = configuration(cn, stuck)
        return f"stuck at done={sorted(cfg.done)} credits={sorted(cfg.credits)}: {stuck.describe()}"

    def targets(graph: ReachGraph, goals: frozenset) -> Callable:
        return lambda: [i for i, done in _honored(cn, graph) if reached(done, goals)]

    return _first_stuck([(graph, targets(graph, cn.goals))], f"exploration budget {len(graph.nodes)} exhausted",
                        stuck_detail)


def weakly_terminates_in(cn: ContractNet, graph: ReachGraph) -> Verdict:
    return _all_can_reach(cn, graph, _is_goal_set)


def weakly_terminates_covering(cn: ContractNet, graph: ReachGraph) -> Verdict:
    return _all_can_reach(cn, graph, _covers_goal_set)


def agreement_reachable(cn: ContractNet, graph: ReachGraph) -> Verdict:
    for i, done in _honored(cn, graph):
        if _covers_goal_set(done, cn.goals):
            return Verdict.holds(detail=graph.nodes[i].describe())
    if graph.complete:
        return Verdict.fails(detail="no honored node covers a goal set")
    return Verdict.inconclusive(f"exploration budget {len(graph.nodes)} exhausted")


def honored_done_sets(cn: ContractNet, graph: ReachGraph) -> frozenset[frozenset[Atom]]:
    if not graph.complete:
        raise IncompleteExplorationError("configurations need a complete reachability graph")
    return frozenset(done for _, done in _honored(cn, graph))


def reachable_configurations(cn: ContractNet, graph: ReachGraph) -> frozenset[Configuration]:
    if not graph.complete:
        raise IncompleteExplorationError("configurations need a complete reachability graph")
    return frozenset(configuration(cn, node) for node in graph.nodes)


def honored_nodes(graph: ReachGraph) -> list[int]:
    return [i for i, node in enumerate(graph.nodes) if node.honored]


def urgent_for_done_set(net: LendingNet, done: Iterable[Atom], graph: ReachGraph) -> frozenset[Atom]:
    wanted = frozenset(done)
    if not wanted <= net.alphabet:
        raise NetStructureError(f"done atoms outside the alphabet: {sorted(wanted - net.alphabet)}")
    chosen = [i for i, node in enumerate(graph.nodes) if _done_set(net, node) == wanted]
    return _urgent(net.transition_labels, graph._fields.owe, [(graph._packs, graph.edges, graph.complete, chosen)])
