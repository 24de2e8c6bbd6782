"""The full-exploration deciders, kept as the oracle for the component split.

These are the definitions that ``lendingnets.contracts`` and
``lendingnets.compiler`` ran on before a net was decided one independent
component at a time, copied unchanged apart from their imports, the
``_stuck_verdict`` routine they shared, the way ``urgent_via_net`` gets
its net (the public ``compile_contract`` net with the done marking put in, the
net the compiler started from that marking then), and the done sets, which
``_honored`` read per node with the graph's net's labels from a list the graph
kept then and now builds inline.  Each explores the whole
product graph: ``pairs_contract(n)`` has 3^n nodes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import replace

from lendingnets.analysis import Node, ReachGraph, _credits, _done_set, backward_closure, explore, urgent_at
from lendingnets.compiler import compile_contract, star_pid
from lendingnets.contracts import ContractNet, configuration
from lendingnets.logic import PCLContract, _owned
from lendingnets.nets import DEFAULT_BUDGET, Atom, Verdict


def _stuck_verdict(graph: ReachGraph, incomplete: str, targets: Callable, detail: Callable[[Node], str]) -> Verdict:
    if not graph.complete:
        return Verdict.inconclusive(incomplete)
    good = backward_closure(graph, targets())
    stuck = next((node for i, node in enumerate(graph.nodes) if i not in good), None)
    if stuck is None:
        return Verdict.holds()
    return Verdict.fails(witness=stuck, detail=detail(stuck))


def _honored(cn: ContractNet, graph: ReachGraph) -> Iterator[tuple[int, frozenset[Atom]]]:
    for i, (node, done) in enumerate(zip(graph.nodes, [_done_set(graph.net, n) for n in graph.nodes])):
        if node.honored or not _credits(cn.net, node):
            yield i, done


def _all_can_reach(cn: ContractNet, budget: int, graph: ReachGraph | None, reached: Callable) -> Verdict:
    if graph is None:
        graph = explore(cn.net, budget)

    def stuck_detail(stuck: Node) -> str:
        cfg = configuration(cn, stuck)
        return f"stuck at done={sorted(cfg.done)} credits={sorted(cfg.credits)}: {stuck.describe()}"

    return _stuck_verdict(
        graph, f"exploration budget {len(graph.nodes)} exhausted",
        lambda: [i for i, done in _honored(cn, graph) if reached(done)], stuck_detail,
    )


def weakly_terminates_in(cn: ContractNet, budget: int = DEFAULT_BUDGET, graph: ReachGraph | None = None) -> Verdict:
    return _all_can_reach(cn, budget, graph, lambda done: done in cn.goals)


def weakly_terminates_covering(cn: ContractNet, budget: int = DEFAULT_BUDGET, graph: ReachGraph | None = None) -> Verdict:
    return _all_can_reach(cn, budget, graph, lambda done: any(goal <= done for goal in cn.goals))


def agreement_reachable(cn: ContractNet, budget: int = DEFAULT_BUDGET, graph: ReachGraph | None = None) -> Verdict:
    if graph is None:
        graph = explore(cn.net, budget)
    for i, done in _honored(cn, graph):
        if any(goal <= done for goal in cn.goals):
            return Verdict.holds(detail=graph.nodes[i].describe())
    if graph.complete:
        return Verdict.fails(detail="no honored node covers a goal set")
    return Verdict.inconclusive(f"exploration budget {len(graph.nodes)} exhausted")


def urgent_via_net(c: PCLContract, done: Iterable[Atom], budget: int = DEFAULT_BUDGET) -> frozenset[Atom]:
    net = compile_contract(c).net
    done = _owned(c, done)
    spent = {star_pid(a) for a in done}
    initial = {p: n for p, n in net.initial.items() if p not in spent}
    initial |= {p: 1 for p, a in net.place_labels.items() if a in done}
    graph = explore(replace(net, initial=initial), budget)
    return urgent_at(graph, 0)
