"""The per-node contract checks, kept as the oracle for the contract layer.

These are the definitions that ``lendingnets.contracts`` and the stuck-node
verdicts of ``lendingnets.analysis`` ran on before every check read a graph
node once, copied unchanged apart from their imports, with the goal
normaliser ``as_goal_fn`` that ``weakly_terminates`` read goals through
before ``analysis._goal_fn`` took its rules in.  Each check rebuilds
``configuration`` for every node it looks at, and counts a node as honored
exactly when that configuration has no credits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from lendingnets.analysis import (
    GoalLike,
    MarkingPredicate,
    Node,
    ReachGraph,
    backward_closure,
    explore,
    honored_nodes,
)
from lendingnets.contracts import Configuration, ContractNet
from lendingnets.errors import IncompleteExplorationError, NetStructureError
from lendingnets.nets import DEFAULT_BUDGET, Atom, LendingNet, Verdict


def as_goal_fn(goal: GoalLike) -> Callable[[Node], bool]:
    """Normalize a goal: a predicate, one conjunction, or a disjunction of them."""
    if callable(goal):
        return goal
    if isinstance(goal, MarkingPredicate):
        return goal.holds_at
    disjuncts = tuple(goal)
    for d in disjuncts:
        if not isinstance(d, MarkingPredicate):
            raise NetStructureError(f"not a marking predicate: {d!r}")
    return lambda node: any(d.holds_at(node) for d in disjuncts)


def _stuck_node(graph: ReachGraph, targets: Iterable[int]) -> Node | None:
    """First node, in exploration order, from which no target is reachable."""
    good = backward_closure(graph, targets)
    return next((node for i, node in enumerate(graph.nodes) if i not in good), None)


def weakly_terminates(
    net: LendingNet,
    goal: GoalLike,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Every reachable node must be able to reach a goal node.

    FAILS returns the first explored node that cannot; an exhausted budget
    yields INCONCLUSIVE since unexplored continuations could still succeed.
    """
    if graph is None:
        graph = explore(net, budget)
    if not graph.complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    goal_fn = as_goal_fn(goal)
    stuck = _stuck_node(graph, [i for i, node in enumerate(graph.nodes) if goal_fn(node)])
    if stuck is not None:
        return Verdict.fails(witness=stuck, detail=f"no goal reachable from {stuck.describe()}")
    return Verdict.holds()


def honored_always_reachable(graph: ReachGraph) -> Verdict:
    """Check that every explored node can still reach an honored marking."""
    if not graph.complete:
        return Verdict.inconclusive("exploration incomplete")
    stuck = _stuck_node(graph, honored_nodes(graph))
    if stuck is not None:
        return Verdict.fails(witness=stuck, detail=f"debt can never be repaid from {stuck.describe()}")
    return Verdict.holds()


def configuration(cn: ContractNet, node: Node) -> Configuration:
    """Read a graph node as (atoms granted, atoms in debt)."""
    net = cn.net
    done = frozenset(
        net.transition_labels[t] for t in node.fired_set() if t in net.transition_labels
    )
    credits = frozenset(
        net.place_labels[p] for p, n in node.marking if n < 0 and p in net.place_labels
    )
    return Configuration(done=done, credits=credits)


def _complete_graph(cn: ContractNet, budget: int, graph: ReachGraph | None) -> ReachGraph:
    return graph if graph is not None else explore(cn.net, budget)


def goal_configurations(cn: ContractNet, budget: int = DEFAULT_BUDGET, graph: ReachGraph | None = None):
    """Indices of nodes whose configuration is honored and exactly a goal set."""
    graph = _complete_graph(cn, budget, graph)
    hits = []
    for i, node in enumerate(graph.nodes):
        cfg = configuration(cn, node)
        if not cfg.credits and cfg.done in cn.goals:
            hits.append(i)
    return graph, hits


def weakly_terminates_in(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Every node must be able to reach an honored node whose done set is a goal set."""
    graph, hits = goal_configurations(cn, budget, graph)
    return _all_can_reach(cn, graph, hits, budget)


def weakly_terminates_covering(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """As weakly_terminates_in, but the done set may exceed the goal set."""
    graph = _complete_graph(cn, budget, graph)
    hits = [i for i, node in enumerate(graph.nodes) if _covers_goal(cn, node)]
    return _all_can_reach(cn, graph, hits, budget)


def _covers_goal(cn: ContractNet, node: Node) -> bool:
    cfg = configuration(cn, node)
    return not cfg.credits and any(goal <= cfg.done for goal in cn.goals)


def _all_can_reach(cn: ContractNet, graph: ReachGraph, hits: list[int], budget: int) -> Verdict:
    if not graph.complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    stuck = _stuck_node(graph, hits)
    if stuck is not None:
        cfg = configuration(cn, stuck)
        return Verdict.fails(
            witness=stuck,
            detail=(
                f"stuck at done={sorted(cfg.done)} credits={sorted(cfg.credits)}: "
                f"{stuck.describe()}"
            ),
        )
    return Verdict.holds()


def agreement_reachable(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Can the net reach an honored node whose done set covers some goal set?

    This is the net-side agreement check: reachability of a covering honored
    configuration, with the node found as witness.
    """
    graph = _complete_graph(cn, budget, graph)
    for i, node in enumerate(graph.nodes):
        if _covers_goal(cn, node):
            return Verdict.holds(detail=node.describe())
    if graph.complete:
        return Verdict.fails(detail="no honored node covers a goal set")
    return Verdict.inconclusive(f"exploration budget {budget} exhausted")


def reachable_configurations(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[Configuration]:
    """Configurations of all reachable nodes; raises when the graph is incomplete."""
    graph = _complete_graph(cn, budget, graph)
    if not graph.complete:
        raise IncompleteExplorationError("configurations need a complete reachability graph")
    return frozenset(configuration(cn, node) for node in graph.nodes)


def honored_done_sets(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[frozenset[Atom]]:
    """Done sets of all reachable honored configurations; raises when the graph is incomplete."""
    return frozenset(
        cfg.done
        for cfg in reachable_configurations(cn, budget, graph)
        if not cfg.credits
    )
