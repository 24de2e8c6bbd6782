"""Reachability graphs and the analyses built on them.

Graph nodes pair a marking with the multiset of transitions fired to reach
it.  Keeping the fired multiset makes runs recoverable from paths and keeps
the graph finite exactly for occurrence nets; nets that can fire a transition
twice simply exhaust the exploration budget and report INCONCLUSIVE.

One breadth-first walk over these nodes builds every graph and decides the
occurrence-net property.  It works on integer indices: once per call it
sorts the places and transitions and tabulates, per transition, the indices
of its non-lending input places (the enabledness test) and of its input and
output places (the firing delta).  Markings and fired vectors are int
sequences in that order.  A node is identified by its fired vector alone: by
the state equation the marking is the initial marking plus the summed deltas
of the fired transitions, so equal vectors mean equal nodes.  A ``Node`` with
sparse, id-keyed fields is built only for each kept node, not per edge.
Non-lending places cannot go negative, since they start at zero or more and
lose tokens only to transitions that passed the enabledness test, so the walk
checks no firing for debt on them.

Each edge fires one more transition than its source, so breadth-first order
is topological: ``src < dst`` for every edge.  A graph holds only its net,
nodes, edges and completeness flag; out-edges, the node index and the done
sets are derived on first use.  The "all nodes can reach a target" checks
share one stuck verdict, urgency takes one backward closure to the honored
nodes, and a closure is one sweep from the last node to the first.  A
``budget`` counts the states a search may keep: graph nodes, or (node, word)
pairs in ``trace_set``; an incomplete graph has exactly ``budget`` nodes.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from .errors import IncompleteExplorationError, NetStructureError
from .nets import (
    DEFAULT_BUDGET,
    Atom,
    LendingNet,
    PlaceId,
    TransitionId,
    Verdict,
    _check_budget,
)


@dataclass(frozen=True)
class Node:
    """Reachability graph node: sparse marking, fired multiset, and whether no place owes."""

    marking: tuple[tuple[PlaceId, int], ...]
    fired: tuple[tuple[TransitionId, int], ...]
    honored: bool = field(compare=False, repr=False)

    def tokens(self, place: PlaceId) -> int:
        for p, n in self.marking:
            if p == place:
                return n
        return 0

    def fired_multiset(self) -> Counter:
        return Counter(dict(self.fired))

    def fired_set(self) -> frozenset[TransitionId]:
        return frozenset(t for t, _ in self.fired)

    def describe(self) -> str:
        marks = ", ".join(f"{p}={n}" for p, n in self.marking) or "empty"
        fires = ", ".join(t if n == 1 else f"{t}x{n}" for t, n in self.fired) or "none"
        return f"marking [{marks}] fired [{fires}]"


@dataclass(frozen=True, eq=False)
class ReachGraph:
    """Deterministic breadth-first reachability graph of a lending net; every edge leads to a later node."""

    net: LendingNet
    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, TransitionId, int], ...]
    complete: bool

    def __post_init__(self):
        for src, t, dst in self.edges:
            if not 0 <= src < dst < len(self.nodes):
                raise NetStructureError(f"edge {src} -{t}-> {dst} does not lead to a later node of the graph")

    @cached_property
    def _out(self) -> list[list[tuple[TransitionId, int]]]:
        out: list[list] = [[] for _ in self.nodes]
        for src, t, dst in self.edges:
            out[src].append((t, dst))
        return out

    @cached_property
    def _index(self) -> dict[Node, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def _done_sets(self) -> list[frozenset[Atom]]:
        """Each node's done set, by index, shared by every check."""
        return [_done_set(self.net, node) for node in self.nodes]

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def index_of(self, node: Node | int) -> int:
        if isinstance(node, int):
            if not 0 <= node < len(self.nodes):
                raise NetStructureError(f"node index {node} out of range")
            return node
        try:
            return self._index[node]
        except KeyError:
            raise NetStructureError("node does not belong to this graph") from None

    def out_edges(self, node: Node | int) -> tuple[tuple[TransitionId, int], ...]:
        return tuple(self._out[self.index_of(node)])

    def in_edges(self, node: Node | int) -> tuple[tuple[TransitionId, int], ...]:
        i = self.index_of(node)
        return tuple((t, src) for src, t, dst in self.edges if dst == i)


def _done_set(net: LendingNet, node: Node) -> frozenset[Atom]:
    """The labels of the transitions fired to reach ``node``."""
    return frozenset(net.transition_labels[t] for t, _ in node.fired if t in net.transition_labels)


def _walk(net: LendingNet, budget: int, nodes: list[Node]) -> Iterator[tuple[int, TransitionId, int | None, int]]:
    """Breadth-first search appending kept nodes to ``nodes`` and yielding each
    edge as ``(src, t, dst, n)``: ``n`` counts the earlier firings of ``t`` in
    the run to ``src``, and ``dst`` is None when the budget kept a new node out."""
    _check_budget(budget)
    places = sorted(net.places)
    transitions = sorted(net.transitions)
    at = {p: k for k, p in enumerate(places)}
    steps = [
        (
            k,
            t,
            tuple(at[p] for p in net.preset(t) if p not in net.lending),
            tuple(at[p] for p in net.preset(t)),
            tuple(at[p] for p in net.postset(t)),
        )
        for k, t in enumerate(transitions)
    ]

    def keep(marking: list[int], fired: tuple[int, ...]) -> None:
        # Through a list: tuple() of an iterator of unknown length shrinks its
        # result in place, which fragments the heap of a long-lived process.
        nodes.append(Node(
            marking=tuple(list(compress(zip(places, marking), marking))),
            fired=tuple(list(compress(zip(transitions, fired), fired))),
            honored=min(marking, default=0) >= 0,
        ))

    marking, fired = [net.initial.get(p, 0) for p in places], (0,) * len(transitions)
    keep(marking, fired)
    index = {fired: 0}
    queue = deque([(0, marking, fired)])
    while queue:
        i, marking, fired = queue.popleft()
        tokens = marking.__getitem__
        for k, t, guard, pre, post in steps:
            # Non-lending places lose tokens only past this guard, so never go negative.
            if not all(map(tokens, guard)):
                continue
            succ_fired = list(fired)
            succ_fired[k] += 1
            succ_fired = tuple(succ_fired)
            j = index.get(succ_fired)
            if j is None and len(nodes) < budget:
                succ = marking.copy()
                for p in pre:
                    succ[p] -= 1
                for p in post:
                    succ[p] += 1
                j = index[succ_fired] = len(nodes)
                keep(succ, succ_fired)
                queue.append((j, succ, succ_fired))
            yield i, t, j, fired[k]


def explore(net: LendingNet, budget: int = DEFAULT_BUDGET) -> ReachGraph:
    """Breadth-first closure of single steps from the initial marking.

    Successors are expanded in sorted transition order, so repeated calls
    enumerate identical nodes and edges.  ``complete`` is False when the node
    budget ran out before the closure was reached.
    """
    nodes: list[Node] = []
    steps = [step[:3] for step in _walk(net, budget, nodes)]
    edges = tuple(step for step in steps if step[2] is not None)
    return ReachGraph(net=net, nodes=tuple(nodes), edges=edges, complete=len(edges) == len(steps))


def is_occurrence_net(net: LendingNet, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that no reachable run fires any transition twice."""
    complete = True
    for _, t, j, earlier in _walk(net, budget, []):
        if earlier:
            return Verdict.fails(witness=t, detail=f"transition {t!r} can fire twice in one run")
        complete = complete and j is not None
    if not complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    return Verdict.holds()


@dataclass(frozen=True)
class MarkingPredicate:
    """Conjunction of token constraints a goal marking must satisfy."""

    zero: frozenset[PlaceId] = frozenset()
    positive: frozenset[PlaceId] = frozenset()
    nonneg: frozenset[PlaceId] = frozenset()
    honored: bool = False
    unsat: bool = False

    def holds_at(self, node: Node) -> bool:
        if self.unsat:
            return False
        if self.honored and not node.honored:
            return False
        return (
            all(node.tokens(p) == 0 for p in self.zero)
            and all(node.tokens(p) >= 1 for p in self.positive)
            and all(node.tokens(p) >= 0 for p in self.nonneg)
        )


GoalLike = Callable[[Node], bool] | MarkingPredicate | Iterable[MarkingPredicate]

HONORED_GOAL = MarkingPredicate(honored=True)


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


def backward_closure(graph: ReachGraph, targets: Iterable[int]) -> set[int]:
    """Indices of all nodes from which some target node is reachable.

    Edges lead to later nodes, so one sweep from the last node to the first
    sees every successor of a node before the node itself.
    """
    reached = {graph.index_of(i) for i in targets}
    for i in range(len(graph.nodes) - 1, -1, -1):
        if i not in reached and any(j in reached for _, j in graph._out[i]):
            reached.add(i)
    return reached


def _stuck_verdict(graph: ReachGraph, incomplete: str, targets: Callable, detail: Callable[[Node], str]) -> Verdict:
    """INCONCLUSIVE on an incomplete graph, before calling ``targets``; else FAILS at the
    first node, in exploration order, that cannot reach a target, or HOLDS."""
    if not graph.complete:
        return Verdict.inconclusive(incomplete)
    good = backward_closure(graph, targets())
    stuck = next((node for i, node in enumerate(graph.nodes) if i not in good), None)
    if stuck is None:
        return Verdict.holds()
    return Verdict.fails(witness=stuck, detail=detail(stuck))


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
    return _stuck_verdict(
        graph, f"exploration budget {len(graph.nodes)} exhausted",
        lambda: compress(range(len(graph.nodes)), map(as_goal_fn(goal), graph.nodes)),
        lambda stuck: f"no goal reachable from {stuck.describe()}",
    )


def honored_nodes(graph: ReachGraph) -> list[int]:
    return [i for i, node in enumerate(graph.nodes) if node.honored]


def urgent_at(graph: ReachGraph, node: Node | int) -> frozenset[Atom]:
    """Labels of first steps from ``node`` that can still end in an honored marking."""
    return _urgent_over(graph, [graph.index_of(node)])


def _urgent_over(graph: ReachGraph, chosen: Iterable[int]) -> frozenset[Atom]:
    """Labels of first steps, from any chosen node, that stay able to reach an honored node."""
    if not graph.complete:
        raise IncompleteExplorationError("urgency needs a complete reachability graph")
    can_honor = backward_closure(graph, honored_nodes(graph))
    labels = graph.net.transition_labels
    return frozenset(
        labels[t] for i in chosen for t, j in graph.out_edges(i) if t in labels and j in can_honor
    )


def honored_always_reachable(graph: ReachGraph) -> Verdict:
    """Check that every explored node can still reach an honored marking."""
    return _stuck_verdict(
        graph, "exploration incomplete", lambda: honored_nodes(graph),
        lambda stuck: f"debt can never be repaid from {stuck.describe()}",
    )


def urgent_for_done_set(
    net: LendingNet,
    done: Iterable[Atom],
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[Atom]:
    """Union of urgent_at over nodes whose fired labels equal ``done``, a subset of the alphabet."""
    wanted = frozenset(done)
    if not wanted <= net.alphabet:
        raise NetStructureError(f"done atoms outside the alphabet: {sorted(wanted - net.alphabet)}")
    if graph is None:
        graph = explore(net, budget)
    return _urgent_over(graph, [i for i, d in enumerate(graph._done_sets) if d == wanted])


def trace_set(
    net: LendingNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> tuple[frozenset[tuple[Atom, ...]], bool]:
    """All observable words of runs from the initial marking.

    Returns the word set and a completeness flag; the flag drops when either
    the graph or the word enumeration hit the budget.
    """
    _check_budget(budget)
    if graph is None:
        graph = explore(net, budget)
    complete = graph.complete
    # A search of its own: it walks (node, word) pairs of the built graph, not the net.
    words: set[tuple[Atom, ...]] = {()}
    seen = {(0, ())}
    queue = deque([(0, ())])
    while queue:
        i, word = queue.popleft()
        for t, j in graph.out_edges(i):
            label = graph.net.transition_labels.get(t)
            nxt = word + (label,) if label is not None else word
            key = (j, nxt)
            if key in seen:
                continue
            if len(seen) >= budget:
                complete = False
                continue
            seen.add(key)
            words.add(nxt)
            queue.append(key)
    return frozenset(words), complete
