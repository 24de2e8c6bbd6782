"""Reachability graphs and the analyses built on them.

Graph nodes pair a marking with the multiset of transitions fired to reach
it.  Keeping the fired multiset makes runs recoverable from paths and keeps
the graph finite exactly for occurrence nets; nets that can fire a transition
twice simply exhaust the exploration budget and report INCONCLUSIVE.

One breadth-first walk (``_walk``) does every search over a net's states,
the occurrence check included, and returns a ``ReachGraph``.  It works on
integer indices over the places that some transition consumes: once per net,
``_layout`` sorts those places and the transitions and tabulates, per
transition, one row of the indices of its non-lending input places (the
enabledness test) and of its input and consumed output places (the firing
delta), and what a firing changes.  A place that no transition consumes is
in no guard, so the walk sees the same states, steps and order without it.
Non-lending places cannot go negative, since they start at zero or more and
lose tokens only to transitions that passed the enabledness test, so the
walk checks no firing for debt on them.  A node is identified by its fired
vector alone (the state equation gives its marking), and the walk keys each
state by one int, its fired vector packed into fixed-width fields.  A firing
re-tests only the guards it touches.

Without a built graph, the contract checks and net-side urgency split the
net into independent components (no place one consumes is touched by
another, and no label is shared) and walk each alone.  A component is a
tuple of the layout's rows, and ``explore`` is the walk of all of them, the
whole net.  A row keeps its index in the layout, so each state a component's
walk keeps is the product node with every other component at its root.  The
README, "How independent components are decided", proves the answers equal
those of the product graph.  Every ``Node`` is built by a walk, or joined
from walks' nodes (``_join``), and shares its net's ``_Layout``, the one
table the net keeps besides its components, both in its instance dict
(``nets._kept``).

Each edge fires one more transition than its source, so breadth-first order
is topological: ``src < dst`` for every edge.  A graph holds only its net,
nodes, edges and completeness flag; out-edges and the node index (keyed by
fired pairs, so building it builds no marking) are built on first use and
kept in its instance dict (``nets._kept``).

The "all nodes can reach a target" checks share one stuck routine,
``_first_stuck``, and urgency one routine, ``_urgent``.  Each decides a
product of parts, a part being one walk's graph with its target states; an
explored graph is the one-part case.  Each takes one backward closure per
part, and a closure is one sweep from the last state to the first.

A ``budget`` counts the states a search may keep: graph nodes, (node, word)
pairs in ``trace_set``, or for the component walks the shared root once plus
each component's further states, never more than the product graph's nodes.
A search the budget cut short keeps exactly ``budget`` states; a walk that a
flag stopped ends at the flagged node, its last.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
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
    _kept,
)


@dataclass(frozen=True, eq=False)
class _Layout:
    """The one table of a net that every walk on it reads, built once per net (``_layout``).

    ``places`` are the places some transition consumes, sorted, with each
    one's index in ``at``; ``transitions`` are all transitions, sorted, with
    their labels (None when unlabeled) in ``labels`` and their ``_steps``
    rows over ``places`` in ``steps``; ``owing`` maps each place that can
    owe (a lending place some transition consumes) to its index.  A node's
    dense vectors are in this order.  ``marking`` reads the other places by the
    state equation, from the net's ``initial`` counts and its postset table
    ``post``: the layout is kept with the net, so it holds no reference to it.

    ``moves[k]`` is ``(t, takes, gives, touch, retest, lends, repays)``:
    the places whose count firing row k lowers and raises, the bitmask of
    the rows whose guard holds one of them with each one's ``(1 << j,
    guard)``, and the owing places it can take to -1 and lift to 0.  A
    touched row consumes a place that row k consumes or produces, so it is
    in row k's ``_split`` component.
    """

    initial: Mapping[PlaceId, int]
    post: Mapping[str, frozenset[str]]
    places: tuple[PlaceId, ...]
    at: dict[PlaceId, int]
    transitions: tuple[TransitionId, ...]
    labels: tuple[Atom | None, ...]
    owing: dict[PlaceId, int]
    steps: tuple[tuple, ...]
    moves: tuple[tuple, ...]

    def counts(self, marking: Mapping[PlaceId, int]) -> list[int]:
        """The counts of ``marking`` on ``places``, a walk's start."""
        return [marking.get(p, 0) for p in self.places]

    def marking(self, counts, fired) -> tuple[tuple[PlaceId, int], ...]:
        """The nonzero counts of every place, by id, from a node's consumed counts and fired vector.

        The places that no transition consumes are read by the state equation,
        over the transitions that fired: no per-graph table is built, since
        most graphs have their marking read at one node, a witness, if at all.
        """
        at = self.at
        others = {p: n for p, n in self.initial.items() if p not in at}
        for t, n in compress(zip(self.transitions, fired), fired):
            for p in self.post[t]:
                if p not in at:
                    others[p] = others.get(p, 0) + n
        return tuple(sorted([*compress(zip(self.places, counts), counts), *others.items()]))


class Node:
    """Reachability graph node: marking, fired multiset, and whether no place owes.

    A walk (or ``_join``) builds each node from its dense counts over the
    consumed places, its fired vector and the net's ``_Layout``.  ``marking`` and ``fired``
    are the nonzero counts as ``(id, count)`` pairs sorted by id, built on
    each read; ``honored`` is not part of ``==``, ``hash`` or ``repr``.
    ``tokens`` looks a consumed place up by index and reads any other place
    off ``marking`` (no transition consumes it, so by the state equation it
    holds its initial count plus its producers' firings), and ``fired_set``
    reads the fired vector.
    """

    __slots__ = ("_honored", "_counts", "_vector", "_layout")

    def __init__(self, counts: list[int], vector: tuple[int, ...], honored: bool, layout: _Layout):
        self._counts, self._vector, self._honored, self._layout = counts, vector, honored, layout

    @property
    def marking(self) -> tuple[tuple[PlaceId, int], ...]:
        return self._layout.marking(self._counts, self._vector)

    @property
    def fired(self) -> tuple[tuple[TransitionId, int], ...]:
        # Through a list: tuple() of an iterator of unknown length shrinks its
        # result in place, which fragments the heap of a long-lived process.
        return tuple(list(compress(zip(self._layout.transitions, self._vector), self._vector)))

    @property
    def honored(self) -> bool:
        return self._honored

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.marking == other.marking and self.fired == other.fired

    def __hash__(self):
        return hash((self.marking, self.fired))

    def __repr__(self):
        return f"{type(self).__qualname__}(marking={self.marking!r}, fired={self.fired!r})"

    def tokens(self, place: PlaceId) -> int:
        k = self._layout.at.get(place)
        return dict(self.marking).get(place, 0) if k is None else self._counts[k]

    def fired_multiset(self) -> Counter:
        return Counter(dict(self.fired))

    def fired_set(self) -> frozenset[TransitionId]:
        return frozenset(compress(self._layout.transitions, self._vector))

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
        n = len(self.nodes)
        for src, t, dst in self.edges:
            if not 0 <= src < dst < n:
                raise NetStructureError(f"edge {src} -{t}-> {dst} does not lead to a later node of the graph")

    @property
    def _out(self) -> list[list[tuple[TransitionId, int]]]:
        """Each node's out-edges as ``(t, dst)`` pairs, built on first use and kept (``_kept``)."""
        def build() -> list[list[tuple[TransitionId, int]]]:
            out: list[list] = [[] for _ in self.nodes]
            for src, t, dst in self.edges:
                out[src].append((t, dst))
            return out

        return _kept(self, "_out", build)

    @property
    def _index(self) -> dict[tuple[tuple[TransitionId, int], ...], int]:
        """Each node's index by its fired pairs, unique in a graph of one net: its marking
        follows from them.  No marking is built; ``index_of`` compares the one node it finds."""
        return _kept(self, "_index", lambda: {n.fired: i for i, n in enumerate(self.nodes)})

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def index_of(self, node: Node | int) -> int:
        if isinstance(node, Node):
            i = self._index.get(node.fired)
            if i is None or (self.nodes[i] is not node and self.nodes[i] != node):
                raise NetStructureError("node does not belong to this graph")
            return i
        if not isinstance(node, int) or isinstance(node, bool):
            raise NetStructureError(f"node index {node!r} is not an int")
        if not 0 <= node < len(self.nodes):
            raise NetStructureError(f"node index {node} out of range")
        return node

    def out_edges(self, node: Node | int) -> tuple[tuple[TransitionId, int], ...]:
        return tuple(self._out[self.index_of(node)])

    def in_edges(self, node: Node | int) -> tuple[tuple[TransitionId, int], ...]:
        i = self.index_of(node)
        return tuple((t, src) for src, t, dst in self.edges if dst == i)


def _done_set(net: LendingNet, node: Node) -> frozenset[Atom]:
    """The labels, by ``net``, of the transitions fired to reach ``node``, read off its fired
    vector: with the layout's labels when the node was walked on ``net`` (its layout is the
    one kept on ``net``, ``_layout``), and with ``net.transition_labels`` otherwise."""
    layout = node._layout
    if layout is vars(net).get("_layout"):
        return frozenset(filter(None, compress(layout.labels, node._vector)))
    labels = net.transition_labels
    return frozenset([labels[t] for t in compress(layout.transitions, node._vector) if t in labels])


def _steps(net: LendingNet, places: Iterable[PlaceId], transitions: Iterable[TransitionId]) -> list[tuple]:
    """Per transition, ``(k, t, guard, pre, post)``: its position, its id, and the indices in
    ``places`` of its non-lending input places, its input places and its output places among ``places``."""
    at = {p: k for k, p in enumerate(places)}
    steps = []
    for k, t in enumerate(transitions):
        pre = net.preset(t)
        guard = tuple([at[p] for p in pre if p not in net.lending])
        steps.append((k, t, guard, tuple([at[p] for p in pre]), tuple([at[p] for p in net.postset(t) if p in at])))
    return steps


def explore(net: LendingNet, budget: int = DEFAULT_BUDGET) -> ReachGraph:
    """Breadth-first closure of single steps from the initial marking.

    Successors are expanded in sorted transition order, so repeated calls
    enumerate identical nodes and edges.  ``complete`` is False when the node
    budget ran out before the closure was reached.  It is the walk of every
    row of the layout, the whole net.
    """
    _check_budget(budget)
    layout = _layout(net)
    return _walk(net, layout.steps, layout.counts(net.initial), budget)


def is_occurrence_net(net: LendingNet, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that no reachable run fires any transition twice.

    The walk of every row stops at the first state it keeps that enables a
    transition it has already fired, the source of the first edge that
    fires one twice (README, "How exploration works"); the first such
    transition, read again at the walk's last node, is the witness.
    """
    _check_budget(budget)
    layout = _layout(net)
    guards = [(t, guard) for _, t, guard, _, _ in layout.steps]

    def refired(node: Node) -> TransitionId | None:
        tokens = node._counts.__getitem__
        return next((t for t, guard in compress(guards, node._vector) if all(map(tokens, guard))), None)

    graph = _walk(net, layout.steps, layout.counts(net.initial), budget, refired)
    t = refired(graph.nodes[-1])
    if t is not None:
        return Verdict.fails(witness=t, detail=f"transition {t!r} can fire twice in one run")
    if not graph.complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    return Verdict.holds()


def _fires_at_most_once(net: LendingNet) -> bool:
    """Whether every transition consumes a place that does not lend, has no
    producer and starts with at most 1 token.

    Such a place never gains a token and each firing of its consumers takes
    one, so each transition fires at most once in any run: the net is an
    occurrence net, with no search (README, "How exploration works").
    """
    return all(
        any(p not in net.lending and not net.preset(p) and net.initial.get(p, 0) <= 1 for p in net.preset(t))
        for t in net.transitions
    )


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
    """Indices of all nodes from which some target node is reachable."""
    return _reaching(graph._out, {graph.index_of(i) for i in targets})


def _reaching(out: list[list[tuple[TransitionId, int]]], reached: set[int]) -> set[int]:
    """Add to ``reached`` every state with a path into it, given each state's out-edges.

    Edges lead to later states, so one sweep from the last state to the first
    sees every successor of a state before the state itself; a state's scan
    stops at its first successor already reached.
    """
    for i in range(len(out) - 1, -1, -1):
        if i not in reached:
            for _, j in out[i]:
                if j in reached:
                    reached.add(i)
                    break
    return reached


def _first_stuck(parts: list[tuple], incomplete: str, detail: Callable[[Node], str]) -> Verdict:
    """The stuck verdict of the product of ``parts``, each a ``(graph, targets)`` pair.

    ``targets()`` gives the indices of the graph's target nodes.  INCONCLUSIVE
    with ``incomplete`` when some part is incomplete, before any target is
    read.  A product state reaches a target when each of its parts does.  So
    the first stuck product node, by fewest firings and then least path, is
    one part's first stuck node, a product node with every other part at its
    root; among several, the least path decides (``_least_path``).
    """
    if not all(graph.complete for graph, _ in parts):
        return Verdict.inconclusive(incomplete)
    stuck = []
    for graph, targets in parts:
        good = _reaching(graph._out, set(targets()))
        i = next((i for i in range(len(graph.nodes)) if i not in good), None)
        if i is not None:
            stuck.append((graph, i))
    if not stuck:
        return Verdict.holds()
    graph, i = stuck[0] if len(stuck) == 1 else min(stuck, key=lambda s: _least_path(*s))
    node = graph.nodes[i]
    return Verdict.fails(witness=node, detail=detail(node))


def _least_path(graph: ReachGraph, i: int) -> tuple[int, list[TransitionId]]:
    """Node ``i``'s rank by least run, first by length, then by ids: its breadth-first path,
    read back along each node's first in-edge, the edge that found it."""
    first = {dst: (t, src) for src, t, dst in reversed(graph.edges)}
    path = []
    while i:
        t, i = first[i]
        path.append(t)
    return len(path), path[::-1]


def _urgent(labels: Mapping[TransitionId, Atom], parts: Iterable[tuple]) -> frozenset[Atom]:
    """Labels, by ``labels``, of first steps from a chosen state of some part that keep an
    honored state reachable.

    Each part is ``(graph, chosen)``: a walk's ``ReachGraph`` and the
    indices of the states to step from; an incomplete part raises before its
    honored states (``honored_nodes``) are read.  A product state can reach
    an honored state exactly when each of its parts can, and every root is
    honored, since no initial count is below 0; so the answer for a product
    of parts chosen at their roots is the union of the parts' answers.
    """
    urgent = set()
    for graph, chosen in parts:
        if not graph.complete:
            raise IncompleteExplorationError("urgency needs a complete reachability graph")
        out = graph._out
        can_honor = _reaching(out, set(honored_nodes(graph)))
        urgent.update(labels[t] for i in chosen for t, j in out[i] if t in labels and j in can_honor)
    return frozenset(urgent)


def _layout(net: LendingNet) -> _Layout:
    """The layout of the nodes walked on ``net``, with its rows, built once per net and kept with it."""
    def build() -> _Layout:
        places = tuple(sorted({p for t in net.transitions for p in net.preset(t)}))
        transitions = tuple(sorted(net.transitions))
        at = {p: k for k, p in enumerate(places)}
        owing = {p: k for p, k in at.items() if p in net.lending}
        steps = tuple(_steps(net, places, transitions))
        return _Layout(net.initial, net._post, places, at, transitions,
                       tuple(map(net.transition_labels.get, transitions)), owing, steps, _moves(steps, owing))

    return _kept(net, "_layout", build)


def _moves(steps: tuple[tuple, ...], owing: dict[PlaceId, int]) -> tuple[tuple, ...]:
    """Per row of ``steps``, what firing it does to a walk state (``_Layout.moves``)."""
    guarded: dict[int, int] = {}
    for k, _, guard, _, _ in steps:
        for p in guard:
            guarded[p] = guarded.get(p, 0) | 1 << k
    owes = set(owing.values())
    moves = []
    for k, t, _, pre, post in steps:
        takes = tuple([p for p in pre if p not in post])
        gives = tuple([p for p in post if p not in pre])
        touch = 0
        for p in (*takes, *gives):
            touch |= guarded.get(p, 0)
        retest = tuple([(1 << j, guard) for j, _, guard, _, _ in steps if touch >> j & 1])
        moves.append((t, takes, gives, touch, retest,
                      tuple([p for p in takes if p in owes]), tuple([p for p in gives if p in owes])))
    return tuple(moves)


def _consumed_part(net: LendingNet) -> tuple:
    """What decides the runs of ``net``: its alphabet, its consumed places with their
    initial counts, and the set of its transitions' labels, inputs, non-lending
    inputs and consumed outputs (README, "Compositionality from the consumed parts").

    The sets hold place indices: they name the same places in two nets
    whenever the sorted consumed places, compared first, are equal.
    """
    layout = _layout(net)
    return (
        net.alphabet,
        layout.places,
        tuple(layout.counts(net.initial)),
        {(layout.labels[k], frozenset(pre), frozenset(guard), frozenset(post)) for k, _, guard, pre, post in layout.steps},
    )


def _components(net: LendingNet) -> tuple[tuple, ...]:
    """The independent components of ``net`` (``_split``), split once per net and kept with it."""
    return _kept(net, "_components", lambda: tuple(_split(net)))


def _split(net: LendingNet) -> list[tuple]:
    """The independent components of ``net``, each a tuple of its transitions' layout rows,
    ordered by their first transition.

    Two transitions are joined when one consumes a place that the other
    consumes or produces, or when they share a label.  A place that no
    transition consumes is in no component: it never disables a step, and it
    never owes, since it starts at 0 or more and only gains tokens.
    """
    layout = _layout(net)
    root = list(range(len(layout.steps)))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    # Every consumed place has a consumer, so joining each transition with the
    # first one to touch the same consumed place, or to carry the same label,
    # joins exactly the classes of the relation above.
    first: dict[int | Atom, int] = {}
    for k, _, _, pre, post in layout.steps:
        label = layout.labels[k]
        for key in (*pre, *post) if label is None else (*pre, *post, label):
            j = first.setdefault(key, k)
            if j != k:
                root[find(k)] = find(j)
    members: dict[int, list[tuple]] = {}
    for row in layout.steps:
        members.setdefault(find(row[0]), []).append(row)
    return [tuple(rows) for rows in members.values()]


def _walk(net: LendingNet, rows: tuple, start: list[int], budget: int,
          flag: Callable[[Node], object] | None = None) -> ReachGraph:
    """Breadth-first search of the layout ``rows`` of ``net``, one component or every row, from
    ``start``, the counts of the layout's places, keeping at most ``budget`` states.

    Only the component's transitions fire, so only its places change; the
    other consumed places keep their start counts, and each kept state is the
    product node with every other component at its root.  The walk ends,
    incomplete, at the first kept node where ``flag(node)`` holds, after the
    edge that found it: that node is the graph's last.

    A queued state carries the bitmask of its enabled rows, expanded in
    ascending (sorted transition) order, and its debt, the number of owing
    places below 0.  Firing row k re-tests only the rows it touches
    (``_Layout.moves``), all in its component, and moves the debt only on
    the owing places it lowers or raises (README, "How exploration works").

    States are keyed by one int, the fired vector packed into fields of
    ``width`` bits, and the fired tuple is built only for kept states.  No
    field carries: the path to a kept state runs through distinct kept
    states, so no count of a successor exceeds ``len(index)``, which is below
    ``2 ** width`` (README, "How exploration works").  The walk never writes
    to a count list once a node holds it (nor to ``start``).
    """
    layout = _layout(net)
    moves, width = layout.moves, min(budget, sys.maxsize).bit_length()
    fired = (0,) * len(layout.transitions)
    tokens = start.__getitem__
    enabled = sum([1 << k for k, _, guard, _, _ in rows if all(map(tokens, guard))])
    debt = sum([start[k] < 0 for k in layout.owing.values()])
    nodes = [Node(start, fired, not debt, layout)]
    complete = flag is None or not flag(nodes[0])
    edges, index = [], {0: 0}
    queue = deque([(0, start, fired, 0, enabled, debt)] if complete else ())
    while queue:
        i, counts, fired, key, enabled, debt = queue.popleft()
        todo = enabled
        while todo:
            bit = todo & -todo
            todo ^= bit
            k = bit.bit_length() - 1
            move = moves[k]
            succ_key = key + (1 << k * width)
            j = index.get(succ_key)
            if j is None:
                if len(nodes) >= budget:
                    complete = False
                    continue
                _, takes, gives, touch, retest, lends, repays = move
                succ = counts.copy()
                for p in takes:
                    succ[p] -= 1
                for p in gives:
                    succ[p] += 1
                succ_debt = debt
                for p in lends:
                    succ_debt += succ[p] == -1
                for p in repays:
                    succ_debt -= succ[p] == 0
                tokens = succ.__getitem__
                succ_enabled = enabled & ~touch
                for row, guard in retest:
                    # Non-lending places lose tokens only past a guard, so never go negative.
                    if all(map(tokens, guard)):
                        succ_enabled |= row
                succ_fired = list(fired)
                succ_fired[k] += 1
                succ_fired = tuple(succ_fired)
                j = index[succ_key] = len(nodes)
                nodes.append(Node(succ, succ_fired, not succ_debt, layout))
                if flag is not None and flag(nodes[j]):
                    # The walk ends once the edge to the flagged node is kept.
                    complete, todo = False, 0
                    queue.clear()
                else:
                    queue.append((j, succ, succ_fired, succ_key, succ_enabled, succ_debt))
            edges.append((i, move[0], j))
    return ReachGraph(net=net, nodes=tuple(nodes), edges=tuple(edges), complete=complete)


def _walk_components(net: LendingNet, parts: list[tuple[tuple, Callable | None]], start: Mapping[PlaceId, int],
                     budget: int) -> list[ReachGraph]:
    """Walk each ``(rows, flag)`` of ``parts``, one component's rows and its flag, in turn
    from the marking ``start`` under one budget.

    The components share their root, so the budget counts it once plus each
    component's further states.  The walks end after one that the budget cut
    short or, with a flag, after one whose last node is not flagged.
    """
    walks, marking = [], _layout(net).counts(start)
    for rows, flag in parts:
        graph = _walk(net, rows, marking, budget, flag)
        walks.append(graph)
        budget -= len(graph.nodes) - 1
        if not (graph.complete if flag is None else flag(graph.nodes[-1])):
            break
    return walks


def _join(net: LendingNet, start: Mapping[PlaceId, int], parts: Iterable[Node]) -> Node:
    """The product node of ``parts``, nodes of distinct components' walks on ``net`` from ``start``:
    the start counts plus each part's deltas, and the sum of the parts' fired vectors."""
    layout = _layout(net)
    root = layout.counts(start)
    counts, fired = root.copy(), [0] * len(layout.transitions)
    for node in parts:
        for k, n in enumerate(node._counts):
            counts[k] += n - root[k]
        for k, n in enumerate(node._vector):
            fired[k] += n
    return Node(counts, tuple(fired), min(map(counts.__getitem__, layout.owing.values()), default=0) >= 0, layout)


def _urgent_at_root(net: LendingNet, budget: int = DEFAULT_BUDGET,
                    start: Mapping[PlaceId, int] | None = None) -> frozenset[Atom]:
    """``urgent_at(explore(net, budget), 0)``, one component at a time; ``start``
    replaces the initial marking as the root."""
    _check_budget(budget)
    walks = _walk_components(net, [(c, None) for c in _components(net)], net.initial if start is None else start, budget)
    return _urgent(net.transition_labels, ((graph, (0,)) for graph in walks))


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
    _check_budget(budget)
    if graph is None:
        graph = explore(net, budget)
    return _first_stuck(
        [(graph, lambda: compress(range(len(graph.nodes)), map(as_goal_fn(goal), graph.nodes)))],
        f"exploration budget {len(graph.nodes)} exhausted",
        lambda stuck: f"no goal reachable from {stuck.describe()}",
    )


def honored_nodes(graph: ReachGraph) -> list[int]:
    return [i for i, node in enumerate(graph.nodes) if node.honored]


def urgent_at(graph: ReachGraph, node: Node | int) -> frozenset[Atom]:
    """Labels of first steps from ``node`` that can still end in an honored marking."""
    return _urgent(graph.net.transition_labels, [(graph, [graph.index_of(node)])])


def honored_always_reachable(graph: ReachGraph) -> Verdict:
    """Check that every explored node can still reach an honored marking."""
    return _first_stuck(
        [(graph, lambda: honored_nodes(graph))], "exploration incomplete",
        lambda stuck: f"debt can never be repaid from {stuck.describe()}",
    )


def urgent_for_done_set(
    net: LendingNet,
    done: Iterable[Atom],
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[Atom]:
    """Union of urgent_at over nodes whose fired labels equal ``done``, a subset of the alphabet.

    Nodes and steps are read with ``net``'s labels, also on a ``graph`` of another net."""
    _check_budget(budget)
    wanted = frozenset(done)
    if not wanted <= net.alphabet:
        raise NetStructureError(f"done atoms outside the alphabet: {sorted(wanted - net.alphabet)}")
    if graph is None:
        graph = explore(net, budget)
    chosen = [i for i, node in enumerate(graph.nodes) if _done_set(net, node) == wanted]
    return _urgent(net.transition_labels, [(graph, chosen)])


def trace_set(net: LendingNet, budget: int = DEFAULT_BUDGET) -> tuple[frozenset[tuple[Atom, ...]], bool]:
    """All observable words of runs from the initial marking.

    Explores the net under ``budget`` and returns the word set and a
    completeness flag; the flag drops when either the exploration or the word
    enumeration hit the budget.
    """
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
