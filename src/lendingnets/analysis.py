"""Reachability graphs and the analyses built on them.

Graph nodes pair a marking with the multiset of transitions fired to reach
it.  Keeping the fired multiset makes runs recoverable from paths and keeps
the graph finite exactly for occurrence nets; nets that can fire a transition
twice simply exhaust the exploration budget and report INCONCLUSIVE.

One breadth-first walk (``_walk``) does every search over a net's states,
the occurrence check included, and hands over each walk's lists, which a
``ReachGraph`` holds as they are.  It works on
integer indices over the places that some transition consumes: once per net,
``_layout`` sorts those places and the transitions and tabulates, per
transition, one row of the indices of its non-lending input places (its
guard) and of its input and consumed output places.  A place that no
transition consumes is in no guard, so the walk sees the same states, steps
and order without it.  A node is identified by its fired vector alone (the
state equation gives its marking).  The walk keeps each state as two ints
of one field width (``_Fields``): its counts, a biased field per consumed
place, and its key, a field per transition.  A firing adds one int to each,
a guard or the honored test is one mask, and a firing re-tests only the
guards it touches.  A graph is one walk's ints, in two lists, with the
walk's fields, layout and edges; a ``Node`` is built only when read.
Every question on a graph reads the ints by mask: honored and credit-free
states by one test of the counts, done sets, and goal sets covered or
equalled, by the nonzero-field read of the key (``_done_test``).  A net's
labels meet a walk's packing in one place, ``_reading``: the credit labels,
the credit-free test and the done-set masks, kept with the fields for the
walked net's own labels.

Without a built graph, the contract checks and net-side urgency split the
net into independent components (no place one consumes is touched by
another, and no label is shared), and one ``_walk`` call walks each of them
in turn from one shared root.  A component is a tuple of the layout's rows.
A row keeps its index in the layout, so each state a component's walk keeps
is the product node with every other component at its root.  ``explore``
splits a net of four or more components of two or more rows each the same
way: its graph holds every component walk as a graph, and the product, the
one-part walk of every row, is walked when its lists or edges are first read.
Every other graph is that one-part walk.  The contract checks read a graph as
a list of parts, each with its goals (``_held_parts``): the walks it holds
with their shares of the goal split, or else the graph itself with every
goal.  The README, "How independent components are decided", proves the
answers equal those of the product graph.  Every ``Node`` is read off a
walk's states, or joined from parts' states (``_joined``), and shares its
net's ``_Layout``, the one table the net keeps besides its components, both
in its instance dict (``nets._kept``).  This module is the one reader of the
layout: the goal split (``_parts``), the label reads (``_reading``,
``_credits``, ``_done_set``) and the goal reads (``_goal_states``) are here,
and other modules pass nets, graphs and nodes.

Each edge fires one more transition than its source, so breadth-first order
is topological: ``src < dst`` for every edge.  A walk lists a node's edges
while it expands the node, in index order, so a graph's edges are in order
of their source, and no check of them is needed.  Its readers take
out-edges from the edge list, and the node index (keyed by the key int, so
building it builds no node) is built on first use and kept in its instance
dict (``nets._kept``).

The "all nodes can reach a target" checks share one stuck routine,
``_first_stuck``, and urgency one routine, ``_urgent``.  Each decides a
product of parts, a part being one walk with its target states: a graph for
the stuck checks, the walk's lists for urgency; an explored graph is the
one-part case.  Each takes one backward closure per part (``_reaching``), a
pass over the edges from the last to the first that flags states in a list.

A ``budget`` counts the states a search may keep: graph nodes, (node, word)
pairs in ``trace_set``, or for one walk call over several parts the shared
root once plus each part's further states, never more than the product
graph's nodes.
A search the budget cut short keeps exactly ``budget`` states; a walk that a
flag stopped ends at the flagged node, its last.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import compress, takewhile
from math import prod
from operator import itemgetter, mul

from .errors import IncompleteExplorationError, NetStructureError
from .nets import (
    DEFAULT_BUDGET,
    Atom,
    LendingNet,
    Outcome,
    PlaceId,
    TransitionId,
    Verdict,
    _OnRead,
    _check_budget,
    _consumed,
    _kept,
)

@dataclass(eq=False, slots=True)
class _Layout:
    """The one table of a net that every walk on it reads, built once per net (``_layout``).

    ``places`` are the places some transition consumes, sorted, with each one's index in ``at``
    and initial count in ``start``; ``transitions`` are all transitions, sorted, with their labels (None
    when unlabeled) in ``labels`` and their ``_steps`` rows over ``places`` in ``steps``; ``owing``
    maps each place that can owe (a lending place some transition consumes) to its index; ``once``
    is ``_fires_at_most_once``, ``tables`` keeps the walks' ``_Fields`` by width, and ``marks`` the
    counts each done atom sets (``_done_marking``), built on first use.  ``marking``
    reads the other places by the state equation, from the net's ``initial`` counts and
    transitions' postsets ``post``: the layout is kept with the net, so it holds no reference to it.
    A net whose sinks are deferred (``nets._deferred``) shares its consumed net's layout but for
    ``post``, its own outputs: the builder of its sinks (``nets._Sinks``), which builds them once.
    """

    initial: Mapping[PlaceId, int]
    post: Mapping[TransitionId, frozenset[PlaceId]]
    places: tuple[PlaceId, ...]
    at: dict[PlaceId, int]
    start: tuple[int, ...]
    transitions: tuple[TransitionId, ...]
    labels: tuple[Atom | None, ...]
    owing: dict[PlaceId, int]
    once: bool
    steps: tuple[tuple, ...]
    tables: dict[int, _Fields]
    marks: dict[Atom, list[tuple[int, int]]] | None = None

    def counts(self, marking: Mapping[PlaceId, int]) -> list[int]:
        """The counts of ``marking`` on ``places``, as ``_walk`` reads a marking it starts from."""
        return [marking.get(p, 0) for p in self.places]

    def marking(self, counts, fired) -> tuple[tuple[PlaceId, int], ...]:
        """The nonzero counts of every place, by id, from a node's consumed counts and fired pairs.

        The places that no transition consumes are read by the state equation,
        over the transitions that fired: no per-graph table is built, since
        most graphs have their marking read at one node, a witness, if at all.
        """
        at = self.at
        others = {p: n for p, n in self.initial.items() if p not in at}
        for t, n in fired:
            for p in self.post[t]:
                if p not in at:
                    others[p] = others.get(p, 0) + n
        return tuple(sorted([*compress(zip(self.places, counts), counts), *others.items()]))


@dataclass(eq=False, slots=True)
class _Fields:
    """How a walk packs each state into two ints (``_fields``; README, "How exploration works").

    Both are ``width``-bit fields from bit 0, read by one rule (``decode``).  Counts: consumed
    place k's count plus ``bias`` in field k (``units[k]``).  Key: transition k's firings in field
    k.  Firing ``rows[k] = (t, step, delta, touch, retest)`` adds ``step`` to the key and ``delta``
    to the counts and re-tests the guards of the rows in ``touch``.  Guard ``(1 << j, add, mask)``
    holds when ``(counts + add) & mask == mask``; so does ``owe`` at an honored state (``owed``).
    ``root`` packs the layout's initial counts (``_Layout.start``), and ``reading`` keeps the read of
    the layout's own net's labels (``_reading``), built on first use.
    """

    width: int
    bias: int
    units: tuple[int, ...]
    rows: tuple[tuple, ...]
    guards: tuple[tuple[int, int, int], ...]
    owe: tuple[int, int]
    root: int = 0
    reading: tuple[dict[int, Atom], tuple[int, int], int, dict[Atom, int]] | None = None

    def pack(self, counts: list[int]) -> int:
        return sum(self.units) * self.bias + sum(map(mul, counts, self.units))

    def decode(self, packed: int, n: int, bias: int) -> list[int]:
        """The first ``n`` fields of ``packed`` less ``bias``: the counts, or the key's fired vector."""
        width, full = self.width, (self.bias << 2) - 1
        return [(packed >> shift & full) - bias for shift in range(0, n * width, width)]

    def owed(self, packed: int) -> int:
        add, mask = self.owe
        return mask & ~(packed + add)


class Node:
    """Reachability graph node: marking, fired multiset, and whether no place owes.

    A node is built when read, from one state of a walk, and no graph is built
    from nodes.  It keeps the state's two ints (``_Fields``), the walk's fields
    and the net's ``_Layout``, and reads all else off them: ``marking`` and
    ``fired``, the nonzero counts as ``(id, count)`` pairs sorted by id, decoded
    once per read, and ``honored``, which is not part of ``==``, ``hash`` or
    ``repr``.  ``tokens`` reads a consumed place's field and any other place by
    the state equation: no transition consumes it, so it holds its initial
    count plus its producers' firings.  ``nodes`` of a graph builds them all,
    and the library's checks build only a node they report
    (``ReachGraph._node``), such as a witness.
    """

    __slots__ = ("_packed", "_key", "_fields", "_layout")

    def __init__(self, packed: int, key: int, fields: _Fields, layout: _Layout):
        self._packed, self._key, self._fields, self._layout = packed, key, fields, layout

    @property
    def _counts(self) -> list[int]:
        return self._fields.decode(self._packed, len(self._fields.units), self._fields.bias)

    @property
    def _vector(self) -> list[int]:
        return self._fields.decode(self._key, len(self._layout.transitions), 0)

    def _read(self) -> tuple[tuple[tuple[PlaceId, int], ...], tuple[tuple[TransitionId, int], ...]]:
        """``(marking, fired)``, decoding each int once."""
        fired = self.fired
        return self._layout.marking(self._counts, fired), fired

    @property
    def marking(self) -> tuple[tuple[PlaceId, int], ...]:
        return self._layout.marking(self._counts, self.fired)

    @property
    def fired(self) -> tuple[tuple[TransitionId, int], ...]:
        vector = self._vector
        # Through a list: tuple() of an iterator of unknown length shrinks its
        # result in place, which fragments the heap of a long-lived process.
        return tuple(list(compress(zip(self._layout.transitions, vector), vector)))

    @property
    def honored(self) -> bool:
        return not self._fields.owed(self._packed)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._read() == other._read()

    def __hash__(self):
        return hash(self._read())

    def __repr__(self):
        marking, fired = self._read()
        return f"{type(self).__qualname__}(marking={marking!r}, fired={fired!r})"

    def tokens(self, place: PlaceId) -> int:
        layout = self._layout
        k = layout.at.get(place)
        if k is not None:
            return self._counts[k]
        # A plain loop: in CPython 3.11 a comprehension in this method slows the lookup above by half.
        n = layout.initial.get(place, 0)
        vector = self._vector
        for t, m in compress(zip(layout.transitions, vector), vector):
            if place in layout.post[t]:
                n += m
        return n

    def fired_multiset(self) -> Counter:
        return Counter(dict(self.fired))

    def fired_set(self) -> frozenset[TransitionId]:
        return frozenset(compress(self._layout.transitions, self._vector))

    def describe(self) -> str:
        return _described(*self._read())


def _described(marking: Iterable[tuple[PlaceId, int]], fired: Iterable[tuple[TransitionId, int]]) -> str:
    """``Node.describe``'s text of a node's ``marking`` and ``fired`` pairs."""
    marks = ", ".join(f"{p}={n}" for p, n in marking) or "empty"
    fires = ", ".join(t if n == 1 else f"{t}x{n}" for t, n in fired) or "none"
    return f"marking [{marks}] fired [{fires}]"


@dataclass(frozen=True, eq=False, init=False)
class ReachGraph:
    """Deterministic breadth-first reachability graph of a lending net: one ``walk``, a ``(packs,
    keys, edges, complete)`` part of a ``_walk`` call on ``net``, with the call's ``fields``.

    It holds the walk's lists of its states' two ints in node order (``_packs``, ``_keys``), the
    walk's ``_fields`` and the net's ``_layout``, and its questions read the ints by mask.  The
    walk writes each state's edges as it expands it, in state order, so every edge leads to a
    later node and a node's out-edges are one slice of ``edges``.  ``nodes`` is built on first
    read.  The lists are slots, so the instance dict holds only the graph's fields and what its
    readers keep (``nets._kept``), which a copy or pickle (``__reduce__``) leaves out.  A graph of
    a split net holds its component walks instead (``_SplitGraph``).
    """

    __slots__ = ("_packs", "_keys", "_fields", "_layout", "__dict__")
    net: LendingNet
    edges: tuple[tuple[int, TransitionId, int], ...]
    complete: bool

    def __init__(self, net: LendingNet, fields: _Fields, walk: tuple[list[int], list[int], list[tuple], bool]):
        packs, keys, edges, complete = walk
        self.__dict__.update(net=net, edges=tuple(edges), complete=complete)
        for name, value in zip(self.__slots__, (packs, keys, fields, _layout(net))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return ReachGraph, (self.net, self._fields, (self._packs, self._keys, self.edges, self.complete))

    @property
    def nodes(self) -> tuple[Node, ...]:
        fields, layout = self._fields, self._layout
        return _kept(self, "nodes", lambda: tuple([Node(packed, key, fields, layout)
                                                   for packed, key in zip(self._packs, self._keys)]))

    @property
    def _index(self) -> dict[int, int]:
        """Each state's index by its key, unique in a graph: a state's counts follow from its key and
        the root's.  No node is built; ``index_of`` compares the counts of the one state it finds."""
        return _kept(self, "_index", lambda: dict(zip(self._keys, range(len(self._keys)))))

    def __len__(self) -> int:
        """The number of states, counted without building a node."""
        return len(self._keys)

    def _node(self, i: int) -> Node:
        """Node ``i``: the one ``nodes`` holds once built, else one built alone."""
        nodes = vars(self).get("nodes")
        return nodes[i] if nodes is not None else Node(self._packs[i], self._keys[i], self._fields, self._layout)

    @property
    def root(self) -> Node:
        return self._node(0)

    def index_of(self, node: Node | int) -> int:
        if isinstance(node, Node):
            if node._fields is self._fields:
                i = self._index.get(node._key)
                if i is not None and self._packs[i] == node._packed:
                    return i
            else:
                # A node of another packing is looked up by its firings packed at this graph's
                # width (a transition the net lacks adds nothing), and compared decoded.
                step = dict(zip(self._layout.transitions, [row[1] for row in self._fields.rows]))
                i = self._index.get(sum([step.get(t, 0) * n for t, n in node.fired]))
                if i is not None and self._node(i) == node:
                    return i
            raise NetStructureError("node does not belong to this graph")
        if not isinstance(node, int) or isinstance(node, bool):
            raise NetStructureError(f"node index {node!r} is not an int")
        if not 0 <= node < len(self._keys):
            raise NetStructureError(f"node index {node} out of range")
        return node

    def out_edges(self, node: Node | int) -> tuple[tuple[TransitionId, int], ...]:
        return tuple([(t, dst) for _, t, dst in _out(self.edges, self.index_of(node))])


class _SplitGraph(ReachGraph):
    """The complete graph ``explore`` gives a split net: it holds the net's component walks and not
    yet their product (README, "A split graph").

    ``_held`` is ``(parts, size, budget)``: per component its walk as a graph, the product's node
    count, and the budget.  The product's lists and ``edges``, and so its nodes, are those of the
    whole walk under that budget (``_explored``), walked on the first read of one of them, once
    (``nets._OnRead``), and the graph then reads as the one the whole walk gives.  Only this class
    declares them so: a graph of one walk reads its lists from its slots.  A copy holds the parts,
    not the product.
    """

    __slots__ = ("_held",)

    def __init__(self, net: LendingNet, fields: _Fields, parts: tuple, size: int, budget: int):
        self.__dict__.update(net=net, complete=True, _product=partial(_explored, net, budget))
        for name, value in (("_fields", fields), ("_layout", _layout(net)), ("_held", (parts, size, budget))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return _SplitGraph, (self.net, self._fields, *self._held)

    def __len__(self) -> int:
        """The product's node count, read off the parts without walking it."""
        return self._held[1]


_OnRead.declare(_SplitGraph, "_product", "_packs", "_keys", "edges")


def _out(edges: tuple[tuple[int, TransitionId, int], ...], i: int) -> tuple[tuple[int, TransitionId, int], ...]:
    """The edges out of state ``i``: one slice of ``edges``, which are listed by source."""
    first = bisect_left(edges, i, key=itemgetter(0))
    return edges[first:bisect_right(edges, i, first, key=itemgetter(0))]


def _labels(read: int, masks: Mapping[Atom, int]) -> frozenset[Atom]:
    """The labels whose mask ``read`` meets: a done set or credits (``_reading``)."""
    return frozenset([a for a, mask in masks.items() if read & mask])


def _done_set(net: LendingNet, node: Node) -> frozenset[Atom]:
    """The labels, by ``net``, of the transitions fired to reach ``node``: the labels whose
    mask the nonzero-field read of its key meets (``_reading``)."""
    _, _, lift, masks = _reading(net, node._layout, node._fields)
    return _labels(node._key + lift, masks)


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
    budget ran out before the closure was reached.

    A net with four or more components (``_components``) of two or more
    transitions each is split (README, "A split graph"): its components are
    walked in one ``_walk`` call, and when every walk is complete and the
    product of their state counts is within ``budget``, the graph holds each
    walk as a graph (``_SplitGraph``), one that kept only its root too, and
    its length is that product; its lists, ``edges`` and nodes are the
    product's, walked on first read.  Otherwise,
    and for every other net, it is the walk of every row of the layout, the
    whole net (``_explored``), so an incomplete graph keeps ``budget`` states.
    """
    _check_budget(budget)
    # Four components of two rows need eight rows: a smaller net is not split at all.
    if len(_layout(net).steps) >= 8 and sum([len(rows) > 1 for rows in _components(net)]) >= 4:
        components = _components(net)
        fields, walks = _walk(net, [(rows, None) for rows in components], (), budget)
        # The walks go on only past a complete one, so only the last can be incomplete.
        if len(walks) == len(components) and walks[-1][3]:
            size = prod([len(walk[0]) for walk in walks])
            if size <= budget:
                return _SplitGraph(net, fields, tuple([ReachGraph(net, fields, walk) for walk in walks]), size, budget)
    return _explored(net, budget)


def _explored(net: LendingNet, budget: int) -> ReachGraph:
    """The graph of the walk of every row of the layout, the whole net: the product, walked at once."""
    fields, [walk] = _walk(net, [(_layout(net).steps, None)], (), budget)
    return ReachGraph(net, fields, walk)


def is_occurrence_net(net: LendingNet, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that no reachable run fires any transition twice.

    The walk of every row stops at the first state it keeps that enables a
    transition it has already fired, the source of the first edge that
    fires one twice (README, "How exploration works"); the first such
    transition, read again at the walk's last node, is the witness.
    """
    _check_budget(budget)
    layout = _layout(net)
    fields = _fields(layout, layout.start, budget)

    def refired(packed: int, key: int) -> TransitionId | None:
        fired = compress(zip(layout.transitions, fields.guards), fields.decode(key, len(layout.transitions), 0))
        return next((t for t, (_, add, mask) in fired if (packed + add) & mask == mask), None)

    _, [(packs, keys, _, complete)] = _walk(net, [(layout.steps, refired)], (), budget)
    t = refired(packs[-1], keys[-1])
    if t is not None:
        return Verdict.fails(witness=t, detail=f"transition {t!r} can fire twice in one run")
    if not complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    return Verdict.holds()


def _fires_at_most_once(net: LendingNet) -> bool:
    """Whether every transition consumes a place that does not lend, has no
    producer and starts with at most 1 token, a fact the layout keeps (``once``).

    Such a place never gains a token and each firing of its consumers takes
    one, so each transition fires at most once in any run: the net is an
    occurrence net, with no search (README, "How exploration works").
    """
    return _layout(net).once


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


def _goal_fn(net: LendingNet, goal: GoalLike) -> Callable[[Node], bool]:
    """A goal as a test of the nodes of ``net``: a predicate, one conjunction, or a disjunction
    of them.  A marking predicate of ``goal`` that constrains a place ``net`` lacks raises, as a
    goal in a net document does, and so, after that, does a disjunct that is no marking predicate."""
    if callable(goal):
        return goal
    disjuncts = (goal,) if isinstance(goal, MarkingPredicate) else tuple(goal)
    named = {p for d in disjuncts if isinstance(d, MarkingPredicate) for p in (*d.zero, *d.positive, *d.nonneg)}
    if not named <= net.places:
        raise NetStructureError(f"goal constrains unknown places: {sorted(named - net.places)}")
    for d in disjuncts:
        if not isinstance(d, MarkingPredicate):
            raise NetStructureError(f"not a marking predicate: {d!r}")
    return lambda node: any(d.holds_at(node) for d in disjuncts)


def backward_closure(graph: ReachGraph, targets: Iterable[int]) -> set[int]:
    """Indices of all nodes from which some target node is reachable."""
    return set(compress(range(len(graph)), _reaching(graph.edges, _flags(len(graph), map(graph.index_of, targets)))))


def _flags(n: int, targets: Iterable[int]) -> list[bool]:
    """A flag per state of ``n``, set on ``targets``."""
    flags = [False] * n
    for i in targets:
        flags[i] = True
    return flags


def _reaching(edges: Sequence[tuple[int, TransitionId, int]], reached: list[bool]) -> list[bool]:
    """Flag in ``reached`` every state with a path into a flagged one, over ``edges``.

    Edges lead to later states and are listed by source, so read from the
    end, every edge out of a state comes after the edges out of every later
    state: the edge's target is settled when the edge is read.
    """
    for src, _, dst in reversed(edges):
        if reached[dst]:
            reached[src] = True
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
        good = _reaching(graph.edges, _flags(len(graph), targets()))
        if not all(good):
            stuck.append((graph, good.index(False)))
    if not stuck:
        return Verdict.holds()
    graph, i = stuck[0] if len(stuck) == 1 else min(stuck, key=lambda s: _least_path(*s))
    node = graph._node(i)
    return Verdict._on_read(Outcome.FAILS, node, lambda: detail(node))


def _least_path(graph: ReachGraph, i: int) -> tuple[int, list[TransitionId]]:
    """Node ``i``'s rank by least run, first by length, then by ids: its breadth-first path,
    read back along each node's first in-edge, the edge that found it."""
    first = {dst: (t, src) for src, t, dst in reversed(graph.edges)}
    path = []
    while i:
        t, i = first[i]
        path.append(t)
    return len(path), path[::-1]


def _urgent(labels: Mapping[TransitionId, Atom], owe: tuple[int, int], parts: Iterable[tuple]) -> frozenset[Atom]:
    """Labels, by ``labels``, of first steps from a chosen state of some part that keep an
    honored state reachable.

    Each part is ``(packs, edges, complete, chosen)``, as a walk hands them
    over: its states' packed counts, its edges, whether it is complete, and
    the indices of the states to step from, or None for its root, whose
    steps are the leading edges.  An incomplete part raises before its
    honored states (``owe``, ``_Fields.owed``) are read; the closure is one
    flag per state.  A product state can reach an honored state exactly when
    each of its parts can, and every root is honored, since no initial count
    is below 0; so the answer for a product of parts chosen at their roots is
    the union of the parts' answers.
    """
    add, mask = owe
    urgent = set()
    for packs, edges, complete, chosen in parts:
        if not complete:
            raise IncompleteExplorationError("urgency needs a complete reachability graph")
        can_honor = _reaching(edges, [(packed + add) & mask == mask for packed in packs])
        if chosen is None:
            steps = takewhile(lambda edge: not edge[0], edges)
        else:
            steps = [edge for i in chosen for edge in _out(edges, i)]
        urgent.update([labels[t] for _, t, j in steps if can_honor[j] and t in labels])
    return frozenset(urgent)


def _layout(net: LendingNet) -> _Layout:
    """The layout of the nodes walked on ``net``, with its rows, built once per net and kept with it.

    A net whose sinks are deferred reads its consumed net's (``nets._consumed``), with the rows and
    the packings shared, and its own outputs for a node's sinks.
    """
    layout = vars(net).get("_layout")
    if layout is not None:  # read before a builder is made: every walk's set-up reads it
        return layout
    consumed = _consumed(net)
    if consumed is not net:
        def share() -> _Layout:
            s = _layout(consumed)
            return _Layout(s.initial, net._post, s.places, s.at, s.start, s.transitions, s.labels, s.owing, s.once,
                           s.steps, s.tables, s.marks)

        return _kept(net, "_layout", share)

    def build() -> _Layout:
        places = tuple(sorted(frozenset().union(*net._pre.values())))
        transitions = tuple(sorted(net.transitions))
        at = {p: k for k, p in enumerate(places)}
        owing = {p: k for p, k in at.items() if p in net.lending}
        steps = tuple(_steps(net, places, transitions))
        # ``shots`` reads only consumed places, so their producers are the steps' consumed outputs.
        produced = frozenset().union(*map(itemgetter(4), steps))
        shots = {k for p, k in at.items() if k not in produced and p not in net.lending and net.initial.get(p, 0) <= 1}
        return _Layout(net.initial, net._post, places, at, tuple([net.initial.get(p, 0) for p in places]),
                       transitions, tuple(map(net.transition_labels.get, transitions)), owing,
                       not any(map(shots.isdisjoint, map(itemgetter(3), steps))), steps, {})

    return _kept(net, "_layout", build)


def _fields(layout: _Layout, start: Sequence[int], budget: int) -> _Fields:
    """The packing of the walks from the consumed counts ``start`` under ``budget``, built once per
    layout and width and kept with it.  No path a walk keeps or tests fires more than ``bound``
    transitions: ``budget``, or with ``once`` each transition at most as often as a place it takes
    from and nothing refills holds tokens.  So no count moves further (README, "How exploration works")."""
    reach = max(map(abs, start)) if start else 0
    bound = min(budget, sys.maxsize, len(layout.transitions) * max(reach, 1) if layout.once else sys.maxsize)
    width = (reach + bound).bit_length() + 2
    if width in layout.tables:
        return layout.tables[width]
    bias, top = 1 << width - 2, width - 1
    units = tuple(map((1).__lshift__, range(0, len(layout.places) * width, width)))
    unit, guards, guarded = units.__getitem__, [], [0] * len(units)
    for k, _, guard, _, _ in layout.steps:
        ones = sum(map(unit, guard))
        guards.append((1 << k, ones * (bias - 1), ones << top))
        for p in guard:
            guarded[p] |= 1 << k
    rows = []
    for k, t, _, pre, post in layout.steps:
        # Row k touches the guards of the places whose count it changes.
        touch = delta = 0
        for p in pre:
            if p not in post:
                touch, delta = touch | guarded[p], delta - units[p]
        for p in post:
            if p not in pre:
                touch, delta = touch | guarded[p], delta + units[p]
        rows.append((t, 1 << width * k, delta, touch, tuple([g for g in guards if touch & g[0]])))
    ones = sum(map(unit, layout.owing.values()))
    fields = layout.tables[width] = _Fields(width, bias, units, tuple(rows), tuple(guards), (ones * bias, ones << top))
    fields.root = fields.pack(layout.start)
    return fields


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
        layout.start,
        {(layout.labels[k], frozenset(pre), frozenset(guard), frozenset(post)) for k, _, guard, pre, post in layout.steps},
    )


def _components(net: LendingNet) -> tuple[tuple, ...]:
    """The independent components of ``net`` (``_split``), split once per net and kept with it, or with
    its consumed net when its sinks are deferred (``nets._consumed``): their rows are the same."""
    net = _consumed(net)
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


def _parts(net: LendingNet, goals: Iterable[frozenset[Atom]]) -> list[tuple[tuple, frozenset]]:
    """Each component of ``net``, as its layout rows, with its share of ``goals``.

    A share projects onto the component's labels the goal sets that
    transitions can grant; a component's goal states are its credit-free
    states whose done sets the share reaches.  When that family is not the
    product of its shares, the components merge into one.
    """
    layout = _layout(net)
    granted = frozenset(net.transition_labels.values())
    goals = frozenset(g for g in goals if g <= granted)
    components = _components(net)
    shares = []
    for rows in components:
        labels = {layout.labels[row[0]] for row in rows}
        shares.append(frozenset(g & labels for g in goals))
    if prod(map(len, shares)) != len(goals):
        components, shares = [layout.steps], [goals]
    return list(zip(components, shares))


def _walk(net: LendingNet, parts: Iterable[tuple[tuple, Callable[[int, int], object] | None]],
          start: Mapping[PlaceId, int] | tuple[tuple[int, int], ...], budget: int) -> tuple[_Fields, list[tuple]]:
    """Breadth-first search of each ``(rows, flag)`` of ``parts`` in turn, a component's layout
    rows or every row with its flag, keeping at most ``budget`` states, from ``start``: a marking, or
    the ``(k, n)`` pairs that set count k of the layout's initial counts to n, each k once, packed as
    ``_Fields.root`` plus each set count's change (``_done_marking``; ``()`` is the initial marking).

    Returns the walks' ``_Fields`` and, per part walked, ``(packs, keys, edges,
    complete)``: the kept states' two ints, in the order they were kept, the
    edges, in the order of their source, and whether the walk is complete.
    ``ReachGraph`` holds one of them as a graph; urgency reads them as they are.

    One call walks every part of a question, and the set-up is done once: the
    parts share one root state, so the budget counts it once plus each
    part's further states.  The walks end after one that the budget cut short
    or, with a flag, after one whose last state is not flagged.  Only a part's
    transitions fire, so only its places change; the other consumed places
    keep their start counts, and each kept state is the product node with
    every other part at its root.  A part's walk ends, incomplete, at the
    first kept state where ``flag(counts, key)`` holds, after the edge that
    found it: that state is the part's last.

    A queued state is its two ints (``_fields``) and the bitmask of its
    enabled rows, expanded in ascending (sorted transition) order.  Firing
    row k adds one int to each and re-tests, one mask each, only the rows
    whose guard it touches, all in its component (README, "How exploration works").
    A kept state is its two ints alone: no ``Node`` is built.
    """
    layout = _layout(net)
    sets = start if isinstance(start, tuple) else tuple(enumerate(layout.counts(start)))
    counts = list(layout.start)
    for k, n in sets:
        counts[k] = n
    fields = _fields(layout, counts, budget)
    rows, guards, units, start = fields.rows, fields.guards, fields.units, fields.root
    for k, n in sets:
        start += (n - layout.start[k]) * units[k]
    walks = []
    for part, flag in parts:
        enabled = sum([bit for bit, add, mask in [guards[row[0]] for row in part] if (start + add) & mask == mask])
        packs = [start]
        complete = flag is None or not flag(start, 0)
        edges, index = [], {0: 0}
        queue = deque([(0, start, 0, enabled)] if complete else ())
        while queue:
            i, counts, key, enabled = queue.popleft()
            todo = enabled
            while todo:
                bit = todo & -todo
                todo ^= bit
                t, step, delta, touch, retest = rows[bit.bit_length() - 1]
                succ_key = key + step
                j = index.get(succ_key)
                if j is None:
                    if len(packs) >= budget:
                        complete = False
                        continue
                    succ = counts + delta
                    succ_enabled = enabled & ~touch
                    for row, add, mask in retest:
                        if (succ + add) & mask == mask:
                            succ_enabled |= row
                    j = index[succ_key] = len(packs)
                    packs.append(succ)
                    if flag is not None and flag(succ, succ_key):
                        # The walk ends once the edge to the flagged state is kept.
                        complete, todo = False, 0
                        queue.clear()
                    else:
                        queue.append((j, succ, succ_key, succ_enabled))
                edges.append((i, t, j))
        # The index lists the keys in the order their states were kept.
        keys = list(index)
        walks.append((packs, keys, edges, complete))
        budget -= len(packs) - 1
        if not (complete if flag is None else flag(packs[-1], keys[-1])):
            break
    return fields, walks


def _reading(net: LendingNet, layout: _Layout,
             fields: _Fields) -> tuple[dict[Atom, int], tuple[int, int], int, dict[Atom, int]]:
    """``(credits, free, lift, masks)``: how ``net``'s labels read the states of a walk packed by
    ``fields`` over ``layout``, the one place they meet.  For the layout's own net (its layout is
    the one kept on ``net``, ``_layout``) it is built once per ``_Fields`` and kept there, and the
    labels are read on its consumed net (``nets._consumed``), so a deferred sink is not built.

    ``credits`` maps each label that ``net`` puts on a place that can owe (``owing``) to the top
    bits of those places' count fields: a state's credits are the labels whose mask its owed read
    (``_Fields.owed``) meets.  ``free`` is the test ``(add, mask)``, as ``_Fields.owe`` reads it,
    that a state is below 0 on none of them; when every place that can owe is labeled, as in a
    valid contract net, it is the honored test ``owe``.  The done set of a state with key ``key``
    is the labels ``a`` for which ``(key + lift) & masks[a]`` is not 0: ``lift`` puts 2^(F-1) - 1
    into each key field, so a field's top bit is set exactly when the field is 1 or more (README,
    "How exploration works"), and ``masks[a]`` holds the top bits of the fields of the transitions
    labeled ``a``.
    """
    own = layout is vars(net).get("_layout")
    if own and fields.reading is not None:
        return fields.reading
    top, credits, masks = fields.width - 1, {}, {}
    place_labels = (_consumed(net) if own else net).place_labels
    labeled = [(place_labels[p], fields.units[k]) for p, k in layout.owing.items() if p in place_labels]
    for label, unit in labeled:
        credits[label] = credits.get(label, 0) | unit << top
    free = fields.owe
    if len(labeled) != len(layout.owing):
        ones = sum([unit for _, unit in labeled])
        free = ones * fields.bias, ones << top
    for label, row in zip(map(net.transition_labels.get, layout.transitions), fields.rows):
        if label is not None:
            masks[label] = masks.get(label, 0) | row[1] << top
    reading = credits, free, sum([row[1] for row in fields.rows]) * ((1 << top) - 1), masks
    if own:
        fields.reading = reading
    return reading


def _credits(net: LendingNet, node: Node) -> frozenset[Atom]:
    """The labels, by ``net``, of the places a credit is read on (``_reading``) where ``node`` is
    below 0: the owing fields whose guard bit the honored test leaves clear (``_Fields.owed``)."""
    return _labels(node._fields.owed(node._packed), _reading(net, node._layout, node._fields)[0])


def _configurations(net: LendingNet, graph: ReachGraph,
                    credit_free: bool) -> Iterable[tuple[frozenset[Atom], frozenset[Atom]]]:
    """The done set and credits, by ``net``'s labels, of each state of ``graph``, or of each
    credit-free state (``_credit_free_states``) when ``credit_free``.  The labels are read once
    per call (``_reading``), and the sets off the states' ints, as ``_done_set`` and ``_credits``
    read a node's: no node is built.

    Of a graph that holds its parts (``_held``), they are the product of its parts' sets: a
    product state's done set and credits are the disjoint unions of its parts' (README, "The
    product")."""
    held = _held(net, graph)
    if held is None:
        return _state_configurations(net, graph, credit_free, _reading(net, graph._layout, graph._fields))
    reading = _reading(net, graph._layout, graph._fields)
    product = {(frozenset(), frozenset())}
    for part in held:
        sets = set(_state_configurations(net, part, credit_free, reading))
        product = {(done | more, credits | owed) for done, credits in product for more, owed in sets}
    return product


def _state_configurations(net: LendingNet, graph: ReachGraph, credit_free: bool,
                          reading: tuple) -> Iterator[tuple[frozenset[Atom], frozenset[Atom]]]:
    """``_configurations`` of each state of ``graph``'s lists, by ``reading``, ``net``'s labels read
    over its packing (``_reading``)."""
    credits, _, lift, masks = reading
    if credit_free:
        return ((_labels(key + lift, masks), frozenset()) for _, key in _credit_free_states(net, graph))
    owed = graph._fields.owed
    return ((_labels(key + lift, masks), _labels(owed(packed), credits))
            for packed, key in zip(graph._packs, graph._keys))


def _held(net: LendingNet, graph: ReachGraph) -> tuple | None:
    """The component walks ``graph`` holds (``_SplitGraph``) when read with ``net``'s labels, or None
    when the product is read: ``graph`` holds none, is not a graph of ``net`` itself, or has its
    product built already, whose nodes a caller may hold."""
    if not isinstance(graph, _SplitGraph) or graph.net is not net or "edges" in vars(graph):
        return None
    return graph._held[0]


def _held_parts(net: LendingNet, graph: ReachGraph, goals: Iterable[frozenset[Atom]],
                split: Callable[[], Sequence[tuple[tuple, frozenset]]]) -> list[tuple[ReachGraph, Iterable]]:
    """``graph`` as the goal checks read it, a list of ``(part, goals)`` pairs: the component walks
    it holds (``_held``), each with its share of the goal split ``split()`` (``_parts``), called
    only for such a graph, when the goals split into as many shares; else ``graph`` with ``goals``."""
    held = _held(net, graph)
    if held is not None and len(parts := split()) == len(held):
        return [(part, share) for part, (_, share) in zip(held, parts)]
    return [(graph, goals)]


def _credit_free_states(net: LendingNet, graph: ReachGraph) -> list[tuple[int, int]]:
    """The index and key of each credit-free state of ``graph`` (``_reading``), by ``net``'s
    labels.  For the graph's own net they are read once per graph and kept in its instance dict
    (``nets._kept``): the checks that share a graph read them once between them."""
    def read() -> list[tuple[int, int]]:
        add, mask = _reading(net, graph._layout, graph._fields)[1]
        return [(i, key) for i, (packed, key) in enumerate(zip(graph._packs, graph._keys))
                if (packed + add) & mask == mask]

    return _kept(graph, "_credit_free", read) if net is graph.net else read()


def _done_test(net: LendingNet, layout: _Layout, fields: _Fields, goals: Iterable[frozenset[Atom]],
               covering: bool) -> Callable[[int], bool]:
    """The test that a state's key has a done set (``_reading``) in ``goals`` or, ``covering``,
    one that covers a set of ``goals``.

    Per goal set, the read must meet the mask of each of its labels: the
    masks of the labels that one transition grants are tested together, as
    one mask, and those of several apart.  Unless ``covering``, it must meet
    no mask of another label.  A goal set with a label that no transition
    grants is never met.
    """
    _, _, lift, masks = _reading(net, layout, fields)
    every, tests = sum(masks.values()), []
    for goal in goals:
        if goal <= masks.keys():
            need = [masks[a] for a in goal]
            several = [m for m in need if m & m - 1]
            total = sum(need)
            tests.append((total - sum(several), several, 0 if covering else every - total))

    def holds(key: int) -> bool:
        done = key + lift
        for one, several, outside in tests:
            if done & one == one and not done & outside:
                for m in several:
                    if not done & m:
                        break
                else:
                    return True
        return False

    return holds


def _goal_states(net: LendingNet, graph: ReachGraph, goals: Iterable[frozenset[Atom]], covering: bool) -> Iterator[int]:
    """The credit-free states of ``graph`` whose done set is in ``goals`` or, ``covering``, covers
    a set of it, by ``net``'s labels (``_credit_free_states``, ``_done_test``), yielded in node order."""
    done = _done_test(net, graph._layout, graph._fields, goals, covering)
    return (i for i, key in _credit_free_states(net, graph) if done(key))


def _joined(fields: _Fields, layout: _Layout, ends: Iterable[tuple[int, int]]) -> Node:
    """The product node of one state ``(packed, key)`` per part, every other part at its root: the
    root counts plus each part's change and the sum of their keys (README, "The agreement witness")."""
    packed, key = fields.root, 0
    for end_packed, end_key in ends:
        packed, key = packed + end_packed - fields.root, key + end_key
    return Node(packed, key, fields, layout)


def _covering_join(net: LendingNet, graph: ReachGraph, reads: Iterable[tuple[ReachGraph, Iterable]]) -> Node | None:
    """Agreement on ``graph`` read as ``reads`` (``_held_parts``): the join (``_joined``) of each
    part's first credit-free state whose done set covers a set of its goals (``_goal_states``), or
    None when some part has none."""
    ends = []
    for part, goals in reads:
        i = next(_goal_states(net, part, goals, True), None)
        if i is None:
            return None
        ends.append((part._packs[i], part._keys[i]))
    return _joined(graph._fields, graph._layout, ends)


def _covering_walks(net: LendingNet, parts: Sequence[tuple[tuple, frozenset]], budget: int) -> tuple[Node | None, bool]:
    """Agreement without a graph: each part of the goal split ``parts`` (``_parts``) walked up to its
    first credit-free state whose done set covers a set of its share, in one ``_walk`` call.

    When every part has one, returns their product node (``_joined``) and True;
    otherwise None and whether the last walk was complete.
    """
    layout = _layout(net)
    fields = _fields(layout, layout.start, budget)
    add, mask = _reading(net, layout, fields)[1]

    def flag(share: frozenset) -> Callable[[int, int], bool]:
        covers = _done_test(net, layout, fields, share, True)
        return lambda packed, key: (packed + add) & mask == mask and covers(key)

    flagged = [(rows, flag(share)) for rows, share in parts]
    _, walks = _walk(net, flagged, (), budget)
    # The walks go on only past one that ends at a flagged state, so only the last walk's end is left to test.
    if len(walks) == len(flagged) and (not flagged or flagged[-1][1](walks[-1][0][-1], walks[-1][1][-1])):
        return _joined(fields, layout, [(packs[-1], keys[-1]) for packs, keys, *_ in walks]), True
    return None, walks[-1][3]


def _done_marking(net: LendingNet, layout: _Layout, done: Iterable[Atom]) -> tuple[tuple[int, int], ...]:
    """The done marking of ``done`` (README, "How net-side urgency works") as a ``_walk`` start, the
    ``(k, n)`` counts it sets: 1 on each place labeled with a done atom, 0 on each place ``net`` marks
    that a transition labeled with one consumes.  What each label sets is kept per net (``marks``),
    read off the layout and the labels of the consumed net (``nets._consumed``)."""
    if layout.marks is None:
        marks, place_labels = {}, _consumed(net).place_labels
        for k, p in enumerate(layout.places):
            if p in place_labels:
                marks.setdefault(place_labels[p], []).append((k, 1))
        for k, _, _, pre, _ in layout.steps:
            if layout.labels[k] is not None:
                spent = [(j, 0) for j in pre if layout.start[j] >= 1]
                marks.setdefault(layout.labels[k], []).extend(spent)
        layout.marks = marks
    return tuple({k: n for a in done for k, n in layout.marks.get(a, ())}.items())


def _urgent_at_root(net: LendingNet, budget: int = DEFAULT_BUDGET, done: Iterable[Atom] = ()) -> frozenset[Atom]:
    """``urgent_at(explore(net, budget), 0)`` for ``net`` started at the done marking of ``done``
    (``_done_marking``), the initial marking when ``done`` is empty, by one walk call over the
    net's components.  Each component's walk is read as ``_walk`` hands it over: no graph and no
    node is built."""
    _check_budget(budget)
    start = _done_marking(net, _layout(net), done)
    fields, walks = _walk(net, [(c, None) for c in _components(net)], start, budget)
    parts = [(packs, edges, complete, None) for packs, _, edges, complete in walks]
    return _urgent(net.transition_labels, fields.owe, parts)


def weakly_terminates(
    net: LendingNet,
    goal: GoalLike,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Every reachable node must be able to reach a goal node.

    FAILS returns the first explored node that cannot; an exhausted budget
    yields INCONCLUSIVE since unexplored continuations could still succeed.
    A goal that constrains a place ``net`` lacks raises ``NetStructureError``.
    """
    _check_budget(budget)
    goal = _goal_fn(net, goal)
    if graph is None:
        graph = _explored(net, budget)
    return _first_stuck(
        [(graph, lambda: compress(range(len(graph)), map(goal, graph.nodes)))],
        f"exploration budget {len(graph)} exhausted",
        lambda stuck: f"no goal reachable from {stuck.describe()}",
    )


def honored_nodes(graph: ReachGraph) -> list[int]:
    add, mask = graph._fields.owe
    return [i for i, packed in enumerate(graph._packs) if (packed + add) & mask == mask]


def urgent_at(graph: ReachGraph, node: Node | int) -> frozenset[Atom]:
    """Labels of first steps from ``node`` that can still end in an honored marking."""
    return _urgent(graph.net.transition_labels, graph._fields.owe,
                   [(graph._packs, graph.edges, graph.complete, [graph.index_of(node)])])


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
    if isinstance(done, str):
        raise NetStructureError(f"done set {done!r} is one string, not a collection of atoms")
    wanted = frozenset(done)
    if not wanted <= net.alphabet:
        raise NetStructureError(f"done atoms outside the alphabet: {sorted(wanted - net.alphabet)}")
    if graph is None:
        graph = _explored(net, budget)
    done = _done_test(net, graph._layout, graph._fields, [wanted], covering=False)
    chosen = [i for i, key in enumerate(graph._keys) if done(key)]
    return _urgent(net.transition_labels, graph._fields.owe, [(graph._packs, graph.edges, graph.complete, chosen)])


def trace_set(net: LendingNet, budget: int = DEFAULT_BUDGET) -> tuple[frozenset[tuple[Atom, ...]], bool]:
    """All observable words of runs from the initial marking.

    Explores the net under ``budget`` and returns the word set and a
    completeness flag; the flag drops when either the exploration or the word
    enumeration hit the budget.
    """
    _check_budget(budget)
    graph = _explored(net, budget)
    complete = graph.complete
    # A search of its own: it walks (node, word) pairs of the built graph, not the net.
    steps: list[list[tuple[Atom | None, int]]] = [[] for _ in graph._keys]
    for src, t, dst in graph.edges:
        steps[src].append((net.transition_labels.get(t), dst))
    words: set[tuple[Atom, ...]] = {()}
    seen = {(0, ())}
    queue = deque([(0, ())])
    while queue:
        i, word = queue.popleft()
        for label, j in steps[i]:
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
