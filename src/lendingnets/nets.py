"""Core model: labeled Petri nets whose places may lend tokens.

A net carries places, transitions, unit-weight arcs, partial labelings of
places and transitions over a shared alphabet of atoms, an initial marking,
and a set of lending places.  A transition is enabled when every input place
either holds a token or is a lending place; firing a transition at a place
that lends drives that place's count negative, recording a debt.  A marking
is honored when no place is in debt.

Nets, contracts and contract nets are equal when their fields are: each
compares and hashes a sorted key built on first comparison, and a copy or
pickle carries the fields alone.  What the modules above derive from one of
these immutable values (its compiled net, a net's consumed-places table and
components, a graph's nodes, node index and credit-free states) is built
once and kept in the value's instance dict (``_kept``).

Work a value may never need is put off by one mechanism (``_OnRead``): a
group of its attributes is built on the first read of any of them.  A
verdict's text, a split graph's product and a compiled net's sinks
(``_deferred``), the places that no transition consumes and no walk reads,
are such groups.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property

from .errors import FiringError, NetStructureError, ToolkitError

Atom = str
PlaceId = str
TransitionId = str
Marking = dict[PlaceId, int]

DEFAULT_BUDGET = 100_000

# ``\s`` matches exactly the characters for which ``str.isspace`` is true.
_ID_FORBIDDEN = re.compile(r'[\s=#"\\]')


def _check_budget(budget: int) -> None:
    """Reject budgets no search can use; a budget counts the states a search may
    keep, so it is an int of at least 1, or ``math.inf`` for no bound."""
    if budget != math.inf and (isinstance(budget, bool) or not isinstance(budget, int)):
        raise ToolkitError(f"budget must be at least 1 and an int, got {budget!r}")
    if budget < 1:
        raise ToolkitError(f"budget must be at least 1, got {budget}")


def _check_id(value: str, kind: str) -> str:
    if not isinstance(value, str) or not value:
        raise NetStructureError(f"{kind} id must be a non-empty string, got {value!r}")
    if _ID_FORBIDDEN.search(value):
        raise NetStructureError(f"{kind} id {value!r} contains whitespace or a reserved character")
    return value


def _not_one_string(values: Iterable, kind: str) -> Iterable:
    """``values``, a collection of ids of ``kind``; one string, which would read as a set of its
    characters, raises."""
    if isinstance(values, str):
        raise NetStructureError(f"{kind} ids {values!r} are one string, not a collection of ids")
    return values


def _check_ids(values: Iterable, kind: str) -> frozenset[str]:
    """``values`` as a set of ids of ``kind``.  String operations screen the joined ids: ``in`` finds
    a reserved character, and ``str.split`` whitespace, as it splits where ``str.isspace`` holds.  Only
    when the screen fails, or an id is empty or no string, does ``_check_id`` name the first bad id."""
    values = tuple(_not_one_string(values, kind))
    try:
        joined = "".join(values)
        if ("" not in values and "=" not in joined and "#" not in joined and '"' not in joined
                and "\\" not in joined and joined.split() == [joined]):
            return frozenset(values)
    except TypeError:
        pass
    return frozenset([_check_id(value, kind) for value in values])


def _first_outside(ids: Iterable[str], kept: Collection[str]) -> str:
    """The first of ``ids`` that ``kept`` lacks, to name in an error."""
    return next(x for x in ids if x not in kept)


class Outcome(Enum):
    """Three-valued answer of a bounded analysis."""

    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class _OnRead:
    """One attribute of a group built on first read, declared on a class by ``declare``.

    Until the group is built, the owner's instance dict holds its builder under ``key``, and the
    builder gives the owner as it would be built at once.  The first read of any name of the group
    runs it, once, copies every name of the group from what it gives into the instance dict, where
    reads find them ahead of this non-data descriptor, and drops the builder.  A builder that raises
    stays, to raise again on the next read.  An owner built at once holds the names itself.
    """

    def __init__(self, key: str, names: tuple[str, ...], name: str):
        self.key, self.names, self.name = key, names, name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        kept = vars(instance)
        built = kept[self.key]()
        del kept[self.key]
        kept.update([(name, getattr(built, name)) for name in self.names])
        return kept[self.name]

    @classmethod
    def declare(cls, owner: type, key: str, *names: str) -> None:
        for name in names:
            setattr(owner, name, cls(key, names, name))


class _Canonical:
    """Equality and hash by ``_canon``, a cached property each subclass defines.  A copy or pickle
    (``__reduce__``, which ``Verdict`` shares) carries the dataclass fields alone, read through any
    group built on first read, and none of what the instance dict keeps."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._canon == other._canon

    def __hash__(self):
        return hash(self._canon)

    def __reduce__(self):
        return type(self), tuple([getattr(self, f.name) for f in fields(self)])


@dataclass(frozen=True)
class Verdict:
    """Result of a bounded check.

    A budget that runs out yields INCONCLUSIVE; incompleteness is never silently reported as
    falsity.  ``witness`` carries a counterexample for FAILS verdicts (a node, place, or
    transition depending on the check).  ``detail`` is its text; a check that describes a node
    builds it, and so the node's marking, on first read (``_OnRead``; ``==``, ``hash`` and ``repr``
    read it).
    """

    outcome: Outcome
    witness: object = None
    detail: str = ""

    @classmethod
    def _on_read(cls, outcome: Outcome, witness: object, build: Callable[[], str]) -> "Verdict":
        """A verdict whose ``detail`` is ``build()``, run on first read; ``build`` should hold no graph."""
        verdict = object.__new__(cls)
        vars(verdict).update(outcome=outcome, witness=witness, _build=lambda: cls(outcome, witness, build()))
        return verdict

    __reduce__ = _Canonical.__reduce__

    @staticmethod
    def holds(detail: str = "") -> "Verdict":
        return Verdict(Outcome.HOLDS, None, detail)

    @staticmethod
    def fails(witness: object = None, detail: str = "") -> "Verdict":
        return Verdict(Outcome.FAILS, witness, detail)

    @staticmethod
    def inconclusive(detail: str = "") -> "Verdict":
        return Verdict(Outcome.INCONCLUSIVE, None, detail)


_OnRead.declare(Verdict, "_build", "detail")


def _kept(owner, name: str, build: Callable[[], object]):
    """The value kept under ``name`` in ``owner``'s instance dict, built by ``build()`` on first use.

    Every owner is immutable, so a kept value never goes stale.  It takes no
    part in ``==``, ``hash`` or ``repr``, equal owners each build their own,
    and it should hold no reference back to its owner, so the owner still
    dies with its last reference.
    """
    kept = vars(owner)
    value = kept.get(name)
    if value is None:
        value = kept[name] = build()
    return value


@dataclass(frozen=True, eq=False)
class LendingNet(_Canonical):
    """Immutable lending Petri net.

    ``alphabet`` is the ambient set of atoms labels are drawn from; it must
    contain every label actually used and is the universe two nets must share
    to be composable.  Every field defaults to empty, except that an omitted
    ``alphabet`` is the set of labels in use; collections may be any
    iterables or mappings, and ``None`` labels are dropped.

    The arcs are indexed once, by transition: ``_pre`` and ``_post`` map each transition, and
    nothing else, to its input and its output places.  A compiled contract has many more places
    than transitions, so a place keeps no arc table of its own (``preset``, ``postset``).  A net
    made by ``_deferred`` builds ``places``, ``flow``, ``place_labels``, ``lending``, ``_pre`` and
    ``_post``, which list its sinks, on the first read of one of them (``_OnRead``).
    """

    places: frozenset[PlaceId] = frozenset()
    transitions: frozenset[TransitionId] = frozenset()
    flow: frozenset[tuple[str, str]] = frozenset()
    place_labels: Mapping[PlaceId, Atom] = field(default_factory=dict)
    transition_labels: Mapping[TransitionId, Atom] = field(default_factory=dict)
    initial: Mapping[PlaceId, int] = field(default_factory=dict)
    lending: frozenset[PlaceId] = frozenset()
    alphabet: frozenset[Atom] | None = None

    @classmethod
    def build(cls, **kwargs) -> "LendingNet":
        """The constructor under its older name, taking the same keywords."""
        return cls(**kwargs)

    def __post_init__(self):
        places, transitions = _check_ids(self.places, "place"), _check_ids(self.transitions, "transition")
        if places & transitions:
            shared = sorted(places & transitions)
            raise NetStructureError(f"ids used both as place and transition: {shared}")

        place_labels = {p: a for p, a in dict(self.place_labels).items() if a is not None}
        transition_labels = {t: a for t, a in dict(self.transition_labels).items() if a is not None}
        if not place_labels.keys() <= places:
            raise NetStructureError(f"label on unknown place {_first_outside(place_labels, places)!r}")
        if not transition_labels.keys() <= transitions:
            raise NetStructureError(f"label on unknown transition {_first_outside(transition_labels, transitions)!r}")
        used = _check_ids((*place_labels.values(), *transition_labels.values()), "atom")
        alphabet = used if self.alphabet is None else _check_ids(self.alphabet, "atom")
        if not used <= alphabet:
            raise NetStructureError(f"labels {sorted(used - alphabet)} missing from the alphabet")

        initial = dict(self.initial)
        if not initial.keys() <= places:
            raise NetStructureError(f"initial marking on unknown place {_first_outside(initial, places)!r}")
        for p, n in initial.items():
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise NetStructureError(f"initial token count of {p!r} must be a non-negative int")
        initial = {p: n for p, n in initial.items() if n}

        lending = frozenset(_not_one_string(self.lending, "lending"))
        if not lending <= places:
            raise NetStructureError(f"lending ids {sorted(lending - places)} are not places")

        flow = frozenset(self.flow)
        pre: dict[str, list[str]] = {t: [] for t in transitions}
        post: dict[str, list[str]] = {t: [] for t in transitions}
        for arc in flow:
            if not (isinstance(arc, tuple) and len(arc) == 2):
                raise NetStructureError(f"arc {arc!r} is not a pair")
            src, dst = arc
            if src in places and dst in transitions:
                pre[dst].append(src)
            elif src in transitions and dst in places:
                post[src].append(dst)
            else:
                raise NetStructureError(
                    f"arc {src!r} -> {dst!r} must connect one place and one transition of the net"
                )
        if not all(pre.values()):
            raise NetStructureError(f"transition {next(t for t, v in pre.items() if not v)!r} has no input place")

        object.__setattr__(self, "places", places)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "place_labels", place_labels)
        object.__setattr__(self, "transition_labels", transition_labels)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "lending", lending)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_pre", {t: frozenset(v) for t, v in pre.items()})
        object.__setattr__(self, "_post", {t: frozenset(v) for t, v in post.items()})

    @cached_property
    def _canon(self) -> tuple:
        """Sorted fields: the key of ``==`` and ``hash``, built on first use."""
        return (
            tuple(sorted(self.places)),
            tuple(sorted(self.transitions)),
            tuple(sorted(self.flow)),
            tuple(sorted(self.place_labels.items())),
            tuple(sorted(self.transition_labels.items())),
            tuple(sorted(self.initial.items())),
            tuple(sorted(self.lending)),
            tuple(sorted(self.alphabet)),
        )

    def preset(self, node: str) -> frozenset[str]:
        """Sources of arcs entering ``node`` (a place or transition id).  A transition's are kept;
        a place's are read off the transitions' arcs, a scan per call with no table (``_arcs``)."""
        return self._arcs(node, self._pre, self._post)

    def postset(self, node: str) -> frozenset[str]:
        """Targets of arcs leaving ``node``, kept for a transition and read off the transitions'
        arcs for a place, as in ``preset``."""
        return self._arcs(node, self._post, self._pre)

    def _arcs(self, node: str, own: dict, other: dict) -> frozenset[str]:
        """``own[node]`` for a transition; for a place, the transitions whose ``other`` side holds it."""
        arcs = own.get(node)
        if arcs is not None:
            return arcs
        if node not in self.places:
            raise NetStructureError(f"unknown node {node!r}")
        return frozenset([t for t, places in other.items() if node in places])

    def initial_marking(self) -> Marking:
        """Initial marking as a total map over the places."""
        return {p: self.initial.get(p, 0) for p in self.places}

    def used_labels(self) -> frozenset[Atom]:
        return frozenset(self.place_labels.values()) | frozenset(self.transition_labels.values())

    def with_alphabet(self, atoms: Iterable[Atom]) -> "LendingNet":
        """Same net over a (usually wider) alphabet."""
        return replace(self, alphabet=frozenset(_not_one_string(atoms, "atom")))


class _Sinks(Mapping):
    """A ``_deferred`` net's ``_post`` until its sinks are built, and the builder of its fields that
    list them (``_OnRead``).  Called, it gives the net ``build()`` builds through the validating
    constructor, built once and kept; read as a mapping, that net's transitions' outputs, which
    the net's layout reads.  It holds no reference to the deferred net, so the layout can keep it."""

    __slots__ = ("_build", "_net")

    def __init__(self, build: Callable[[], LendingNet]):
        self._build, self._net = build, None

    def __call__(self) -> LendingNet:
        if self._net is None:
            self._net, self._build = self._build(), None
        return self._net

    def __getitem__(self, transition: TransitionId) -> frozenset[PlaceId]:
        return self()._post[transition]

    def __iter__(self):
        return iter(self()._post)

    def __len__(self) -> int:
        return len(self()._post)


_OnRead.declare(LendingNet, "_post", "places", "flow", "place_labels", "lending", "_pre", "_post")


def _deferred(consumed: LendingNet, build: Callable[[], LendingNet]) -> LendingNet:
    """The net ``build()`` gives, whose consumed part, the places some transition consumes with the
    transitions and the arcs and labels among them, is ``consumed``'s: ``build()`` adds only sinks,
    places no transition consumes, and the arcs into them.  Its transitions, their labels and input
    places, its initial marking and its alphabet are ``consumed``'s, and the rest is built on the
    first read that lists a sink (``_Sinks``), by ``build()``: the ordinary validating constructor.
    The walks read ``consumed`` (``_consumed``), so they build no sink."""
    net, kept = object.__new__(LendingNet), vars(consumed)
    vars(net).update(transitions=kept["transitions"], transition_labels=kept["transition_labels"],
                     initial=kept["initial"], alphabet=kept["alphabet"], _pre=kept["_pre"], _post=_Sinks(build),
                     _consumed=consumed)
    return net


def _consumed(net: LendingNet) -> LendingNet:
    """A net with ``net``'s consumed part and labels on its consumed places, read without building a
    sink: the consumed net of a ``_deferred`` net, else ``net`` itself."""
    return vars(net).get("_consumed", net)


@dataclass(frozen=True)
class FiringSequence:
    """A replayable run: the start marking plus (transition, marking after) steps."""

    start: Marking
    steps: tuple[tuple[TransitionId, Marking], ...]

    @property
    def final(self) -> Marking:
        return self.steps[-1][1] if self.steps else self.start

    @property
    def fired(self) -> tuple[TransitionId, ...]:
        return tuple(t for t, _ in self.steps)


def _blocking(net: LendingNet, marking: Mapping[PlaceId, int], transition: TransitionId) -> PlaceId | None:
    """The first input place, in sorted order, that holds no token and does not lend; None when enabled."""
    if transition not in net.transitions:
        raise NetStructureError(f"unknown transition {transition!r}")
    return next(
        (s for s in sorted(net.preset(transition)) if marking.get(s, 0) < 1 and s not in net.lending), None
    )


def enabled(net: LendingNet, marking: Mapping[PlaceId, int], transition: TransitionId) -> bool:
    """True when every input place has a token or lends one."""
    return _blocking(net, marking, transition) is None


def enabled_transitions(net: LendingNet, marking: Mapping[PlaceId, int]) -> list[TransitionId]:
    return [t for t in sorted(net.transitions) if enabled(net, marking, t)]


def fire(net: LendingNet, marking: Mapping[PlaceId, int], transition: TransitionId) -> Marking:
    """Successor marking; raises FiringError naming a blocking place if disabled."""
    blocking = _blocking(net, marking, transition)
    if blocking is not None:
        raise FiringError(transition, blocking)
    result = {p: marking.get(p, 0) for p in net.places}
    for s in net.preset(transition):
        result[s] -= 1
    for s in net.postset(transition):
        result[s] += 1
    return result


def run(net: LendingNet, transitions: Iterable[TransitionId]) -> FiringSequence:
    """Fire the given transitions in order from the initial marking, recording every intermediate marking."""
    marking = first = net.initial_marking()
    steps = []
    for t in transitions:
        marking = fire(net, marking, t)
        steps.append((t, dict(marking)))
    return FiringSequence(start=first, steps=tuple(steps))


def _transition_ids(seq) -> tuple[TransitionId, ...]:
    if isinstance(seq, FiringSequence):
        return seq.fired
    return tuple(seq)


def trace_of(net: LendingNet, seq) -> tuple[Atom, ...]:
    """Observable word of a run: transition labels in order, unlabeled steps silent."""
    word = []
    for t in _transition_ids(seq):
        if t not in net.transitions:
            raise NetStructureError(f"unknown transition {t!r}")
        label = net.transition_labels.get(t)
        if label is not None:
            word.append(label)
    return tuple(word)


def state_of(seq) -> Counter:
    """Multiset of transitions fired by a run."""
    return Counter(_transition_ids(seq))


def marking_of_state(net: LendingNet, state: Mapping[TransitionId, int]) -> Marking:
    """Marking determined by a fired multiset from the initial marking via the state equation."""
    marking = net.initial_marking()
    for t, count in dict(state).items():
        if t not in net.transitions:
            raise NetStructureError(f"unknown transition {t!r}")
        if isinstance(count, bool) or not isinstance(count, int):
            raise NetStructureError(f"firing count for {t!r} must be an int, got {count!r}")
        if count < 0:
            raise NetStructureError(f"negative firing count for {t!r}")
        for s in net.preset(t):
            marking[s] -= count
        for s in net.postset(t):
            marking[s] += count
    return marking


def is_honored(net: LendingNet, marking: Mapping[PlaceId, int]) -> bool:
    """A marking is honored when no place is in debt."""
    return all(marking.get(p, 0) >= 0 for p in net.places)


def is_correctly_labeled(net: LendingNet) -> bool:
    """Every producer of a labeled place carries that place's label: one pass over each transition's postset."""
    return all(net.place_labels[s] == net.transition_labels.get(t)
               for t in net.transitions for s in net.postset(t) if s in net.place_labels)


def _marking_key(marking: Mapping[PlaceId, int]) -> tuple:
    return tuple(sorted((p, n) for p, n in marking.items() if n))


def is_safe(net: LendingNet, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that no reachable marking puts two or more tokens on a place."""
    # Searches markings, not (marking, fired) nodes: a cyclic safe net has
    # finitely many markings but unboundedly many fired multisets.
    _check_budget(budget)
    start = net.initial_marking()
    for p, n in start.items():
        if n > 1:
            return Verdict.fails(witness=p, detail=f"place {p!r} initially holds {n} tokens")
    seen = {_marking_key(start)}
    queue = deque([start])
    complete = True
    while queue:
        marking = queue.popleft()
        for t in enabled_transitions(net, marking):
            nxt = fire(net, marking, t)
            over = [p for p, n in nxt.items() if n > 1]
            if over:
                p = sorted(over)[0]
                return Verdict.fails(witness=p, detail=f"place {p!r} can hold {nxt[p]} tokens")
            key = _marking_key(nxt)
            if key in seen:
                continue
            if len(seen) >= budget:
                complete = False
                continue
            seen.add(key)
            queue.append(nxt)
    if not complete:
        return Verdict.inconclusive(f"exploration budget {budget} exhausted")
    return Verdict.holds()


def subnet(net: LendingNet, generators: Iterable[TransitionId]) -> LendingNet:
    """Restrict the net to given transitions, their neighborhoods, and all
    initially marked places."""
    chosen = frozenset(_not_one_string(generators, "transition"))
    unknown = chosen - net.transitions
    if unknown:
        raise NetStructureError(f"unknown transitions {sorted(unknown)}")
    keep_places = {p for p in net.places if net.initial.get(p, 0) > 0}
    for t in chosen:
        keep_places |= net.preset(t) | net.postset(t)
    kept = keep_places | chosen
    return LendingNet(
        places=frozenset(keep_places),
        transitions=chosen,
        flow=frozenset((x, y) for x, y in net.flow if x in kept and y in kept),
        place_labels={p: a for p, a in net.place_labels.items() if p in keep_places},
        transition_labels={t: a for t, a in net.transition_labels.items() if t in chosen},
        initial={p: n for p, n in net.initial.items() if p in keep_places},
        lending=net.lending & frozenset(keep_places),
        alphabet=net.alphabet,
    )
