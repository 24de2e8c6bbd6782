"""Composition of lending nets and the trace preorder between them.

Two compatible nets compose by fusing each labeled transition with the
equally labeled places of the partner: the composite adds a production arc
from the transition to every such surviving place.  A place is dropped only
when it is a sink (empty post-set) whose label names a transition of the
partner; everything else, marked sinks included, survives.  Cross arcs only
ever point from transitions to places, which is what makes the operation
commutative and associative on the nose.
"""

from __future__ import annotations

from collections.abc import Iterable

from .analysis import GoalLike, _goal_fn, trace_set, weakly_terminates
from .errors import CompositionError, NetStructureError
from .nets import DEFAULT_BUDGET, LendingNet, Outcome, Verdict


def compatibility_problems(left: LendingNet, right: LendingNet) -> list[str]:
    """Names of the compatibility conditions the pair violates."""
    problems = []
    if left.alphabet != right.alphabet:
        problems.append("label universes differ")
    if left.places & right.places:
        problems.append(f"shared place ids {sorted(left.places & right.places)}")
    if left.transitions & right.transitions:
        problems.append(f"shared transition ids {sorted(left.transitions & right.transitions)}")
    for name, net in (("left", left), ("right", right)):
        marked_labeled = sorted(p for p in net.initial if p in net.place_labels)
        if marked_labeled:
            problems.append(f"{name} net marks labeled places {marked_labeled}")
    return problems


def compatible(left: LendingNet, right: LendingNet) -> bool:
    return not compatibility_problems(left, right)


def oplus(left: LendingNet, right: LendingNet) -> LendingNet:
    """Compose two compatible nets."""
    problems = compatibility_problems(left, right)
    if problems:
        raise CompositionError(problems)

    def dropped(net: LendingNet, other: LendingNet) -> set[str]:
        """The labeled places of ``net`` that no transition consumes and whose label ``other`` grants."""
        consumed, granted = {s for t in net.transitions for s in net.preset(t)}, set(other.transition_labels.values())
        return {s for s, atom in net.place_labels.items() if s not in consumed and atom in granted}

    gone = dropped(left, right) | dropped(right, left)
    places = (left.places | right.places) - gone
    flow = {(x, y) for x, y in left.flow | right.flow if x not in gone and y not in gone}
    for src, dst in ((left, right), (right, left)):
        for t, atom in src.transition_labels.items():
            for s, place_atom in dst.place_labels.items():
                if place_atom == atom and s in places:
                    flow.add((t, s))
    return LendingNet(
        places=places,
        transitions=left.transitions | right.transitions,
        flow=flow,
        place_labels={p: a for p, a in {**left.place_labels, **right.place_labels}.items() if p in places},
        transition_labels={**left.transition_labels, **right.transition_labels},
        initial={p: n for p, n in {**left.initial, **right.initial}.items() if p in places},
        lending=(left.lending | right.lending) & places,
        alphabet=left.alphabet,
    )


def compose_many(nets: Iterable[LendingNet]) -> LendingNet:
    nets = list(nets)
    if not nets:
        raise CompositionError(["nothing to compose"])
    result = nets[0]
    for net in nets[1:]:
        result = oplus(result, net)
    return result


def tag_net(net: LendingNet, tag: str) -> LendingNet:
    """Prefix every place and transition id with ``tag.`` to avoid id clashes."""
    if not tag or any(ch.isspace() for ch in tag):
        raise NetStructureError(f"bad tag {tag!r}")

    def ren(x: str) -> str:
        return f"{tag}.{x}"

    return LendingNet(
        places=frozenset(ren(p) for p in net.places),
        transitions=frozenset(ren(t) for t in net.transitions),
        flow=frozenset((ren(x), ren(y)) for x, y in net.flow),
        place_labels={ren(p): a for p, a in net.place_labels.items()},
        transition_labels={ren(t): a for t, a in net.transition_labels.items()},
        initial={ren(p): n for p, n in net.initial.items()},
        lending=frozenset(ren(p) for p in net.lending),
        alphabet=net.alphabet,
    )


def widen_alphabet(nets: Iterable[LendingNet]) -> list[LendingNet]:
    """Rebuild the nets over the union of their alphabets."""
    nets = list(nets)
    union = frozenset().union(*(n.alphabet for n in nets)) if nets else frozenset()
    return [n.with_alphabet(union) for n in nets]


def _included(left: tuple[frozenset, bool], right: tuple[frozenset, bool], budget: int) -> Verdict:
    """Trace inclusion between two ``trace_set`` results: every word of ``left`` is one of ``right``."""
    (left_words, left_done), (right_words, right_done) = left, right
    missing = left_words - right_words
    if missing and right_done:
        witness = min(missing, key=lambda w: (len(w), w))
        return Verdict.fails(witness=witness, detail=f"word {witness!r} has no counterpart")
    if left_done and right_done:
        return Verdict.holds()
    if left_done and not missing:
        # Only unexplored words of the right net remain; inclusion already shown.
        return Verdict.holds()
    return Verdict.inconclusive(f"trace enumeration budget {budget} exhausted")


def approximates(
    left: LendingNet,
    right: LendingNet,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Trace inclusion: every observable word of ``left`` is one of ``right``."""
    if left.alphabet != right.alphabet:
        raise NetStructureError("trace comparison needs a shared label universe")
    return _included(trace_set(left, budget), trace_set(right, budget), budget)


def trace_equivalent(
    left: LendingNet,
    right: LendingNet,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Mutual trace inclusion, enumerating the words of each net once."""
    if left.alphabet != right.alphabet:
        raise NetStructureError("trace comparison needs a shared label universe")
    left_traces, right_traces = trace_set(left, budget), trace_set(right, budget)
    forward = _included(left_traces, right_traces, budget)
    backward = _included(right_traces, left_traces, budget)
    for v in (forward, backward):
        if v.outcome is Outcome.FAILS:
            return v
    if forward.outcome is Outcome.HOLDS and backward.outcome is Outcome.HOLDS:
        return Verdict.holds()
    return Verdict.inconclusive("trace enumeration incomplete")


def is_strategy(
    candidate: tuple[LendingNet, GoalLike],
    target: tuple[LendingNet, GoalLike],
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Does composing with ``candidate`` let ``target`` always reach both goals?

    Goals of raw nets do not compose on their own, so both arguments carry an
    explicit goal; the composite goal is their conjunction.  Each goal is
    checked against its own net, as ``weakly_terminates`` checks one.
    """
    target_net, target_goal = target
    candidate_net, candidate_goal = candidate
    tg = _goal_fn(target_net, target_goal)
    cg = _goal_fn(candidate_net, candidate_goal)
    composite = oplus(target_net, candidate_net)
    return weakly_terminates(composite, lambda node: tg(node) and cg(node), budget)
