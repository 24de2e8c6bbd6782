"""Contract nets: occurrence lending nets wired to participants and goals.

A contract net adds to a lending net an ownership map from atoms to
participants, the set of participants actually bound by the net, and a
family of goal sets of atoms.  Its shape is constrained so that every node
of the reachability graph reads back as a pair (done atoms, atoms in debt):
the configuration of the node.  The checks on a graph read it as a list of
parts, each with its goals (``analysis._held_parts``), and read only the
parts' credit-free states, those where no labeled place owes, and their done
sets, by mask (``analysis._goal_states``): they build no node but the one
they report.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

from .analysis import (
    Node,
    ReachGraph,
    _configurations,
    _covering_join,
    _covering_walks,
    _credits,
    _done_set,
    _first_stuck,
    _fires_at_most_once,
    _goal_states,
    _held_parts,
    _parts,
    _walk,
    explore,
    is_occurrence_net,
    urgent_for_done_set,
)
from .compose import oplus, widen_alphabet
from .errors import IncompleteExplorationError
from .logic import Participant, _joined_terms, _store_terms, _terms_key
from .nets import (
    DEFAULT_BUDGET,
    Atom,
    LendingNet,
    Outcome,
    Verdict,
    _Canonical,
    _check_budget,
    _kept,
    is_correctly_labeled,
)


@dataclass(frozen=True)
class Configuration:
    """Atoms granted so far and atoms currently on credit."""

    done: frozenset[Atom]
    credits: frozenset[Atom]


@dataclass(frozen=True)
class Violation:
    """One failed well-formedness condition; validation returns these as data."""

    code: str
    subject: str
    message: str


@dataclass(frozen=True, eq=False)
class ContractNet(_Canonical):
    """A lending net plus participants, atom ownership, and goal sets."""

    net: LendingNet
    participants: frozenset[Participant]
    ownership: Mapping[Atom, Participant]
    goals: frozenset[frozenset[Atom]]

    def __post_init__(self):
        _store_terms(self)

    @cached_property
    def _canon(self) -> tuple:
        """The net and the sorted contract data: the key of ``==`` and ``hash``, built on first use."""
        return self.net, *_terms_key(self)


def validate(cn: ContractNet, budget: int = DEFAULT_BUDGET) -> list[Violation]:
    """Well-formedness violations of a contract net; empty means valid.

    Checks, in order: marked places have empty presets and no label; lending
    places are labeled; all output places of a transition carry its label and
    some input place is not lending; equally labeled transitions share an
    initially marked input place; labeled transitions have owned labels whose
    owners are bound participants; the net is an occurrence net and is
    correctly labeled.  The occurrence-net search runs only where the
    structural rule (``analysis._fires_at_most_once``) does not already
    show that no transition fires twice.
    """
    net = cn.net
    out: list[Violation] = []

    produced = {p for t in net.transitions for p in net.postset(t)}
    for p in sorted(net.initial):
        if p in produced:
            out.append(Violation("a", p, f"marked place {p!r} has producers"))
        if p in net.place_labels:
            out.append(Violation("a", p, f"marked place {p!r} is labeled"))
    for p in sorted(net.lending):
        if p not in net.place_labels:
            out.append(Violation("a", p, f"lending place {p!r} is unlabeled"))

    for t in sorted(net.transitions):
        label = net.transition_labels.get(t)
        for p in sorted(net.postset(t)):
            if net.place_labels.get(p) != label:
                out.append(
                    Violation("b", t, f"output place {p!r} of {t!r} does not carry its label")
                )
        if not any(p not in net.lending for p in net.preset(t)):
            out.append(Violation("b", t, f"every input place of {t!r} lends"))

    labeled = [t for t in sorted(net.transitions) if t in net.transition_labels]
    for i, t in enumerate(labeled):
        for u in labeled[i:]:
            if net.transition_labels[t] != net.transition_labels[u]:
                continue
            shared = net.preset(t) & net.preset(u)
            if not any(net.initial.get(p, 0) >= 1 for p in shared):
                out.append(
                    Violation(
                        "c",
                        t,
                        f"{t!r} and {u!r} share the label {net.transition_labels[t]!r} "
                        "but no initially marked input place",
                    )
                )

    for t in labeled:
        atom = net.transition_labels[t]
        owner = cn.ownership.get(atom)
        if owner is None:
            out.append(Violation("ownership", atom, f"atom {atom!r} has no owner"))
        elif owner not in cn.participants:
            out.append(Violation("d", atom, f"owner {owner!r} of {atom!r} is not bound"))

    if not _fires_at_most_once(net):
        occurrence = is_occurrence_net(net, budget)
        if occurrence.outcome is Outcome.FAILS:
            out.append(Violation("occurrence", str(occurrence.witness), occurrence.detail))
        elif occurrence.outcome is Outcome.INCONCLUSIVE:
            out.append(Violation("occurrence", "", occurrence.detail))
    if not is_correctly_labeled(net):
        out.append(Violation("labeling", "", "some labeled place has a differently labeled producer"))

    return out


def configuration(cn: ContractNet, node: Node) -> Configuration:
    """Read a node of ``cn.net``'s reachability graph as (atoms granted, atoms in debt).

    Debts are read only on the places a credit is read on (``analysis._reading``):
    exact for the nodes of a net's graph, where no place outside the layout's
    ``owing`` places is ever below 0.
    """
    return Configuration(done=_done_set(cn.net, node), credits=_credits(cn.net, node))


def configuration_from_marking(cn: ContractNet, node: Node) -> frozenset[Atom]:
    """Recover the done set from token counts alone.

    For each atom with labeled transitions, their shared initially marked
    input place is spent exactly when the atom has been granted.
    """
    net, done = cn.net, set()
    for atom in set(net.transition_labels.values()):
        shared = frozenset.intersection(*(net.preset(t) for t, a in net.transition_labels.items() if a == atom))
        markers = [p for p in shared if net.initial.get(p, 0) >= 1]
        if markers and all(node.tokens(p) == 0 for p in markers):
            done.add(atom)
    return frozenset(done)


def compose_contract_nets(first: ContractNet, second: ContractNet) -> ContractNet:
    """Compose the nets, widened to the union of their alphabets, and join the
    contract terms by the rule of compose_contracts (``logic._joined_terms``)."""
    terms = _joined_terms(first, second)
    left, right = widen_alphabet([first.net, second.net])
    return ContractNet(net=oplus(left, right), **terms)


def _goal_split(cn: ContractNet) -> list[tuple[tuple, frozenset]]:
    """The goal split of ``cn`` (``analysis._parts``), split once per contract net and kept with it."""
    return _kept(cn, "_parts", lambda: _parts(cn.net, cn.goals))


def _all_can_reach(cn: ContractNet, budget: int, graph: ReachGraph | None, covering: bool,
                   describe: Callable[[Node], str] = lambda node: node.describe()) -> Verdict:
    """Whether every state can reach a credit-free state whose done set is a goal set or, ``covering``,
    covers one (``analysis._goal_states``), read per component of the goal split without a ``graph``, and
    on the parts a ``graph`` reads as (``analysis._held_parts``); a stuck node's text is ``describe(node)``."""
    def stuck_detail(stuck: Node) -> str:
        cfg = configuration(cn, stuck)
        return f"stuck at done={sorted(cfg.done)} credits={sorted(cfg.credits)}: {describe(stuck)}"

    _check_budget(budget)
    if graph is None:
        parts = _goal_split(cn)
        fields, walked = _walk(cn.net, [(rows, None) for rows, _ in parts], (), budget)
        reads = [(ReachGraph(cn.net, fields, walk), share) for walk, (_, share) in zip(walked, parts)]
    else:
        reads, budget = _held_parts(cn.net, graph, cn.goals, lambda: _goal_split(cn)), len(graph)
    targets = [(part, lambda part=part, goals=goals: _goal_states(cn.net, part, goals, covering))
               for part, goals in reads]
    return _first_stuck(targets, f"exploration budget {budget} exhausted", stuck_detail)


def weakly_terminates_in(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Every node must be able to reach an honored node whose done set is a goal set.

    The net is decided one independent component at a time, and so is a graph that holds its
    component walks (``analysis._held_parts``); any other graph is the one part.
    """
    return _all_can_reach(cn, budget, graph, covering=False)


def weakly_terminates_covering(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """As weakly_terminates_in, but the done set may exceed the goal set."""
    return _all_can_reach(cn, budget, graph, covering=True)


def agreement_reachable(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Can the net reach an honored node whose done set covers some goal set?

    This is the net-side agreement check: reachability of a covering honored configuration,
    with the node found as witness, whose ``describe()`` is the detail, built on first read.
    Without a ``graph`` each component's walk stops at its first credit-free state whose done
    set covers a goal set of its share (``_parts``), and the witness joins them; a graph's parts
    (``analysis._held_parts``), its component walks or the graph itself, have their first such
    states joined alike (``_covering_join``).
    """
    return _agreement(cn, budget, graph)


def _agreement(cn: ContractNet, budget: int, graph: ReachGraph | None,
               describe: Callable[[Node], str] = lambda node: node.describe()) -> Verdict:
    """``agreement_reachable``, with the witness's text ``describe(witness)``."""
    _check_budget(budget)
    if graph is None:
        witness, complete = _covering_walks(cn.net, _goal_split(cn), budget)
    else:
        reads = _held_parts(cn.net, graph, cn.goals, lambda: _goal_split(cn))
        witness, complete = _covering_join(cn.net, graph, reads), graph.complete
    if witness is not None:
        return Verdict._on_read(Outcome.HOLDS, None, lambda: describe(witness))
    if complete:
        return Verdict.fails(detail="no honored node covers a goal set")
    return Verdict.inconclusive(f"exploration budget {budget if graph is None else len(graph)} exhausted")


def urgent(
    cn: ContractNet,
    done: Iterable[Atom],
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[Atom]:
    """Atoms fireable next, toward an honored marking, at any node with this done set.

    The union over matching nodes of urgent_at; a done set no node realizes
    yields the empty set, and atoms outside the alphabet raise, as in urgent_for_done_set.
    """
    return urgent_for_done_set(cn.net, done, budget, graph)


def _complete(cn: ContractNet, budget: int, graph: ReachGraph | None) -> ReachGraph:
    _check_budget(budget)
    if graph is None:
        graph = explore(cn.net, budget)
    if not graph.complete:
        raise IncompleteExplorationError("configurations need a complete reachability graph")
    return graph


def reachable_configurations(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[Configuration]:
    """Configurations of all reachable nodes; raises when the graph is incomplete.

    Each is read off the graph's states, with the net's labels read once
    (``analysis._configurations``): no node is built."""
    graph = _complete(cn, budget, graph)
    return frozenset([Configuration(done, credits) for done, credits in _configurations(cn.net, graph, False)])


def honored_done_sets(
    cn: ContractNet,
    budget: int = DEFAULT_BUDGET,
    graph: ReachGraph | None = None,
) -> frozenset[frozenset[Atom]]:
    """Done sets of all reachable honored configurations; raises when the graph is incomplete.

    The done sets of the credit-free states are read off their keys, with the
    net's labels read once per call, also for a net other than the graph's
    own (``analysis._configurations``): no node is built."""
    graph = _complete(cn, budget, graph)
    return frozenset([done for done, _ in _configurations(cn.net, graph, True)])
