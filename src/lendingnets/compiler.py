"""Translation of Horn contract theories into contract nets.

Each clause becomes one transition labeled with its head.  Every head atom
``a`` gets a control place that starts marked and is consumed by every
``a``-headed transition, so an atom is granted at most once per run.  For
every atom ``x`` and transition ``t`` there is a delivery place carrying
``x``; ``t`` consumes its own delivery places for its body atoms and feeds
the delivery places of every transition with its head.  Delivery places of a
contractual transition lend, which is what lets a head be granted before its
body and leaves a debt behind until the body arrives.

One loop builds the nets, which differ only in their delivery places: the
full net has all of them and ``prune`` keeps those of the clause heads and of
each clause's own body.  So every compilation of a contract has the same
consumed part: the places some transition consumes (the control places and
each clause's body delivery places), the transitions and the arcs and labels
among them.  ``compile_contract`` compiles a contract once per ``prune``
flag and keeps the net with the contract.  Net-side urgency reads only the
consumed part: it walks the components of a compilation that is already
kept, or else compiles and keeps a net of the body delivery places alone,
and starts each done set's walk from that set's marking, set by label
(``analysis._done_marking``).  Compiling a composition and composing the
compilations give nets with the same consumed part, which decides their
traces without listing a word.
"""

from __future__ import annotations

from collections.abc import Iterable

from .analysis import Node, _consumed_part, _described, _urgent_at_root
from .compose import oplus, trace_equivalent
from .contracts import ContractNet, _agreement, configuration
from .logic import HornClause, PCLContract, _owned, compose_contracts, with_facts
from .nets import DEFAULT_BUDGET, Atom, LendingNet, Verdict, _check_budget, _kept


def clause_tid(clause: HornClause) -> str:
    """Readable, injective transition id for a clause."""
    arrow = "->>" if clause.contractual else "->"
    return "&".join(sorted(clause.body)) + arrow + clause.head


def star_pid(atom: Atom) -> str:
    """Control place spent when ``atom`` is granted."""
    return f"{atom}@*"


def delivery_pid(atom: Atom, clause: HornClause) -> str:
    """Delivery place feeding ``atom`` to the transition of ``clause``."""
    return f"{atom}@{clause_tid(clause)}"


def compile_contract(c: PCLContract, prune: bool = False) -> ContractNet:
    """Build the contract net of a contract.

    The atom universe is everything the contract mentions, ownership map
    included, and every transition gets a delivery place for each atom of
    the universe.  With ``prune`` a transition keeps only the delivery places of the
    clause heads and of its own clause's body, the ones some transition
    touches, which changes nothing observable.  Each contract is compiled
    once per ``prune`` flag: the net is kept in its instance dict.
    """
    if prune:
        return _kept(c, "_pruned", lambda: _compile(c, frozenset(cl.head for cl in c.clauses)))
    return _kept(c, "_compiled", lambda: _compile(c, c.atoms()))


def _compile(c: PCLContract, extra: frozenset[Atom], alphabet: frozenset[Atom] | None = None) -> ContractNet:
    """The contract net of ``c`` with the delivery places of each clause's body and of ``extra``,
    over ``alphabet`` (by default ``c.atoms()``)."""
    clauses = sorted(c.clauses, key=HornClause.sort_key)
    tids = [clause_tid(cl) for cl in clauses]
    heads = sorted({cl.head for cl in clauses})

    # The loop that names the delivery places also labels them and lists each arc once.
    delivered: dict[Atom, list[str]] = {}
    place_labels: dict[str, Atom] = {}
    lending: list[str] = []
    flow: list[tuple[str, str]] = []
    for cl, tid in zip(clauses, tids):
        flow.append((star_pid(cl.head), tid))
        for atom in cl.body | extra:
            pid = f"{atom}@{tid}"
            delivered.setdefault(atom, []).append(pid)
            place_labels[pid] = atom
            if atom in cl.body:
                flow.append((pid, tid))
            if cl.contractual:
                lending.append(pid)
    flow += [(tid, pid) for cl, tid in zip(clauses, tids) for pid in delivered.get(cl.head, ())]

    net = LendingNet(
        places=frozenset(place_labels).union(map(star_pid, heads)),
        transitions=tids,
        flow=flow,
        place_labels=place_labels,
        transition_labels={tid: cl.head for cl, tid in zip(clauses, tids)},
        initial={star_pid(a): 1 for a in heads},
        lending=lending,
        alphabet=c.atoms() if alphabet is None else alphabet,
    )
    return ContractNet(net=net, participants=c.participants, ownership=c.ownership, goals=c.goals)


def extend_with_facts(c: PCLContract, atoms: Iterable[Atom]) -> PCLContract:
    """Add the given atoms as facts, binding their owners where needed."""
    atoms = _owned(c, atoms)
    return PCLContract(
        clauses=with_facts(c.clauses, atoms),
        participants=c.participants | {c.ownership[a] for a in atoms},
        ownership=c.ownership,
        goals=c.goals,
    )


def agreement_via_net(c: PCLContract, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide agreement on the compiled net: reach an honored covering node.

    Each independent component of ``_urgency_net(c)`` is searched alone up to its first
    honored state covering its part of the goals; the witness joins those states (README,
    "How independent components are decided"), and ``_full_text`` names it.
    """
    return _agreement(_urgency_net(c), budget, None, lambda node: _full_text(c, node))


def _full_text(c: PCLContract, node: Node) -> str:
    """``compile_contract(c)``'s ``describe()`` of ``node``, a node of ``_urgency_net(c)``: a sink ``x@t``,
    x not in clause t's body, is fed by every x-headed transition, and x is granted at most once, so
    it holds 1 when x is done, else 0 (README, "Compositionality from the consumed parts")."""
    done, marking = configuration(_urgency_net(c), node).done, dict(node.marking)
    marking.update((f"{x}@{tid}", 1) for cl in c.clauses for tid in (clause_tid(cl),) for x in done - cl.body)
    return _described(((p, marking[p]) for p in sorted(marking)), node.fired)


def urgent_via_net(c: PCLContract, done: Iterable[Atom], budget: int = DEFAULT_BUDGET) -> frozenset[Atom]:
    """Net-side urgency after ``done``: urgent steps at the start of the contract
    net in which a fact has granted each done atom.

    That start, the done marking, dominates every node with done set ``done``
    of the net recompiled with the done atoms as facts (README, "How net-side
    urgency works"), so it alone gives their union of urgent steps.  One walk
    call walks each independent component of the net in turn: the answer is
    the union of the components' urgent steps, since every component's start
    is honored (README, "How independent components are decided").  The
    components read only the places some transition consumes, and every
    compilation of ``c`` has the same ones, so any net of ``c`` that is
    already kept will do (``_urgency_net``).  The done marking, the only part
    that depends on ``done``, is set on those places alone, by label
    (``analysis._done_marking``): the control place of each done atom, the
    marked place its transitions consume, empty, and each consumed place
    labeled with a done atom, one body delivery place per clause whose body
    holds it, holding one token.  No place is named and no marking is built.
    """
    done = _owned(c, done)
    return _urgent_at_root(_urgency_net(c).net, budget, done)


def _urgency_net(c: PCLContract) -> ContractNet:
    """A contract net of ``c`` whose walks decide it, kept in ``c``'s instance dict.

    Every walk reads only the consumed part, the same in every compilation of
    ``c``, so any kept net will do, and ``_full_text`` gives a node's text as
    the full net reads it.  Otherwise only the consumed places are built, since
    the full net is quadratic in size, and that net is kept.
    """
    kept = vars(c)
    for name in ("_urgency_net", "_pruned", "_compiled"):
        if name in kept:
            return kept[name]
    return _kept(c, "_urgency_net", lambda: _compile(c, frozenset()))


def compile_compose_commutes(
    first: PCLContract,
    second: PCLContract,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Compare compiling the composition against composing the compilations.

    HOLDS at once when the two nets have the same consumed part: their runs,
    and so their words, are the same (README, "Compositionality from the
    consumed parts").  Otherwise their words are listed (``trace_equivalent``).
    Every compilation of a contract has the same consumed part, and the
    consumed part of an ``oplus`` depends on its operands' alone: it adds
    only arcs from transitions to places and drops only places no transition
    consumes.  So the consumed-places nets are compared, linear in size: the
    composition's, and each side's compiled over the joint alphabet, which
    is not the side's own, so the side keeps no net.
    """
    union = first.atoms() | second.atoms()
    joint = _urgency_net(compose_contracts(first, second)).net
    left, right = (_compile(side, frozenset(), union).net for side in (first, second))
    return _same_traces(joint, oplus(left, right), budget)


def _same_traces(left: LendingNet, right: LendingNet, budget: int) -> Verdict:
    """``trace_equivalent(left, right, budget)``, HOLDS without a search when the consumed parts are equal."""
    _check_budget(budget)
    if _consumed_part(left) == _consumed_part(right):
        return Verdict.holds()
    return trace_equivalent(left, right, budget)
