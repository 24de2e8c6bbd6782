"""The full-net compiler, kept as the oracle for the consumed-places nets.

``full_compile`` is the definition that ``lendingnets.compiler`` compiled
every net with before net-side urgency built only the places some transition
consumes, copied unchanged apart from its name and imports.  It gives every
transition a delivery place for every atom of the contract, then drops the
untouched ones with ``prune``.  Started from a done marking, its net is the
one net-side urgency was decided on.

``full_compile_compose_commutes`` is ``compile_compose_commutes`` as it was
when it compared the full compiles, copied unchanged apart from its name.
"""

from __future__ import annotations

from lendingnets.compiler import _same_traces, clause_tid, compile_contract, delivery_pid, star_pid
from lendingnets.compose import oplus, widen_alphabet
from lendingnets.contracts import ContractNet
from lendingnets.logic import HornClause, PCLContract, compose_contracts
from lendingnets.nets import DEFAULT_BUDGET, Atom, LendingNet, Verdict


def full_compile(c: PCLContract, prune: bool, done: frozenset[Atom]) -> ContractNet:
    """compile_contract, started as if a fact had granted each atom of ``done``."""
    clauses = sorted(c.clauses, key=HornClause.sort_key)
    universe = sorted(c.atoms())
    heads = sorted({cl.head for cl in clauses})

    places: set[str] = {star_pid(a) for a in heads}
    place_labels: dict[str, str] = {}
    lending: set[str] = set()
    for cl in clauses:
        for atom in universe:
            pid = delivery_pid(atom, cl)
            places.add(pid)
            place_labels[pid] = atom
            if cl.contractual:
                lending.add(pid)

    transitions: dict[str, str] = {clause_tid(cl): cl.head for cl in clauses}
    flow: set[tuple[str, str]] = set()
    for cl in clauses:
        tid = clause_tid(cl)
        flow.add((star_pid(cl.head), tid))
        for atom in cl.body:
            flow.add((delivery_pid(atom, cl), tid))
        for target in clauses:
            flow.add((tid, delivery_pid(cl.head, target)))

    if prune:
        touched = {x for arc in flow for x in arc}
        isolated = {p for p in places if p not in touched and p not in {star_pid(a) for a in heads}}
        places -= isolated
        place_labels = {p: a for p, a in place_labels.items() if p in places}
        lending -= isolated

    net = LendingNet(
        places=frozenset(places),
        transitions=frozenset(transitions),
        flow=frozenset(flow),
        place_labels=place_labels,
        transition_labels=transitions,
        initial={star_pid(a): 1 for a in heads if a not in done}
        | {delivery_pid(a, cl): 1 for a in done for cl in clauses},
        lending=frozenset(lending),
        alphabet=frozenset(universe),
    )
    return ContractNet(
        net=net,
        participants=c.participants,
        ownership=c.ownership,
        goals=c.goals,
    )


def full_compile_compose_commutes(
    first: PCLContract,
    second: PCLContract,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Compare compiling the composition against composing the compilations.

    HOLDS at once when the two nets have the same consumed part: their runs,
    and so their words, are the same (README, "Compositionality from the
    consumed parts").  Otherwise their words are listed (``trace_equivalent``).
    """
    joint = compile_contract(compose_contracts(first, second)).net
    left, right = widen_alphabet([compile_contract(first).net, compile_contract(second).net])
    return _same_traces(joint, oplus(left, right), budget)
