"""Criterion 8 on every theory of at most 3 clauses over 3 atoms, up to renaming.

A random draw can miss a small corner, such as a self-credit, a shared head
or a body that holds its own head; this suite checks all of them (the small
scope hypothesis).  Over the atoms ``a``, ``b`` and ``c`` there are 24
strict clauses and 21 contractual ones, whose body is not empty, and 2,651
theories of at most 3 of them up to renaming of the atoms.  Each atom has
its own owner, and each theory is checked under five goal families: every
atom; ``{a}``; ``{a, b}`` or ``{c}``; ``{b}``; and ``{c}``.  Its proof traces
are checked against the inductive rules of ``trace_oracle``.  The compiled
net does not depend on the goals, so each theory is compiled and explored
once and every family is read on that net.  A mismatch is reported with the
check that failed and the contract as a ``.pcl`` document.
"""

from dataclasses import replace
from itertools import combinations, permutations

from lendingnets import (
    HornClause,
    Outcome,
    PCLContract,
    admits_agreement,
    agreement_reachable,
    compile_contract,
    explore,
    honored_done_sets,
    proof_traces,
    serialize_contract,
    trace_atom_sets,
    urgent_logic,
    urgent_via_net,
    weakly_terminates_covering,
    weakly_terminates_in,
)

from trace_oracle import _traces

ATOMS = "abc"
SUBSETS = [frozenset(s) for n in range(len(ATOMS) + 1) for s in combinations(ATOMS, n)]
CLAUSES = [HornClause(head=h, body=body, contractual=contractual)
           for h in ATOMS for body in SUBSETS for contractual in (False, True) if body or not contractual]
GOAL_FAMILIES = ({frozenset(ATOMS)}, {frozenset("a")}, {frozenset("ab"), frozenset("c")},
                 {frozenset("b")}, {frozenset("c")})


def renamed(clause: HornClause, rename: dict) -> HornClause:
    return HornClause(head=rename[clause.head], body={rename[a] for a in clause.body}, contractual=clause.contractual)


def theories() -> list[frozenset[HornClause]]:
    """One theory of each renaming class: the one whose sorted clause keys are least."""
    own = [c.sort_key() for c in CLAUSES]
    # Each clause's sort key under each renaming, by the clause's position in ``CLAUSES``.
    keys = [[renamed(c, dict(zip(ATOMS, p))).sort_key() for c in CLAUSES] for p in permutations(ATOMS)]
    found = []
    for n in range(4):
        for theory in combinations(range(len(CLAUSES)), n):
            key = sorted([own[i] for i in theory])
            if all(key <= sorted([k[i] for i in theory]) for k in keys):
                found.append(frozenset([CLAUSES[i] for i in theory]))
    return found


def mismatches(theory: frozenset[HornClause]) -> list[tuple[str, str]]:
    """The checks on which the logic side and the net side, or a net check with and without a built
    graph, disagree, each with the contract it disagreed on."""
    found = []
    contracts = [PCLContract(clauses=theory, participants=set(ATOMS.upper()), ownership={a: a.upper() for a in ATOMS},
                             goals=goals) for goals in GOAL_FAMILIES]
    # Every atom is owned, so the compiled net does not depend on the goals: each family reads the first one's.
    first = compile_contract(contracts[0])
    graph = explore(first.net)
    for k, c in enumerate(contracts):
        cn = replace(first, goals=c.goals)
        agree = admits_agreement(c)
        covering = weakly_terminates_covering(cn, graph=graph).outcome is Outcome.HOLDS
        checks = {
            "complete": graph.complete,
            "agreement": agree == (agreement_reachable(cn).outcome is Outcome.HOLDS),
            "agreement on the graph": agree == (agreement_reachable(cn, graph=graph).outcome is Outcome.HOLDS),
            "weak termination on the graph": weakly_terminates_in(cn) == weakly_terminates_in(cn, graph=graph),
            "covering implies agreement": agree or not covering,
        }
        if k == 0:
            # Neither side of these reads the goals.
            checks["honored done sets"] = honored_done_sets(cn, graph=graph) == trace_atom_sets(theory)
            checks["proof traces"] = proof_traces(theory) == _traces(theory, MEMO)
            checks |= {f"urgency at {''.join(sorted(done))!r}": urgent_logic(c, done) == urgent_via_net(c, done)
                       for done in SUBSETS}
        found += [(name, serialize_contract(c)) for name, ok in checks.items() if not ok]
    return found


THEORIES = theories()
MEMO: dict = {}


def test_the_theories_are_every_one_of_at_most_three_clauses_up_to_renaming():
    assert len(CLAUSES) == 45 and sum(c.contractual for c in CLAUSES) == 21
    assert len(THEORIES) == 2651 and len(set(THEORIES)) == 2651


def test_logic_and_net_agree_on_every_small_theory():
    assert [m for theory in THEORIES for m in mismatches(theory)] == []

