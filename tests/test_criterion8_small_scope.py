"""Criterion 8 on every theory of at most 3 clauses over 3 atoms, up to renaming.

A random draw can miss a small corner, such as a self-credit, a shared head
or a body that holds its own head; this suite checks all of them (the small
scope hypothesis).  Over the atoms ``a``, ``b`` and ``c`` there are 24
strict clauses and 21 contractual ones, whose body is not empty, and 2,651
theories of at most 3 of them up to renaming of the atoms.  Each atom has
its own owner, and each theory is checked under three goal families: every
atom; ``{a}``; and ``{a, b}`` or ``{c}``.  A mismatch is reported with the
check that failed and the contract as a ``.pcl`` document.
"""

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
    serialize_contract,
    trace_atom_sets,
    urgent_logic,
    urgent_via_net,
    weakly_terminates_covering,
    weakly_terminates_in,
)

ATOMS = "abc"
SUBSETS = [frozenset(s) for n in range(len(ATOMS) + 1) for s in combinations(ATOMS, n)]
CLAUSES = [HornClause(head=h, body=body, contractual=contractual)
           for h in ATOMS for body in SUBSETS for contractual in (False, True) if body or not contractual]
GOAL_FAMILIES = ({frozenset(ATOMS)}, {frozenset("a")}, {frozenset("ab"), frozenset("c")})


def renamed(clause: HornClause, rename: dict) -> HornClause:
    return HornClause(head=rename[clause.head], body={rename[a] for a in clause.body}, contractual=clause.contractual)


def theories() -> list[frozenset[HornClause]]:
    """One theory of each renaming class: the one whose sorted clause keys are least."""
    renames = [dict(zip(ATOMS, p)) for p in permutations(ATOMS)]
    found = []
    for n in range(4):
        for theory in combinations(CLAUSES, n):
            key = sorted(c.sort_key() for c in theory)
            if all(key <= sorted(renamed(c, r).sort_key() for c in theory) for r in renames):
                found.append(frozenset(theory))
    return found


def mismatches(theory: frozenset[HornClause]) -> list[tuple[str, str]]:
    """The checks on which the logic side and the net side, or a net check with and without a built
    graph, disagree, each with the contract it disagreed on."""
    found = []
    for k, goals in enumerate(GOAL_FAMILIES):
        c = PCLContract(clauses=theory, participants=set(ATOMS.upper()), ownership={a: a.upper() for a in ATOMS},
                        goals=goals)
        cn = compile_contract(c)
        graph = explore(cn.net)
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
            checks |= {f"urgency at {''.join(sorted(done))!r}": urgent_logic(c, done) == urgent_via_net(c, done)
                       for done in SUBSETS}
        found += [(name, serialize_contract(c)) for name, ok in checks.items() if not ok]
    return found


THEORIES = theories()


def test_the_theories_are_every_one_of_at_most_three_clauses_up_to_renaming():
    assert len(CLAUSES) == 45 and sum(c.contractual for c in CLAUSES) == 21
    assert len(THEORIES) == 2651 and len(set(THEORIES)) == 2651


def test_logic_and_net_agree_on_every_small_theory():
    assert [m for theory in THEORIES for m in mismatches(theory)] == []

