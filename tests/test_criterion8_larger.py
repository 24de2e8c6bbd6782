"""Criterion 8 at up to 8 atoms and 14 clauses, and on composed pairs.

The logic side and the compiled net must agree on agreement, on what the two
weak-termination checks imply, on the honored done sets (the atom sets of
the proof traces) and on urgency at every reachable done set.  The graphs
reach several hundred nodes, so this is also the largest oracle for the
backward closure behind the net-side checks.  A failing example is printed
as a ``.pcl`` document.
"""

from hypothesis import HealthCheck, given, note, settings, strategies as st

from lendingnets import (
    HornClause,
    Outcome,
    PCLContract,
    admits_agreement,
    agreement_reachable,
    compile_contract,
    compose_contracts,
    explore,
    honored_always_reachable,
    honored_done_sets,
    reachable_configurations,
    serialize_contract,
    trace_atom_sets,
    urgent_logic,
    urgent_via_net,
    weakly_terminates_covering,
    weakly_terminates_in,
)

ATOMS = tuple("abcdefgh")

SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def contracts(draw, heads=ATOMS, max_clauses=14):
    """A contract over ``ATOMS`` whose clause heads come from ``heads``; each atom has its own owner."""
    clauses = set()
    for _ in range(draw(st.integers(1, max_clauses))):
        head = draw(st.sampled_from(heads))
        body = frozenset(draw(st.sets(st.sampled_from(ATOMS), max_size=3)))
        clauses.add(HornClause(head=head, body=body, contractual=bool(body) and draw(st.booleans())))
    mentioned = sorted(frozenset().union(*(c.atoms() for c in clauses)))
    goals = draw(st.sets(st.frozensets(st.sampled_from(mentioned)), min_size=1, max_size=2))
    return PCLContract(
        clauses=clauses,
        participants={a.upper() for a in heads},
        ownership={a: a.upper() for a in ATOMS},
        goals=goals,
    )


def check_logic_against_net(c: PCLContract) -> None:
    note(serialize_contract(c))
    cn = compile_contract(c)
    graph = explore(cn.net)
    assert graph.complete
    assert honored_done_sets(cn, graph=graph) == trace_atom_sets(c.clauses)

    agree = admits_agreement(c)
    assert agree == (agreement_reachable(cn, graph=graph).outcome is Outcome.HOLDS)
    covering = weakly_terminates_covering(cn, graph=graph).outcome is Outcome.HOLDS
    assert covering == (agree and honored_always_reachable(graph).outcome is Outcome.HOLDS)
    if weakly_terminates_in(cn, graph=graph).outcome is Outcome.HOLDS:
        assert agree

    for done in {cfg.done for cfg in reachable_configurations(cn, graph=graph)}:
        assert urgent_logic(c, done) == urgent_via_net(c, done), sorted(done)


@SETTINGS
@given(contracts())
def test_logic_and_net_agree_up_to_eight_atoms_and_fourteen_clauses(c):
    check_logic_against_net(c)


@settings(SETTINGS, max_examples=100)
@given(contracts(heads=ATOMS[:4], max_clauses=7), contracts(heads=ATOMS[4:], max_clauses=7))
def test_logic_and_net_agree_on_composed_pairs(first, second):
    check_logic_against_net(compose_contracts(first, second))
