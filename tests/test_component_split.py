"""Net-side checks decided one independent component at a time, against full exploration.

``split_oracle`` keeps the deciders that explored the whole product graph.
Without a graph, ``agreement_reachable``, ``weakly_terminates_in``,
``weakly_terminates_covering`` and ``urgent_via_net`` now walk each
component of the net alone.  At the default budget their answers (outcome,
witness and detail, or the urgent set) must equal the oracle's; at small
budgets they must equal it whenever the oracle answers.
"""

import itertools
import random
import sys

import pytest

import lendingnets.analysis
import lendingnets.contracts
import split_oracle as oracle
from lendingnets import (
    ContractNet,
    HornClause,
    IncompleteExplorationError,
    LendingNet,
    Outcome,
    PCLContract,
    ReachGraph,
    agreement_reachable,
    agreement_via_net,
    compile_contract,
    compose_contracts,
    urgent_via_net,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import _components, _least_path, _walk
from lendingnets.nets import DEFAULT_BUDGET

from generators import credit_ring, pairs_contract, random_contract, settled_pairs

CHECKS = (
    (agreement_reachable, oracle.agreement_reachable),
    (weakly_terminates_in, oracle.weakly_terminates_in),
    (weakly_terminates_covering, oracle.weakly_terminates_covering),
)
SMALL_BUDGETS = (1, 2, 3, 5, 8)


def renamed(c: PCLContract, suffix: str) -> PCLContract:
    """``c`` with every atom and participant renamed apart."""
    def atom(a):
        return a + suffix

    return PCLContract(
        clauses=frozenset(HornClause(atom(cl.head), frozenset(map(atom, cl.body)), cl.contractual) for cl in c.clauses),
        participants=frozenset(p + suffix for p in c.participants),
        ownership={atom(a): p + suffix for a, p in c.ownership.items()},
        goals=frozenset(frozenset(map(atom, g)) for g in c.goals),
    )


def disjoint_pairs(count: int, seed: int = 5):
    """Composed contracts over disjoint atoms, so that the compiled net splits."""
    rng = random.Random(seed)
    return [
        compose_contracts(random_contract(rng, max_clauses=3), renamed(random_contract(rng, max_clauses=3), "2"))
        for _ in range(count)
    ]


def closed_families():
    out = [pairs_contract(n) for n in range(1, 7)]
    for n in (3, 4, 5):
        out += [credit_ring(n), credit_ring(n, n - 1)]
    return out


def contracts():
    rng = random.Random(909)
    return [random_contract(rng) for _ in range(200)] + disjoint_pairs(150) + closed_families()


def done_sets(c: PCLContract):
    atoms = sorted(c.ownership)
    sizes = range(len(atoms) + 1) if len(atoms) <= 8 else (0, 1, 2)
    return [frozenset(s) for n in sizes for s in itertools.combinations(atoms, n)]


def answer(fn, *args):
    try:
        return fn(*args)
    except IncompleteExplorationError:
        return None


COMPONENT_WALKERS = {"_all_can_reach", "_covering_walks", "_urgent_at_root"}


def kept_states(monkeypatch):
    """Record, per call, the states the component walks keep: the shared root once plus the rest.

    Only the ``_walk`` calls of the deciders that walk a net's components are
    counted, not those of ``explore``, which the oracle runs."""
    kept = []
    walk = lendingnets.analysis._walk

    def counting(*args, **kwargs):
        walked = walk(*args, **kwargs)
        if sys._getframe(1).f_code.co_name in COMPONENT_WALKERS:
            kept.append(1 + sum(len(packs) - 1 for packs, *_ in walked[1]))
        return walked

    for module in (lendingnets.analysis, lendingnets.contracts):
        monkeypatch.setattr(module, "_walk", counting)
    return kept


def test_verdicts_equal_full_exploration():
    seen = set()
    for c in contracts():
        cn = compile_contract(c)
        for new, old in CHECKS:
            got = new(cn)
            assert got == old(cn), (new.__name__, c)
            assert got.outcome is not Outcome.INCONCLUSIVE
            seen.add((new.__name__, got.outcome))
        assert agreement_via_net(c) == oracle.agreement_reachable(cn)
    assert len(seen) == 2 * len(CHECKS)


def test_urgent_sets_equal_full_exploration():
    for c in contracts():
        for done in done_sets(c):
            assert urgent_via_net(c, done) == oracle.urgent_via_net(c, done), (c, sorted(done))


@pytest.mark.parametrize("budget", SMALL_BUDGETS)
def test_small_budgets_answer_whenever_full_exploration_does(budget):
    for c in contracts()[::3]:
        cn = compile_contract(c)
        for new, old in CHECKS:
            want = old(cn, budget)
            if want.outcome is not Outcome.INCONCLUSIVE:
                assert new(cn, budget) == want, (new.__name__, c, budget)
        for done in done_sets(c)[:16]:
            want = answer(oracle.urgent_via_net, c, done, budget)
            if want is not None:
                assert answer(urgent_via_net, c, done, budget) == want, (c, sorted(done), budget)


def test_the_disjoint_pairs_really_split():
    split = away = 0
    for c in disjoint_pairs(150):
        cn = compile_contract(c)
        split += len(_components(cn.net)) >= 2
        verdict = weakly_terminates_in(cn)
        away += verdict.outcome is Outcome.FAILS and bool(verdict.witness.fired)
    assert split >= 140 and away >= 10


def test_components_of_the_families():
    assert len(_components(compile_contract(pairs_contract(6)).net)) == 6
    for c in (credit_ring(5), credit_ring(5, 2)):
        assert len(_components(compile_contract(c).net)) == 1


def test_pairs_eleven_holds_at_the_default_budget():
    cn = compile_contract(pairs_contract(11))
    assert weakly_terminates_in(cn, DEFAULT_BUDGET).outcome is Outcome.HOLDS
    assert agreement_via_net(pairs_contract(11), DEFAULT_BUDGET).outcome is Outcome.HOLDS


def test_pairs_twelve_keeps_twenty_five_states(monkeypatch):
    kept = kept_states(monkeypatch)
    c = pairs_contract(12)
    cn = compile_contract(c)
    assert weakly_terminates_in(cn).outcome is Outcome.HOLDS
    assert weakly_terminates_covering(cn).outcome is Outcome.HOLDS
    assert agreement_via_net(c).outcome is Outcome.HOLDS
    assert kept == [25, 25, 25]
    # The budget counts those states: 25 suffice and 24 do not.
    assert weakly_terminates_in(cn, 25).outcome is Outcome.HOLDS
    assert weakly_terminates_in(cn, 24).detail == "exploration budget 24 exhausted"


def with_goals(c: PCLContract, goals) -> ContractNet:
    cn = compile_contract(c)
    return ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership,
                       goals=frozenset(frozenset(g) for g in goals))


def assert_same_verdicts(cn):
    for new, old in CHECKS:
        assert new(cn) == old(cn), new.__name__


def test_a_goal_atom_no_transition_grants(monkeypatch):
    c = pairs_contract(2)
    c = PCLContract(clauses=c.clauses, participants=c.participants, ownership={**c.ownership, "z": "Pa0"}, goals=c.goals)
    kept = kept_states(monkeypatch)
    for goals in ([{"a0", "b0", "a1", "b1", "z"}], [{"a0", "b0", "a1", "b1"}, {"a0", "z"}], [{"z"}]):
        assert_same_verdicts(with_goals(c, goals))
    assert max(kept) == 5  # still split: 1 + 2 + 2 states


def test_an_empty_goal_family():
    cn = with_goals(pairs_contract(2), [])
    assert_same_verdicts(cn)
    verdict = weakly_terminates_in(cn)
    assert verdict.outcome is Outcome.FAILS and verdict.witness.fired == ()
    assert agreement_reachable(cn).outcome is Outcome.FAILS
    # Nothing on a net without transitions; the empty goal set holds there at once.
    empty = ContractNet(net=LendingNet(), participants=(), ownership={}, goals=[])
    assert_same_verdicts(empty)
    assert_same_verdicts(ContractNet(net=LendingNet(), participants=(), ownership={}, goals=[frozenset()]))
    assert weakly_terminates_in(empty).outcome is Outcome.FAILS


def test_a_goal_family_that_is_no_product_merges(monkeypatch):
    kept = kept_states(monkeypatch)
    cn = with_goals(pairs_contract(2), [{"a0", "b0"}, {"a1", "b1"}])
    assert_same_verdicts(cn)
    # One walk over the product: to the first covering node (the fourth) for
    # agreement, over all 9 nodes for the stuck checks.
    assert kept == [4, 9, 9]
    kept.clear()
    product = with_goals(pairs_contract(2), [{"a0", "b0", "a1", "b1"}, {"a0", "b0", "a1"}])
    assert_same_verdicts(product)
    assert kept == [5, 5, 5]


def test_a_tie_in_firings_goes_to_the_least_path():
    """Both components get stuck after one firing; ``m`` precedes ``z1`` although ``a1`` precedes ``m``."""
    net = LendingNet(
        places={"pA", "pB", "qa", "qz", "qm"},
        transitions={"a1", "z1", "m"},
        flow={("pA", "a1"), ("a1", "qa"), ("pA", "z1"), ("z1", "qz"), ("pB", "m"), ("m", "qm")},
        place_labels={"qa": "a", "qz": "z", "qm": "m"},
        transition_labels={"a1": "a", "z1": "z", "m": "m"},
        initial={"pA": 1, "pB": 1},
    )
    cn = ContractNet(net=net, participants={"A"}, ownership={"a": "A", "z": "A", "m": "A"}, goals=[set(), {"a"}])
    assert [tuple(row[1] for row in c) for c in _components(net)] == [("a1", "z1"), ("m",)]
    assert_same_verdicts(cn)
    assert weakly_terminates_in(cn).witness.fired == (("m", 1),)


def overshot_pairs(n: int) -> PCLContract:
    """Two disjoint copies of ``settled_pairs(n)`` plus the overshoot ``z -> c``, each with every
    atom but ``c`` as its goal: each component can get stuck, the deepest after 2n + 2 firings."""
    part = settled_pairs(n)
    part = PCLContract(
        clauses=part.clauses | {HornClause("c", frozenset({"z"}))},
        participants=part.participants | {"Pc"},
        ownership={**part.ownership, "c": "Pc"},
        goals=part.goals,
    )
    return compose_contracts(part, renamed(part, "w"))


def in_edge_path(graph, i: int):
    """``_least_path`` as it read each step's first in-edge from the graph's in-edges, in edge order."""
    into = {}
    for src, t, dst in graph.edges:
        into.setdefault(dst, []).append((t, src))
    path = []
    while i:
        t, i = into[i][0]
        path.append(t)
    return len(path), path[::-1]


def test_least_paths_follow_each_node_s_first_in_edge():
    rng = random.Random(31)
    family = [overshot_pairs(n) for n in (1, 2, 3, 4)]
    for c in [random_contract(rng) for _ in range(40)] + disjoint_pairs(40, seed=8) + family:
        net = compile_contract(c).net
        for rows in _components(net):
            fields, [walk] = _walk(net, [(rows, None)], net.initial, DEFAULT_BUDGET)
            graph = ReachGraph(net, fields, walk)
            assert graph.complete
            for i in range(len(graph.nodes)):
                assert _least_path(graph, i) == in_edge_path(graph, i)
    verdict = weakly_terminates_in(compile_contract(family[-1]))
    assert verdict.outcome is Outcome.FAILS
    assert sum(n for _, n in verdict.witness.fired) == 10
    assert_same_verdicts(compile_contract(family[1]))


def test_an_unvalidated_net_whose_components_share_a_label_merges():
    net = LendingNet(
        places={"p1", "p2", "q1", "q2"},
        transitions={"t1", "t2"},
        flow={("p1", "t1"), ("t1", "q1"), ("p2", "t2"), ("t2", "q2")},
        place_labels={"q1": "a", "q2": "a"},
        transition_labels={"t1": "a", "t2": "a"},
        initial={"p1": 1, "p2": 1},
    )
    assert [tuple(row[1] for row in c) for c in _components(net)] == [("t1", "t2")]
    relabeled = LendingNet(places=net.places, transitions=net.transitions, flow=net.flow,
                           place_labels={"q1": "a", "q2": "b"}, transition_labels={"t1": "a", "t2": "b"},
                           initial=net.initial)
    assert [tuple(row[1] for row in c) for c in _components(relabeled)] == [("t1",), ("t2",)]
    for n in (net, relabeled):
        for goals in ([{"a"}], [{"a", "b"}], [set()], [{"a"}, {"b"}]):
            cn = ContractNet(net=n, participants={"A"}, ownership={"a": "A", "b": "A"}, goals=goals)
            assert_same_verdicts(cn)
