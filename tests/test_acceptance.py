"""Acceptance suite: one test per headline guarantee of the toolkit.

Each test pins exact expected values (set equality, no tolerances) and
prints a single verdict line; ``pytest -v tests/test_acceptance.py``
shows one pass/fail line per criterion.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from lendingnets import (
    NetDocument,
    Outcome,
    admits_agreement,
    agreement_reachable,
    compile_contract,
    compose_contracts,
    conjoin,
    contract_net_document,
    enabled_transitions,
    explore,
    fire,
    honored_always_reachable,
    honored_done_sets,
    interleave,
    is_correctly_labeled,
    is_honored,
    is_occurrence_net,
    oplus,
    parse_contract,
    parse_net,
    proof_traces,
    provable_atoms,
    reachable_configurations,
    serialize_contract,
    serialize_net,
    subnet,
    trace_atom_sets,
    trace_equivalent,
    urgent_at,
    urgent_logic,
    validate,
    weakly_terminates,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.cli import main
from lendingnets.compiler import (
    agreement_via_net,
    compile_compose_commutes,
    urgent_via_net,
)

from fixtures import (
    circular_lending_net,
    credit_chain_contract,
    exchange_pair_contract,
    fixture_contracts,
    fixture_nets,
    handshake_goal_lending_a,
    handshake_goal_strict_a,
    handshake_goal_strict_b,
    handshake_lending_a,
    handshake_strict_a,
    handshake_strict_b,
    self_credit_contract,
    toy_swap_composite,
    toy_swap_contracts,
)
from generators import compatible_contract_pair, random_contract, random_net

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _pass(number: int, message: str) -> None:
    print(f"criterion {number:02d}: PASS  {message}")


def _holds(verdict) -> bool:
    return verdict.outcome is Outcome.HOLDS


def test_criterion_01_circular_ring_settles_only_in_one_order():
    net = circular_lending_net()
    marking = net.initial_marking()
    order = []
    honored_along = []
    while True:
        steps = enabled_transitions(net, marking)
        assert len(steps) <= 1, f"choice at {marking}: {steps}"
        if not steps:
            break
        order.append(net.transition_labels[steps[0]])
        marking = fire(net, marking, steps[0])
        honored_along.append(is_honored(net, marking))
    assert order == ["c", "b", "a"]
    assert honored_along == [False, False, True]
    assert _holds(is_occurrence_net(net))
    assert is_correctly_labeled(net)
    _pass(1, "unique run c,b,a; debt mid-run, every place settled at the end")


def test_criterion_02_handshake_needs_one_side_to_lend():
    dead = oplus(handshake_strict_a(), handshake_strict_b())
    dead_graph = explore(dead)
    assert len(dead_graph.nodes) == 1
    dead_goal = conjoin(handshake_goal_strict_a(), handshake_goal_strict_b())
    assert weakly_terminates(dead, dead_goal).outcome is Outcome.FAILS

    live = oplus(handshake_lending_a(), handshake_strict_b())
    live_goal = conjoin(handshake_goal_lending_a(), handshake_goal_strict_b())
    assert _holds(weakly_terminates(live, live_goal))

    live_graph = explore(live)
    assert urgent_at(live_graph, live_graph.root) == frozenset({"a"})
    after_a = [
        i
        for i, node in enumerate(live_graph.nodes)
        if node.fired_set() == frozenset({"la.ta"})
    ]
    assert len(after_a) == 1
    assert urgent_at(live_graph, after_a[0]) == frozenset({"b"})

    for single in (handshake_strict_a(), handshake_strict_b(), handshake_lending_a()):
        graph = explore(single)
        assert urgent_at(graph, graph.root) == frozenset()
    assert urgent_at(dead_graph, dead_graph.root) == frozenset()
    _pass(2, "strict pair deadlocks; lending pair terminates with urgency a then b")


def test_criterion_03_self_credit_is_dischargeable():
    c = self_credit_contract()
    assert provable_atoms(c.clauses) == frozenset({"a"})
    cn = compile_contract(c)
    graph = explore(cn.net)
    assert graph.complete and len(graph.nodes) == 2
    final = graph.nodes[1]
    assert final.fired == (("a->>a", 1),)
    assert final.honored
    assert admits_agreement(c) is True
    assert _holds(agreement_via_net(c))
    _pass(3, "a on credit against itself settles in one step; both checks agree")


def test_criterion_04_credit_first_then_only_the_repayment_settles():
    c = credit_chain_contract()
    assert provable_atoms(c.clauses) == frozenset({"a", "b", "c"})
    cn = compile_contract(c)
    start = cn.net.initial_marking()
    assert enabled_transitions(cn.net, start) == ["b->>a"]
    after_credit = fire(cn.net, start, "b->>a")
    assert not is_honored(cn.net, after_credit)
    follow_ups = enabled_transitions(cn.net, after_credit)
    assert set(follow_ups) == {"a->b", "a->c"}
    settled = {
        tid: is_honored(cn.net, fire(cn.net, after_credit, tid))
        for tid in follow_ups
    }
    assert settled == {"a->b": True, "a->c": False}
    _pass(4, "credit step opens both replies but only the b delivery clears the debt")


def test_criterion_05_three_party_swap_composes_and_terminates():
    kid_a, kid_b, kid_c = toy_swap_contracts()
    composite = compose_contracts(compose_contracts(kid_a, kid_b), kid_c)
    assert composite == toy_swap_composite()
    assert composite.goals == frozenset({frozenset({"a", "b", "c"})})
    assert admits_agreement(composite) is True
    cn = compile_contract(composite)
    assert _holds(weakly_terminates_in(cn))
    _pass(5, "three-party swap composes, admits agreement, and weakly terminates")


def test_criterion_06_exchange_traces_and_urgency_match_exactly():
    c = exchange_pair_contract()
    assert proof_traces(c.clauses) == frozenset({(), ("a", "b")})
    schedule = {
        frozenset(): frozenset({"a"}),
        frozenset({"a"}): frozenset({"b"}),
        frozenset({"b"}): frozenset({"a"}),
        frozenset({"a", "b"}): frozenset(),
    }
    for done, expected in schedule.items():
        assert urgent_logic(c, done) == expected
        assert urgent_via_net(c, done) == expected
    _pass(6, "proof traces are exactly {eps, ab}; urgency agrees on all four states")


def test_criterion_07_interleaving_dedupes_exactly():
    got = interleave(("a", "b", "a"), ("c", "a"))
    assert got == frozenset(
        {("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")}
    )
    _pass(7, "aba shuffled with ca gives exactly abc, acb, cab")


def test_criterion_08_logic_and_nets_agree_on_random_theories():
    rng = random.Random(2026)
    theories = 200
    urgency_points = 0
    for _ in range(theories):
        c = random_contract(rng)
        theory = c.clauses

        atoms_in_traces = frozenset(a for word in proof_traces(theory) for a in word)
        assert provable_atoms(theory) == atoms_in_traces

        cn = compile_contract(c)
        graph = explore(cn.net)
        assert graph.complete
        assert trace_atom_sets(theory) == honored_done_sets(cn, graph=graph)

        agree_logic = admits_agreement(c)
        assert agree_logic == _holds(agreement_reachable(cn, graph=graph))
        covering = _holds(weakly_terminates_covering(cn, graph=graph))
        assert covering == (agree_logic and _holds(honored_always_reachable(graph)))
        if _holds(weakly_terminates_in(cn, graph=graph)):
            assert agree_logic

        done_sets = {cfg.done for cfg in reachable_configurations(cn, graph=graph)}
        for done in done_sets | {frozenset()}:
            assert urgent_logic(c, done) == urgent_via_net(c, done)
            urgency_points += 1
    assert urgency_points >= theories
    _pass(8, f"{theories} random theories, {urgency_points} urgency points, 0 mismatches")


def test_criterion_09_composition_algebra_and_homomorphism():
    rng = random.Random(17)
    for _ in range(40):
        x = random_net(rng, "x")
        y = random_net(rng, "y")
        z = random_net(rng, "z")
        assert oplus(x, y) == oplus(y, x)
        assert oplus(oplus(x, y), z) == oplus(x, oplus(y, z))

    for _ in range(35):
        left = random_net(rng, "u")
        right = random_net(rng, "v")
        joint = oplus(left, right)
        for part in (left, right):
            assert _holds(trace_equivalent(subnet(joint, part.transitions), part))

    for _ in range(30):
        first, second = compatible_contract_pair(rng)
        assert _holds(compile_compose_commutes(first, second))
    _pass(9, "105 random samples: commutative, associative, projections and compile commute")


def test_criterion_10_compiled_nets_are_valid_occurrence_nets():
    rng = random.Random(404)
    contracts = list(fixture_contracts()) + [random_contract(rng) for _ in range(60)]
    for c in contracts:
        for prune in (False, True):
            cn = compile_contract(c, prune=prune)
            assert validate(cn) == []
            graph = explore(cn.net)
            assert graph.complete
            for node in graph.nodes:
                multiset = node.fired_multiset()
                assert not multiset or max(multiset.values()) == 1
    _pass(10, f"{len(contracts)} contracts compile to violation-free single-firing nets")


def _cli_lines(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_11_round_trips_and_deterministic_output(capsys):
    for net in fixture_nets():
        doc = parse_net(serialize_net(net))
        assert doc.net == net
    goal_doc = serialize_net(
        NetDocument(
            net=oplus(handshake_lending_a(), handshake_strict_b()),
            goals=(conjoin(handshake_goal_lending_a(), handshake_goal_strict_b()),),
        )
    )
    assert serialize_net(parse_net(goal_doc)) == goal_doc
    for c in fixture_contracts():
        assert parse_contract(serialize_contract(c)) == c
        compiled = contract_net_document(compile_contract(c))
        assert parse_net(serialize_net(compiled)) == compiled

    swap = str(SAMPLES / "toy_swap.pcl")
    exchange = str(SAMPLES / "exchange_pair.pcl")
    handshake = str(SAMPLES / "handshake_credit.lpn")
    runs = (
        ("parse", swap),
        ("compile", swap),
        ("check", "agreement", swap),
        ("urgent", exchange, "--done", "a"),
        ("traces", handshake),
        ("dot", swap),
    )
    for argv in runs:
        first = _cli_lines(capsys, *argv)
        second = _cli_lines(capsys, *argv)
        assert first == second, f"non-deterministic output for {argv}"

    env = {**os.environ, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, "-m", "lendingnets.cli", "compile", swap]
    out_a = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    env["PYTHONHASHSEED"] = "1"
    out_b = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    assert out_a == out_b and out_a
    _pass(11, "parse/serialize are inverse on the corpus; CLI output is byte-stable")
