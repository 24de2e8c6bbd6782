"""Net composition, the trace preorder, and strategy checking."""

import random

import pytest

import lendingnets.compose
from lendingnets import (
    HONORED_GOAL,
    CompositionError,
    DEFAULT_BUDGET,
    LendingNet,
    NetStructureError,
    Outcome,
    Verdict,
    approximates,
    compatibility_problems,
    compatible,
    compile_contract,
    compose_contracts,
    compose_many,
    is_strategy,
    oplus,
    subnet,
    tag_net,
    trace_equivalent,
    widen_alphabet,
)
from lendingnets.fixtures import (
    circular_lending_net,
    fixture_nets,
    handshake_goal_lending_a,
    handshake_goal_strict_a,
    handshake_goal_strict_b,
    handshake_lending_a,
    handshake_strict_a,
    handshake_strict_b,
)

from generators import compatible_contract_pair, random_net


def giver(prefix: str, gives: str, consumer: bool = False) -> LendingNet:
    """One transition labeled ``gives`` producing into a sink place of that label."""
    places = [f"{prefix}.src", f"{prefix}.out"]
    transitions = [f"{prefix}.t"]
    flow = [(f"{prefix}.src", f"{prefix}.t"), (f"{prefix}.t", f"{prefix}.out")]
    if consumer:
        transitions.append(f"{prefix}.u")
        flow.append((f"{prefix}.out", f"{prefix}.u"))
    return LendingNet.build(
        places=places,
        transitions=transitions,
        flow=flow,
        place_labels={f"{prefix}.out": gives},
        transition_labels={f"{prefix}.t": gives},
        initial={f"{prefix}.src": 1},
        alphabet=frozenset({"a"}),
    )


class TestCompatibility:
    def test_fixture_pair_is_compatible(self):
        assert compatibility_problems(handshake_lending_a(), handshake_strict_b()) == []
        assert compatible(handshake_lending_a(), handshake_strict_b())

    def test_alphabet_mismatch_is_reported(self):
        problems = compatibility_problems(handshake_strict_a(), circular_lending_net())
        assert problems == ["label universes differ"]

    def test_shared_ids_are_reported(self):
        problems = compatibility_problems(handshake_lending_a(), handshake_lending_a())
        text = " ".join(problems)
        assert "shared place ids" in text
        assert "shared transition ids" in text

    def test_marked_labeled_place_is_reported(self):
        bad = LendingNet.build(
            places=("m.p", "m.q"),
            transitions=("m.t",),
            flow=(("m.p", "m.t"), ("m.t", "m.q")),
            place_labels={"m.p": "a"},
            transition_labels={"m.t": "a"},
            initial={"m.p": 1},
            alphabet=frozenset({"a"}),
        )
        other = LendingNet.build(
            places=("n.p",),
            transitions=("n.t",),
            flow=(("n.p", "n.t"),),
            initial={"n.p": 1},
            alphabet=frozenset({"a"}),
        )
        problems = compatibility_problems(bad, other)
        assert problems == ["left net marks labeled places ['m.p']"]
        assert compatibility_problems(other, bad) == ["right net marks labeled places ['m.p']"]

    def test_composition_error_carries_problems(self):
        with pytest.raises(CompositionError) as info:
            oplus(handshake_strict_a(), circular_lending_net())
        assert info.value.problems == ("label universes differ",)
        assert "label universes differ" in str(info.value)


class TestOplusStructure:
    def test_handshake_composite_wiring(self):
        live = oplus(handshake_lending_a(), handshake_strict_b())
        assert live.places == frozenset(
            {"la.p1", "la.p2", "la.p3", "sb.p1", "sb.p2", "sb.p3"}
        )
        assert ("la.ta", "sb.p1") in live.flow
        assert ("sb.tb", "la.p1") in live.flow
        assert live.lending == frozenset({"la.p1"})
        assert live.initial == {"la.p3": 1, "sb.p3": 1}
        assert live.alphabet == frozenset({"a", "b"})
        assert live.transition_labels == {"la.ta": "a", "sb.tb": "b"}

    def test_matching_labeled_sinks_are_dropped(self):
        comp = oplus(giver("x", "a"), giver("y", "a"))
        assert "x.out" not in comp.places
        assert "y.out" not in comp.places
        assert comp.flow == frozenset({("x.src", "x.t"), ("y.src", "y.t")})

    def test_consumed_labeled_place_survives_and_receives(self):
        comp = oplus(giver("x", "a", consumer=True), giver("y", "a"))
        assert "x.out" in comp.places
        assert ("y.t", "x.out") in comp.flow
        assert "y.out" not in comp.places

    def test_marked_sink_survives(self):
        left = LendingNet.build(
            places=("x.src", "x.done"),
            transitions=("x.t",),
            flow=(("x.src", "x.t"), ("x.t", "x.done")),
            transition_labels={"x.t": "a"},
            initial={"x.src": 1, "x.done": 1},
            alphabet=frozenset({"a"}),
        )
        comp = oplus(left, giver("y", "a"))
        assert "x.done" in comp.places
        assert comp.initial["x.done"] == 1

    def test_unlabeled_nets_compose_to_disjoint_union(self):
        left = LendingNet.build(
            places=("u.p",),
            transitions=("u.t",),
            flow=(("u.p", "u.t"),),
            initial={"u.p": 1},
            alphabet=frozenset({"a"}),
        )
        right = LendingNet.build(
            places=("v.p",),
            transitions=("v.t",),
            flow=(("v.p", "v.t"),),
            initial={"v.p": 1},
            alphabet=frozenset({"a"}),
        )
        comp = oplus(left, right)
        assert comp.places == frozenset({"u.p", "v.p"})
        assert comp.flow == left.flow | right.flow

    def test_commutative_on_fixtures(self):
        assert oplus(handshake_lending_a(), handshake_strict_b()) == oplus(
            handshake_strict_b(), handshake_lending_a()
        )

    def test_commutative_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(25):
            left = random_net(rng, "l")
            right = random_net(rng, "r")
            assert oplus(left, right) == oplus(right, left)

    def test_associative_on_fixture_triple(self):
        x, y, z = handshake_strict_a(), handshake_strict_b(), handshake_lending_a()
        assert oplus(oplus(x, y), z) == oplus(x, oplus(y, z))

    def test_compose_many(self):
        with pytest.raises(CompositionError):
            compose_many([])
        net = handshake_lending_a()
        assert compose_many([net]) == net
        assert compose_many([net, handshake_strict_b()]) == oplus(net, handshake_strict_b())


class TestTracePreorder:
    def test_strict_approximates_lending(self):
        assert approximates(handshake_strict_a(), handshake_lending_a()).outcome is Outcome.HOLDS

    def test_lending_exceeds_strict_with_witness(self):
        verdict = approximates(handshake_lending_a(), handshake_strict_a())
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness == ("a",)

    def test_equivalence_is_reflexive(self):
        for net in fixture_nets():
            assert trace_equivalent(net, net).outcome is Outcome.HOLDS

    def test_equivalence_fails_on_strict_versus_lending(self):
        assert (
            trace_equivalent(handshake_lending_a(), handshake_strict_a()).outcome
            is Outcome.FAILS
        )

    def test_alphabet_mismatch_is_structural(self):
        with pytest.raises(NetStructureError):
            approximates(circular_lending_net(), handshake_strict_a())

    def test_equivalence_over_different_alphabets_is_structural(self):
        with pytest.raises(NetStructureError, match="shared label universe"):
            trace_equivalent(circular_lending_net(), handshake_strict_a())

    def test_budget_exhaustion_is_inconclusive(self):
        verdict = approximates(handshake_lending_a(), handshake_lending_a(), budget=1)
        assert verdict.outcome is Outcome.INCONCLUSIVE

    def test_tagging_preserves_traces(self):
        net = circular_lending_net()
        assert trace_equivalent(tag_net(net, "x"), net).outcome is Outcome.HOLDS


class TestTagAndWiden:
    def test_tagging_renames_everything(self):
        tagged = tag_net(handshake_strict_a(), "x")
        assert tagged.places == frozenset({"x.sa.p1", "x.sa.p2", "x.sa.p3"})
        assert tagged.transitions == frozenset({"x.sa.ta"})
        assert tagged.initial == {"x.sa.p3": 1}
        assert tagged.place_labels["x.sa.p1"] == "b"

    def test_bad_tags_are_rejected(self):
        for tag in ("", "a b"):
            with pytest.raises(NetStructureError):
                tag_net(handshake_strict_a(), tag)

    def test_widening_unifies_alphabets(self):
        wide = widen_alphabet([circular_lending_net(), handshake_strict_a()])
        union = frozenset({"a", "b", "c"})
        assert [n.alphabet for n in wide] == [union, union]
        assert compatibility_problems(*wide) == []
        assert widen_alphabet([]) == []


class TestIsStrategy:
    def test_lending_variant_is_a_strategy_for_strict_partner(self):
        verdict = is_strategy(
            (handshake_lending_a(), handshake_goal_lending_a()),
            (handshake_strict_b(), handshake_goal_strict_b()),
        )
        assert verdict.outcome is Outcome.HOLDS

    def test_strict_variant_is_not(self):
        verdict = is_strategy(
            (handshake_strict_a(), handshake_goal_strict_a()),
            (handshake_strict_b(), handshake_goal_strict_b()),
        )
        assert verdict.outcome is Outcome.FAILS

    def test_empty_partner_with_satisfied_goal(self):
        empty = LendingNet.build(
            places=(), transitions=(), flow=(), alphabet=frozenset({"a", "b"})
        )
        verdict = is_strategy(
            (empty, HONORED_GOAL), (handshake_strict_a(), HONORED_GOAL)
        )
        assert verdict.outcome is Outcome.HOLDS


def two_way_approximation(left, right, budget):
    """Trace equivalence composed from two ``approximates`` calls."""
    forward = approximates(left, right, budget)
    backward = approximates(right, left, budget)
    for v in (forward, backward):
        if v.outcome is Outcome.FAILS:
            return v
    if forward.outcome is Outcome.HOLDS and backward.outcome is Outcome.HOLDS:
        return Verdict.holds()
    return Verdict.inconclusive("trace enumeration incomplete")


def equivalence_pairs():
    rng = random.Random(1701)
    for _ in range(25):
        first, second = compatible_contract_pair(rng)
        left, right = widen_alphabet(
            [compile_contract(first).net, compile_contract(second).net]
        )
        yield compile_contract(compose_contracts(first, second)).net, oplus(left, right)
        yield left, right
    for _ in range(25):
        x, y = random_net(rng, "x"), random_net(rng, "y")
        yield subnet(oplus(x, y), x.transitions), x
        yield x, y


@pytest.mark.parametrize("budget", (1, 3, 8, DEFAULT_BUDGET))
def test_trace_equivalence_matches_two_approximations(budget):
    outcomes = set()
    for left, right in equivalence_pairs():
        verdict = trace_equivalent(left, right, budget)
        assert verdict == two_way_approximation(left, right, budget)
        outcomes.add(verdict.outcome)
    if budget == DEFAULT_BUDGET:
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}
    else:
        assert Outcome.INCONCLUSIVE in outcomes


def test_trace_equivalence_enumerates_each_net_once(monkeypatch):
    calls = []
    original = lendingnets.compose.trace_set

    def counted(net, budget):
        calls.append(net)
        return original(net, budget)

    monkeypatch.setattr(lendingnets.compose, "trace_set", counted)
    for left, right in equivalence_pairs():
        calls.clear()
        trace_equivalent(left, right)
        assert calls == [left, right]
