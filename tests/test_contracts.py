"""Contract nets: validation, configurations, composition, goal analyses."""

import pytest

from lendingnets import (
    HONORED_GOAL,
    Configuration,
    ContractError,
    ContractNet,
    IncompleteExplorationError,
    LendingNet,
    Outcome,
    ToolkitError,
    agreement_reachable,
    compile_contract,
    compose_contract_nets,
    configuration,
    configuration_from_marking,
    explore,
    honored_done_sets,
    reachable_configurations,
    urgent,
    urgent_for_done_set,
    validate,
    weakly_terminates,
    weakly_terminates_covering,
    weakly_terminates_in,
)

from fixtures import (
    handshake_lending_a,
    handshake_strict_a,
    handshake_strict_b,
)
from generators import pairs_contract

OWNERS = {"a": "A", "b": "B"}


def lending_contract_a() -> ContractNet:
    return ContractNet(
        net=handshake_lending_a(),
        participants=frozenset({"A"}),
        ownership=OWNERS,
        goals=frozenset({frozenset({"a"})}),
    )


def strict_contract_a() -> ContractNet:
    return ContractNet(
        net=handshake_strict_a(),
        participants=frozenset({"A"}),
        ownership=OWNERS,
        goals=frozenset({frozenset({"a"})}),
    )


def strict_contract_b() -> ContractNet:
    return ContractNet(
        net=handshake_strict_b(),
        participants=frozenset({"B"}),
        ownership=OWNERS,
        goals=frozenset({frozenset({"b"})}),
    )


def single_grant() -> ContractNet:
    """One marked guard place shared by two differently wired a-transitions."""
    net = LendingNet.build(
        places=("s", "d1", "d2"),
        transitions=("t1", "t2"),
        flow=(("s", "t1"), ("s", "t2"), ("t1", "d1"), ("t2", "d2")),
        place_labels={"d1": "a", "d2": "a"},
        transition_labels={"t1": "a", "t2": "a"},
        initial={"s": 1},
    )
    return ContractNet(
        net=net,
        participants=frozenset({"A"}),
        ownership={"a": "A"},
        goals=frozenset({frozenset({"a"})}),
    )


def codes(cn: ContractNet) -> list[str]:
    return [v.code for v in validate(cn)]


class TestValidate:
    def test_fixture_contract_nets_are_valid(self):
        for cn in (lending_contract_a(), strict_contract_a(), strict_contract_b()):
            assert validate(cn) == []
        assert validate(single_grant()) == []
        live = compose_contract_nets(lending_contract_a(), strict_contract_b())
        assert validate(live) == []

    def contract_over(self, net, ownership=None, participants=("A",)):
        if ownership is None:
            ownership = {"a": "A"}
        return ContractNet(
            net=net,
            participants=frozenset(participants),
            ownership=dict(ownership),
            goals=frozenset({frozenset()}),
        )

    def test_marked_place_with_producer(self):
        net = LendingNet.build(
            places=("m", "q"),
            transitions=("t",),
            flow=(("q", "t"), ("t", "m")),
            initial={"m": 1},
        )
        violations = validate(self.contract_over(net))
        assert [(v.code, v.subject) for v in violations] == [("a", "m")]

    def test_marked_place_with_label(self):
        net = LendingNet.build(
            places=("m",),
            transitions=("t",),
            flow=(("m", "t"),),
            place_labels={"m": "a"},
            initial={"m": 1},
        )
        assert codes(self.contract_over(net)) == ["a"]

    def test_unlabeled_lending_place(self):
        net = LendingNet.build(
            places=("p", "g"),
            transitions=("t",),
            flow=(("g", "t"), ("p", "t")),
            initial={"g": 1},
            lending=("p",),
        )
        assert codes(self.contract_over(net)) == ["a"]

    def test_output_place_must_carry_the_transition_label(self):
        net = LendingNet.build(
            places=("g", "d"),
            transitions=("t",),
            flow=(("g", "t"), ("t", "d")),
            place_labels={"d": "b"},
            transition_labels={"t": "a"},
            initial={"g": 1},
        )
        cn = self.contract_over(net, ownership=OWNERS, participants=("A", "B"))
        assert codes(cn) == ["b", "labeling"]

    def test_some_input_must_not_lend(self):
        net = LendingNet.build(
            places=("p",),
            transitions=("t",),
            flow=(("p", "t"),),
            place_labels={"p": "b"},
            lending=("p",),
        )
        cn = self.contract_over(net, ownership=OWNERS, participants=("A", "B"))
        got = codes(cn)
        assert "b" in got and "occurrence" in got

    def test_equally_labeled_transitions_need_a_shared_marked_guard(self):
        net = LendingNet.build(
            places=("g1", "g2"),
            transitions=("t1", "t2"),
            flow=(("g1", "t1"), ("g2", "t2")),
            transition_labels={"t1": "a", "t2": "a"},
            initial={"g1": 1, "g2": 1},
        )
        violations = validate(self.contract_over(net))
        assert [(v.code, v.subject) for v in violations] == [("c", "t1")]

    def test_a_single_grant_also_needs_a_marked_guard(self):
        net = LendingNet.build(
            places=("p",),
            transitions=("t",),
            flow=(("p", "t"),),
            transition_labels={"t": "a"},
        )
        assert codes(self.contract_over(net)) == ["c"]

    def test_label_owner_must_be_bound(self):
        net = LendingNet.build(
            places=("g",),
            transitions=("t",),
            flow=(("g", "t"),),
            transition_labels={"t": "a"},
            initial={"g": 1},
        )
        assert codes(self.contract_over(net, ownership={"a": "Z"})) == ["d"]
        assert codes(self.contract_over(net, ownership={})) == ["ownership"]

    def test_refirable_transition_breaks_occurrence(self):
        net = LendingNet.build(
            places=("p", "q"),
            transitions=("t1", "t2"),
            flow=(("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")),
            initial={"p": 1},
        )
        assert "occurrence" in codes(self.contract_over(net))


class TestConfiguration:
    def test_nodes_read_back_as_done_and_credits(self):
        cn = lending_contract_a()
        graph = explore(cn.net)
        got = {configuration(cn, node) for node in graph.nodes}
        assert got == {
            Configuration(done=frozenset(), credits=frozenset()),
            Configuration(done=frozenset({"a"}), credits=frozenset({"b"})),
        }

    def test_credits_are_empty_exactly_on_honored_nodes(self):
        live = compose_contract_nets(lending_contract_a(), strict_contract_b())
        for node in explore(live.net).nodes:
            assert (not configuration(live, node).credits) == node.honored

    def test_done_set_is_recoverable_from_the_marking(self):
        for cn in (
            lending_contract_a(),
            strict_contract_b(),
            single_grant(),
            compose_contract_nets(lending_contract_a(), strict_contract_b()),
        ):
            for node in explore(cn.net).nodes:
                assert configuration_from_marking(cn, node) == configuration(cn, node).done

    def test_equally_labeled_transitions_exclude_each_other(self):
        graph = explore(single_grant().net)
        for node in graph.nodes:
            assert sum(node.fired_multiset().values()) <= 1
        assert {frozenset(cfg.done) for cfg in reachable_configurations(single_grant())} == {
            frozenset(),
            frozenset({"a"}),
        }


class TestComposeContractNets:
    def test_merges_participants_ownership_goals(self):
        live = compose_contract_nets(lending_contract_a(), strict_contract_b())
        assert live.participants == frozenset({"A", "B"})
        assert live.ownership == OWNERS
        assert live.goals == frozenset({frozenset({"a", "b"})})
        assert live.net.alphabet == frozenset({"a", "b"})

    def test_alphabets_are_widened_before_composing(self):
        def one_sided(prefix, atom, owner):
            net = LendingNet.build(
                places=(f"{prefix}.g", f"{prefix}.d"),
                transitions=(f"{prefix}.t",),
                flow=((f"{prefix}.g", f"{prefix}.t"), (f"{prefix}.t", f"{prefix}.d")),
                place_labels={f"{prefix}.d": atom},
                transition_labels={f"{prefix}.t": atom},
                initial={f"{prefix}.g": 1},
            )
            return ContractNet(
                net=net,
                participants=frozenset({owner}),
                ownership={atom: owner},
                goals=frozenset({frozenset({atom})}),
            )

        left = one_sided("x", "a", "A")
        right = one_sided("y", "b", "B")
        assert left.net.alphabet == frozenset({"a"})
        combined = compose_contract_nets(left, right)
        assert combined.net.alphabet == frozenset({"a", "b"})
        assert validate(combined) == []

    def test_rebinding_a_participant_is_rejected(self):
        with pytest.raises(ContractError, match="bound twice"):
            compose_contract_nets(lending_contract_a(), lending_contract_a())

    def test_conflicting_ownership_is_rejected(self):
        other = ContractNet(
            net=handshake_strict_b(),
            participants=frozenset({"B"}),
            ownership={"a": "B", "b": "B"},
            goals=frozenset({frozenset({"b"})}),
        )
        with pytest.raises(ContractError, match="owned by"):
            compose_contract_nets(lending_contract_a(), other)


class TestGoalAnalyses:
    def live(self):
        return compose_contract_nets(lending_contract_a(), strict_contract_b())

    def dead(self):
        return compose_contract_nets(strict_contract_a(), strict_contract_b())

    def test_live_pair_weakly_terminates(self):
        assert weakly_terminates_in(self.live()).outcome is Outcome.HOLDS

    def test_dead_pair_fails_at_the_root(self):
        verdict = weakly_terminates_in(self.dead())
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness.fired == ()
        assert "done=[]" in verdict.detail

    def test_budget_exhaustion_is_inconclusive(self):
        assert weakly_terminates_in(self.live(), budget=1).outcome is Outcome.INCONCLUSIVE
        assert agreement_reachable(self.live(), budget=1).outcome is Outcome.INCONCLUSIVE

    def test_covering_accepts_overshoot_that_exact_rejects(self):
        live = self.live()
        relaxed = ContractNet(
            net=live.net,
            participants=live.participants,
            ownership=live.ownership,
            goals=frozenset({frozenset({"a"})}),
        )
        assert weakly_terminates_in(relaxed).outcome is Outcome.FAILS
        assert weakly_terminates_covering(relaxed).outcome is Outcome.HOLDS
        assert agreement_reachable(relaxed).outcome is Outcome.HOLDS

    def test_exact_termination_implies_covering_implies_agreement(self):
        for cn in (self.live(), self.dead(), single_grant()):
            exact = weakly_terminates_in(cn).outcome is Outcome.HOLDS
            covering = weakly_terminates_covering(cn).outcome is Outcome.HOLDS
            agreed = agreement_reachable(cn).outcome is Outcome.HOLDS
            assert not exact or covering
            assert not covering or agreed

    def test_agreement_verdicts(self):
        holds = agreement_reachable(self.live())
        assert holds.outcome is Outcome.HOLDS
        assert "marking" in holds.detail
        assert agreement_reachable(self.dead()).outcome is Outcome.FAILS

    def test_urgency_schedule(self):
        live = self.live()
        graph = explore(live.net)
        assert urgent(live, (), graph=graph) == frozenset({"a"})
        assert urgent(live, {"a"}, graph=graph) == frozenset({"b"})
        assert urgent(live, {"a", "b"}, graph=graph) == frozenset()

    def test_unrealized_done_set_has_no_urgent_atoms(self):
        assert urgent(self.live(), {"b"}) == frozenset()

    def test_urgency_requires_a_complete_graph(self):
        with pytest.raises(IncompleteExplorationError):
            urgent(self.live(), (), budget=1)

    def test_reachable_configurations_and_honored_done_sets(self):
        live = self.live()
        assert reachable_configurations(live) == frozenset(
            {
                Configuration(done=frozenset(), credits=frozenset()),
                Configuration(done=frozenset({"a"}), credits=frozenset({"b"})),
                Configuration(done=frozenset({"a", "b"}), credits=frozenset()),
            }
        )
        assert honored_done_sets(live) == frozenset(
            {frozenset(), frozenset({"a", "b"})}
        )


def test_contract_net_equality_is_componentwise():
    assert lending_contract_a() == lending_contract_a()
    assert lending_contract_a() != strict_contract_a()
    relabeled = ContractNet(
        net=handshake_lending_a(),
        participants=frozenset({"A"}),
        ownership=OWNERS,
        goals=frozenset({frozenset({"a", "b"})}),
    )
    assert relabeled != lending_contract_a()


def test_net_composition_merges_ownership_like_contract_composition():
    from lendingnets import compile_contract, compose_contracts, contract, fact

    left = contract(clauses=[fact("a")], participants={"X"}, ownership={"a": "X", "d": "X"})
    right = contract(clauses=[fact("b")], participants={"Y"}, ownership={"b": "Y", "a": "X"})
    with pytest.raises(ContractError, match="owns"):
        compose_contracts(left, right)
    with pytest.raises(ContractError, match="owns"):
        compose_contract_nets(compile_contract(left), compile_contract(right))


def test_contract_terms_commute_with_compilation():
    import random

    from generators import compatible_contract_pair
    from lendingnets import compile_contract, compose_contracts

    rng = random.Random(13)
    for _ in range(300):
        first, second = compatible_contract_pair(rng)
        joint = compile_contract(compose_contracts(first, second))
        nets = compose_contract_nets(compile_contract(first), compile_contract(second))
        assert nets.participants == joint.participants
        assert nets.ownership == joint.ownership
        assert nets.goals == joint.goals
        assert nets.net.alphabet == joint.net.alphabet


@pytest.mark.parametrize(
    "right_participants, right_ownership, text",
    [
        ({"X"}, {"b": "X"}, "participants bound twice: ['X']"),
        ({"Y"}, {"b": "Y", "a": "Y"}, "atom 'a' owned by 'X' on one side and 'Y' on the other"),
        ({"Y"}, {"b": "Y", "a": "X"}, "participant 'X' owns ['a', 'd'] on one side and ['a'] on the other"),
    ],
)
def test_both_compositions_reject_clashing_terms_with_one_message(right_participants, right_ownership, text):
    from lendingnets import compile_contract, compose_contracts, contract, fact

    left = contract(clauses=[fact("a")], participants={"X"}, ownership={"a": "X", "d": "X"})
    right = contract(clauses=[fact("b")], participants=right_participants, ownership=right_ownership)
    with pytest.raises(ContractError) as logic_side:
        compose_contracts(left, right)
    with pytest.raises(ContractError) as net_side:
        compose_contract_nets(compile_contract(left), compile_contract(right))
    assert str(logic_side.value) == str(net_side.value) == text


@pytest.mark.parametrize("with_graph", [False, True])
@pytest.mark.parametrize("budget", [0, -1, 1.5, True, "x"])
def test_a_bad_budget_is_rejected_with_a_graph_too(budget, with_graph):
    cn = compile_contract(pairs_contract(2))
    graph = explore(cn.net) if with_graph else None
    for check in (
        lambda: agreement_reachable(cn, budget, graph),
        lambda: weakly_terminates_in(cn, budget, graph),
        lambda: weakly_terminates_covering(cn, budget, graph),
        lambda: urgent(cn, set(), budget, graph),
        lambda: urgent_for_done_set(cn.net, set(), budget, graph),
        lambda: honored_done_sets(cn, budget, graph),
        lambda: reachable_configurations(cn, budget, graph),
        lambda: weakly_terminates(cn.net, HONORED_GOAL, budget, graph),
    ):
        with pytest.raises(ToolkitError, match="budget must be at least 1"):
            check()
