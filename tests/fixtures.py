"""Small nets and contracts exercised throughout the test suite.

The handshake nets model two parties swapping one item each: the strict
variants only hand over after receiving, the lending variant hands over on
credit.  The circular net chains three debts that only one firing order can
settle.  The contracts mirror the same exchanges in the logic.
"""

from __future__ import annotations

from lendingnets.analysis import MarkingPredicate
from lendingnets.logic import HornClause, PCLContract, compose_contracts
from lendingnets.nets import LendingNet


def circular_lending_net() -> LendingNet:
    """Three parties in a cycle of debts; only the order c, b, a settles them."""
    return LendingNet(
        places=("p0", "p1", "p2", "p3", "p4"),
        transitions=("a", "b", "c"),
        flow=(
            ("p0", "c"),
            ("p2", "c"),
            ("p4", "c"),
            ("c", "p1"),
            ("p1", "b"),
            ("b", "p3"),
            ("b", "p4"),
            ("p3", "a"),
            ("a", "p2"),
        ),
        place_labels={"p1": "c", "p2": "a", "p3": "b", "p4": "b"},
        transition_labels={"a": "a", "b": "b", "c": "c"},
        initial={"p0": 1},
        lending=("p2", "p4"),
    )


def prepaid_choice_net() -> LendingNet:
    """A net with a prepaid item on a labeled place and a choice between two favors."""
    return LendingNet(
        places=("p0", "p1", "p2", "p3", "p4"),
        transitions=("a", "b", "c"),
        flow=(
            ("p0", "b"),
            ("p0", "c"),
            ("p1", "a"),
            ("p2", "a"),
            ("p4", "b"),
            ("b", "p1"),
            ("c", "p3"),
            ("a", "p4"),
        ),
        place_labels={"p1": "b", "p3": "c", "p4": "a"},
        transition_labels={"a": "a", "b": "b", "c": "c"},
        initial={"p0": 1, "p2": 1, "p4": 1},
        lending=("p1",),
    )


_HANDSHAKE_ALPHABET = frozenset({"a", "b"})


def handshake_strict_a() -> LendingNet:
    """Gives a only after receiving b."""
    return LendingNet(
        places=("sa.p1", "sa.p2", "sa.p3"),
        transitions=("sa.ta",),
        flow=(("sa.p1", "sa.ta"), ("sa.p3", "sa.ta"), ("sa.ta", "sa.p2")),
        place_labels={"sa.p1": "b", "sa.p2": "a"},
        transition_labels={"sa.ta": "a"},
        initial={"sa.p3": 1},
        alphabet=_HANDSHAKE_ALPHABET,
    )


def handshake_strict_b() -> LendingNet:
    """Gives b only after receiving a."""
    return LendingNet(
        places=("sb.p1", "sb.p2", "sb.p3"),
        transitions=("sb.tb",),
        flow=(("sb.p1", "sb.tb"), ("sb.p3", "sb.tb"), ("sb.tb", "sb.p2")),
        place_labels={"sb.p1": "a", "sb.p2": "b"},
        transition_labels={"sb.tb": "b"},
        initial={"sb.p3": 1},
        alphabet=_HANDSHAKE_ALPHABET,
    )


def handshake_lending_a() -> LendingNet:
    """Gives a on credit, accepting the matching b later."""
    return LendingNet(
        places=("la.p1", "la.p2", "la.p3"),
        transitions=("la.ta",),
        flow=(("la.p1", "la.ta"), ("la.p3", "la.ta"), ("la.ta", "la.p2")),
        place_labels={"la.p1": "b", "la.p2": "a"},
        transition_labels={"la.ta": "a"},
        initial={"la.p3": 1},
        lending=("la.p1",),
        alphabet=_HANDSHAKE_ALPHABET,
    )


def handshake_goal_strict_a() -> MarkingPredicate:
    return MarkingPredicate(zero=frozenset({"sa.p3"}))


def handshake_goal_strict_b() -> MarkingPredicate:
    return MarkingPredicate(zero=frozenset({"sb.p3"}))


def handshake_goal_lending_a() -> MarkingPredicate:
    return MarkingPredicate(zero=frozenset({"la.p3"}), nonneg=frozenset({"la.p1"}))


_FULL_OWNERS = {"a": "A", "b": "B", "c": "C"}


def exchange_pair_contract() -> PCLContract:
    """B gives b for a; A gives a on credit against b."""
    return PCLContract(
        clauses=frozenset(
            {
                HornClause(head="b", body=frozenset({"a"})),
                HornClause(head="a", body=frozenset({"b"}), contractual=True),
            }
        ),
        participants=frozenset({"A", "B"}),
        ownership={"a": "A", "b": "B"},
        goals=frozenset({frozenset({"a", "b"})}),
    )


def credit_chain_contract() -> PCLContract:
    """A gives a on credit against b; a in hand buys both b and c."""
    return PCLContract(
        clauses=frozenset(
            {
                HornClause(head="a", body=frozenset({"b"}), contractual=True),
                HornClause(head="c", body=frozenset({"a"})),
                HornClause(head="b", body=frozenset({"a"})),
            }
        ),
        participants=frozenset({"A", "B", "C"}),
        ownership=dict(_FULL_OWNERS),
        goals=frozenset({frozenset({"a", "b", "c"})}),
    )


def self_credit_contract() -> PCLContract:
    """A grants a against the promise of a itself."""
    return PCLContract(
        clauses=frozenset({HornClause(head="a", body=frozenset({"a"}), contractual=True)}),
        participants=frozenset({"A"}),
        ownership={"a": "A"},
        goals=frozenset({frozenset({"a"})}),
    )


def toy_swap_contracts() -> tuple[PCLContract, PCLContract, PCLContract]:
    """Three kids swapping toys: two strict promises and one promise on credit."""
    first = PCLContract(
        clauses=frozenset({HornClause(head="a", body=frozenset({"b"}))}),
        participants=frozenset({"A"}),
        ownership=dict(_FULL_OWNERS),
        goals=frozenset({frozenset({"b"})}),
    )
    second = PCLContract(
        clauses=frozenset({HornClause(head="b", body=frozenset({"c"}))}),
        participants=frozenset({"B"}),
        ownership=dict(_FULL_OWNERS),
        goals=frozenset({frozenset({"c"})}),
    )
    third = PCLContract(
        clauses=frozenset({HornClause(head="c", body=frozenset({"a", "b"}), contractual=True)}),
        participants=frozenset({"C"}),
        ownership=dict(_FULL_OWNERS),
        goals=frozenset({frozenset({"a", "b"})}),
    )
    return first, second, third


def toy_swap_composite() -> PCLContract:
    first, second, third = toy_swap_contracts()
    return compose_contracts(compose_contracts(first, second), third)


def fixture_nets() -> list[LendingNet]:
    return [
        circular_lending_net(),
        prepaid_choice_net(),
        handshake_strict_a(),
        handshake_strict_b(),
        handshake_lending_a(),
    ]


def fixture_contracts() -> list[PCLContract]:
    first, second, third = toy_swap_contracts()
    return [
        first,
        second,
        third,
        toy_swap_composite(),
        exchange_pair_contract(),
        credit_chain_contract(),
        self_credit_contract(),
    ]
