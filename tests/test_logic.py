"""Horn theories: provability, composition, proof traces, urgency."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendingnets import (
    ContractError,
    HornClause,
    admits_agreement,
    compose_contracts,
    concat,
    contract,
    dedupe,
    fact,
    interleave,
    proof_traces,
    provable_atoms,
    trace_atom_sets,
    urgent_atoms,
    urgent_logic,
    with_facts,
)

from fixtures import (
    credit_chain_contract,
    exchange_pair_contract,
    self_credit_contract,
    toy_swap_composite,
    toy_swap_contracts,
)


def clause(head, *body, credit=False):
    return HornClause(head=head, body=frozenset(body), contractual=credit)


class TestClauses:
    def test_fact_shape(self):
        f = fact("a")
        assert f.is_fact
        assert f.atoms() == frozenset({"a"})

    def test_body_is_normalized(self):
        c = HornClause(head="a", body=("b", "c", "b"))
        assert c.body == frozenset({"b", "c"})

    def test_contractual_needs_a_body(self):
        with pytest.raises(ContractError):
            HornClause(head="a", contractual=True)

    def test_head_must_be_a_nonempty_string(self):
        with pytest.raises(ContractError):
            HornClause(head="")

    def test_one_string_is_not_a_set_of_facts_or_done_atoms(self):
        theory = [HornClause(head="a"), HornClause(head="b", body={"a"})]
        for call in (lambda: with_facts(theory, "ab"), lambda: urgent_atoms(theory, "ab")):
            with pytest.raises(ContractError, match="'ab' is one string, not a collection of atoms"):
                call()
        assert urgent_atoms(theory, ["a"]) == frozenset({"b"})


class TestProvability:
    def test_empty_theory(self):
        assert provable_atoms(()) == frozenset()

    def test_facts_and_chains(self):
        assert provable_atoms({fact("a")}) == frozenset({"a"})
        theory = {fact("a"), clause("b", "a"), clause("c", "b")}
        assert provable_atoms(theory) == frozenset({"a", "b", "c"})

    def test_intuitionistic_cycle_proves_nothing(self):
        assert provable_atoms({clause("b", "a"), clause("a", "b")}) == frozenset()

    def test_contractual_cycle_proves_everything(self):
        assert provable_atoms(exchange_pair_contract().clauses) == frozenset({"a", "b"})

    def test_credit_chain(self):
        assert provable_atoms(credit_chain_contract().clauses) == frozenset({"a", "b", "c"})

    def test_self_credit(self):
        assert provable_atoms(self_credit_contract().clauses) == frozenset({"a"})

    def test_unjustifiable_credit_stays_unproven(self):
        assert provable_atoms({clause("a", "b", credit=True)}) == frozenset()


class TestAgreement:
    def test_fixture_contracts_admit_agreement(self):
        for c in (
            exchange_pair_contract(),
            credit_chain_contract(),
            self_credit_contract(),
            toy_swap_composite(),
        ):
            assert admits_agreement(c)

    def test_unreachable_goal(self):
        c = contract(
            clauses={fact("a")},
            participants={"A"},
            ownership={"a": "A", "b": "B"},
            goals=[{"b"}],
        )
        assert not admits_agreement(c)

    def test_empty_goal_is_trivially_met(self):
        c = contract(
            clauses={clause("a", "b", credit=True)},
            participants={"A"},
            ownership={"a": "A", "b": "B"},
        )
        assert admits_agreement(c)


class TestContractValidation:
    def test_unowned_atoms_are_rejected(self):
        with pytest.raises(ContractError, match="without an owner"):
            contract(clauses={clause("a", "b")}, participants={"A"}, ownership={"a": "A"})

    def test_heads_must_be_owned_by_bound_participants(self):
        with pytest.raises(ContractError, match="not a bound participant"):
            contract(clauses={fact("a")}, participants={"B"}, ownership={"a": "A"})

    def test_equality_ignores_construction_order(self):
        first = contract(
            clauses=[clause("a", "b"), fact("b")],
            participants=["A", "B"],
            ownership={"a": "A", "b": "B"},
            goals=[("a", "b"), ()],
        )
        second = contract(
            clauses=[fact("b"), clause("a", "b")],
            participants=["B", "A"],
            ownership={"b": "B", "a": "A"},
            goals=[(), ("b", "a")],
        )
        assert first == second
        assert hash(first) == hash(second)


class TestCompose:
    def test_toy_swap_composite(self):
        first, second, third = toy_swap_contracts()
        composite = compose_contracts(compose_contracts(first, second), third)
        assert composite.clauses == first.clauses | second.clauses | third.clauses
        assert composite.participants == frozenset({"A", "B", "C"})
        assert composite.goals == frozenset({frozenset({"a", "b", "c"})})

    def test_goals_pair_up(self):
        left = contract(
            clauses={fact("a")},
            participants={"A"},
            ownership={"a": "A", "b": "B"},
            goals=[{"a"}, set()],
        )
        right = contract(
            clauses={fact("b")},
            participants={"B"},
            ownership={"a": "A", "b": "B"},
            goals=[{"b"}],
        )
        combined = compose_contracts(left, right)
        assert combined.goals == frozenset(
            {frozenset({"a", "b"}), frozenset({"b"})}
        )

    def test_rebinding_a_participant_is_rejected(self):
        with pytest.raises(ContractError, match="bound twice"):
            compose_contracts(exchange_pair_contract(), toy_swap_contracts()[0])

    def test_conflicting_atom_owner_is_rejected(self):
        left = contract(clauses={fact("a")}, participants={"A"}, ownership={"a": "A"})
        right = contract(
            clauses={fact("b")}, participants={"B"}, ownership={"b": "B", "a": "B"}
        )
        with pytest.raises(ContractError, match="owned by"):
            compose_contracts(left, right)

    def test_disagreeing_holdings_for_a_known_participant_are_rejected(self):
        left = contract(
            clauses={fact("a")}, participants={"X"}, ownership={"a": "X", "d": "X"}
        )
        right = contract(
            clauses={fact("b")}, participants={"Y"}, ownership={"b": "Y", "a": "X"}
        )
        with pytest.raises(ContractError, match="owns"):
            compose_contracts(left, right)


class TestWordOperations:
    def test_dedupe_keeps_first_occurrences(self):
        assert dedupe(("a", "b", "a", "c", "b")) == ("a", "b", "c")
        assert dedupe(()) == ()

    def test_concat_dedupes_from_the_right(self):
        assert concat(("a", "b"), ("b", "c")) == ("a", "b", "c")
        assert concat((), ("a",)) == ("a",)

    def test_interleave_exact_set(self):
        got = interleave(("a", "b", "a"), ("c", "a"))
        assert got == frozenset({("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")})

    def test_interleave_with_empty_word(self):
        assert interleave((), ("a", "b")) == frozenset({("a", "b")})


class TestProofTraces:
    def test_empty_theory_has_only_the_empty_word(self):
        assert proof_traces(()) == frozenset({()})

    def test_unjustifiable_credit_contributes_nothing(self):
        assert proof_traces({clause("a", "b", credit=True)}) == frozenset({()})

    def test_self_credit_traces(self):
        assert proof_traces(self_credit_contract().clauses) == frozenset({(), ("a",)})

    def test_exchange_pair_skips_the_intermediate_word(self):
        # The credit-granted atom must be justified inside the same word, so
        # ("a",) alone is not a trace even though ("a", "b") is.
        got = proof_traces(exchange_pair_contract().clauses)
        assert got == frozenset({(), ("a", "b")})

    def test_credit_chain_traces(self):
        got = proof_traces(credit_chain_contract().clauses)
        assert got == frozenset({(), ("a", "b"), ("a", "b", "c"), ("a", "c", "b")})

    def test_facts_interleave_freely(self):
        got = proof_traces({fact("a"), fact("b")})
        assert got == frozenset({(), ("a",), ("b",), ("a", "b"), ("b", "a")})

    def test_trace_atom_sets(self):
        got = trace_atom_sets(credit_chain_contract().clauses)
        assert got == frozenset(
            {frozenset(), frozenset({"a", "b"}), frozenset({"a", "b", "c"})}
        )

    def test_with_facts_extends_the_theory(self):
        theory = with_facts({clause("b", "a")}, {"a"})
        assert fact("a") in theory
        assert provable_atoms(theory) == frozenset({"a", "b"})


class TestUrgency:
    def test_exchange_pair_schedule(self):
        c = exchange_pair_contract()
        assert urgent_logic(c, ()) == frozenset({"a"})
        assert urgent_logic(c, {"a"}) == frozenset({"b"})
        assert urgent_logic(c, {"b"}) == frozenset({"a"})
        assert urgent_logic(c, {"a", "b"}) == frozenset()

    def test_credit_chain_schedule(self):
        c = credit_chain_contract()
        assert urgent_logic(c, ()) == frozenset({"a"})
        assert urgent_logic(c, {"a"}) == frozenset({"b", "c"})
        assert urgent_logic(c, {"a", "b"}) == frozenset({"c"})
        assert urgent_logic(c, {"a", "b", "c"}) == frozenset()

    def test_urgency_of_a_dead_theory_is_empty(self):
        assert urgent_atoms({clause("a", "b", credit=True)}, ()) == frozenset()

    def test_unowned_done_atoms_are_refused(self):
        c = exchange_pair_contract()
        with pytest.raises(ContractError, match=r"cannot assume unowned atoms: \['z'\]"):
            urgent_logic(c, {"a", "z"})
        assert urgent_atoms(c.clauses, {"a", "z"}) == frozenset({"b"})


ATOMS = ("a", "b", "c", "d")


@st.composite
def theories(draw):
    clauses = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        head = draw(st.sampled_from(ATOMS))
        body = frozenset(draw(st.sets(st.sampled_from(ATOMS), max_size=3)))
        credit = bool(body) and draw(st.booleans())
        clauses.append(HornClause(head=head, body=body, contractual=credit))
    return frozenset(clauses)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(theories())
def test_provable_atoms_equal_the_union_of_trace_atoms(theory):
    union = frozenset().union(*trace_atom_sets(theory))
    assert provable_atoms(theory) == union


@settings(max_examples=120, deadline=None, derandomize=True)
@given(theories(), theories())
def test_provability_is_monotone_in_the_theory(small, extra):
    assert provable_atoms(small) <= provable_atoms(small | extra)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(theories())
def test_downgrading_credit_clauses_never_adds_conclusions(theory):
    strict = frozenset(
        HornClause(head=c.head, body=c.body, contractual=False) for c in theory
    )
    assert provable_atoms(strict) <= provable_atoms(theory)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(theories())
def test_proved_atoms_can_be_cut_in_as_facts(theory):
    proved = provable_atoms(theory)
    assert provable_atoms(with_facts(theory, proved)) == proved


@settings(max_examples=100, deadline=None, derandomize=True)
@given(theories())
def test_traces_are_duplicate_free_words_over_provable_atoms(theory):
    proved = provable_atoms(theory)
    words = proof_traces(theory)
    assert () in words
    for word in words:
        assert len(set(word)) == len(word)
        assert set(word) <= proved


@settings(max_examples=100, deadline=None, derandomize=True)
@given(theories())
def test_urgent_atoms_are_new_and_provable_under_the_done_set(theory):
    rng = random.Random(11)
    atoms = sorted(frozenset().union(*(c.atoms() for c in theory)))
    for _ in range(4):
        done = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        urgent = urgent_atoms(theory, done)
        assert urgent <= provable_atoms(with_facts(theory, done)) - done
