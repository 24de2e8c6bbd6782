"""Compiling Horn theories into contract nets."""

import random

import pytest

from lendingnets import (
    Configuration,
    ContractError,
    HornClause,
    NetStructureError,
    Outcome,
    agreement_reachable,
    agreement_via_net,
    clause_tid,
    compile_compose_commutes,
    compile_contract,
    compose_contracts,
    configuration,
    configuration_from_marking,
    contract,
    delivery_pid,
    enabled_transitions,
    explore,
    extend_with_facts,
    fact,
    star_pid,
    trace_atom_sets,
    trace_equivalent,
    urgent,
    urgent_for_done_set,
    urgent_logic,
    urgent_via_net,
    validate,
    weakly_terminates_in,
    honored_done_sets,
)
from lendingnets.nets import _ID_FORBIDDEN

from fixtures import (
    credit_chain_contract,
    exchange_pair_contract,
    fixture_contracts,
    self_credit_contract,
    toy_swap_contracts,
)
from generators import random_contract


def clause(head, *body, credit=False):
    return HornClause(head=head, body=frozenset(body), contractual=credit)


class TestNaming:
    def test_transition_ids_spell_the_clause(self):
        assert clause_tid(fact("a")) == "->a"
        assert clause_tid(clause("a", "c", "b", credit=True)) == "b&c->>a"
        assert clause_tid(clause("b", "a")) == "a->b"

    def test_place_ids(self):
        assert star_pid("a") == "a@*"
        assert delivery_pid("x", clause("a", "b", credit=True)) == "x@b->>a"

    def test_atoms_that_would_share_a_transition_id_are_rejected(self):
        # ``b&c -> a`` and ``b & c -> a`` would both compile to ``b&c->a``.
        with pytest.raises(ContractError, match="bad body atom 'b&c'"):
            HornClause(head="a", body=frozenset({"b&c"}))
        assert clause_tid(clause("a", "b", "c")) == "b&c->a"

    @pytest.mark.parametrize(
        "atom", ["b@c", "b-c", "b>c", "->", "b c", "b\tc", "b=c", "b#c", 'b"c', "b\\c", "", 1, None]
    )
    def test_atoms_are_nonempty_strings_free_of_separators_and_reserved_characters(self, atom):
        with pytest.raises(ContractError, match="bad clause head"):
            HornClause(head=atom)
        with pytest.raises(ContractError, match="bad body atom"):
            HornClause(head="a", body=frozenset({"b", atom}))
        with pytest.raises(ContractError, match="bad owned atom"):
            contract(ownership={atom: "A"})

    def test_every_character_a_net_id_forbids_is_refused_in_atoms(self):
        forbidden = [chr(i) for i in range(0x110000) if _ID_FORBIDDEN.search(chr(i))]
        assert len(forbidden) > 5
        for ch in forbidden:
            with pytest.raises(ContractError):
                HornClause(head=f"a{ch}")

    def test_a_body_given_as_one_string_is_refused(self):
        with pytest.raises(ContractError, match="one string"):
            HornClause(head="a", body="bc")

    def test_random_contracts_compile_one_transition_per_clause(self):
        rng = random.Random(31)
        for _ in range(40):
            c = random_contract(rng)
            assert len(compile_contract(c).net.transitions) == len(c.clauses)


class TestSelfCredit:
    def test_compiled_structure(self):
        cn = compile_contract(self_credit_contract())
        assert cn.net.places == frozenset({"a@*", "a@a->>a"})
        assert cn.net.transition_labels == {"a->>a": "a"}
        assert cn.net.lending == frozenset({"a@a->>a"})
        assert cn.net.initial == {"a@*": 1}
        assert cn.net.alphabet == frozenset({"a"})
        assert cn.goals == self_credit_contract().goals

    def test_single_step_reaches_the_goal_honored(self):
        cn = compile_contract(self_credit_contract())
        graph = explore(cn.net)
        assert len(graph.nodes) == 2
        final = graph.nodes[1]
        assert final.honored
        assert configuration(cn, final) == Configuration(
            done=frozenset({"a"}), credits=frozenset()
        )
        assert weakly_terminates_in(cn).outcome is Outcome.HOLDS
        assert agreement_via_net(self_credit_contract()).outcome is Outcome.HOLDS


class TestCreditChain:
    def test_only_the_credit_clause_fires_first(self):
        cn = compile_contract(credit_chain_contract())
        marking = cn.net.initial_marking()
        assert enabled_transitions(cn.net, marking) == ["b->>a"]

    def test_debt_then_two_ways_out(self):
        cn = compile_contract(credit_chain_contract())
        graph = explore(cn.net)
        after_credit = next(
            i for i, n in enumerate(graph.nodes) if n.fired_set() == frozenset({"b->>a"})
        )
        node = graph.nodes[after_credit]
        assert not node.honored
        assert configuration(cn, node).credits == frozenset({"b"})
        steps = dict(graph.out_edges(after_credit))
        assert set(steps) == {"a->b", "a->c"}
        assert graph.nodes[steps["a->b"]].honored
        assert not graph.nodes[steps["a->c"]].honored

    def test_weak_termination_and_agreement(self):
        c = credit_chain_contract()
        assert weakly_terminates_in(compile_contract(c)).outcome is Outcome.HOLDS
        assert agreement_via_net(c).outcome is Outcome.HOLDS


class TestCompiledCorpus:
    def test_fixture_compilations_validate(self):
        for c in fixture_contracts():
            assert validate(compile_contract(c)) == []
            assert validate(compile_contract(c, prune=True)) == []

    def test_pruning_changes_nothing_observable(self):
        for c in fixture_contracts():
            full = compile_contract(c)
            slim = compile_contract(c, prune=True)
            assert slim.net.places <= full.net.places
            assert slim.net.transitions == full.net.transitions
            assert trace_equivalent(full.net, slim.net).outcome is Outcome.HOLDS
            assert (
                weakly_terminates_in(full).outcome is weakly_terminates_in(slim).outcome
            )
            assert urgent(full, ()) == urgent(slim, ())

    def test_pruning_drops_untouched_deliveries(self):
        first = toy_swap_contracts()[0]
        full = compile_contract(first)
        slim = compile_contract(first, prune=True)
        assert delivery_pid("c", clause("a", "b")) in full.net.places
        assert delivery_pid("c", clause("a", "b")) not in slim.net.places
        assert star_pid("a") in slim.net.places

    def test_done_sets_are_recoverable_from_markings(self):
        for c in fixture_contracts():
            cn = compile_contract(c)
            graph = explore(cn.net)
            for node in graph.nodes:
                assert configuration_from_marking(cn, node) == configuration(cn, node).done

    def test_honored_done_sets_match_the_logic_traces(self):
        for c in fixture_contracts():
            cn = compile_contract(c)
            assert honored_done_sets(cn) == trace_atom_sets(c.clauses)

    def test_compilation_is_deterministic(self):
        for c in fixture_contracts():
            assert compile_contract(c) == compile_contract(c)


class TestStarPlaces:
    def test_same_headed_clauses_exclude_each_other(self):
        c = contract(
            clauses={clause("c", "a"), clause("c", "b"), fact("a"), fact("b")},
            participants={"A", "B", "C"},
            ownership={"a": "A", "b": "B", "c": "C"},
            goals=[{"a", "b", "c"}],
        )
        cn = compile_contract(c)
        both = {"a->c", "b->c"}
        for node in explore(cn.net).nodes:
            assert not both <= node.fired_set()
        assert weakly_terminates_in(cn).outcome is Outcome.HOLDS


def test_empty_contract_compiles_to_the_empty_net():
    cn = compile_contract(contract())
    assert cn.net.places == frozenset()
    assert cn.net.transitions == frozenset()
    assert weakly_terminates_in(cn).outcome is Outcome.HOLDS
    assert agreement_reachable(cn).outcome is Outcome.HOLDS


class TestExtendWithFacts:
    def test_adds_facts_and_binds_their_owners(self):
        c = exchange_pair_contract()
        wider = extend_with_facts(c, {"b"})
        assert fact("b") in wider.clauses
        assert wider.participants == frozenset({"A", "B"})
        assert wider.goals == c.goals

    def test_unowned_atoms_are_rejected(self):
        with pytest.raises(ContractError, match="unowned"):
            extend_with_facts(exchange_pair_contract(), {"z"})


@pytest.mark.parametrize("entry, error", [
    (extend_with_facts, ContractError),
    (urgent_logic, ContractError),
    (urgent_via_net, ContractError),
    (lambda c, done: urgent(compile_contract(c), done), NetStructureError),
    (lambda c, done: urgent_for_done_set(compile_contract(c).net, done), NetStructureError),
], ids=["extend_with_facts", "urgent_logic", "urgent_via_net", "urgent", "urgent_for_done_set"])
def test_one_string_is_not_a_set_of_atoms(entry, error):
    """``"ab"`` would read as the atoms ``a`` and ``b``, both owned here: it raises, as a clause body does."""
    c = exchange_pair_contract()
    with pytest.raises(error, match="'ab' is one string, not a collection of atoms"):
        entry(c, "ab")
    entry(c, ["a", "b"])


class TestUrgencyViaNet:
    def test_exchange_pair_matches_the_logic(self):
        c = exchange_pair_contract()
        for done in ((), ("a",), ("b",), ("a", "b")):
            assert urgent_via_net(c, done) == urgent_logic(c, done)

    def test_granted_atoms_must_be_recompiled_as_facts(self):
        # After granting a on credit, b becomes urgent only because a now acts
        # as a fact; the original net alone sees no honored future past a.
        c = contract(
            clauses={clause("a", "y", credit=True), clause("b", "a")},
            participants={"A", "B"},
            ownership={"a": "A", "b": "B", "y": "Y"},
        )
        assert urgent_logic(c, {"a"}) == frozenset({"b"})
        assert urgent_via_net(c, {"a"}) == frozenset({"b"})
        assert urgent(compile_contract(c), {"a"}) == frozenset()


class TestComposition:
    def test_composing_toy_contracts_commutes_with_compilation(self):
        first, second, third = toy_swap_contracts()
        assert compile_compose_commutes(first, second).outcome is Outcome.HOLDS
        both = compose_contracts(first, second)
        assert compile_compose_commutes(both, third).outcome is Outcome.HOLDS

    def test_compiled_ids_of_composable_contracts_are_disjoint(self):
        first, second, _ = toy_swap_contracts()
        left = compile_contract(first).net
        right = compile_contract(second).net
        assert not left.transitions & right.transitions
        assert not left.places & right.places
