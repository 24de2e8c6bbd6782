"""Contract checks that read each graph node once, against the per-node oracle.

``contract_oracle`` keeps the earlier checks, which rebuilt ``configuration``
for every node.  The checks now read only the credit-free nodes of a graph,
those where no labeled place owes, and build only their done sets.  The two
must give equal verdicts (outcome, witness and detail) and equal result
sets, at every budget, with and without a shared graph; without one, a
verdict the oracle leaves INCONCLUSIVE may be decided.
"""

import random
from dataclasses import replace

import pytest

import contract_oracle as oracle
import lendingnets.analysis
import lendingnets.contracts
from lendingnets import (
    HONORED_GOAL,
    ContractNet,
    IncompleteExplorationError,
    LendingNet,
    MarkingPredicate,
    NetStructureError,
    Outcome,
    agreement_reachable,
    compile_contract,
    compose_contracts,
    explore,
    honored_always_reachable,
    honored_done_sets,
    reachable_configurations,
    urgent,
    urgent_for_done_set,
    weakly_terminates,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.nets import DEFAULT_BUDGET

from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract

BUDGETS = (1, 2, 3, 5, DEFAULT_BUDGET)
VERDICT_CHECKS = (
    (agreement_reachable, oracle.agreement_reachable),
    (weakly_terminates_in, oracle.weakly_terminates_in),
    (weakly_terminates_covering, oracle.weakly_terminates_covering),
)
SET_CHECKS = (
    (honored_done_sets, oracle.honored_done_sets),
    (reachable_configurations, oracle.reachable_configurations),
)


def unlabeled_debt_net(repaid: bool) -> ContractNet:
    """Granting ``a`` borrows from the unlabeled lending place ``q``; ``u`` may repay it.

    ``validate`` rejects such a net (code "a"), but the checks accept it: the
    debt on ``q`` makes the node unhonored, yet its configuration has no credits.
    """
    transitions = {"t": "a"}
    flow = {("p0", "t"), ("q", "t"), ("t", "pa")}
    if repaid:
        transitions["u"] = None
        flow |= {("pu", "u"), ("u", "q")}
    net = LendingNet.build(
        places=("p0", "pa", "pu", "q"),
        transitions=tuple(transitions),
        flow=flow,
        place_labels={"pa": "a"},
        transition_labels={t: a for t, a in transitions.items() if a},
        initial={"p0": 1, "pu": 1},
        lending=("q",),
    )
    return ContractNet(net=net, participants={"A"}, ownership={"a": "A"}, goals={frozenset({"a"})})


def contract_nets():
    rng = random.Random(2024)
    out = [compile_contract(random_contract(rng)) for _ in range(300)]
    rng = random.Random(77)
    out += [compile_contract(compose_contracts(*compatible_contract_pair(rng))) for _ in range(60)]
    out += [compile_contract(pairs_contract(n)) for n in (1, 2, 3, 4)]
    for n in (3, 4, 5):
        out += [compile_contract(credit_ring(n)), compile_contract(credit_ring(n, n - 1))]
    return out + [unlabeled_debt_net(False), unlabeled_debt_net(True)]


def result_of(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except IncompleteExplorationError as exc:
        return ("raises", str(exc))


def without_graph(old, cn, budget, got):
    """The oracle's answer without a graph.  Without a graph the verdict checks
    decide one independent component at a time, and a budget counts those
    walks' states, never more than the full graph's nodes.  So where the
    oracle ran out of budget they may still answer, and then they must give
    the oracle's answer at the default budget."""
    want = result_of(old, cn, budget)
    if getattr(want, "outcome", None) is Outcome.INCONCLUSIVE and got.outcome is not Outcome.INCONCLUSIVE:
        return old(cn, DEFAULT_BUDGET)
    return want


def net_goals(net):
    return (HONORED_GOAL, [MarkingPredicate(zero=frozenset(net.initial))])


@pytest.mark.parametrize("budget", BUDGETS)
def test_checks_equal_the_per_node_oracle(budget):
    seen = set()
    for cn in contract_nets():
        graph = explore(cn.net, budget)
        for new, old in VERDICT_CHECKS + SET_CHECKS:
            got = result_of(new, cn, budget, graph)
            assert got == result_of(old, cn, budget, graph), new.__name__
            assert result_of(new, cn, budget) == without_graph(old, cn, budget, result_of(new, cn, budget)), new.__name__
            seen.add((new.__name__, getattr(got, "outcome", type(got))))
        for goal in net_goals(cn.net):
            got = weakly_terminates(cn.net, goal, budget, graph)
            assert got == oracle.weakly_terminates(cn.net, goal, budget, graph)
            seen.add(("weakly_terminates", got.outcome))
        got = honored_always_reachable(graph)
        assert got == oracle.honored_always_reachable(graph)
        seen.add(("honored_always_reachable", got.outcome))
    # Every verdict check holds and fails somewhere at the default budget; small budgets cut graphs short.
    for name in ("agreement_reachable", "weakly_terminates_in", "weakly_terminates_covering",
                 "weakly_terminates", "honored_always_reachable"):
        kinds = {kind for check, kind in seen if check == name}
        if budget == DEFAULT_BUDGET:
            assert kinds == {Outcome.HOLDS, Outcome.FAILS}, name
        else:
            assert Outcome.INCONCLUSIVE in kinds, name


def test_debt_on_an_unlabeled_place_leaves_the_configuration_honored():
    for repaid in (False, True):
        cn = unlabeled_debt_net(repaid)
        graph = explore(cn.net)
        owing = [node for node in graph.nodes if not node.honored]
        assert owing and all(not lendingnets.contracts.configuration(cn, n).credits for n in owing)
        assert agreement_reachable(cn, graph=graph).outcome is Outcome.HOLDS
        assert weakly_terminates_in(cn, graph=graph).outcome is Outcome.HOLDS
        assert honored_done_sets(cn, graph=graph) == {frozenset(), frozenset({"a"})}
        expected = Outcome.HOLDS if repaid else Outcome.FAILS
        assert honored_always_reachable(graph).outcome is expected


def test_a_graph_keeps_its_credit_reading_for_one_net_at_a_time():
    """Credits read for one net are not reused for another net's labels."""
    plain = unlabeled_debt_net(False)
    labeled = ContractNet(net=replace(plain.net, place_labels={"pa": "a", "q": "b"}, alphabet=None),
                          participants={"A"}, ownership={"a": "A", "b": "A"}, goals={frozenset({"a"})})
    graph = explore(labeled.net)
    for cn in (plain, labeled, plain):
        assert honored_done_sets(cn, graph=graph) == honored_done_sets(cn, graph=explore(labeled.net))
    assert honored_done_sets(plain, graph=graph) != honored_done_sets(labeled, graph=graph)


def test_each_node_is_read_once_and_configurations_only_for_a_failure(monkeypatch):
    reads, credit_reads, configurations = [], [], []

    def counted(module, name, log):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda first, node: log.append(node) or original(first, node))

    counted(lendingnets.analysis, "_done_set", reads)
    counted(lendingnets.contracts, "_done_set", reads)
    counted(lendingnets.contracts, "_credits", credit_reads)
    counted(lendingnets.contracts, "configuration", configurations)
    cn = compile_contract(pairs_contract(4))
    graph = explore(cn.net)
    assert agreement_reachable(cn, graph=graph).outcome is Outcome.HOLDS
    assert weakly_terminates_in(cn, graph=graph).outcome is Outcome.HOLDS
    assert len(honored_done_sets(cn, graph=graph)) == 2 ** 4
    # No node has its done set or its credits read: the done sets are read off the graph's states.
    credit_free = [i for i, node in enumerate(graph.nodes) if node.honored]
    assert len(graph.nodes) == 81 and len(credit_free) == 16
    assert reads == []
    assert configurations == [] and credit_reads == []

    # The goal {a0} alone cannot be reached once anything else is done: the check reads no node,
    # and the first read of its detail reads one configuration, the witness's.
    narrow = ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership, goals={frozenset({"a0"})})
    failed = weakly_terminates_in(narrow, graph=graph)
    assert failed.outcome is Outcome.FAILS
    assert weakly_terminates_covering(narrow, graph=graph).outcome is Outcome.HOLDS
    assert configurations == reads == credit_reads == []
    detail = failed.detail
    assert configurations == reads == credit_reads == [failed.witness]
    assert failed.detail is detail
    assert configurations == reads == credit_reads == [failed.witness]


def test_done_atoms_outside_the_alphabet_are_refused():
    cn = compile_contract(pairs_contract(1))
    with pytest.raises(NetStructureError, match=r"done atoms outside the alphabet: \['zz'\]"):
        urgent_for_done_set(cn.net, {"a0", "zz"})
    with pytest.raises(NetStructureError, match="outside the alphabet"):
        urgent(cn, {"zz"}, graph=explore(cn.net))
    assert urgent_for_done_set(cn.net, {"a0"}) == frozenset({"b0"})
