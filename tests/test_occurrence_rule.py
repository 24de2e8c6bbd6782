"""The structural rule that lets ``validate`` skip the occurrence-net search.

``analysis._fires_at_most_once`` holds when every transition consumes a place
that does not lend, has no producer and starts with at most 1 token; then no
transition can fire twice (README, "How exploration works").  Wherever the
rule holds, the search must never find a transition that fires twice.  The
rule is sufficient, not necessary: some occurrence nets break it, and there
``validate`` still runs the search.
"""

import random
import time

import pytest

from lendingnets import (
    DEFAULT_BUDGET,
    ContractNet,
    LendingNet,
    Outcome,
    compile_contract,
    compose_contract_nets,
    compose_contracts,
    is_occurrence_net,
    validate,
)
from lendingnets.analysis import _fires_at_most_once

from generators import (
    compatible_contract_pair,
    pairs_contract,
    random_contract,
    random_cyclic_net,
    random_net,
    settled_pairs,
)

# Most cyclic nets have unbounded graphs; the search fails on them long before this.
CYCLIC_BUDGET = 1_000


def edge_nets() -> list[tuple[LendingNet, bool, Outcome]]:
    """Small nets at the edges of the rule, with the rule's answer and the search's."""
    chain = LendingNet.build(
        places=("m", "p"), transitions=("u", "t"), flow=(("m", "u"), ("u", "p"), ("p", "t")), initial={"m": 1},
    )
    two_tokens = LendingNet.build(places=("m",), transitions=("t",), flow=(("m", "t"),), initial={"m": 2})
    lends = LendingNet.build(
        places=("q",), transitions=("t",), flow=(("q", "t"),), place_labels={"q": "a"},
        transition_labels={"t": "a"}, initial={"q": 1}, lending=("q",),
    )
    loop = LendingNet.build(places=("m",), transitions=("t",), flow=(("m", "t"), ("t", "m")), initial={"m": 1})
    empty = LendingNet.build(places=("m",), transitions=("t",), flow=(("m", "t"),))
    return [
        # An occurrence net that breaks the rule: ``t`` reads only ``p``, which ``u`` produces once.
        (chain, False, Outcome.HOLDS),
        (two_tokens, False, Outcome.FAILS),
        (lends, False, Outcome.FAILS),
        (loop, False, Outcome.FAILS),
        (empty, True, Outcome.HOLDS),
    ]


def sample_nets() -> list[tuple[LendingNet, int]]:
    """Seeded random and cyclic nets, compiled contracts and composed compiled pairs, with a budget each."""
    rng = random.Random(16)
    nets = [(random_net(rng, f"n{k}"), DEFAULT_BUDGET) for k in range(150)]
    nets += [(random_cyclic_net(rng, f"c{k}"), CYCLIC_BUDGET) for k in range(150)]
    nets += [(compile_contract(random_contract(rng)).net, DEFAULT_BUDGET) for _ in range(150)]
    for _ in range(60):
        first, second = compatible_contract_pair(rng)
        nets.append((compose_contract_nets(compile_contract(first), compile_contract(second)).net, DEFAULT_BUDGET))
        nets.append((compile_contract(compose_contracts(first, second)).net, DEFAULT_BUDGET))
    return nets


def test_the_search_never_fails_where_the_rule_holds():
    tally = {}
    for net, budget in sample_nets():
        rule = _fires_at_most_once(net)
        outcome = is_occurrence_net(net, budget).outcome
        if rule:
            assert outcome is not Outcome.FAILS, sorted(net.transitions)
        tally[rule, outcome] = tally.get((rule, outcome), 0) + 1
    # The rule holds on every acyclic draw; the cyclic draws break it, and most of those fail.
    assert tally[True, Outcome.HOLDS] >= 450
    assert tally[False, Outcome.FAILS] >= 50
    assert tally[False, Outcome.HOLDS] >= 1
    assert (True, Outcome.INCONCLUSIVE) not in tally


def test_the_rule_at_its_edges():
    for net, rule, outcome in edge_nets():
        assert _fires_at_most_once(net) is rule
        assert is_occurrence_net(net).outcome is outcome


def test_validate_reports_the_search_where_the_rule_does_not_apply():
    for net, rule, outcome in edge_nets():
        if rule:
            continue
        violations = validate(ContractNet(net=net, participants=(), ownership={}, goals=()))
        assert ("occurrence" in [v.code for v in violations]) is (outcome is Outcome.FAILS)


def test_validate_reports_a_search_the_budget_cut_short():
    """A self-loop on a marked place is outside the rule, and one state is too few to decide it."""
    net = LendingNet(places=["s"], transitions=["t"], flow=[("s", "t"), ("t", "s")], initial={"s": 1})
    assert not _fires_at_most_once(net)
    cn = ContractNet(net=net, participants=(), ownership={}, goals=())
    occurrence = [v for v in validate(cn, budget=1) if v.code == "occurrence"]
    assert [(v.subject, v.message) for v in occurrence] == [("", "exploration budget 1 exhausted")]
    assert [v.subject for v in validate(cn) if v.code == "occurrence"] == ["t"]


@pytest.mark.parametrize("contract", [pairs_contract(11), settled_pairs(12), pairs_contract(40)],
                         ids=["pairs11", "settled12", "pairs40"])
def test_validate_decides_large_compiled_nets_at_once(contract):
    cn = compile_contract(contract)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert validate(cn) == []
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
