"""The budgets of net-side urgency, of agreement and covering weak termination without a graph
and of the whole-net walks, pinned at their edges.

Urgency and agreement walk the independent components of the net in one
``_walk`` call.  The walks share one root state, so the budget counts it
once plus each component's further states (README, "How independent
components are decided").  ``pairs_contract(3)`` has three components of
three states each from the initial marking: the root, a credit taken, and
both atoms granted.  ``weakly_terminates``, ``urgent_for_done_set`` and
``honored_done_sets`` walk the whole net, whose 27 states are the product of
the three.  For each
search the least budget at which it decides is found, its answer is asserted
there, and one state less must leave it undecided.  A budget below 1 is
rejected before anything is compiled.
"""

import pytest

from lendingnets import (
    IncompleteExplorationError,
    MarkingPredicate,
    Outcome,
    PCLContract,
    ToolkitError,
    agreement_reachable,
    agreement_via_net,
    compile_compose_commutes,
    compile_contract,
    honored_done_sets,
    urgent_via_net,
    weakly_terminates,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import urgent_for_done_set
from lendingnets.compiler import _urgency_net

from generators import pairs_contract


def least_budget(decides) -> int:
    return next(b for b in range(1, 100) if decides(b))


def urgent_decides(urgent, *args):
    """``decides(budget)``: whether ``urgent(*args, budget)`` answers without raising ``IncompleteExplorationError``."""
    def decides(budget):
        try:
            urgent(*args, budget)
        except IncompleteExplorationError:
            return False
        return True

    return decides


@pytest.mark.parametrize(
    ("done", "edge", "urgent"),
    [
        # The root and two further states per component.
        ((), 7, {"a0", "a1", "a2"}),
        # a0 granted: its component has one further state, b0 granted; the others two.
        (("a0",), 6, {"a1", "a2", "b0"}),
    ],
)
def test_net_side_urgency_at_its_least_budget(done, edge, urgent):
    c = pairs_contract(3)
    assert least_budget(urgent_decides(urgent_via_net, c, done)) == edge
    assert urgent_via_net(c, done, edge) == urgent
    with pytest.raises(IncompleteExplorationError, match="urgency needs a complete reachability graph"):
        urgent_via_net(c, done, edge - 1)


def agreement_decides(cn):
    return lambda budget: agreement_reachable(cn, budget).outcome is not Outcome.INCONCLUSIVE


def test_agreement_without_a_graph_holds_at_its_least_budget():
    """Each component's walk stops at its first goal state, the last of its three."""
    cn = _urgency_net(pairs_contract(3))
    assert least_budget(agreement_decides(cn)) == 7
    verdict = agreement_reachable(cn, 7)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.detail == "marking [empty] fired [a0->b0, a1->b1, a2->b2, b0->>a0, b1->>a1, b2->>a2]"
    short = agreement_reachable(cn, 6)
    assert short.outcome is Outcome.INCONCLUSIVE and short.detail == "exploration budget 6 exhausted"


def test_agreement_without_a_graph_fails_at_its_least_budget():
    """A goal that no transition grants leaves each component an empty share: the first walk, complete
    with its three states and no goal state among them, decides."""
    c = pairs_contract(3)
    unreachable = PCLContract(clauses=c.clauses, participants=c.participants,
                              ownership={**c.ownership, "z": "Z"}, goals=[{"z"}])
    cn = _urgency_net(unreachable)
    assert least_budget(agreement_decides(cn)) == 3
    assert agreement_reachable(cn, 3).detail == "no honored node covers a goal set"
    short = agreement_reachable(cn, 2)
    assert short.outcome is Outcome.INCONCLUSIVE and short.detail == "exploration budget 2 exhausted"


@pytest.mark.parametrize(("done", "urgent"), [((), {"a0", "a1", "a2"}), (("a0",), {"a1", "a2", "b0"})])
def test_urgency_at_a_done_set_of_the_whole_net_at_its_least_budget(done, urgent):
    net = compile_contract(pairs_contract(3)).net
    assert least_budget(urgent_decides(urgent_for_done_set, net, done)) == 27
    assert urgent_for_done_set(net, done, 27) == urgent
    with pytest.raises(IncompleteExplorationError, match="urgency needs a complete reachability graph"):
        urgent_for_done_set(net, done, 26)


def test_net_weak_termination_at_its_least_budget():
    net = compile_contract(pairs_contract(3)).net
    honored = MarkingPredicate(honored=True)
    assert least_budget(lambda b: weakly_terminates(net, honored, b).outcome is not Outcome.INCONCLUSIVE) == 27
    assert weakly_terminates(net, honored, 27).outcome is Outcome.HOLDS
    short = weakly_terminates(net, honored, 26)
    assert short.outcome is Outcome.INCONCLUSIVE and short.detail == "exploration budget 26 exhausted"


def test_covering_weak_termination_without_a_graph_at_its_least_budget():
    """Only a0 is wanted: every state can reach one whose done set covers {a0}, though none has it exactly."""
    c = pairs_contract(3)
    cn = _urgency_net(PCLContract(clauses=c.clauses, participants=c.participants, ownership=c.ownership,
                                  goals=[{"a0"}]))
    decides = lambda budget: weakly_terminates_covering(cn, budget).outcome is not Outcome.INCONCLUSIVE
    assert least_budget(decides) == 7
    assert weakly_terminates_covering(cn, 7).outcome is Outcome.HOLDS
    assert weakly_terminates_in(cn, 7).outcome is Outcome.FAILS
    short = weakly_terminates_covering(cn, 6)
    assert short.outcome is Outcome.INCONCLUSIVE and short.detail == "exploration budget 6 exhausted"


def test_honored_done_sets_without_a_graph_at_its_least_budget():
    """Each handshake is honored before its credit or after both its atoms: eight done sets."""
    cn = _urgency_net(pairs_contract(3))
    assert least_budget(urgent_decides(honored_done_sets, cn)) == 27
    want = {frozenset().union(*({f"a{j}", f"b{j}"} for j in range(3) if mask >> j & 1)) for mask in range(8)}
    assert honored_done_sets(cn, 27) == want
    with pytest.raises(IncompleteExplorationError, match="configurations need a complete reachability graph"):
        honored_done_sets(cn, 26)


BAD_BUDGET = {
    "urgent_via_net": lambda c: urgent_via_net(c, (), 0),
    "agreement_via_net": lambda c: agreement_via_net(c, 0),
    # Composing a contract with itself binds its participants twice: the budget is read first.
    "compile_compose_commutes": lambda c: compile_compose_commutes(c, c, 0),
}


@pytest.mark.parametrize("name", sorted(BAD_BUDGET))
def test_a_budget_of_0_is_rejected_before_anything_is_compiled(name):
    c = pairs_contract(2)
    with pytest.raises(ToolkitError) as info:
        BAD_BUDGET[name](c)
    assert (type(info.value), str(info.value)) == (ToolkitError, "budget must be at least 1, got 0")
    assert "_urgency_net" not in vars(c)
