"""Criterion 8 on ``settled_pairs(n)``: n credit handshakes joined by one strict settlement.

The settlement clause ``b_0 & ... & b_{n-1} -> z`` reads a delivery of every
handshake, so the compiled net is one independent component.  Logic and net
must agree on agreement and on weak termination, and logic urgency must equal
net urgency at every reachable done set, all queried on one contract object.
"""

import pytest

from lendingnets import (
    Outcome,
    admits_agreement,
    agreement_reachable,
    agreement_via_net,
    compile_contract,
    explore,
    honored_always_reachable,
    honored_done_sets,
    reachable_configurations,
    trace_atom_sets,
    urgent_logic,
    urgent_via_net,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import _components

from generators import settled_pairs


def holds(verdict) -> bool:
    assert verdict.outcome is not Outcome.INCONCLUSIVE, verdict
    return verdict.outcome is Outcome.HOLDS


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_settled_pairs_is_one_component_where_logic_and_net_agree(n):
    c = settled_pairs(n)
    cn = compile_contract(c)
    assert len(_components(cn.net)) == 1
    graph = explore(cn.net)
    assert graph.complete
    assert honored_done_sets(cn, graph=graph) == trace_atom_sets(c.clauses)

    agree = admits_agreement(c)
    assert agree
    assert holds(agreement_reachable(cn, graph=graph)) == agree
    assert holds(agreement_via_net(c)) == agree
    assert holds(agreement_reachable(cn)) == agree

    terminates = holds(weakly_terminates_in(cn, graph=graph))
    assert terminates and holds(weakly_terminates_in(cn)) == terminates
    covering = holds(weakly_terminates_covering(cn, graph=graph))
    assert covering == (agree and holds(honored_always_reachable(graph)))
    assert holds(weakly_terminates_covering(cn)) == covering

    done_sets = {cfg.done for cfg in reachable_configurations(cn, graph=graph)}
    assert frozenset() in done_sets and frozenset(c.ownership) in done_sets
    for done in done_sets:
        assert urgent_logic(c, done) == urgent_via_net(c, done), sorted(done)
