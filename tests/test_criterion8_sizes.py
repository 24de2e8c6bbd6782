"""Criterion 8 on contract families that the trace-based logic side could not reach.

Logic urgency and honored done sets must equal their net counterparts at
every reachable done set of ``pairs_contract(1..3)`` and of credit rings of
3 to 6 atoms, with and without a strict side clause.
"""

import pytest

from lendingnets import (
    compile_contract,
    explore,
    honored_done_sets,
    reachable_configurations,
    trace_atom_sets,
    urgent_logic,
    urgent_via_net,
)

from generators import credit_ring, pairs_contract

FAMILIES = {f"pairs{n}": pairs_contract(n) for n in (1, 2, 3)}
FAMILIES |= {f"ring{n}": credit_ring(n) for n in (3, 4, 5, 6)}
FAMILIES |= {f"ring{n}-side": credit_ring(n, n - 1) for n in (3, 4, 5, 6)}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_logic_and_net_agree_at_every_reachable_done_set(name):
    c = FAMILIES[name]
    cn = compile_contract(c)
    graph = explore(cn.net)
    assert graph.complete
    assert honored_done_sets(cn, graph=graph) == trace_atom_sets(c.clauses)
    done_sets = {cfg.done for cfg in reachable_configurations(cn, graph=graph)}
    assert frozenset() in done_sets
    for done in done_sets:
        assert urgent_logic(c, done) == urgent_via_net(c, done), sorted(done)
