"""The graph checks' credit-free nodes and the closure sweep, against their earlier forms.

The checks read a graph's credit-free states off the walk's counts, on the
places a credit is read on, the labeled places that can owe, one mask test
each (``analysis._credit_free_states``).  ``honored_oracle`` keeps the
earlier rule, which read every owing node's credits, over its whole marking,
and every node's done set.  Both must give the same (index, done set) list,
and every check on a graph the same outcome, witness and detail as the
checks of ``decode_oracle`` read with that rule, whichever check reads the
graph first.  ``analysis._reaching`` now reads the edge list once,
from the last edge to the first; it must add the states that ``any()`` over
each state's out-edge list added, and ``out_edges``, a slice of the edge
list, must equal that list.
"""

import random
from dataclasses import replace

import pytest

import contract_oracle
import decode_oracle
import honored_oracle
from lendingnets import (
    ContractNet,
    LendingNet,
    Outcome,
    ReachGraph,
    agreement_reachable,
    compile_contract,
    compose_contracts,
    explore,
    honored_done_sets,
    reachable_configurations,
    urgent,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import (
    _components,
    _credit_free_states,
    _done_set,
    _fields,
    _layout,
    _reaching,
    _walk,
)
from lendingnets.nets import DEFAULT_BUDGET

from fixtures import fixture_nets
from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract, random_cyclic_net
from test_node_reading import result_of, unlabeled_debt_net

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)
CHECKS = (agreement_reachable, weakly_terminates_in, weakly_terminates_covering, honored_done_sets,
          reachable_configurations)


def contract_nets() -> list[ContractNet]:
    rng = random.Random(18)
    out = [compile_contract(random_contract(rng)) for _ in range(300)]
    rng = random.Random(81)
    out += [compile_contract(compose_contracts(*compatible_contract_pair(rng))) for _ in range(60)]
    out += [compile_contract(pairs_contract(n)) for n in (1, 2, 3, 4)]
    for n in (3, 4, 5):
        out += [compile_contract(credit_ring(n)), compile_contract(credit_ring(n, n - 1))]
    return out + [unlabeled_debt_net(False), unlabeled_debt_net(True)]


def _honored(cn: ContractNet, graph: ReachGraph) -> list[tuple[int, frozenset]]:
    """The index and done set of each credit-free state, as the checks read them."""
    return [(i, _done_set(cn.net, graph.nodes[i])) for i, _ in _credit_free_states(cn.net, graph)]


def assert_reads_equal(cn: ContractNet, build, monkeypatch):
    """Equal credit-free pairs and equal check results, with each check order, on fresh graphs per side."""
    assert _honored(cn, build()) == list(honored_oracle._honored(cn, build()))
    for order in (CHECKS, CHECKS[::-1]):
        graph, old_graph = build(), build()
        got = [result_of(check, cn, graph=graph) for check in order]
        with monkeypatch.context() as patched:
            patched.setattr(decode_oracle, "_honored", honored_oracle._honored)
            want = [result_of(getattr(decode_oracle, check.__name__, check), cn, graph=old_graph) for check in order]
        assert got == want, cn
        # A second reading of the same graph gives the same pairs, kept or not,
        # and the oracle reads the graph the checks have read alike.
        assert _honored(cn, graph) == list(honored_oracle._honored(cn, build()))
        assert list(honored_oracle._honored(cn, graph)) == _honored(cn, graph)


@pytest.mark.parametrize("budget", BUDGETS)
def test_credit_free_nodes_equal_the_credit_reading_oracle(budget, monkeypatch):
    for cn in contract_nets():
        assert_reads_equal(cn, lambda: explore(cn.net, budget), monkeypatch)


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_contract_over_another_net_reads_credits_on_a_shared_graph(budget, monkeypatch):
    """The graph's nodes were built for a differently labeled, or only equal, net."""
    plain = unlabeled_debt_net(False)
    labeled = ContractNet(net=replace(plain.net, place_labels={"pa": "a", "q": "b"}, alphabet=None),
                          participants={"A"}, ownership={"a": "A", "b": "A"}, goals={frozenset({"a"})})
    pairs = compile_contract(pairs_contract(2))
    cases = [(plain, labeled.net), (labeled, plain.net), (pairs, compile_contract(pairs_contract(2)).net)]
    for cn, net in cases:
        assert net is not cn.net
        assert_reads_equal(cn, lambda: explore(net, budget), monkeypatch)
    # One graph read for both contracts in turn keeps the own net's pairs apart from the other's.
    graph = explore(labeled.net, budget)
    for cn in (plain, labeled, plain, labeled):
        assert _honored(cn, graph) == list(honored_oracle._honored(cn, explore(labeled.net, budget)))


def test_a_contract_over_another_net_reads_done_sets_with_its_own_labels():
    """The graph's net labels ``t`` with ``a`` and the contract's net with ``b``:
    every check reads the done set after ``t`` as ``{b}``, as ``configuration`` does,
    and urgency names the step ``b``."""
    def net(label):
        return LendingNet(places={"m", "q"}, transitions={"t"}, flow={("m", "t"), ("t", "q")},
                          place_labels={"q": label}, transition_labels={"t": label}, initial={"m": 1})

    cn = ContractNet(net=net("b"), participants={"A"}, ownership={"b": "A"}, goals={frozenset({"b"})})
    graph = explore(net("a"))
    for check in CHECKS:
        want = result_of(getattr(contract_oracle, check.__name__), cn, graph=graph)
        assert result_of(check, cn, graph=graph) == want, check.__name__
    assert agreement_reachable(cn, graph=graph).outcome is Outcome.HOLDS
    for done in ((), {"b"}):
        assert urgent(cn, done, graph=graph) == urgent(cn, done), done
    assert urgent(cn, (), graph=graph) == {"b"}
    # The graph's own contract keeps its pairs on the graph; the other contract still reads its own labels.
    own = ContractNet(net=graph.net, participants={"A"}, ownership={"a": "A"}, goals={frozenset({"a"})})
    for c, atom in ((own, "a"), (cn, "b"), (own, "a")):
        assert honored_done_sets(c, graph=graph) == {frozenset(), frozenset({atom})}


def test_valid_contract_nets_read_the_honored_flag_alone():
    """Every owing place of a valid contract net is labeled: credit-free is ``honored``."""
    for cn in contract_nets()[:-2]:
        graph = explore(cn.net)
        assert [i for i, _ in _honored(cn, graph)] == [i for i, node in enumerate(graph.nodes) if node.honored]


def out_lists(n: int, edges) -> list[list]:
    """Each of ``n`` nodes' out-edges as ``(t, dst)`` pairs: the table ``ReachGraph._out`` kept, built from the edges."""
    out: list[list] = [[] for _ in range(n)]
    for src, t, dst in edges:
        out[src].append((t, dst))
    return out


def reaching_oracle(out, reached):
    """``_reaching`` as it was: ``any()`` over every successor of each state, over each state's out-edge list."""
    for i in range(len(out) - 1, -1, -1):
        if i not in reached and any(j in reached for _, j in out[i]):
            reached.add(i)
    return reached


def component_walks() -> list[ReachGraph]:
    """The component walks of seeded compiled contracts."""
    rng = random.Random(180)
    cns = [compile_contract(random_contract(rng)) for _ in range(150)]
    cns += [compile_contract(pairs_contract(n)) for n in (1, 2, 3)]
    graphs = []
    for cn in cns:
        fields, walks = _walk(cn.net, [(c, None) for c in _components(cn.net)], cn.net.initial, DEFAULT_BUDGET)
        graphs += [ReachGraph(cn.net, fields, walk) for walk in walks]
    return graphs


def component_outs():
    """The component walks' sizes and edges, with their states that owe nowhere."""
    for graph in component_walks():
        yield len(graph), graph.edges, {i for i, node in enumerate(graph.nodes) if min(node._counts, default=0) >= 0}


def random_outs(rng: random.Random):
    """Random forward edges over ``n`` states (every edge leads to a later state), listed by source,
    with random target sets: ``_reaching`` reads only the edges."""
    for _ in range(500):
        n = rng.randint(1, 30)
        edges = [(i, f"t{k}", rng.randint(i + 1, n - 1)) for i in range(n - 1) for k in range(rng.randint(0, 3))]
        yield n, edges, {i for i in range(n) if rng.random() < 0.2}


def test_reaching_equals_the_any_form():
    cases = [*component_outs(), *random_outs(random.Random(18))]
    assert len(cases) > 500
    for n, edges, targets in cases:
        reached = _reaching(edges, [i in targets for i in range(n)])
        assert {i for i, flag in enumerate(reached) if flag} == reaching_oracle(out_lists(n, edges), set(targets))


def flag_stopped_walks() -> list[ReachGraph]:
    """Walks of every row of seeded compiled contracts that a flag ended at their first node of each depth."""
    rng = random.Random(27)
    graphs = []
    for c in [pairs_contract(3), credit_ring(4, 3)] + [random_contract(rng) for _ in range(30)]:
        net = compile_contract(c).net
        for depth in (0, 1, 2, 3, 5):
            layout = _layout(net)
            fields = _fields(layout, layout.counts(net.initial), DEFAULT_BUDGET)
            deep = lambda packed, key, depth=depth: sum(fields.decode(key, len(layout.transitions), 0)) >= depth
            packing, [walk] = _walk(net, [(layout.steps, deep)], net.initial, DEFAULT_BUDGET)
            graph = ReachGraph(net, packing, walk)
            assert not graph.complete or max(sum(node._vector) for node in graph.nodes) < depth
            graphs.append(graph)
    return graphs


def test_out_edges_are_the_kept_out_lists():
    """``out_edges`` slices the edge list where ``ReachGraph._out`` kept a list per node."""
    rng = random.Random(72)
    graphs = [explore(net) for net in fixture_nets()] + [explore(compile_contract(pairs_contract(4)).net)]
    graphs += [explore(cn.net, budget) for cn in contract_nets()[::6] for budget in (3, DEFAULT_BUDGET)]
    graphs += [explore(random_cyclic_net(rng, f"c{k}"), rng.choice((1, 2, 5, 12, 30))) for k in range(40)]
    graphs += component_walks() + flag_stopped_walks()
    assert any(len(graph.nodes) >= 81 for graph in graphs) and not all(graph.complete for graph in graphs)
    for graph in graphs:
        out = out_lists(len(graph), graph.edges)
        assert [graph.out_edges(i) for i in range(len(graph.nodes))] == [tuple(edges) for edges in out]
        assert [graph.out_edges(node) for node in graph.nodes] == [tuple(edges) for edges in out]
