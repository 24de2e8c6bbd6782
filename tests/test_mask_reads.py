"""Graph questions read by mask off the walk's ints, against the route that decoded each node.

A walk's graph keeps each state as its two ints; the checks read credit-free
states by one masked test of the counts, and done sets, and goal sets covered
or equalled, by the nonzero-field read of the key (``analysis._reading``,
``_done_test``).  ``decode_oracle`` keeps the route they replaced: every
node built, its done set decoded (``_done_set``) and its credit-free flag
read off the node.  Both must pick the same states, and the checks with a
``graph`` must give equal verdicts, witnesses and details, on compiled
contract families, seeded random contracts and nets (where one label names
several transitions), at small budgets and the default.  Only the nodes a
check reports are built.  ``honored_done_sets`` and ``reachable_configurations``
read each state's done set and credits off the graph's ints with the net's
labels read once (``analysis._configurations``), for the graph's own net and
for an equal net built anew, and build no node; net-side urgency builds no
graph, node or place name, and logic urgency no clause.
"""

import itertools
import math
import random
from dataclasses import replace

import pytest

import decode_oracle
import lendingnets.compiler
import walk_oracle
from lendingnets import (
    ContractNet,
    HornClause,
    LendingNet,
    Outcome,
    ReachGraph,
    agreement_reachable,
    compile_contract,
    explore,
    honored_done_sets,
    reachable_configurations,
    urgent_at,
    urgent_for_done_set,
    urgent_logic,
    urgent_via_net,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import (
    Node,
    _credit_free_states,
    _done_test,
    _fields,
    _goal_states,
    _layout,
    _reading,
    _walk,
)
from lendingnets.nets import DEFAULT_BUDGET

from generators import credit_ring, pairs_contract, random_contract, random_cyclic_net, random_net, settled_pairs
from test_node_reading import result_of, unlabeled_debt_net

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)
# Most cyclic nets have unbounded graphs: they are walked to at most this many states.
CYCLIC_BUDGET = 1_000
CHECKS = (agreement_reachable, weakly_terminates_in, weakly_terminates_covering)


def with_goals(cn: ContractNet, goals) -> ContractNet:
    return ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership,
                       goals=frozenset(frozenset(g) for g in goals))


def goal_families(atoms, rng: random.Random) -> list[list]:
    """The empty goal, each atom alone, and two random families of random subsets."""
    atoms = sorted(atoms)
    families = [[()], [(a,) for a in atoms]]
    for _ in range(2):
        families.append([rng.sample(atoms, rng.randint(0, len(atoms))) for _ in range(rng.randint(1, 3))])
    return families


def contract_nets() -> list[tuple[ContractNet, int]]:
    """Each contract net with the largest budget it is walked at, under its own goals and others."""
    rng = random.Random(0x3A5C)
    contracts = [pairs_contract(n) for n in range(1, 6)] + [settled_pairs(n) for n in range(1, 7)]
    contracts += [credit_ring(n, side) for n in (3, 4, 5) for side in (None, 1)]
    contracts += [random_contract(rng) for _ in range(40)]
    nets = [(compile_contract(c), DEFAULT_BUDGET) for c in contracts]
    for k in range(20):
        drawn = ((random_net(rng, f"n{k}"), DEFAULT_BUDGET), (random_cyclic_net(rng, f"c{k}"), CYCLIC_BUDGET))
        for net, largest in drawn:
            nets.append((ContractNet(net=net, participants=(), ownership={}, goals=()), largest))
    nets += [(unlabeled_debt_net(False), DEFAULT_BUDGET), (unlabeled_debt_net(True), DEFAULT_BUDGET)]
    out = []
    for cn, largest in nets:
        out += [(with_goals(cn, goals), largest) for goals in [cn.goals, *goal_families(cn.net.alphabet, rng)]]
    return out


CONTRACT_NETS = contract_nets()


def test_the_samples_name_one_label_on_several_transitions():
    several = [cn for cn, _ in CONTRACT_NETS
               if len(set(cn.net.transition_labels.values())) < len(cn.net.transition_labels)]
    assert len(several) >= 20


@pytest.mark.parametrize("budget", BUDGETS)
def test_mask_reads_equal_the_decoded_reads(budget):
    covered = equal = 0
    for cn, largest in CONTRACT_NETS:
        graph = explore(cn.net, min(budget, largest))
        net, nodes = cn.net, graph.nodes
        _, _, lift, masks = _reading(net, graph._layout, graph._fields)
        for key, node in zip(graph._keys, nodes):
            assert {a for a, mask in masks.items() if (key + lift) & mask} == decode_oracle._done_set(net, node)
        free = decode_oracle._credit_free(net, graph.net)
        assert _credit_free_states(net, graph) == [(i, node._key) for i, node in enumerate(nodes) if free(node)]
        pairs = decode_oracle._honored(cn, graph)
        for covering, reached in ((True, decode_oracle._covers_goal_set), (False, decode_oracle._is_goal_set)):
            want = [i for i, done in pairs if reached(done, cn.goals)]
            assert list(_goal_states(net, graph, cn.goals, covering)) == want
            covered, equal = covered + (covering and bool(want)), equal + (not covering and bool(want))
    assert covered and equal


@pytest.mark.parametrize("budget", BUDGETS)
def test_checks_on_a_graph_equal_the_decoded_checks(budget):
    outcomes = set()
    for cn, largest in CONTRACT_NETS:
        graph, old_graph = explore(cn.net, min(budget, largest)), explore(cn.net, min(budget, largest))
        for check in CHECKS:
            got = result_of(check, cn, graph=graph)
            assert got == result_of(getattr(decode_oracle, check.__name__), cn, graph=old_graph), check.__name__
            outcomes.add((check.__name__, got.outcome))
        for done in [(), *[(a,) for a in sorted(cn.net.alphabet)[:3]], sorted(cn.net.alphabet)]:
            want = result_of(decode_oracle.urgent_for_done_set, cn.net, done, graph=old_graph)
            assert result_of(urgent_for_done_set, cn.net, done, graph=graph) == want
    assert {(check.__name__, o) for check in CHECKS for o in Outcome} <= outcomes or budget != DEFAULT_BUDGET


def spin() -> LendingNet:
    """``t0``, labeled ``a``, and ``t1``, labeled ``b``, each take the token of the lending place ``l`` and
    give it back: both stay enabled, so a budget, not the net, bounds their firings."""
    return LendingNet.build(places=("l",), transitions=("t0", "t1"), transition_labels={"t0": "a", "t1": "b"},
                            flow={("l", "t0"), ("t0", "l"), ("l", "t1"), ("t1", "l")}, lending={"l"})


def test_the_nonzero_read_of_a_field_at_the_top_of_its_range():
    """A key field holds at most B = 2**(F - 2) - 1 firings, as ``spin`` fires ``t0`` under a budget
    of B; at every value from 0 to B the field's top bit is set exactly when it is 1 or more, and no
    other field's top bit is set."""
    for k in range(1, 12):
        bound = 2 ** k - 1
        net = spin()
        layout = _layout(net)
        fields = _fields(layout, layout.counts(net.initial), bound)
        assert bound == 2 ** (fields.width - 2) - 1
        _, _, lift, masks = _reading(net, layout, fields)
        for v in (0, 1, 2, bound - 1, bound):
            for w in (0, bound):
                key = v | w << fields.width
                assert bool((key + lift) & masks["a"]) == (v >= 1) and bool((key + lift) & masks["b"]) == (w >= 1)
                assert _done_test(net, layout, fields, [{"a"}], False)(key) == (v >= 1 and not w)
                assert _done_test(net, layout, fields, [{"a"}], True)(key) == (v >= 1)
        # The walk keeps states that fire ``t0`` up to B - 1 times, and reads their done sets alike.
        graph = explore(net, bound)
        for key, node in zip(graph._keys, graph.nodes):
            assert {a for a, m in masks.items() if (key + lift) & m} == decode_oracle._done_set(net, node)


def counting_built(monkeypatch) -> list:
    """A list that gets one entry for each ``Node`` built from now on."""
    built = []
    init = Node.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Node, "__init__", counting)
    return built


def test_only_reported_nodes_are_built(monkeypatch):
    built = counting_built(monkeypatch)
    c = pairs_contract(4)
    cn = compile_contract(c)
    graph = explore(cn.net)
    assert built == []
    found = agreement_reachable(cn, graph=graph)
    assert found.outcome is Outcome.HOLDS and weakly_terminates_in(cn, graph=graph).outcome is Outcome.HOLDS
    assert len(built) == 1
    built.clear()
    assert urgent_via_net(c, ()) == {"a0", "a1", "a2", "a3"} and urgent_via_net(c, {"a0"}) == {"b0", "a1", "a2", "a3"}
    assert built == []
    # Read in full, the graph's nodes are the oracle walk's, whose nodes were each built as the walk kept them.
    layout = _layout(cn.net)
    nodes, edges, complete = walk_oracle._walk(cn.net, layout.steps, layout.counts(cn.net.initial), DEFAULT_BUDGET)
    assert (graph.nodes, graph.edges, graph.complete) == (nodes, edges, complete)
    assert found.detail == graph.nodes[-1].describe()
    assert [node.honored for node in graph.nodes] == [node.honored for node in nodes]


def test_an_incomplete_graph_is_counted_without_building_its_nodes(monkeypatch):
    built = counting_built(monkeypatch)
    cn = compile_contract(pairs_contract(4))
    graph = explore(cn.net, 20)
    assert not graph.complete
    verdicts = [check(cn, graph=graph) for check in CHECKS]
    assert built == []
    assert {(v.outcome, v.detail) for v in verdicts} == {(Outcome.INCONCLUSIVE, "exploration budget 20 exhausted")}
    assert len(graph) == len(graph.nodes) == 20


def test_honored_done_sets_builds_no_node(monkeypatch):
    built = counting_built(monkeypatch)
    cn = compile_contract(pairs_contract(4))
    graph = explore(cn.net)
    # Of the 3^4 states, the 2^4 where no handshake owes are credit-free, each with its own done set.
    assert len(honored_done_sets(cn, graph=graph)) == 16 and built == []
    assert len(graph) == 81


@pytest.mark.parametrize("budget", (5, DEFAULT_BUDGET))
def test_configuration_readers_equal_the_decoded_reads(budget):
    read = 0
    for cn, largest in CONTRACT_NETS:
        graph = explore(cn.net, min(budget, largest))
        anew = ContractNet(net=replace(cn.net), participants=cn.participants, ownership=cn.ownership, goals=cn.goals)
        assert anew.net == cn.net and anew.net is not cn.net
        for contract in (cn, anew):
            for reader in (honored_done_sets, reachable_configurations):
                got = result_of(reader, contract, graph=graph)
                assert got == result_of(getattr(decode_oracle, reader.__name__), contract, graph), reader.__name__
                read += isinstance(got, frozenset)
    assert read


def counting_calls(monkeypatch, owner, name: str, log: list) -> None:
    """Append to ``log`` on each call of ``owner.name`` from now on."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_urgency_and_the_configuration_readers_build_no_set_up(monkeypatch):
    c = pairs_contract(4)
    cn = compile_contract(c)
    graph = explore(cn.net)
    honored = honored_done_sets(cn, graph=graph)
    built, graphs, named, clauses = counting_built(monkeypatch), [], [], []
    counting_calls(monkeypatch, ReachGraph, "__init__", graphs)
    for name in ("delivery_pid", "clause_tid"):
        counting_calls(monkeypatch, lendingnets.compiler, name, named)
    counting_calls(monkeypatch, HornClause, "__post_init__", clauses)
    atoms = sorted(c.ownership)
    done_sets = [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]
    net_side = {done: urgent_via_net(c, done) for done in done_sets}
    assert net_side[frozenset()] == {"a0", "a1", "a2", "a3"} and net_side[frozenset({"a0"})] == {"b0", "a1", "a2", "a3"}
    assert (built, graphs, named) == ([], [], [])
    assert honored_done_sets(cn, graph=graph) == honored and len(honored) == 16
    assert len(reachable_configurations(cn, graph=graph)) == 81 and built == []
    assert all(urgent_logic(c, done) == net_side[done] for done in honored) and clauses == []


@pytest.mark.parametrize("budget", (3, 50, DEFAULT_BUDGET, math.inf))
def test_a_graph_of_nodes_reads_as_the_walk_it_came_from(budget):
    """A graph whose ``nodes`` were built and kept reads as one of the same walk whose nodes were not:
    the nodes are the walk's states in order, and every check and ``index_of`` read alike."""
    for cn, largest in CONTRACT_NETS[::7]:
        walked = explore(cn.net, min(budget, largest))
        graph = explore(cn.net, min(budget, largest))
        nodes = graph.nodes
        assert (graph._packs, graph._keys, graph.edges) == (walked._packs, walked._keys, walked.edges)
        assert graph._fields is walked._fields and nodes == tuple(map(walked._node, range(len(walked))))
        assert [result_of(check, cn, graph=graph) for check in CHECKS] == \
               [result_of(check, cn, graph=walked) for check in CHECKS]
        assert [graph.index_of(node) for node in nodes] == list(range(len(nodes))) == \
               [walked.index_of(node) for node in nodes]
        assert "nodes" not in vars(walked) and graph.nodes is nodes


def test_a_node_of_another_packing_is_found():
    """Two budgets give one net two field widths: a node of one graph is found in the other by its
    firings, and read there alike."""
    net = spin()
    narrow, wide = explore(net, 3), explore(net, 1_000)
    assert narrow._fields.width != wide._fields.width
    assert wide.index_of(narrow.nodes[2]) == 2
    fields, [walk] = _walk(net, [(_layout(net).steps, None)], net.initial, 3)
    component = ReachGraph(net, fields, walk)
    assert component._fields is narrow._fields and component.index_of(narrow.nodes[1]) == 1
    cn = compile_contract(pairs_contract(4))
    short, full = explore(cn.net, 3), explore(cn.net)
    assert short._fields.width != full._fields.width and full.complete
    for i, node in enumerate(short.nodes):
        assert full.index_of(node) == i and urgent_at(full, node) == urgent_at(full, i)
    assert urgent_at(full, short.nodes[1])
    # A node of an equal net built anew, with a layout of its own, is found too.
    anew = explore(replace(cn.net), 3)
    assert anew._layout is not short._layout and full.index_of(anew.nodes[2]) == 2
