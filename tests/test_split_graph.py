"""A split net's graph holds its component walks, against the eager walk of the whole product.

``explore`` walks the components of a net with four or more components of two
or more transitions each.  When every walk completes and the product of their
state counts fits the budget, the graph holds the walks and no product: it is
complete, its length is that product, the contract checks and configuration
readers handed it read the parts, and its lists, edges and nodes are the
product's, walked on first read, once.  ``explore_oracle`` keeps the eager
walk.  Every answer must equal the oracle's at budgets 1, 2, 3, 5, 8, the
product's size less one, the product's size and the default.
"""

import random

import explore_oracle
import lendingnets.analysis
import lendingnets.contracts
from lendingnets import (
    ContractNet,
    HornClause,
    Outcome,
    PCLContract,
    agreement_reachable,
    compile_contract,
    compose_contracts,
    explore,
    honored_done_sets,
    reachable_configurations,
    trace_set,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.analysis import _held
from lendingnets.nets import DEFAULT_BUDGET

from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract, random_net, settled_pairs
from test_component_split import renamed
from test_node_reading import result_of

CHECKS = (agreement_reachable, weakly_terminates_in, weakly_terminates_covering)
READERS = (honored_done_sets, reachable_configurations)


def unions(count: int, seed: int = 11):
    """Four or five random contracts renamed apart and composed, the first one half the time a
    renamed pairs(2): nets whose components vary in size, with goal families that split and ones
    that do not."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = [renamed(random_contract(rng, max_clauses=3), str(k)) for k in range(rng.randint(4, 5))]
        if rng.random() < 0.5:
            parts[0] = renamed(pairs_contract(2), "p")
        composed = parts[0]
        for c in parts[1:]:
            composed = compose_contracts(composed, c)
        out.append(composed)
    return out


def dead_cycles_and_a_ring():
    """Three strict two-clause cycles, dead at the root, then a three-atom credit ring: four components
    of two or more transitions, of which only the last walk moves, so a budget below its size cuts
    the last walk short with every walk present."""
    cycle = frozenset({HornClause("c", frozenset({"d"}), False), HornClause("d", frozenset({"c"}), False)})
    dead = PCLContract(clauses=cycle, participants=frozenset({"Pc", "Pd"}), ownership={"c": "Pc", "d": "Pd"},
                       goals=frozenset({frozenset({"c", "d"})}))
    composed = renamed(dead, "0")
    for k in (1, 2):
        composed = compose_contracts(composed, renamed(dead, str(k)))
    return compose_contracts(composed, renamed(credit_ring(3), "z"))


def families():
    rng = random.Random(41)
    out = [random_contract(rng) for _ in range(60)]
    out += [compose_contracts(*compatible_contract_pair(rng)) for _ in range(30)]
    out += [pairs_contract(n) for n in range(1, 6)] + [settled_pairs(n) for n in range(1, 5)]
    out += [credit_ring(n, side) for n in (3, 4, 5) for side in (None, n - 1)]
    return out + unions(60) + [dead_cycles_and_a_ring()]


def with_goals(cn: ContractNet, goals) -> ContractNet:
    return ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership,
                       goals=frozenset(frozenset(g) for g in goals))


def narrowed(cns: list[ContractNet], seed: int = 12) -> list[ContractNet]:
    """Each contract net again with two random goal sets, a family that seldom splits."""
    rng = random.Random(seed)
    out = []
    for cn in cns:
        atoms = sorted(cn.ownership)
        out.append(with_goals(cn, [rng.sample(atoms, rng.randint(0, len(atoms))) for _ in range(2)]))
    return out


COMPILED = [compile_contract(c) for c in families()]
CASES = COMPILED + narrowed(COMPILED[-65:])


def answers(cn: ContractNet, graph) -> list:
    """The three verdicts, each as (outcome, detail, witness text), then both configuration sets."""
    got = []
    for check in CHECKS:
        verdict = check(cn, graph=graph)
        witness = verdict.witness.describe() if verdict.witness is not None else None
        got.append((verdict.outcome, verdict.detail, witness))
    return got + [result_of(reader, cn, graph=graph) for reader in READERS]


def budgets(size: int) -> list[int]:
    return sorted({1, 2, 3, 5, 8, max(size - 1, 1), size, DEFAULT_BUDGET})


def test_a_split_graph_answers_as_the_whole_product():
    held = on_parts = 0
    for cn in CASES:
        size = len(explore_oracle.explore(cn.net))
        for budget in budgets(size):
            graph, oracle = explore(cn.net, budget), explore_oracle.explore(cn.net, budget)
            held += _held(cn.net, graph) is not None
            assert (graph.complete, len(graph)) == (oracle.complete, len(oracle)), (cn, budget)
            assert answers(cn, graph) == answers(cn, oracle), (cn, budget)
            # Goals that do not split are read on the product, which that read built.
            on_parts += _held(cn.net, graph) is not None
            assert graph.edges == oracle.edges
            assert [node.describe() for node in graph.nodes] == [node.describe() for node in oracle.nodes]
            assert graph.nodes == oracle.nodes and len(graph) == len(graph._keys)
            # Once built, the product is what the checks read, with the same answers.
            assert _held(cn.net, graph) is None and answers(cn, graph) == answers(cn, oracle)
    assert held >= 80 and on_parts >= 80 and held > on_parts


def test_the_least_budget_that_holds_the_parts():
    """pairs(4) splits into four parts of 3 states: at 81 the graph holds them, at 80 it is the
    eager walk, cut short with exactly 80 states."""
    cn = compile_contract(pairs_contract(4))
    whole = explore(cn.net, 81)
    assert _held(cn.net, whole) is not None and whole.complete and len(whole) == 81
    assert all(check(cn, graph=whole).outcome is Outcome.HOLDS for check in CHECKS)
    short = explore(cn.net, 80)
    assert _held(cn.net, short) is None and not short.complete and len(short) == len(short._keys) == 80
    for check in CHECKS:
        assert check(cn, graph=short) == check(cn, graph=explore_oracle.explore(cn.net, 80))
        assert check(cn, graph=short).detail == "exploration budget 80 exhausted"


def rings(count: int):
    """``count`` three-atom credit rings renamed apart and composed: as many components of three transitions."""
    composed = renamed(credit_ring(3), "0")
    for k in range(1, count):
        composed = compose_contracts(composed, renamed(credit_ring(3), str(k)))
    return composed


def test_four_components_of_two_transitions_are_split():
    """The rule reads the components' transition counts: pairs(3) and three rings of three transitions
    are walked whole, pairs(4) and four rings are split."""
    cases = [(pairs_contract(n), n >= 4) for n in (2, 3, 4, 6)] + [(rings(n), n >= 4) for n in (3, 4)]
    for c, split in cases:
        cn = compile_contract(c)
        assert (_held(cn.net, explore(cn.net)) is not None) == split, c


def test_a_built_product_is_what_the_checks_read():
    """Once a caller has read the product's nodes, a check reports the node it holds."""
    cn = compile_contract(pairs_contract(4))
    narrow = with_goals(cn, [{"a0"}])
    graph = explore(cn.net)
    assert _held(cn.net, graph) is not None
    nodes = graph.nodes
    verdict = weakly_terminates_in(narrow, graph=graph)
    assert verdict.outcome is Outcome.FAILS and any(verdict.witness is node for node in nodes)
    assert agreement_reachable(narrow, graph=graph).outcome is Outcome.HOLDS


def test_a_graph_of_another_net_reads_the_product():
    cn = compile_contract(pairs_contract(4))
    graph = explore(cn.net)
    anew = ContractNet(net=compile_contract(pairs_contract(4)).net, participants=cn.participants,
                       ownership=cn.ownership, goals=cn.goals)
    assert anew.net is not cn.net and _held(anew.net, graph) is None
    assert answers(anew, graph) == answers(cn, explore_oracle.explore(cn.net))
    assert "edges" in vars(graph)


def kept_states(monkeypatch) -> list[int]:
    """The states each ``_walk`` call keeps from now on, one entry per call."""
    kept = []
    walk = lendingnets.analysis._walk

    def counting(*args, **kwargs):
        walked = walk(*args, **kwargs)
        kept.append(1 + sum(len(packs) - 1 for packs, *_ in walked[1]))
        return walked

    monkeypatch.setattr(lendingnets.analysis, "_walk", counting)
    return kept


def test_the_workload_shape_walks_thirteen_states(monkeypatch):
    """On pairs(6), explore and every graph check keep 13 walk states between them, the shared root and
    two states per handshake, and build no product; the first read of the edges walks the 729-state
    product, once."""
    cn = compile_contract(pairs_contract(6))
    kept = kept_states(monkeypatch)
    graph = explore(cn.net)
    assert all(check(cn, graph=graph).outcome is Outcome.HOLDS for check in CHECKS)
    assert len(honored_done_sets(cn, graph=graph)) == 2 ** 6
    assert len(reachable_configurations(cn, graph=graph)) == 3 ** 6 == len(graph)
    assert kept == [13] and "edges" not in vars(graph)
    assert len(graph.edges) == 6 * 2 * 3 ** 5
    assert kept == [13, 729]
    assert graph.edges and len(graph.nodes) == 729 and graph.root.describe()
    assert kept == [13, 729]


def test_the_checks_split_the_goals_once(monkeypatch):
    split = []
    parts = lendingnets.contracts._parts

    def counting(*args):
        split.append(1)
        return parts(*args)

    monkeypatch.setattr(lendingnets.contracts, "_parts", counting)
    cn = compile_contract(pairs_contract(5))
    for graph in (None, explore(cn.net)):
        for check in CHECKS:
            assert check(cn, graph=graph).outcome is Outcome.HOLDS
    assert split == [1]


def test_trace_set_counts_its_budget_to_the_last_pair():
    """The fifth of these nets has 6 states and 9 (node, word) pairs: a budget of 8 leaves the
    word search incomplete, and 9 completes it."""
    rng = random.Random(1)
    net = [random_net(rng, "n") for _ in range(5)][-1]
    assert len(explore(net)) == 6
    assert not trace_set(net, 8)[1]
    assert trace_set(net, 9)[1] and trace_set(net, 9)[0] == trace_set(net)[0]
