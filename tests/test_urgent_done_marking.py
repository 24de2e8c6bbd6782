"""Net-side urgency from the done marking against the recompile it replaced.

``old_urgent_via_net`` is the earlier definition, kept here as the oracle: add
every done atom to the contract as a fact, recompile, explore the larger net
and take the union of urgent steps over every node whose done set is the done
set.  ``urgent_via_net`` now decides the contract net once from the marking in
which a fact has granted each done atom, one independent component at a time.  The two must agree on every subset of
the owned atoms, realizable or not.
"""

import itertools
import random
import sys

import pytest

import lendingnets.analysis
import lendingnets.compiler
from lendingnets import (
    ContractError,
    IncompleteExplorationError,
    compile_contract,
    compose_contracts,
    extend_with_facts,
    urgent,
    urgent_via_net,
)
from lendingnets.nets import DEFAULT_BUDGET

from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract


def old_urgent_via_net(c, done, budget=DEFAULT_BUDGET):
    done = frozenset(done)
    cn = compile_contract(extend_with_facts(c, done))
    return urgent(cn, done, budget)


def owned_subsets(c):
    atoms = sorted(c.ownership)
    return [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]


def random_family(seed: int, count: int):
    rng = random.Random(seed)
    return [random_contract(rng, max_clauses=8) for _ in range(count)]


def composed_family(count: int):
    rng = random.Random(77)
    return [compose_contracts(*compatible_contract_pair(rng)) for _ in range(count)]


def closed_families():
    out = [pairs_contract(n) for n in (1, 2, 3)]
    for n in (3, 4, 5):
        out += [credit_ring(n)] + [credit_ring(n, side) for side in range(n)]
    return out


FAMILIES = {f"random{seed}": (lambda seed=seed: random_family(seed, 250)) for seed in range(4)}
FAMILIES["composed"] = lambda: composed_family(150)
FAMILIES["pairs-rings"] = closed_families


def answer(fn, c, done, budget):
    try:
        return fn(c, done, budget)
    except IncompleteExplorationError:
        return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_done_marking_matches_the_recompile(family):
    for c in FAMILIES[family]():
        for done in owned_subsets(c):
            assert urgent_via_net(c, done) == old_urgent_via_net(c, done), (c.clauses, sorted(done))


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
def test_small_budgets_answer_whenever_the_recompile_does(budget):
    contracts = random_family(11, 60) + composed_family(30) + closed_families()
    for c in contracts:
        for done in owned_subsets(c):
            want = answer(old_urgent_via_net, c, done, budget)
            if want is not None:
                assert answer(urgent_via_net, c, done, budget) == want, (c.clauses, sorted(done), budget)


def test_one_walk_of_the_smaller_net(monkeypatch):
    """pairs(4) after a0, a1: 7 states kept by the component walks, against 225 nodes for the recompiled net."""
    kept, explored = [], []
    walk = lendingnets.analysis._walk
    explore = lendingnets.analysis._explored

    def counting_walk(*args, **kwargs):
        # Only the component walk counts, not the walk of ``explore``.
        walked = walk(*args, **kwargs)
        if sys._getframe(1).f_code.co_name == "_urgent_at_root":
            kept.append(1 + sum(len(packs) - 1 for packs, *_ in walked[1]))
        return walked

    def counting_explore(net, budget=DEFAULT_BUDGET):
        graph = explore(net, budget)
        explored.append(len(graph.nodes))
        return graph

    monkeypatch.setattr(lendingnets.analysis, "_walk", counting_walk)
    monkeypatch.setattr(lendingnets.analysis, "_explored", counting_explore)
    c = pairs_contract(4)
    assert urgent_via_net(c, {"a0", "a1"}) == frozenset({"b0", "b1", "a2", "a3"})
    assert kept == [7] and explored == []
    assert old_urgent_via_net(c, {"a0", "a1"}) == frozenset({"b0", "b1", "a2", "a3"})
    assert explored == [225]


def test_unowned_done_atoms_are_refused_as_before():
    c = pairs_contract(1)
    with pytest.raises(ContractError, match=r"cannot assume unowned atoms: \['z'\]"):
        urgent_via_net(c, {"a0", "z"})
