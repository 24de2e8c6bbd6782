"""The one compile loop against the full-net compiler it replaced.

``compile_contract`` builds a delivery place for every atom of a clause's body
and of an extra set: the universe for the full net, the clause heads with
``prune``, and nothing for net-side urgency, whose net holds only the places
some transition consumes.  ``tests/compile_oracle.py`` keeps the full-net
compiler.  The first two nets must equal its output, and urgency over the
consumed places must give the answer of urgency over its full net started
from the done marking, or raise the same error, at every budget and every
subset of the owned atoms.
"""

import itertools
import random

import pytest

import lendingnets.compiler
from lendingnets import IncompleteExplorationError, compile_contract, compose_contracts, urgent_via_net
from lendingnets.analysis import _urgent_at_root
from lendingnets.nets import DEFAULT_BUDGET

from compile_oracle import full_compile
from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)


def random_draws():
    rng = random.Random(0x10C0)
    return [random_contract(rng) for _ in range(60)]


def composed_pairs():
    rng = random.Random(0x10C1)
    return [compose_contracts(*compatible_contract_pair(rng)) for _ in range(20)]


def pairs():
    return [pairs_contract(n) for n in range(1, 6)]


def rings():
    return [credit_ring(n, side) for n in range(3, 6) for side in (None, n - 1)]


FAMILIES = [random_draws, composed_pairs, pairs, rings]


def owned_subsets(c):
    atoms = sorted(c.ownership)
    return [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]


def answer(fn, *args):
    try:
        return fn(*args)
    except IncompleteExplorationError as exc:
        return ("incomplete", str(exc))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("prune", [False, True])
def test_compile_contract_equals_the_full_net_compiler(family, prune):
    for c in family():
        assert compile_contract(c, prune=prune) == full_compile(c, prune, frozenset()), c.clauses


@pytest.mark.parametrize("family", FAMILIES)
def test_urgency_over_consumed_places_equals_the_full_net(family):
    for c in family():
        for done in owned_subsets(c):
            full = full_compile(c, False, done).net
            for budget in BUDGETS:
                want = answer(_urgent_at_root, full, budget)
                assert answer(urgent_via_net, c, done, budget) == want, (c.clauses, sorted(done), budget)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_urgency_builds_only_the_consumed_places(n, monkeypatch):
    c = pairs_contract(n)
    built = []
    compile_once = lendingnets.compiler._compile

    def recording(*args):
        cn = compile_once(*args)
        built.append(cn.net)
        return cn

    monkeypatch.setattr(lendingnets.compiler, "_compile", recording)
    urgent_via_net(c, ["a0"])
    (net,) = built
    assert len(net.places) == 4 * n
    assert all(net.postset(p) for p in net.places)
    assert len(compile_contract(c).net.places) == 4 * n * n + 2 * n
