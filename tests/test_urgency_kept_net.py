"""Net-side urgency builds its net once per contract and keeps it as private state.

``urgent_via_net(c, D)`` compiles ``c``'s consumed-places net and splits it
into components on the first query only; every done set then just sets the
start marking.  The answers must still be those of urgency over the full net
compiled from the done marking (``tests/compile_oracle.py``), at every budget,
whatever the order of the queries.  The kept net lives in the contract's
instance dict: it must not change ``==``, ``hash`` or ``repr``, be shared
between equal contracts, keep a contract alive, or change any error.
"""

import gc
import itertools
import random
import weakref

import pytest

import lendingnets.compiler
from lendingnets import ContractError, IncompleteExplorationError, ToolkitError, urgent_via_net
from lendingnets.analysis import _urgent_at_root
from lendingnets.nets import DEFAULT_BUDGET

from compile_oracle import full_compile
from generators import credit_ring, pairs_contract, random_contract

BUDGETS = (1, 2, 3, 5, 8, DEFAULT_BUDGET)


def owned_subsets(c):
    atoms = sorted(c.ownership)
    return [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]


def answer(fn, *args):
    try:
        return fn(*args)
    except IncompleteExplorationError as exc:
        return ("incomplete", str(exc))


def expected(c, done, budget):
    return answer(_urgent_at_root, full_compile(c, False, done).net, budget)


def error(c, done, budget=DEFAULT_BUDGET):
    with pytest.raises((ContractError, ToolkitError)) as info:
        urgent_via_net(c, done, budget)
    return type(info.value), str(info.value)


@pytest.fixture
def compiled(monkeypatch):
    """The contracts ``compiler._compile`` is called on, one entry per call."""
    calls = []
    compile_once = lendingnets.compiler._compile

    def recording(c, *args):
        calls.append(c)
        return compile_once(c, *args)

    monkeypatch.setattr(lendingnets.compiler, "_compile", recording)
    return calls


def contracts():
    rng = random.Random(0x0C15)
    return [pairs_contract(4), credit_ring(5, 2)] + [random_contract(rng) for _ in range(40)]


def test_every_done_set_and_budget_compiles_once_per_contract(compiled):
    for c in contracts():
        compiled.clear()
        for done in owned_subsets(c):
            for budget in BUDGETS:
                got = answer(urgent_via_net, c, done, budget)
                assert got == expected(c, done, budget), (c.clauses, sorted(done), budget)
        assert len(compiled) == 1 and compiled[0] is c


def test_interleaved_contracts_keep_their_own_nets(compiled):
    first, second = pairs_contract(3), credit_ring(4, 1)
    queries = itertools.zip_longest(owned_subsets(first), owned_subsets(second))
    for done_first, done_second in queries:
        for c, done in ((first, done_first), (second, done_second)):
            if done is not None:
                for budget in (3, DEFAULT_BUDGET):
                    assert answer(urgent_via_net, c, done, budget) == expected(c, done, budget)
    assert [id(c) for c in compiled] == [id(first), id(second)]


def test_the_kept_net_leaves_equality_hash_and_repr_alone(compiled):
    c, twin = pairs_contract(2), pairs_contract(2)
    before = repr(c), hash(c)
    assert urgent_via_net(c, {"a0"}) == frozenset({"b0", "a1"})
    assert (repr(c), hash(c)) == before == (repr(twin), hash(twin))
    assert c == twin and twin == c
    assert urgent_via_net(twin, {"a0"}) == frozenset({"b0", "a1"})
    assert compiled == [c, twin] and compiled[1] is twin


def test_the_kept_net_does_not_keep_its_contract_alive():
    c = credit_ring(3, 0)
    assert urgent_via_net(c, set()) == frozenset({"x0", "x1", "x2"})
    ref = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_errors_are_the_same_before_and_after_the_net_is_kept(compiled):
    c = pairs_contract(2)
    unowned = error(c, {"a0", "zz"})
    assert unowned == (ContractError, "cannot assume unowned atoms: ['zz']")
    assert error(c, {"zz"}, 0) == (ContractError, "cannot assume unowned atoms: ['zz']")
    assert compiled == []
    bad_budget = error(c, {"a0"}, 0), error(c, set(), 2.5)
    assert bad_budget == (
        (ToolkitError, "budget must be at least 1, got 0"),
        (ToolkitError, "budget must be at least 1 and an int, got 2.5"),
    )
    urgent_via_net(c, {"a0"})
    assert len(compiled) == 1
    assert error(c, {"a0", "zz"}) == unowned
    assert error(c, {"zz"}, 0) == unowned
    assert (error(c, {"a0"}, 0), error(c, set(), 2.5)) == bad_budget
    assert len(compiled) == 1
