"""The greatest-fixpoint rule of the logic side against the recursive definitions it replaced.

``old_provable`` and ``old_urgent_atoms`` are the earlier recursive
provability and the trace-based urgency, kept here as oracles with a memo
instead of a process-global cache.  Proof traces stay the ground truth for
trace atom sets; they come from the inductive rules in ``trace_oracle``, with
the memo shared across the done sets of one theory.
"""

import inspect
import itertools
import random

import pytest

from lendingnets import HornClause, fact, logic, provable_atoms, trace_atom_sets, urgent_atoms
from lendingnets.logic import clause_atoms, with_facts

from generators import random_theory
from trace_oracle import _traces

ATOMS = ("a", "b", "c", "d", "e")


def old_provable(theory: frozenset[HornClause], memo: dict | None = None) -> frozenset[str]:
    memo = {} if memo is None else memo
    if theory in memo:
        return memo[theory]
    proved: set[str] = set()
    changed = True
    while changed:
        changed = False
        for c in sorted(theory, key=HornClause.sort_key):
            if c.head in proved:
                continue
            if not c.contractual:
                if c.body <= proved:
                    proved.add(c.head)
                    changed = True
            else:
                assumed = theory | {fact(c.head)}
                if c.body <= old_provable(assumed, memo):
                    proved.add(c.head)
                    changed = True
    memo[theory] = frozenset(proved)
    return memo[theory]


def old_urgent_atoms(theory: frozenset[HornClause], done: frozenset[str], memo: dict) -> frozenset[str]:
    k = len(done)
    out = set()
    for word in _traces(with_facts(theory, done), memo):
        if len(word) > k and set(word[:k]) == done:
            out.add(word[k])
    return frozenset(out)


def subsets(atoms):
    atoms = sorted(atoms)
    return [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]


def theories(count: int, seed: int):
    rng = random.Random(seed)
    return [random_theory(rng, atoms=ATOMS, max_atoms=5, max_clauses=8) for _ in range(count)]


@pytest.mark.parametrize("seed", range(4))
def test_fixpoint_matches_the_recursive_definitions(seed):
    """Every subset of the theory's atoms is a done set, realizable or not."""
    for theory in theories(500, seed):
        memo: dict = {}
        assert provable_atoms(theory) == old_provable(theory)
        assert trace_atom_sets(theory) == {frozenset(w) for w in _traces(theory, memo)}
        for done in subsets(clause_atoms(theory)):
            assert urgent_atoms(theory, done) == old_urgent_atoms(theory, done, memo), (theory, done)


def test_the_logic_module_keeps_no_cache():
    cached = [name for name, fn in inspect.getmembers(logic, callable) if hasattr(fn, "cache_info")]
    assert cached == []
