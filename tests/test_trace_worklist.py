"""``proof_traces`` against the pass-based loop of the inductive rules.

``old_traces`` is an earlier definition, kept here as the oracle: it re-runs
every clause over every word until a whole pass adds nothing.  It computes
the least word set closed under the proof-trace rules, which the README
proves equal to the words the justification rule accepts.
"""

import random

import pytest

from lendingnets import HornClause, fact, proof_traces
from lendingnets.logic import concat, interleave

from generators import random_theory

ATOMS = ("a", "b", "c", "d", "e")


def old_traces(theory: frozenset[HornClause], memo: dict) -> frozenset[tuple[str, ...]]:
    if theory in memo:
        return memo[theory]
    words: set[tuple[str, ...]] = {()}
    changed = True
    while changed:
        changed = False
        for c in sorted(theory, key=HornClause.sort_key):
            if not c.contractual:
                for word in list(words):
                    if c.head not in word and c.body <= set(word):
                        new = concat(word, (c.head,))
                        if new not in words:
                            words.add(new)
                            changed = True
            else:
                assumed = theory | {fact(c.head)}
                justified = words if assumed == theory else old_traces(assumed, memo)
                for word in list(justified):
                    if c.body <= set(word):
                        for new in interleave(word, (c.head,)):
                            if new not in words:
                                words.add(new)
                                changed = True
    memo[theory] = frozenset(words)
    return memo[theory]


@pytest.mark.parametrize("seed", range(3))
def test_worklist_gives_the_same_words(seed):
    rng = random.Random(1000 + seed)
    for _ in range(100):
        theory = random_theory(rng, atoms=ATOMS, max_atoms=5, max_clauses=8)
        assert proof_traces(theory) == old_traces(theory, {}), sorted(theory, key=HornClause.sort_key)


def test_a_head_that_is_already_a_fact_reuses_the_growing_words():
    """``b ->> a`` next to the fact ``a``: the clause interleaves over the theory's own words."""
    theory = frozenset({fact("a"), HornClause("a", frozenset({"b"}), True), HornClause("b", frozenset({"a"}))})
    assert proof_traces(theory) == old_traces(theory, {}) == {(), ("a",), ("a", "b")}
