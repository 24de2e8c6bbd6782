"""``proof_traces`` reads the justification rule; the inductive rules are the oracle.

The README proves that the duplicate-free words in which every atom has a
``->`` clause with its body earlier, or a ``->>`` clause with its body
anywhere, are exactly the words of the paper's inductive proof-trace rules.
``trace_oracle._traces`` applies those rules directly.
"""

import math
import random

import pytest

from lendingnets import HornClause, fact, proof_traces
from lendingnets.logic import bounded_proof_traces

from generators import credit_ring, pairs_contract, random_theory
from trace_oracle import _traces

ATOMS = ("a", "b", "c", "d", "e")


def justified(word: tuple[str, ...], theory: frozenset[HornClause]) -> bool:
    """The justification rule, read position by position."""
    if len(set(word)) != len(word):
        return False
    everything = set(word)
    for i, atom in enumerate(word):
        earlier = set(word[:i])
        if not any(
            c.head == atom and c.body <= (everything if c.contractual else earlier) for c in theory
        ):
            return False
    return True


def check(theory: frozenset[HornClause], memo: dict) -> None:
    words = proof_traces(theory)
    assert words == _traces(theory, memo), sorted(theory, key=HornClause.sort_key)
    assert all(justified(w, theory) for w in words)


@pytest.mark.parametrize("seed", range(3))
def test_the_rule_gives_the_inductive_words(seed):
    """500 draws per seed, each bare and with an added fact: 3,000 theories."""
    rng = random.Random(6000 + seed)
    for _ in range(500):
        theory = random_theory(rng, atoms=ATOMS, max_atoms=5, max_clauses=8)
        memo: dict = {}
        check(theory, memo)
        check(theory | {fact(rng.choice(ATOMS))}, memo)


CLOSED = {f"pairs{n}": pairs_contract(n) for n in (1, 2, 3)}
CLOSED |= {f"ring{n}": credit_ring(n) for n in (3, 4, 5)}
CLOSED |= {f"ring{n}-side": credit_ring(n, n - 1) for n in (3, 4, 5)}


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_the_rule_gives_the_inductive_words_on_closed_families(name):
    check(CLOSED[name].clauses, {})


@pytest.mark.parametrize("n, count", [(1, 2), (2, 9), (3, 112), (4, 2_921), (5, 126_966)])
def test_pairs_count_in_closed_form(n, count):
    """A word holds whole handshakes, each granting ``a`` before ``b``: (2k)!/2^k orders of k of them."""
    closed = sum(math.comb(n, k) * math.factorial(2 * k) // 2**k for k in range(n + 1))
    assert closed == count
    assert len(proof_traces(pairs_contract(n).clauses)) == count


@pytest.mark.parametrize("seed", range(2))
def test_credit_on_a_fact_adds_no_word(seed):
    """A ``->>`` clause whose head is already a fact can be deleted (README, corollary)."""
    rng = random.Random(7000 + seed)
    checked = 0
    while checked < 200:
        theory = random_theory(rng, atoms=ATOMS, max_atoms=5, max_clauses=8)
        theory |= {fact(c.head) for c in theory if c.contractual and rng.random() < 0.5}
        pruned = frozenset(c for c in theory if not (c.contractual and fact(c.head) in theory))
        if pruned == theory:
            continue
        checked += 1
        assert proof_traces(pruned) == proof_traces(theory) == _traces(theory, {})


def check_budgets(theory: frozenset[HornClause]) -> None:
    """Every prefix of a word is visited, so the search keeps exactly the prefixes of the words.

    Below that count it stops early and, since no visited prefix is a dead
    end, misses at least one word.
    """
    full = proof_traces(theory)
    needed = len({w[:i] for w in full for i in range(len(w) + 1)})
    for budget in (1, 2, 3, 5, 8, needed - 1, needed):
        if budget < 1:
            continue
        words, complete = bounded_proof_traces(theory, budget)
        assert complete == (budget >= needed), (budget, needed)
        assert words == full if complete else words < full


@pytest.mark.parametrize("seed", range(2))
def test_a_budget_keeps_a_subset_of_the_words(seed):
    rng = random.Random(8000 + seed)
    for _ in range(300):
        check_budgets(random_theory(rng, atoms=ATOMS, max_atoms=5, max_clauses=8))


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_a_budget_keeps_a_subset_of_the_words_on_closed_families(name):
    check_budgets(CLOSED[name].clauses)
