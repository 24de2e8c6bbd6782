"""Logic-side urgency with the done atoms as extra facts, against the extended theory it replaced.

``old_urgent_atoms`` is the earlier definition, kept here as the oracle: add
each done atom to the theory as a fact clause (``with_facts``) and take the
greatest fixpoint of that extended theory.  ``urgent_atoms`` now passes the
done atoms to ``logic._granted`` as extra facts of its closure, building no
clause.  The two must agree on every owned done set, realizable or not, of
seeded random contracts, composed pairs, credit rings with and without a side
clause and ``pairs(1..4)``; and the fixpoint with extra facts must equal the
fixpoint of the extended theory, also for done atoms that head no clause.
"""

import itertools
import random

import pytest

from lendingnets import compose_contracts, urgent_atoms, urgent_logic
from lendingnets.logic import _atom_set, _granted, with_facts

from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract


def old_urgent_atoms(clauses, done):
    done = _atom_set(done, "done set")
    theory = with_facts(clauses, done)
    granted = _granted(theory)
    return frozenset(c.head for c in theory if c.body <= (granted if c.contractual else done)) - done


def owned_subsets(c):
    atoms = sorted(c.ownership)
    return [frozenset(s) for n in range(len(atoms) + 1) for s in itertools.combinations(atoms, n)]


def random_family():
    rng = random.Random(0xFAC7)
    return [random_contract(rng, max_clauses=8) for _ in range(300)]


def composed_family():
    rng = random.Random(0xC0F)
    return [compose_contracts(*compatible_contract_pair(rng)) for _ in range(150)]


def closed_family():
    out = [pairs_contract(n) for n in (1, 2, 3, 4)]
    for n in (3, 4, 5):
        out += [credit_ring(n)] + [credit_ring(n, side) for side in range(n)]
    return out


FAMILIES = {"random": random_family, "composed": composed_family, "pairs-rings": closed_family}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_extra_facts_match_the_extended_theory(family):
    headless = 0
    for c in FAMILIES[family]():
        heads = {cl.head for cl in c.clauses}
        for done in owned_subsets(c):
            want = old_urgent_atoms(c.clauses, done)
            assert urgent_logic(c, done) == want, (c.clauses, sorted(done))
            # "stray" is in no clause: a done atom that heads none, also where every owned atom heads one.
            for facts in (done, done | {"stray"}):
                assert urgent_atoms(c.clauses, facts) == old_urgent_atoms(c.clauses, facts), (c.clauses, sorted(facts))
                assert _granted(c.clauses, facts) == _granted(with_facts(c.clauses, facts)), (c.clauses, sorted(facts))
            headless += not done <= heads
    assert headless or family == "pairs-rings"


def test_clauses_given_once_as_an_iterator_are_read_once():
    c = pairs_contract(2)
    assert urgent_atoms(iter(c.clauses), {"a0"}) == old_urgent_atoms(c.clauses, {"a0"}) == {"b0", "a1"}
