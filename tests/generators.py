"""Seeded random nets, theories, and contracts for the randomized suites."""

from __future__ import annotations

import random

from lendingnets import HornClause, LendingNet, PCLContract

ATOM_POOL = ("a", "b", "c", "d")
OWNER_OF = {"a": "A", "b": "B", "c": "C", "d": "D"}


def random_theory(
    rng: random.Random,
    atoms: tuple[str, ...] = ATOM_POOL,
    max_atoms: int = 4,
    max_clauses: int = 5,
    heads: tuple[str, ...] | None = None,
) -> frozenset[HornClause]:
    """Up to ``max_clauses`` mixed clauses over a small atom pool."""
    pool = list(atoms[: rng.randint(1, max_atoms)])
    head_pool = [h for h in (heads or pool) if h in pool] or pool[:1]
    clauses = set()
    for _ in range(rng.randint(1, max_clauses)):
        head = rng.choice(head_pool)
        contractual = rng.random() < 0.5
        size = rng.randint(1 if contractual else 0, min(3, len(pool)))
        body = frozenset(rng.sample(pool, size))
        if contractual and not body:
            contractual = False
        clauses.add(HornClause(head=head, body=body, contractual=contractual))
    return frozenset(clauses)


def random_contract(
    rng: random.Random,
    atoms: tuple[str, ...] = ATOM_POOL,
    max_atoms: int = 4,
    max_clauses: int = 5,
    heads: tuple[str, ...] | None = None,
) -> PCLContract:
    """A contract around a random theory, goals drawn from its atoms."""
    clauses = random_theory(rng, atoms, max_atoms, max_clauses, heads)
    mentioned = sorted(frozenset().union(*(c.atoms() for c in clauses)))
    goals = []
    for _ in range(rng.randint(1, 2)):
        goals.append(frozenset(rng.sample(mentioned, rng.randint(0, len(mentioned)))))
    return PCLContract(
        clauses=clauses,
        participants=frozenset(OWNER_OF[c.head] for c in clauses),
        ownership={a: OWNER_OF[a] for a in mentioned},
        goals=frozenset(goals),
    )


def random_net(
    rng: random.Random,
    prefix: str,
    alphabet: tuple[str, ...] = ("a", "b", "c"),
    label_pool: tuple[str, ...] | None = None,
) -> LendingNet:
    """A small occurrence net with namespaced ids over a shared alphabet.

    Every transition gets a private, initially marked, unlabeled input place,
    which bounds each transition to one firing per run.
    """
    label_pool = label_pool or alphabet
    n_shared = rng.randint(1, 3)
    shared = [f"{prefix}.s{i}" for i in range(n_shared)]
    tids = [f"{prefix}.t{i}" for i in range(rng.randint(1, 3))]
    places = list(shared)
    flow: set[tuple[str, str]] = set()
    place_labels: dict[str, str] = {}
    transition_labels: dict[str, str] = {}
    initial: dict[str, int] = {}
    lending: set[str] = set()

    for s in shared:
        if rng.random() < 0.8:
            place_labels[s] = rng.choice(label_pool)
            if rng.random() < 0.4:
                lending.add(s)

    for t in tids:
        trigger = f"{prefix}.m{t.rsplit('.t', 1)[1]}"
        places.append(trigger)
        initial[trigger] = 1
        flow.add((trigger, t))
        if rng.random() < 0.85:
            transition_labels[t] = rng.choice(label_pool)
        for s in rng.sample(shared, rng.randint(0, min(2, n_shared))):
            flow.add((s, t))
        for s in rng.sample(shared, rng.randint(0, min(2, n_shared))):
            if s not in place_labels or rng.random() < 0.5:
                flow.add((t, s))

    # Producers must carry their target place's label for correct labeling.
    for src, dst in list(flow):
        if dst in place_labels and transition_labels.get(src) != place_labels[dst]:
            flow.discard((src, dst))

    return LendingNet.build(
        places=places,
        transitions=tids,
        flow=flow,
        place_labels=place_labels,
        transition_labels=transition_labels,
        initial=initial,
        lending=lending,
        alphabet=alphabet,
    )


def random_plain_net(rng: random.Random, prefix: str = "n") -> LendingNet:
    """A small net without lending places, for classic-semantics comparison."""
    net = random_net(rng, prefix)
    return LendingNet(
        places=net.places,
        transitions=net.transitions,
        flow=net.flow,
        place_labels=net.place_labels,
        transition_labels=net.transition_labels,
        initial=net.initial,
        lending=frozenset(),
        alphabet=net.alphabet,
    )


def compatible_contract_pair(rng: random.Random) -> tuple[PCLContract, PCLContract]:
    """Two composable contracts: disjoint head atoms, shared ownership map."""
    first = random_contract(rng, atoms=("a", "b", "c", "d"), max_atoms=4, max_clauses=3, heads=("a", "b"))
    second = random_contract(rng, atoms=("c", "d", "a", "b"), max_atoms=4, max_clauses=3, heads=("c", "d"))
    return first, second


def random_cyclic_net(rng: random.Random, prefix: str) -> LendingNet:
    """A random_net in which some transitions put their private token back.

    Those transitions can fire again in the same run, so the net is usually
    not an occurrence net and its reachability graph may be unbounded.
    """
    net = random_net(rng, prefix)
    returns = {
        (t, f"{prefix}.m{t.rsplit('.t', 1)[1]}")
        for t in sorted(net.transitions)
        if rng.random() < 0.6
    }
    return LendingNet(
        places=net.places,
        transitions=net.transitions,
        flow=net.flow | returns,
        place_labels=net.place_labels,
        transition_labels=net.transition_labels,
        initial=net.initial,
        lending=net.lending,
        alphabet=net.alphabet,
    )


def _credit_contract(clauses: list[HornClause]) -> PCLContract:
    atoms = sorted(frozenset().union(*(c.atoms() for c in clauses)))
    return PCLContract(
        clauses=frozenset(clauses),
        participants=frozenset("P" + c.head for c in clauses),
        ownership={a: "P" + a for a in atoms},
        goals=frozenset({frozenset(atoms)}),
    )


def pairs_contract(n: int) -> PCLContract:
    """n independent credit handshakes ``b_j ->> a_j``, ``a_j -> b_j``; 3^n graph nodes."""
    clauses = []
    for j in range(n):
        clauses.append(HornClause(head=f"a{j}", body=frozenset({f"b{j}"}), contractual=True))
        clauses.append(HornClause(head=f"b{j}", body=frozenset({f"a{j}"})))
    return _credit_contract(clauses)


def credit_ring(n: int, side: int | None = None) -> PCLContract:
    """Credit ring ``x_{j+1} ->> x_j``; with ``side`` also the strict clause ``x_side -> s``."""
    clauses = [
        HornClause(head=f"x{j}", body=frozenset({f"x{(j + 1) % n}"}), contractual=True)
        for j in range(n)
    ]
    if side is not None:
        clauses.append(HornClause(head="s", body=frozenset({f"x{side}"})))
    return _credit_contract(clauses)


def settled_pairs(n: int) -> PCLContract:
    """``pairs_contract(n)`` plus the strict settlement ``b_0 & ... & b_{n-1} -> z``, joining every handshake."""
    settlement = HornClause(head="z", body=frozenset(f"b{j}" for j in range(n)))
    return _credit_contract([*pairs_contract(n).clauses, settlement])
