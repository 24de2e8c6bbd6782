"""Horn contract logic: theories, provability, proof traces, urgency.

Clauses come in two kinds.  An intuitionistic clause ``x1 & ... & xn -> a``
yields its head once the whole body is available.  A contractual clause
``x1 & ... & xn ->> a`` may yield its head on credit: the head counts as
available immediately, provided the body becomes provable once the head is
assumed.  Proof traces record the orders in which atoms can be granted; they
are duplicate-free words, and a head granted on credit may come anywhere
before its own justification.

Provability, proof traces, urgency and trace atom sets all rest on one
justification rule: an atom of a granted word needs a ``->`` clause with its
body granted earlier, or a ``->>`` clause with its body anywhere in the word.

Two contracts compose by uniting their theories and joining their terms:
disjoint bound participants, agreeing ownership and paired goals.  Contract
nets join their terms by the same routine, ``_joined_terms``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ContractError
from .nets import Atom, _Canonical, _check_budget

Trace = tuple[Atom, ...]

Participant = str

# An atom names places and transitions of its compiled net, so it holds no
# character a net id forbids (``nets._ID_FORBIDDEN``) and none of the
# separators ``&``, ``@``, ``-`` and ``>`` that the compiler writes between
# atoms: two clauses never compile to one transition id.
_ATOM_RE = re.compile(r'[^\s=#"\\&@>-]+\Z')


def _check_atoms(atoms: Iterable, what: str) -> None:
    bad = [a for a in atoms if not isinstance(a, str) or not _ATOM_RE.match(a)]
    if bad:
        raise ContractError(f"bad {what} {min(bad, key=repr)!r}")


@dataclass(frozen=True)
class HornClause:
    """One clause; ``contractual`` selects ``->>`` over ``->``.

    A fact is an intuitionistic clause with an empty body; contractual
    clauses must have a non-empty body.  The body is a collection of atoms,
    never one ``str``, and every atom is a non-empty ``str`` without
    whitespace or any of ``= # " \\ & @ - >``, so that the compiler names
    each clause's transition and places apart from every other's.
    """

    head: Atom
    body: frozenset[Atom] = frozenset()
    contractual: bool = False

    def __post_init__(self):
        if isinstance(self.body, str):
            raise ContractError(f"clause body {self.body!r} is one string, not a collection of atoms")
        object.__setattr__(self, "body", frozenset(self.body))
        _check_atoms([self.head], "clause head")
        _check_atoms(self.body, "body atom")
        if self.contractual and not self.body:
            raise ContractError("a contractual clause needs a non-empty body")

    @property
    def is_fact(self) -> bool:
        return not self.body and not self.contractual

    def atoms(self) -> frozenset[Atom]:
        return self.body | {self.head}

    def sort_key(self) -> tuple:
        return (self.head, self.contractual, tuple(sorted(self.body)))


def fact(atom: Atom) -> HornClause:
    return HornClause(head=atom)


def clause_atoms(clauses: Iterable[HornClause]) -> frozenset[Atom]:
    out: set[Atom] = set()
    for c in clauses:
        out |= c.atoms()
    return frozenset(out)


def _store_terms(x) -> None:
    """Normalise the participants, ownership and goals of a contract or contract net in place."""
    object.__setattr__(x, "participants", frozenset(x.participants))
    object.__setattr__(x, "ownership", dict(x.ownership))
    object.__setattr__(x, "goals", frozenset(frozenset(g) for g in x.goals))


def _terms_key(x) -> tuple:
    """Sorted participants, ownership and goals of a contract or contract net."""
    return (
        tuple(sorted(x.participants)),
        tuple(sorted(x.ownership.items())),
        tuple(sorted(tuple(sorted(g)) for g in x.goals)),
    )


@dataclass(frozen=True, eq=False)
class PCLContract(_Canonical):
    """A theory, the participants bound by it, atom ownership, and goal sets.

    Ownership must cover every atom the theory or the goals mention, and the
    owner of every clause head must be one of the bound participants: a
    contract can only promise what its own participants control.  Every
    owned atom gets delivery places in the compiled net, so ownership keys
    are atoms by ``HornClause``'s rule.  Omitted
    fields are empty, except the goals: the one empty goal.  ``contract`` is
    this constructor under another name.

    Besides ``_canon``, the instance dict keeps what the compiler builds
    from the contract, each on first use (``nets._kept``): ``_compiled`` and
    ``_pruned``, the contract nets of ``compile_contract`` without and with
    ``prune``, and ``_urgency_net``, the consumed-places net that net-side
    urgency compiles when neither is kept.  None takes part in ``==``,
    ``hash`` or ``repr``.
    """

    clauses: frozenset[HornClause] = frozenset()
    participants: frozenset[Participant] = frozenset()
    ownership: Mapping[Atom, Participant] = field(default_factory=dict)
    goals: frozenset[frozenset[Atom]] = frozenset({frozenset()})

    def __post_init__(self):
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        _store_terms(self)
        _check_atoms(self.ownership, "owned atom")
        unowned = sorted(self.atoms() - set(self.ownership))
        if unowned:
            raise ContractError(f"atoms without an owner: {unowned}")
        for c in sorted(self.clauses, key=HornClause.sort_key):
            owner = self.ownership[c.head]
            if owner not in self.participants:
                raise ContractError(
                    f"head {c.head!r} is owned by {owner!r}, not a bound participant"
                )

    @cached_property
    def _canon(self) -> tuple:
        """Sorted fields: the key of ``==`` and ``hash``, built on first use."""
        return tuple(sorted(c.sort_key() for c in self.clauses)), *_terms_key(self)

    def atoms(self) -> frozenset[Atom]:
        return clause_atoms(self.clauses) | frozenset(a for g in self.goals for a in g) | frozenset(self.ownership)


# The constructor under its older name.
contract = PCLContract


def _granted(theory: Collection[HornClause]) -> frozenset[Atom]:
    """Greatest set of atoms the justification rule accepts (argued in the README).

    Grant every ``->>`` head on credit, close under ``->``, and withdraw each
    credit without a ``->>`` clause whose body lies in the closure, until none
    is withdrawn.
    """
    strict = [c for c in theory if not c.contractual]
    credit = [c for c in theory if c.contractual]
    waiting: dict[Atom, list[int]] = {}
    for i, c in enumerate(strict):
        for a in c.body:
            waiting.setdefault(a, []).append(i)
    assumed = {c.head for c in credit}
    while True:
        missing = [len(c.body) for c in strict]
        granted = assumed | {c.head for c in strict if not c.body}
        todo = list(granted)
        while todo:
            for i in waiting.get(todo.pop(), ()):
                missing[i] -= 1
                if not missing[i] and strict[i].head not in granted:
                    granted.add(strict[i].head)
                    todo.append(strict[i].head)
        kept = {c.head for c in credit if c.body <= granted}
        if kept == assumed:
            return frozenset(granted)
        assumed = kept


def provable_atoms(clauses: Iterable[HornClause]) -> frozenset[Atom]:
    """Least set of atoms derivable from the theory.

    An intuitionistic clause fires once its body is included; a contractual
    clause fires once its body is derivable under the added assumption of its
    own head.
    """
    return _granted(frozenset(clauses))


def admits_agreement(c: PCLContract) -> bool:
    """True when some goal set is entirely provable from the theory."""
    proved = provable_atoms(c.clauses)
    return any(goal <= proved for goal in c.goals)


def _joined_terms(first, second) -> dict:
    """Participants, ownership and goals of the composition of two contracts or contract nets."""
    overlap = first.participants & second.participants
    if overlap:
        raise ContractError(f"participants bound twice: {sorted(overlap)}")
    merged = dict(first.ownership)
    for atom, owner in second.ownership.items():
        if merged.get(atom, owner) != owner:
            raise ContractError(
                f"atom {atom!r} owned by {merged[atom]!r} on one side and {owner!r} on the other"
            )
        merged[atom] = owner
    known_first = first.participants | frozenset(first.ownership.values())
    known_second = second.participants | frozenset(second.ownership.values())
    for participant in sorted(known_first & known_second):
        left = {a for a, p in first.ownership.items() if p == participant}
        right = {a for a, p in second.ownership.items() if p == participant}
        if left != right:
            raise ContractError(
                f"participant {participant!r} owns {sorted(left)} on one side and {sorted(right)} on the other"
            )
    return {
        "participants": first.participants | second.participants,
        "ownership": merged,
        "goals": frozenset(g1 | g2 for g1 in first.goals for g2 in second.goals),
    }


def compose_contracts(first: PCLContract, second: PCLContract) -> PCLContract:
    """Union the theories and pair up the goals of two contracts.

    The bound participant sets must be disjoint and the ownership maps must
    agree wherever they overlap.  The composite goals are all unions of one
    goal set from each side.  Contract nets join these terms by the same rule.
    """
    return PCLContract(clauses=first.clauses | second.clauses, **_joined_terms(first, second))


def dedupe(word: Iterable[Atom]) -> Trace:
    """Drop repeated atoms, keeping each one's first occurrence."""
    return tuple(dict.fromkeys(word))


def concat(left: Iterable[Atom], right: Iterable[Atom]) -> Trace:
    """Concatenation followed by duplicate removal from the right."""
    return dedupe(tuple(left) + tuple(right))


def interleave(left: Iterable[Atom], right: Iterable[Atom]) -> frozenset[Trace]:
    """All shuffles of the two words, duplicates removed from the right."""
    u = dedupe(left)
    v = dedupe(right)
    total = len(u) + len(v)
    out: set[Trace] = set()
    for slots in itertools.combinations(range(total), len(u)):
        it_u, it_v = iter(u), iter(v)
        chosen = set(slots)
        word = tuple(next(it_u) if i in chosen else next(it_v) for i in range(total))
        out.add(dedupe(word))
    return frozenset(out)


def proof_traces(clauses: Iterable[HornClause]) -> frozenset[Trace]:
    """The orders in which the theory can grant its atoms.

    These are the duplicate-free words the justification rule accepts, which
    the README proves equal to the paper's inductive proof traces; they are
    not prefix-closed in general.  A depth-first search over the granted
    atoms appends an atom on a ``->`` clause with its body in the prefix, or
    else owes it on a ``->>`` clause with a granted body, and keeps each word
    whose owed atoms are paid; no prefix it visits is a dead end.
    """
    return bounded_proof_traces(clauses, math.inf)[0]


def bounded_proof_traces(
    clauses: Iterable[HornClause], budget: float
) -> tuple[frozenset[Trace], bool]:
    """The search of ``proof_traces`` keeping at most ``budget`` prefixes.

    Returns the words found and a completeness flag, which drops when the
    budget ran out; ``math.inf`` keeps every prefix.  Atoms are tried in
    sorted order, so a partial answer does not depend on the hash seed.
    """
    _check_budget(budget)
    theory = frozenset(clauses)
    granted = _granted(theory)
    strict: dict[Atom, list[frozenset[Atom]]] = {}
    credit: dict[Atom, list[frozenset[Atom]]] = {}
    for c in theory:
        if not c.contractual:
            strict.setdefault(c.head, []).append(c.body)
        elif c.body <= granted:
            credit.setdefault(c.head, []).append(c.body)
    candidates = [(a, strict.get(a, ()), a in credit) for a in sorted(granted)]
    words: set[Trace] = set()
    stack: list[tuple[Trace, frozenset[Atom], frozenset[Atom]]] = [((), frozenset(), frozenset())]
    kept = 1
    complete = True
    while stack:
        word, have, owed = stack.pop()
        if not owed or all(any(body <= have for body in credit[a]) for a in owed):
            words.add(word)
        for a, bodies, on_credit in candidates:
            if a in have:
                continue
            for body in bodies:
                if body <= have:
                    next_owed = owed
                    break
            else:
                if not on_credit:
                    continue
                next_owed = owed | {a}
            if kept >= budget:
                complete = False
                break
            kept += 1
            stack.append((word + (a,), have | {a}, next_owed))
    return frozenset(words), complete


def trace_atom_sets(clauses: Iterable[HornClause]) -> frozenset[frozenset[Atom]]:
    """Atom sets of the proof traces: the granted subsets that the clauses inside them grant exactly."""
    theory = frozenset(clauses)
    granted = sorted(_granted(theory))
    subsets = (frozenset(s) for n in range(len(granted) + 1) for s in itertools.combinations(granted, n))
    return frozenset(s for s in subsets if _granted([c for c in theory if c.head in s and c.body <= s]) == s)


def with_facts(clauses: Iterable[HornClause], atoms: Iterable[Atom]) -> frozenset[HornClause]:
    return frozenset(clauses) | {fact(a) for a in atoms}


def urgent_atoms(clauses: Iterable[HornClause], done: Iterable[Atom]) -> frozenset[Atom]:
    """Atoms that can be granted next once exactly ``done`` has been granted.

    Judged over the theory extended with ``done`` as facts: an atom is urgent
    when some proof trace reaches the fired set and continues with it, that
    is, when it has a ``->`` clause with its body in ``done`` or a ``->>``
    clause with its body granted by that theory.
    """
    done = frozenset(done)
    theory = with_facts(clauses, done)
    granted = _granted(theory)
    return frozenset(c.head for c in theory if c.body <= (granted if c.contractual else done)) - done


def _owned(c: PCLContract, atoms: Iterable[Atom]) -> frozenset[Atom]:
    atoms = frozenset(atoms)
    unknown = sorted(a for a in atoms if a not in c.ownership)
    if unknown:
        raise ContractError(f"cannot assume unowned atoms: {unknown}")
    return atoms


def urgent_logic(c: PCLContract, done: Iterable[Atom]) -> frozenset[Atom]:
    return urgent_atoms(c.clauses, _owned(c, done))
