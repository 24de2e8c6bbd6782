"""Line-oriented textual formats for nets (.lpn) and contracts (.pcl).

Net documents::

    # comment
    alphabet a b
    place p1 label=b lending
    place p3 tokens=1
    transition ta label=a
    arc p1 ta
    goal p3=0 honored

Each ``goal`` line is one alternative, a conjunction of token constraints:
``PLACE=0``, ``PLACE>=1``, ``PLACE>=0``, ``honored`` (no place in debt), or
``false`` (an unsatisfiable alternative).  ``serialize_net`` writes them in
this order, the places of each kind sorted.

Contract documents::

    participant A B
    owner a A
    owner b B
    fact a
    clause a ->> b
    goal a b

Atoms start lowercase, participants start uppercase.  Every mentioned atom
needs an ``owner`` line, clause heads must be owned by declared participants,
and a document with no ``goal`` line gets the empty goal set.  So a contract
with no goal set at all has no document, and ``serialize_contract`` rejects it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .analysis import HONORED_GOAL, MarkingPredicate
from .compiler import star_pid
from .contracts import ContractNet
from .errors import ContractError, DocumentError, NetStructureError
from .logic import HornClause, PCLContract
from .nets import LendingNet

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_PARTICIPANT_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

NET_EXTENSION = ".lpn"
CONTRACT_EXTENSION = ".pcl"


# Goal constraints in the order a goal line writes them, each with the
# ``MarkingPredicate`` field it sets: a place constraint is a place id and
# this suffix, a flag is this word alone.
_GOAL_FIELD = {"=0": "zero", ">=1": "positive", ">=0": "nonneg", "honored": "honored", "false": "unsat"}


def _predicate_key(p: MarkingPredicate) -> tuple:
    values = (getattr(p, f.name) for f in fields(p))
    return tuple(v if isinstance(v, bool) else tuple(sorted(v)) for v in values)


@dataclass(frozen=True)
class NetDocument:
    """A net plus the goal alternatives stated alongside it."""

    net: LendingNet
    goals: tuple[MarkingPredicate, ...] = ()

    def __post_init__(self):
        canonical = tuple(sorted(set(self.goals), key=_predicate_key))
        object.__setattr__(self, "goals", canonical)

    def goal_like(self):
        """Goal usable by the analyses; honored markings when none is stated."""
        return self.goals if self.goals else (HONORED_GOAL,)


def conjoin(first: MarkingPredicate, second: MarkingPredicate) -> MarkingPredicate:
    return MarkingPredicate(**{f.name: getattr(first, f.name) | getattr(second, f.name) for f in fields(first)})


def combine_goals(
    first: tuple[MarkingPredicate, ...], second: tuple[MarkingPredicate, ...]
) -> tuple[MarkingPredicate, ...]:
    """Conjunction of two alternative families; a missing family is neutral."""
    if not first:
        return second
    if not second:
        return first
    return tuple(conjoin(f, s) for f in first for s in second)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _attributes(attrs: list[str], known: tuple[str, ...], kind: str, lineno: int) -> dict[str, str]:
    """Attributes by name, each ``name=value`` or a bare flag: known, given once, and not empty."""
    found: dict[str, str] = {}
    for attr in attrs:
        name, eq, value = attr.partition("=")
        if name + eq not in known:
            raise DocumentError(f"unknown {kind} attribute {attr!r}", lineno)
        if name in found:
            raise DocumentError(f"{kind} attribute {name!r} given twice", lineno)
        if eq and not value:
            raise DocumentError(f"{kind} attribute {attr!r} has an empty value", lineno)
        found[name] = value
    return found


def parse_net(text: str) -> NetDocument:
    places: dict[str, dict] = {}
    transitions: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    alphabet: set[str] = set()
    saw_alphabet = False
    goals: list[MarkingPredicate] = []

    for lineno, tokens in _content_lines(text):
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "alphabet":
            if not rest:
                raise DocumentError("alphabet line needs at least one atom", lineno)
            saw_alphabet = True
            alphabet.update(rest)
        elif keyword in ("place", "transition"):
            if not rest:
                raise DocumentError(f"{keyword} line needs an id", lineno)
            xid = rest[0]
            if xid in places or xid in transitions:
                raise DocumentError(f"duplicate id {xid!r}", lineno)
            if keyword == "transition":
                transitions[xid] = _attributes(rest[1:], ("label=",), "transition", lineno).get("label")
                continue
            attrs = places[xid] = _attributes(rest[1:], ("label=", "tokens=", "lending"), "place", lineno)
            count = attrs.get("tokens", "0")
            if re.fullmatch("-[0-9]+", count):
                raise DocumentError("token count must be non-negative", lineno)
            if not re.fullmatch("[0-9]+", count):
                raise DocumentError(f"bad token count in {'tokens=' + count!r}", lineno)
            try:
                attrs["tokens"] = int(count)
            except ValueError:
                raise DocumentError(f"token count of {len(count)} digits is too large", lineno) from None
        elif keyword == "arc":
            if len(rest) != 2:
                raise DocumentError("arc line needs a source and a target", lineno)
            for endpoint in rest:
                if endpoint not in places and endpoint not in transitions:
                    raise DocumentError(f"arc endpoint {endpoint!r} is not declared", lineno)
            arcs.append((rest[0], rest[1]))
        elif keyword == "goal":
            goals.append(_parse_goal(rest, places, lineno))
        else:
            raise DocumentError(f"unknown keyword {keyword!r}", lineno)

    try:
        net = LendingNet(
            places=places,
            transitions=transitions,
            flow=arcs,
            place_labels={p: attrs.get("label") for p, attrs in places.items()},
            transition_labels=transitions,
            initial={p: attrs["tokens"] for p, attrs in places.items()},
            lending=(p for p, attrs in places.items() if "lending" in attrs),
            alphabet=alphabet if saw_alphabet else None,
        )
    except NetStructureError as exc:
        raise DocumentError(str(exc)) from exc
    return NetDocument(net=net, goals=tuple(goals))


def _parse_goal(tokens: list[str], places: dict, lineno: int) -> MarkingPredicate:
    if not tokens:
        raise DocumentError("goal line needs at least one constraint", lineno)
    found: dict[str, set[str] | bool] = {}
    for token in tokens:
        if "=" not in token:
            if token not in _GOAL_FIELD:
                raise DocumentError(f"unreadable goal constraint {token!r}", lineno)
            found[_GOAL_FIELD[token]] = True
            continue
        sep = ">=" if ">=" in token else "="
        pid, _, bound = token.rpartition(sep)
        name = _GOAL_FIELD.get(sep + bound)
        if name is None:
            problem = "unsupported bound in" if sep == ">=" else "unsupported constraint"
            raise DocumentError(f"{problem} {token!r}", lineno)
        if pid not in places:
            raise DocumentError(f"goal constrains unknown place {pid!r}", lineno)
        found.setdefault(name, set()).add(pid)
    return MarkingPredicate(**{name: v if v is True else frozenset(v) for name, v in found.items()})


def serialize_net(doc: NetDocument | LendingNet) -> str:
    if isinstance(doc, LendingNet):
        doc = NetDocument(net=doc)
    net = doc.net
    lines: list[str] = []
    if net.alphabet != net.used_labels():
        lines.append("alphabet " + " ".join(sorted(net.alphabet)))
    for p in sorted(net.places):
        parts = [f"place {p}"]
        label = net.place_labels.get(p)
        if label is not None:
            parts.append(f"label={label}")
        if p in net.lending:
            parts.append("lending")
        tokens = net.initial.get(p, 0)
        if tokens:
            parts.append(f"tokens={tokens}")
        lines.append(" ".join(parts))
    for t in sorted(net.transitions):
        label = net.transition_labels.get(t)
        suffix = f" label={label}" if label is not None else ""
        lines.append(f"transition {t}{suffix}")
    for src, dst in sorted(net.flow):
        lines.append(f"arc {src} {dst}")
    for goal in doc.goals:
        parts = ["goal"]
        for syntax, name in _GOAL_FIELD.items():
            value = getattr(goal, name)
            if value is True:
                parts.append(syntax)
            elif value:
                parts.extend(p + syntax for p in sorted(value))
        if len(parts) == 1:
            raise DocumentError("an always-true goal alternative has no document form")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _check_atom(token: str, lineno: int) -> str:
    if not _ATOM_RE.match(token):
        raise DocumentError(f"{token!r} is not an atom (lowercase identifier)", lineno)
    return token


def _check_participant(token: str, lineno: int) -> str:
    if not _PARTICIPANT_RE.match(token):
        raise DocumentError(f"{token!r} is not a participant (capitalized identifier)", lineno)
    return token


_CLAUSE_SPLIT = re.compile(r"(->>|->|&)")


def parse_contract(text: str) -> PCLContract:
    participants: set[str] = set()
    ownership: dict[str, str] = {}
    clauses: list[HornClause] = []
    goals: list[frozenset[str]] = []

    for lineno, tokens in _content_lines(text):
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "participant":
            if not rest:
                raise DocumentError("participant line needs at least one name", lineno)
            participants.update(_check_participant(p, lineno) for p in rest)
        elif keyword == "owner":
            if len(rest) != 2:
                raise DocumentError("owner line needs an atom and a participant", lineno)
            atom = _check_atom(rest[0], lineno)
            owner = _check_participant(rest[1], lineno)
            if ownership.get(atom, owner) != owner:
                raise DocumentError(f"atom {atom!r} declared with two owners", lineno)
            ownership[atom] = owner
        elif keyword == "fact":
            if len(rest) != 1:
                raise DocumentError("fact line needs exactly one atom", lineno)
            clauses.append(HornClause(head=_check_atom(rest[0], lineno)))
        elif keyword == "clause":
            clauses.append(_parse_clause(" ".join(rest), lineno))
        elif keyword == "goal":
            goals.append(frozenset(_check_atom(a, lineno) for a in rest))
        else:
            raise DocumentError(f"unknown keyword {keyword!r}", lineno)

    try:
        return PCLContract(
            clauses=frozenset(clauses),
            participants=frozenset(participants),
            ownership=ownership,
            goals=frozenset(goals) if goals else frozenset({frozenset()}),
        )
    except ContractError as exc:
        raise DocumentError(str(exc)) from exc


def _parse_clause(body_text: str, lineno: int) -> HornClause:
    pieces = [p.strip() for p in _CLAUSE_SPLIT.split(body_text)]
    pieces = [p for p in pieces if p]
    arrows = [p for p in pieces if p in ("->", "->>")]
    if len(arrows) != 1:
        raise DocumentError("clause needs exactly one arrow", lineno)
    arrow = arrows[0]
    split = pieces.index(arrow)
    body_part, head_part = pieces[:split], pieces[split + 1 :]
    if len(head_part) != 1 or head_part[0] == "&":
        raise DocumentError("clause needs exactly one head atom", lineno)
    # The split leaves a separator between any two atoms, so a body that
    # starts with an atom alternates atom and '&'.
    body = body_part[::2]
    if not body:
        raise DocumentError("clause needs a non-empty body; use a fact line instead", lineno)
    for piece in body:
        if piece == "&":
            raise DocumentError("misplaced '&' in clause body", lineno)
        _check_atom(piece, lineno)
    if len(body_part) % 2 == 0:
        raise DocumentError("clause body ends with a dangling '&'", lineno)
    return HornClause(
        head=_check_atom(head_part[0], lineno),
        body=frozenset(body),
        contractual=(arrow == "->>"),
    )


def serialize_contract(c: PCLContract) -> str:
    if not c.goals:
        raise ContractError("a contract with no goal set has no document form")
    lines: list[str] = []
    if c.participants:
        lines.append("participant " + " ".join(sorted(c.participants)))
    for atom in sorted(c.ownership):
        lines.append(f"owner {atom} {c.ownership[atom]}")
    for clause in sorted(c.clauses, key=lambda cl: (not cl.is_fact, cl.sort_key())):
        if clause.is_fact:
            lines.append(f"fact {clause.head}")
        else:
            arrow = "->>" if clause.contractual else "->"
            body = " & ".join(sorted(clause.body))
            lines.append(f"clause {body} {arrow} {clause.head}")
    if c.goals != frozenset({frozenset()}):
        for goal in sorted(c.goals, key=lambda g: tuple(sorted(g))):
            lines.append(("goal " + " ".join(sorted(goal))).rstrip())
    return "\n".join(lines) + "\n"


def contract_net_document(cn: ContractNet) -> NetDocument:
    """Net document of a compiled contract, goals restated over token counts.

    An atom is granted exactly when its control place is spent, so each goal
    set becomes zero-count constraints on its control places, at-least-one
    constraints on the remaining ones, plus honoredness.  A goal set naming
    an atom that can never be granted becomes an unsatisfiable alternative.
    """
    net = cn.net
    heads = [a for a in sorted(net.alphabet) if star_pid(a) in net.places]
    goals = []
    for goal in sorted(cn.goals, key=lambda g: tuple(sorted(g))):
        if not goal <= set(heads):
            goals.append(MarkingPredicate(honored=True, unsat=True))
            continue
        goals.append(
            MarkingPredicate(
                zero=frozenset(star_pid(a) for a in sorted(goal)),
                positive=frozenset(star_pid(a) for a in heads if a not in goal),
                honored=True,
            )
        )
    return NetDocument(net=net, goals=tuple(goals))


def detect_kind(path: str | None, text: str) -> str:
    """Classify a document as ``net`` or ``contract`` by extension, then content."""
    if path:
        lowered = path.lower()
        if lowered.endswith(NET_EXTENSION):
            return "net"
        if lowered.endswith(CONTRACT_EXTENSION):
            return "contract"
    for _, tokens in _content_lines(text):
        keyword = tokens[0]
        if keyword in ("place", "transition", "arc", "alphabet"):
            return "net"
        if keyword in ("participant", "owner", "clause", "fact"):
            return "contract"
    raise DocumentError("cannot tell whether this is a net or a contract document")
