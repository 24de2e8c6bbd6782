"""The clause-line parser of contract documents, kept as the oracle for
``lendingnets.formats._parse_clause``.

``old_parse_clause`` is ``_parse_clause`` as it was when it walked the body
with an expected-separator flag, copied unchanged apart from its name and
imports.  Its branch for two atoms side by side can never run: the split
leaves a separator between any two atoms.
"""

from __future__ import annotations

import re

from lendingnets.errors import ContractError, DocumentError
from lendingnets.logic import HornClause

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_CLAUSE_SPLIT = re.compile(r"(->>|->|&)")


def _check_atom(token: str, lineno: int) -> str:
    if not _ATOM_RE.match(token):
        raise DocumentError(f"{token!r} is not an atom (lowercase identifier)", lineno)
    return token


def old_parse_clause(body_text: str, lineno: int) -> HornClause:
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
    expected_sep = False
    body: list[str] = []
    for piece in body_part:
        if expected_sep:
            if piece != "&":
                raise DocumentError("body atoms must be separated by '&'", lineno)
        else:
            if piece == "&":
                raise DocumentError("misplaced '&' in clause body", lineno)
            body.append(_check_atom(piece, lineno))
        expected_sep = not expected_sep
    if body and not expected_sep:
        raise DocumentError("clause body ends with a dangling '&'", lineno)
    if not body:
        raise DocumentError("clause needs a non-empty body; use a fact line instead", lineno)
    try:
        return HornClause(
            head=_check_atom(head_part[0], lineno),
            body=frozenset(body),
            contractual=(arrow == "->>"),
        )
    except ContractError as exc:
        raise DocumentError(str(exc), lineno) from exc
