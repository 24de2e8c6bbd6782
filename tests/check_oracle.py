"""The ``lpn check`` handlers as they were before a contract was decided on
its consumed-places net, kept as the oracle for that route.

Copied unchanged apart from their imports and one call: both compile the
full net of a contract, one delivery place per atom and clause, and name a
node as that net reads it.  ``cmd_check_agreement`` calls
``agreement_reachable(compile_contract(doc), ...)``, the body
``agreement_via_net`` had when it was copied, so that it stays a walk of the
full compile now that ``agreement_via_net`` walks the consumed-places net.
"""

from __future__ import annotations

import sys

from lendingnets.analysis import weakly_terminates
from lendingnets.cli import _NET_ANSWER, EXIT_ERROR, EXIT_FAILS, EXIT_OK, _answer, _read_document
from lendingnets.compiler import compile_contract
from lendingnets.contracts import agreement_reachable, weakly_terminates_in
from lendingnets.logic import admits_agreement
from lendingnets.nets import Outcome


def cmd_check_wt(args) -> int:
    kind, doc = _read_document(args.file)
    if kind == "net":
        verdict = weakly_terminates(doc.net, doc.goal_like(), args.budget)
    else:
        verdict = weakly_terminates_in(compile_contract(doc), args.budget)
    return _answer(f"weak termination: {verdict.outcome.value}", verdict)


def cmd_check_agreement(args) -> int:
    kind, doc = _read_document(args.file)
    if kind != "contract":
        print("agreement is a property of contract documents", file=sys.stderr)
        return EXIT_ERROR
    if args.via == "logic":
        answer = admits_agreement(doc)
        print(f"agreement (logic): {'true' if answer else 'false'}")
        return EXIT_OK if answer else EXIT_FAILS
    logical = admits_agreement(doc) if args.via == "both" else None
    verdict = agreement_reachable(compile_contract(doc), args.budget)
    if args.via == "net" or verdict.outcome is Outcome.INCONCLUSIVE:
        return _answer(f"agreement (net): {_NET_ANSWER[verdict.outcome]}", verdict)
    net_answer = verdict.outcome is Outcome.HOLDS
    if net_answer is not logical:
        raise AssertionError(
            f"logic and net disagree on agreement: logic={logical} net={net_answer}"
        )
    print(f"logic=net={'true' if logical else 'false'}")
    return EXIT_OK if logical else EXIT_FAILS
