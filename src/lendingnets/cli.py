"""Command line front end.

Exit codes: 0 when the command succeeds or the checked property holds, 1
when it fails, 2 on usage, syntax, or semantic errors (a ``--budget`` below 1
among them), 3 when a bounded analysis ran out of budget and the answer is
unknown, 4 on an internal error such as the logic and net sides disagreeing.

An argv is read by screen, then name (README, "What a contract costs before
its walk"): a plain one, the command's words, exact option spellings with
separate values and one run of positionals, is read into the namespace
``parse_args`` would give, off a table of the parser's actions; argparse reads
every other one and writes every usage, help and error text.  The parser and
the table are built once per process: ``parse_args`` fills a fresh namespace
on each call, and nothing writes to either.

``check wt`` and ``check agreement`` decide a contract once, on its consumed-places
net (``compiler._urgency_net``); a failing ``check wt`` names its stuck node as the
full net reads it (``compiler._full_text``), so no check compiles the full net.
``compile`` and ``dot`` print every place, so they compile the whole net at once
(``compiler._whole``), with no consumed-places net first.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .analysis import trace_set, urgent_for_done_set, weakly_terminates
from .compiler import _full_text, _urgency_net, _whole
from .compose import compose_many, widen_alphabet
from .dot import export_dot
from .errors import DocumentError, IncompleteExplorationError, ToolkitError
from .formats import (
    NetDocument,
    combine_goals,
    contract_net_document,
    detect_kind,
    parse_contract,
    parse_net,
    serialize_contract,
    serialize_net,
)
from .contracts import _all_can_reach, agreement_reachable
from .logic import admits_agreement, bounded_proof_traces, compose_contracts, urgent_logic
from .nets import DEFAULT_BUDGET, Outcome, Verdict, _check_budget

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

_EXIT_BY_OUTCOME = {
    Outcome.HOLDS: EXIT_OK,
    Outcome.FAILS: EXIT_FAILS,
    Outcome.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

_NET_ANSWER = {
    Outcome.HOLDS: "true",
    Outcome.FAILS: "false",
    Outcome.INCONCLUSIVE: "inconclusive",
}

EPSILON = "ε"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpn",
        description="Analyze lending Petri nets and Horn contract documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a document and echo its normal form")
    p.set_defaults(handler=cmd_parse)
    p.add_argument("file")

    p = sub.add_parser("compile", help="translate a contract document into a net document")
    p.set_defaults(handler=cmd_compile)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--prune", action="store_true",
                   help="keep only the delivery places of clause heads and of each clause's own body")

    p = sub.add_parser("compose", help="compose two or more documents of the same kind")
    p.set_defaults(handler=cmd_compose)
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output")

    p = sub.add_parser("check", help="decide a property of a document")
    kinds = p.add_subparsers(dest="property", required=True)
    wt = kinds.add_parser("wt", help="weak termination toward the stated goals")
    wt.set_defaults(handler=cmd_check_wt)
    wt.add_argument("file")
    wt.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ag = kinds.add_parser("agreement", help="does the contract admit an agreement")
    ag.set_defaults(handler=cmd_check_agreement)
    ag.add_argument("file")
    ag.add_argument("--via", choices=("logic", "net", "both"), default="both")
    ag.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("urgent", help="atoms that must be offered next at a done set")
    p.set_defaults(handler=cmd_urgent)
    p.add_argument("file")
    p.add_argument("--done", default="", help="comma separated atoms already granted")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("traces", help="enumerate the observable words of a document")
    p.set_defaults(handler=cmd_traces)
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("dot", help="render a document as Graphviz input")
    p.set_defaults(handler=cmd_dot)
    p.add_argument("file")
    p.add_argument("-o", "--output")

    return parser


@functools.cache
def _plain_table() -> dict:
    """``build_parser()``'s leaf commands by their words: (word count, namespace
    defaults, options by exact spelling, the one positional action, of one
    value or, with ``nargs="+"``, more).  Only options that store one value
    or a constant are screened: any other, ``-h`` among them, goes to argparse."""
    table = {}

    def visit(parser, words, values):
        actions = parser._actions
        values = {**values, **parser._defaults,
                  **{a.dest: a.default for a in actions if argparse.SUPPRESS not in (a.dest, a.default)}}
        for a in actions:
            if isinstance(a, argparse._SubParsersAction):
                for name, child in a.choices.items():
                    visit(child, (*words, name), {**values, a.dest: name})
                return
        options = {spelling: a for a in actions for spelling in a.option_strings
                   if isinstance(a, argparse._StoreConstAction) or type(a) is argparse._StoreAction and a.nargs is None}
        (positional,) = [a for a in actions if not a.option_strings]
        table[words] = (len(words), values, options, positional)

    visit(build_parser(), (), {})
    return table


def _value(action: argparse.Action, text: str):
    """``text`` read as argparse reads it for ``action``; raises as argparse's reading fails."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _plain_args(argv) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` gives when ``argv`` is plain, else None."""
    table = _plain_table()
    leaf = table.get(tuple(argv[:1])) or table.get(tuple(argv[:2]))
    if leaf is None:
        return None
    i, values, options, positional = leaf
    values, at = dict(values), []
    try:
        while i < len(argv):
            arg = argv[i]
            if arg[:1] != "-":
                at.append(i)
            elif (action := options.get(arg)) is None:
                return None
            elif action.nargs == 0:
                values[action.dest] = action.const
            else:
                i += 1
                if i == len(argv) or argv[i][:1] == "-":
                    return None
                values[action.dest] = _value(action, argv[i])
            i += 1
        if not at or at[-1] - at[0] != len(at) - 1 or positional.nargs is None and len(at) > 1:
            return None
        run = [_value(positional, argv[j]) for j in at]
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    values[positional.dest] = run if positional.nargs else run[0]
    return argparse.Namespace(**values)


def _read_document(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 at byte {exc.start}") from None
    kind = detect_kind(path, text)
    if kind == "net":
        return kind, parse_net(text)
    return kind, parse_contract(text)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _answer(line: str, verdict: Verdict) -> int:
    """Print ``line``, and the detail, read first, on stderr unless the verdict holds; return its exit code."""
    detail = "" if verdict.outcome is Outcome.HOLDS else verdict.detail
    print(line)
    if detail:
        print(f"  {detail}", file=sys.stderr)
    return _EXIT_BY_OUTCOME[verdict.outcome]


def cmd_parse(args) -> int:
    kind, doc = _read_document(args.file)
    if kind == "net":
        sys.stdout.write(serialize_net(doc))
    else:
        sys.stdout.write(serialize_contract(doc))
    return EXIT_OK


def cmd_compile(args) -> int:
    kind, doc = _read_document(args.file)
    if kind != "contract":
        print("compile expects a contract document", file=sys.stderr)
        return EXIT_ERROR
    compiled = _whole(doc, args.prune)
    _emit(serialize_net(contract_net_document(compiled)), args.output)
    return EXIT_OK


def cmd_compose(args) -> int:
    if len(args.files) < 2:
        print("compose needs at least two documents", file=sys.stderr)
        return EXIT_ERROR
    parsed = [_read_document(f) for f in args.files]
    kinds = {kind for kind, _ in parsed}
    if len(kinds) != 1:
        print("compose needs documents of a single kind", file=sys.stderr)
        return EXIT_ERROR
    if kinds == {"contract"}:
        result = parsed[0][1]
        for _, doc in parsed[1:]:
            result = compose_contracts(result, doc)
        _emit(serialize_contract(result), args.output)
        return EXIT_OK
    docs = [doc for _, doc in parsed]
    nets = widen_alphabet([doc.net for doc in docs])
    goals: tuple = ()
    for doc in docs:
        goals = combine_goals(goals, doc.goals)
    composite = NetDocument(net=compose_many(nets), goals=goals)
    _emit(serialize_net(composite), args.output)
    return EXIT_OK


def cmd_check_wt(args) -> int:
    kind, doc = _read_document(args.file)
    if kind == "net":
        verdict = weakly_terminates(doc.net, doc.goal_like(), args.budget)
    else:
        verdict = _all_can_reach(_urgency_net(doc), args.budget, None, False, functools.partial(_full_text, doc))
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
    verdict = agreement_reachable(_urgency_net(doc), args.budget)
    if args.via == "net" or verdict.outcome is Outcome.INCONCLUSIVE:
        return _answer(f"agreement (net): {_NET_ANSWER[verdict.outcome]}", verdict)
    net_answer = verdict.outcome is Outcome.HOLDS
    if net_answer is not logical:
        raise AssertionError(f"logic and net disagree on agreement: logic={logical} net={net_answer}")
    print(f"logic=net={'true' if logical else 'false'}")
    return EXIT_OK if logical else EXIT_FAILS


def _parse_done(value: str) -> frozenset[str]:
    return frozenset(a for a in re.split(r"[,\s]+", value) if a)


def cmd_urgent(args) -> int:
    kind, doc = _read_document(args.file)
    done = _parse_done(args.done)
    if kind == "contract":
        atoms = urgent_logic(doc, done)
    else:
        atoms = urgent_for_done_set(doc.net, done, args.budget)
    print(" ".join(sorted(atoms)))
    return EXIT_OK


def cmd_traces(args) -> int:
    kind, doc = _read_document(args.file)
    if kind == "contract":
        words, complete = bounded_proof_traces(doc.clauses, args.budget)
    else:
        words, complete = trace_set(doc.net, args.budget)
    for word in sorted(words, key=lambda w: (len(w), w)):
        print(" ".join(word) if word else EPSILON)
    if not complete:
        print("enumeration incomplete: budget exhausted", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_dot(args) -> int:
    kind, doc = _read_document(args.file)
    name = Path(args.file).stem
    if kind == "contract":
        text = export_dot(_whole(doc), name=name)
    else:
        text = export_dot(doc.net, name=name)
    _emit(text, args.output)
    return EXIT_OK


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else EXIT_OK
    try:
        if hasattr(args, "budget"):
            _check_budget(args.budget)
        return args.handler(args)
    except IncompleteExplorationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
