"""``lpn check wt`` and ``lpn check agreement`` decide a ``.pcl`` once, on its
consumed-places net, and never compile the full net: a failing ``check wt``
names its stuck node as the full net reads it, by the sink rule
(``compiler._full_text``).  The full-compile handlers kept in
``check_oracle.py`` are the oracle: the same standard output, standard error
and exit code at budgets 1, 2, 3, 5, 8 and the default, and at the default
alone on ``pairs100_stuck.pcl``, whose stuck text lists about 400 sink
places.  ``agreement_via_net``, which walks the same net and renders its
witness by the same rule, is checked against ``agreement_reachable`` on the
full compile, and no check builds a net with a place no transition consumes.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

import check_oracle as oracle
from lendingnets import (
    LendingNet,
    Outcome,
    agreement_reachable,
    agreement_via_net,
    cli,
    compile_contract,
    compiler,
    compose_contracts,
    parse_contract,
    serialize_contract,
)
from lendingnets.nets import DEFAULT_BUDGET

from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract, settled_pairs

GOLDEN = Path(__file__).resolve().parent / "golden"
BUDGETS = [["--budget", str(b)] for b in (1, 2, 3, 5, 8)] + [[]]
COMMANDS = [["check", "wt"], ["check", "agreement", "--via", "net"], ["check", "agreement", "--via", "both"]]
REFERENCE = {cli.cmd_check_wt: oracle.cmd_check_wt, cli.cmd_check_agreement: oracle.cmd_check_agreement}


def families():
    return [pairs_contract(n) for n in (1, 2, 3, 4)] + [settled_pairs(n) for n in (1, 2, 3)] + [
        credit_ring(n, side) for n, side in ((1, None), (2, None), (3, 0), (4, 2))]


def groups():
    """``(name, texts, budgets)``: each ``.pcl`` text is checked at each budget."""
    rng = random.Random(3907)
    yield "drawn", [serialize_contract(random_contract(rng)) for _ in range(40)], BUDGETS
    yield "composed", [serialize_contract(compose_contracts(*compatible_contract_pair(rng))) for _ in range(15)], BUDGETS
    yield "families", [serialize_contract(c) for c in families()], BUDGETS
    yield "disjoint_stuck", [(GOLDEN / "disjoint_stuck.pcl").read_text(encoding="utf-8")], BUDGETS
    yield "pairs100_stuck", [(GOLDEN / "pairs100_stuck.pcl").read_text(encoding="utf-8")], [[]]


GROUPS = list(groups())


def outputs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("name, texts, budgets", GROUPS, ids=[name for name, *_ in GROUPS])
def test_checks_print_what_the_full_compile_printed(name, texts, budgets, tmp_path, monkeypatch):
    argvs = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{name}{i}.pcl"
        path.write_text(text, encoding="utf-8")
        argvs += [[*command, str(path), *budget] for command in COMMANDS for budget in budgets]
    routed = [outputs(argv) for argv in argvs]

    screen = cli._plain_args

    def full_compile(argv):
        args = screen(argv)
        args.handler = REFERENCE[args.handler]
        return args

    monkeypatch.setattr(cli, "_plain_args", full_compile)
    for argv, got in zip(argvs, routed):
        assert got == outputs(argv), argv
    if name != "families":
        assert {code for _, _, code in routed} >= ({1} if budgets == [[]] else {1, 3})


def test_a_holding_check_never_calls_compile_contract(monkeypatch):
    calls = []
    compile_contract = compiler.compile_contract

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_contract(*args, **kwargs)

    monkeypatch.setattr(cli, "compile_contract", counting)
    monkeypatch.setattr(compiler, "compile_contract", counting)
    for path in ("pairs12.pcl", "pairs100.pcl"):
        for command in COMMANDS:
            assert outputs([*command, str(GOLDEN / path)])[2] == 0
    assert calls == []
    # A failing ``check wt`` names its stuck node by the sink rule, with no full compile.
    assert outputs(["check", "wt", str(GOLDEN / "disjoint_stuck.pcl")])[2] == 1
    assert len(calls) == 0


def contracts():
    rng = random.Random(3908)
    return families() + [random_contract(rng) for _ in range(60)] + [
        compose_contracts(*compatible_contract_pair(rng)) for _ in range(20)]


@pytest.mark.parametrize("budget", (1, 2, 3, 5, 8, DEFAULT_BUDGET))
def test_agreement_via_net_gives_the_verdict_of_the_full_compile(budget):
    holding = 0
    for c in contracts():
        want = agreement_reachable(compile_contract(c), budget)
        got = agreement_via_net(c, budget)
        assert (got.outcome, got.witness, got.detail) == (want.outcome, want.witness, want.detail), (c, budget)
        holding += want.outcome is Outcome.HOLDS
    assert holding >= 10


def test_no_check_builds_a_net_with_a_sink_place(monkeypatch):
    """Every net built while ``lpn check`` and ``agreement_via_net`` decide a contract, stuck or not,
    has only places some transition consumes: no full or pruned compile."""
    built = []
    post_init = LendingNet.__post_init__

    def counting(net):
        post_init(net)
        built.append(net)

    monkeypatch.setattr(LendingNet, "__post_init__", counting)
    paths = [GOLDEN / name for name in ("disjoint_stuck.pcl", "pairs6.pcl", "pairs12.pcl", "pairs100_stuck.pcl")]
    paths += sorted((GOLDEN.parent.parent / "samples").glob("*.pcl"))
    codes = set()
    for path in paths:
        for command in COMMANDS:
            codes.add(outputs([*command, str(path)])[2])
        agreement_via_net(parse_contract(path.read_text(encoding="utf-8"))).detail
    for c in contracts():
        agreement_via_net(c).detail
    assert codes >= {0, 1} and built
    for net in built:
        consumed = {p for t in net.transitions for p in net.preset(t)}
        assert net.places <= consumed, sorted(net.places - consumed)
