"""``lpn check wt`` and ``lpn check agreement`` decide a ``.pcl`` on its
consumed-places net, and compile the full net only for the stuck node that a
failing ``check wt`` names.  The full-compile handlers kept in
``check_oracle.py`` are the oracle: the same standard output, standard error
and exit code at budgets 1, 2, 3, 5, 8 and the default.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

import check_oracle as oracle
from lendingnets import cli, compiler, compose_contracts, serialize_contract

from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract, settled_pairs

GOLDEN = Path(__file__).resolve().parent / "golden"
BUDGETS = [["--budget", str(b)] for b in (1, 2, 3, 5, 8)] + [[]]
COMMANDS = [["check", "wt"], ["check", "agreement", "--via", "net"], ["check", "agreement", "--via", "both"]]
REFERENCE = {cli.cmd_check_wt: oracle.cmd_check_wt, cli.cmd_check_agreement: oracle.cmd_check_agreement}


def groups():
    rng = random.Random(3907)
    yield "drawn", [serialize_contract(random_contract(rng)) for _ in range(40)]
    yield "composed", [serialize_contract(compose_contracts(*compatible_contract_pair(rng))) for _ in range(15)]
    families = [pairs_contract(n) for n in (1, 2, 3, 4)] + [settled_pairs(n) for n in (1, 2, 3)]
    families += [credit_ring(n, side) for n, side in ((1, None), (2, None), (3, 0), (4, 2))]
    yield "families", [serialize_contract(c) for c in families]
    yield "disjoint_stuck", [(GOLDEN / "disjoint_stuck.pcl").read_text(encoding="utf-8")]


GROUPS = list(groups())


def outputs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("name, texts", GROUPS, ids=[name for name, _ in GROUPS])
def test_checks_print_what_the_full_compile_printed(name, texts, tmp_path, monkeypatch):
    argvs = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{name}{i}.pcl"
        path.write_text(text, encoding="utf-8")
        argvs += [[*command, str(path), *budget] for command in COMMANDS for budget in BUDGETS]
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
        assert {code for _, _, code in routed} >= {1, 3}


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
    # A failing ``check wt`` compiles the full net once, to name its stuck node.
    assert outputs(["check", "wt", str(GOLDEN / "disjoint_stuck.pcl")])[2] == 1
    assert len(calls) == 1
