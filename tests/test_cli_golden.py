"""Byte-identical ``lpn`` output: every recorded command over ``samples/`` and
the generated documents in ``golden/``.

The expected standard output, standard error and exit code of each command
are in ``golden/cli.json`` (written by ``golden/regenerate.py``).  Both run
with ``COLUMNS=80``, which fixes the width of argparse's usage text.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from lendingnets.cli import main

HERE = Path(__file__).resolve().parent
CASES = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_command_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["exit"])


def test_every_subcommand_is_covered():
    argvs = [case["argv"] for case in CASES if not case["stderr"].startswith("usage:")]
    assert {argv[0] for argv in argvs} == {"parse", "compile", "compose", "check", "urgent", "traces", "dot"}
    assert {argv[1] for argv in argvs if argv[0] == "check"} == {"wt", "agreement"}
    assert ["--prune"] in [argv[2:] for argv in argvs if argv[0] == "compile"]
    assert {case["exit"] for case in CASES} == {0, 1, 2, 3}


def test_regenerate_check_reports_changes_without_writing(capsys):
    spec = importlib.util.spec_from_file_location("regenerate", HERE / "golden" / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    before = (HERE / "golden" / "cli.json").read_bytes()
    cases = copy.deepcopy(CASES)
    assert regenerate.check(cases) == 0
    assert capsys.readouterr().out.endswith("0 changed, 0 disappeared, 0 added\n")
    assert regenerate.check(cases[1:] + [{**cases[0], "argv": ["parse", "new.pcl"]}]) == 0
    out = capsys.readouterr().out
    assert f"disappeared: {' '.join(cases[0]['argv'])}\n" in out and "added: parse new.pcl\n" in out
    cases[2]["stdout"] += "x"
    assert regenerate.check(cases) == 1
    assert f"changed: {' '.join(cases[2]['argv'])}\n" in capsys.readouterr().out
    assert (HERE / "golden" / "cli.json").read_bytes() == before
