"""Byte-identical ``lpn`` output: every recorded command over ``samples/``.

The expected standard output, standard error and exit code of each command
are in ``golden/cli.json`` (written by ``golden/regenerate.py``).
"""

import json
from pathlib import Path

import pytest

from lendingnets.cli import main

HERE = Path(__file__).resolve().parent
CASES = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_command_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["exit"])


def test_every_subcommand_is_covered():
    argvs = [case["argv"] for case in CASES]
    assert {argv[0] for argv in argvs} == {"parse", "compile", "compose", "check", "urgent", "traces", "dot"}
    assert {argv[1] for argv in argvs if argv[0] == "check"} == {"wt", "agreement"}
    assert ["--prune"] in [argv[2:] for argv in argvs if argv[0] == "compile"]
    assert {case["exit"] for case in CASES} == {0, 1, 2, 3}
