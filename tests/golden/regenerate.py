"""Write ``cli.json``: the expected output of ``lpn`` commands over ``samples/``
and over the generated documents next to this script.

Each case records the argument vector (paths relative to the repository
root), the exact standard output and standard error, and the exit code of
``cli.main`` run in-process, with ``COLUMNS=80`` so that argparse's usage
text does not depend on the terminal.  ``tests/test_cli_golden.py`` replays
them.
Regenerate only when a change to the output is intended:

    PYTHONPATH=src python tests/golden/regenerate.py

With ``--check`` nothing is written: every case is replayed and the entries
of ``cli.json`` that changed or disappeared, and the new cases, are listed.
The exit code is 1 when an existing entry changed, else 0:

    PYTHONPATH=src python tests/golden/regenerate.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

from lendingnets.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cli.json"

CONTRACTS = [f"samples/{name}.pcl" for name in (
    "credit_chain", "exchange_pair", "self_credit", "toy_swap", "toy_swap_a", "toy_swap_b", "toy_swap_c",
)]
NETS = ["samples/handshake_credit.lpn", "samples/handshake_strict.lpn"]
# Contracts whose nets split into independent components; kept out of
# ``samples/`` so that the benchmark's corpus does not change.
SPLIT = ["tests/golden/disjoint_stuck.pcl", "tests/golden/pairs6.pcl"]
DONE_SETS = {
    "samples/credit_chain.pcl": ("", "a", "a,b"),
    "samples/exchange_pair.pcl": ("", "a", "a,b"),
    "samples/self_credit.pcl": ("", "a"),
    "samples/toy_swap.pcl": ("", "c", "a,c"),
    "samples/toy_swap_a.pcl": ("", "b"),
    "samples/toy_swap_b.pcl": ("", "c"),
    "samples/toy_swap_c.pcl": ("", "a,b"),
    "samples/handshake_credit.lpn": ("", "a", "b"),
    "samples/handshake_strict.lpn": ("", "a", "b"),
    "tests/golden/disjoint_stuck.pcl": ("", "a", "a,c", "a,x", "x,y,z"),
    "tests/golden/pairs6.pcl": ("", "a0,a1", "a0,b0,a5"),
}


def commands() -> list[list[str]]:
    docs = CONTRACTS + NETS
    cases = [["parse", f] for f in docs]
    cases += [["compile", f, *flag] for f in CONTRACTS for flag in ([], ["--prune"])]
    cases += [["compile", NETS[0]]]
    cases += [
        ["compose", "samples/toy_swap_a.pcl", "samples/toy_swap_b.pcl", "samples/toy_swap_c.pcl"],
        ["compose", "samples/toy_swap_c.pcl", "samples/toy_swap_a.pcl"],
        ["compose", *NETS],
        ["compose", NETS[0], CONTRACTS[0]],
    ]
    cases += [["check", "wt", f] for f in docs]
    cases += [["check", "wt", "samples/toy_swap.pcl", "--budget", "1"], ["check", "wt", NETS[0], "--budget", "0"]]
    cases += [["check", "agreement", f, "--via", "both"] for f in CONTRACTS]
    cases += [["check", "agreement", "samples/toy_swap.pcl", "--via", "both", "--budget", "1"]]
    cases += [["urgent", f, "--done", done] for f in docs for done in DONE_SETS[f]]
    cases += [["traces", f] for f in docs]
    cases += [["traces", NETS[0], "--budget", "1"]]
    cases += [["dot", f] for f in docs]
    cases += [
        ["traces", "samples/exchange_pair.pcl", "--budget", "0"],
        ["urgent", "samples/exchange_pair.pcl", "--budget", "0"],
        ["check", "agreement", "samples/exchange_pair.pcl", "--via", "logic", "--budget", "0"],
        ["urgent", "samples/exchange_pair.pcl", "--done", "zz"],
        ["urgent", NETS[0], "--done", "zz"],
    ]
    cases += [["check", "wt", f] for f in SPLIT]
    cases += [["check", "agreement", f, "--via", "both"] for f in SPLIT]
    cases += [["urgent", f, "--done", done] for f in SPLIT for done in DONE_SETS[f]]
    cases += [["check", "wt", "tests/golden/pairs12.pcl"], ["check", "agreement", "tests/golden/pairs12.pcl", "--via", "net"]]
    cases += [["check", "agreement", "samples/exchange_pair.pcl", "--via", "net", "--budget", "1"]]
    cases += [
        ["check", "agreement", "samples/toy_swap_a.pcl", "--via", "net"],
        ["parse", "tests/golden/not_utf8.pcl"],
        ["traces", "tests/golden/pairs6.pcl", "--budget", "10"],
    ]
    # Usage errors raised by argparse itself.
    cases += [
        ["parse"],
        ["frobnicate", "x"],
        ["check", "agreement", "samples/toy_swap.pcl", "--via", "bogus"],
        ["check", "wt", "samples/toy_swap.pcl", "--budget", "abc"],
    ]
    # A goal on an output place, which a node reads by the state equation.
    cases += [["check", "wt", "tests/golden/output_goal.lpn"]]
    # A large contract, decided on its consumed places; budget 200 is one short
    # of what its walks keep.
    large = "tests/golden/pairs100.pcl"
    cases += [
        ["check", "wt", large],
        ["check", "agreement", large, "--via", "both"],
        ["check", "agreement", large, "--via", "net"],
        ["check", "wt", large, "--budget", "200"],
        ["check", "wt", large, "--budget", "201"],
        ["check", "agreement", large, "--via", "net", "--budget", "200"],
    ]
    # That contract with a clause granting c, which no goal holds: its stuck
    # text lists the full net's sink places, named by the sink rule.
    cases += [["check", "wt", "tests/golden/pairs100_stuck.pcl"]]
    return cases


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def check(cases: list[dict]) -> int:
    """Compare fresh cases with ``cli.json`` by argument vector; 1 when an entry changed."""
    recorded = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    fresh = {tuple(case["argv"]): case for case in cases}
    changed = [argv for argv in recorded if argv in fresh and fresh[argv] != recorded[argv]]
    report = {
        "changed": changed,
        "disappeared": [argv for argv in recorded if argv not in fresh],
        "added": [argv for argv in fresh if argv not in recorded],
    }
    for kind, argvs in report.items():
        for argv in argvs:
            print(f"{kind}: {' '.join(argv)}")
    print(f"{len(recorded)} recorded, {len(fresh)} replayed: "
          + ", ".join(f"{len(argvs)} {kind}" for kind, argvs in report.items()))
    return 1 if changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check tests/golden/cli.json.")
    parser.add_argument("--check", action="store_true", help="replay and compare without writing")
    args = parser.parse_args()
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    cases = [run(argv) for argv in commands()]
    if args.check:
        raise SystemExit(check(cases))
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN.relative_to(ROOT)}")
