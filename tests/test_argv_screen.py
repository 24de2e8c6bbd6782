"""The argv screen (``cli._plain_args``) against argparse, its oracle.

Whenever the screen reads an argv, the namespace must equal the one
``parse_args`` gives; every argv argparse rejects, or answers with help,
must be declined, so argparse writes the text.  Golden argvs and seeded
draws over command words, every option spelling, joined and abbreviated
options, dashes, odd integers, repeats and split positionals are compared.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from lendingnets import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
GOLDEN_ARGVS = [case["argv"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]

LEAVES = {
    ("parse",): [], ("compile",): ["-o", "--output", "--prune"], ("compose",): ["-o", "--output"],
    ("check", "wt"): ["--budget"], ("check", "agreement"): ["--via", "--budget"],
    ("urgent",): ["--done", "--budget"], ("traces",): ["--budget"], ("dot",): ["-o", "--output"],
}
OTHER_WORDS = [("check",), ("wt",), ("frobnicate",), ("check", "parse"), ()]
OPTIONS = ["-o", "--output", "--prune", "--via", "--budget", "--done", "-h", "--help"]
ODD_OPTIONS = ["--budget=3", "--via=net", "--output=x", "-ofile", "--bud", "--pr", "--out", "--v",
               "--d", "--h", "-", "--", "-1", "-x"]
GOOD_VALUES = {"--budget": ["3", "1", "٣", "1_0", " 7 "], "--via": ["logic", "net", "both"],
               "--done": ["", "a", "a,b"], "-o": ["out"], "--output": ["out.lpn"]}
VALUES = ["3", "0", "1", "-1", "٣", "1_0", " 7 ", "", "abc", "logic", "net", "both", "bogus",
          "f.pcl", "g.lpn", "a,b", "x y", "-", "--"]
FILES = ["f.pcl", "g.lpn", "h", "", " ", "٣"]

# Shapes the benchmark's command corpus uses.
PLAIN = [
    ["compile", "--prune", "f.pcl"],
    ["compile", "f.pcl", "-o", "out.lpn"],
    ["compose", "a.lpn", "b.lpn", "-o", "c.lpn"],
    ["check", "agreement", "f.pcl"],
    ["check", "agreement", "--via", "both", "f.pcl"],
    ["urgent", "f.pcl", "--done", "a"],
    ["dot", "f.pcl", "-o", "f.dot"],
]


def parsed(argv):
    """``vars`` of ``parse_args(argv)``, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_screen_agrees(argv):
    screened = cli._plain_args(argv)
    if screened is not None:
        assert vars(screened) == parsed(argv), argv
    return screened


def draw_argv(rng: random.Random) -> list[str]:
    """A command's words, options with values, and a run of files, sometimes split or mangled."""
    words = rng.choice(list(LEAVES)) if rng.random() < 0.9 else rng.choice(OTHER_WORDS)
    argv, own = list(words), LEAVES.get(words, [])
    items = []
    for _ in range(rng.randint(0, 3)):
        draw = rng.random()
        option = rng.choice(own) if own and draw < 0.7 else rng.choice(OPTIONS if draw < 0.9 else ODD_OPTIONS)
        if option in ("--prune", "-h", "--help") or rng.random() < 0.05:
            items.append([option])
        else:
            good = GOOD_VALUES.get(option)
            items.append([option, rng.choice(good if good and rng.random() < 0.7 else VALUES)])
    files = [rng.choice(FILES) for _ in range(rng.choice((0, 1, 1, 1, 1, 2, 3)))]
    if len(files) > 1 and rng.random() < 0.3:
        items.insert(rng.randint(0, len(items)), files[:1])
        items.insert(rng.randint(0, len(items)), files[1:])
    else:
        items.insert(rng.randint(0, len(items)), files)
    for item in items:
        argv += item
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(ODD_OPTIONS + VALUES))
    return argv


@pytest.mark.parametrize("argv", GOLDEN_ARGVS + PLAIN, ids=" ".join)
def test_every_accepted_golden_argv_takes_the_screen(argv):
    expected = parsed(argv)
    screened = assert_screen_agrees(argv)
    assert (screened is not None) == (expected is not None), argv


@pytest.mark.parametrize("seed", range(4))
def test_drawn_argvs_read_as_argparse_reads_them(seed):
    rng = random.Random(seed)
    taken = 0
    for _ in range(1500):
        argv = draw_argv(rng)
        taken += assert_screen_agrees(argv) is not None
    assert taken > 300


@pytest.mark.parametrize("argv", [
    ["check", "wt", "f", "--budget", "٣"],
    ["check", "wt", "f", "--budget", "1_0"],
    ["check", "wt", "f", "--budget", " 7 "],
    ["check", "wt", "f", "--budget", "1", "--budget", "2"],
    ["compile", "f", "--prune", "--prune"],
    ["compose", "a", "b", "c"],
    ["urgent", "", "--done", ""],
    ["parse", "x y"],
], ids=repr)
def test_odd_values_argparse_accepts_take_the_screen(argv):
    assert assert_screen_agrees(argv) is not None


@pytest.mark.parametrize("argv", [
    [], ["check"], ["-h"], ["parse", "-h"], ["check", "wt", "--help"],
    ["check", "wt", "f", "--budget=3"], ["check", "wt", "f", "--bud", "3"], ["dot", "f", "-ofile"],
    ["parse", "--", "f"], ["parse", "-"], ["check", "wt", "f", "--budget", "-1"],
    ["check", "wt", "f", "--budget", "abc"], ["check", "wt", "f", "--budget", "abc", "--budget", "3"],
    ["check", "agreement", "f", "--via", "bogus"], ["check", "wt", "f", "--budget"],
    ["parse"], ["parse", "f", "g"], ["compose", "a", "-o", "x", "b"], ["check", "wt", "--via", "net", "f"],
], ids=repr)
def test_everything_else_goes_to_argparse(argv):
    assert cli._plain_args(argv) is None
