"""End-to-end command line behavior, including exit codes and determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lendingnets import LendingNet, cli, export_dot, parse_contract, parse_net, serialize_contract
from lendingnets.cli import main

from fixtures import exchange_pair_contract, toy_swap_composite

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = ROOT / "tests" / "golden"

CREDIT_NET = str(SAMPLES / "handshake_credit.lpn")
STRICT_NET = str(SAMPLES / "handshake_strict.lpn")
EXCHANGE = str(SAMPLES / "exchange_pair.pcl")
CHAIN = str(SAMPLES / "credit_chain.pcl")
TOYS = str(SAMPLES / "toy_swap.pcl")
TOY_PARTS = [str(SAMPLES / f"toy_swap_{k}.pcl") for k in "abc"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def composed_net(tmp_path, capsys):
    out = tmp_path / "pair.lpn"
    code, _, err = run(capsys, "compose", CREDIT_NET, STRICT_NET, "-o", str(out))
    assert code == 0, err
    return str(out)


class TestParse:
    def test_echoes_the_normal_form(self, capsys):
        code, out, _ = run(capsys, "parse", EXCHANGE)
        assert code == 0
        assert out == serialize_contract(exchange_pair_contract())

    def test_net_documents_lose_comments(self, capsys):
        code, out, _ = run(capsys, "parse", CREDIT_NET)
        assert code == 0
        assert "#" not in out
        assert "place la.p1 label=b lending" in out

    def test_syntax_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lpn"
        bad.write_text("place p\nplace p\n")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "duplicate id" in err

    def test_missing_files_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "no/such/file.lpn")
        assert code == 2
        assert "error:" in err

    def test_undecodable_documents_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pcl"
        bad.write_bytes(b"participant A\r\nfact \xff\n")
        code, out, err = run(capsys, "parse", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not UTF-8 at byte 20\n"

    def test_huge_token_counts_are_document_errors(self, tmp_path, capsys):
        big = tmp_path / "big.lpn"
        big.write_text("place p tokens=" + "9" * 5000 + "\n")
        code, out, err = run(capsys, "parse", str(big))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: ")
        assert err.count("\n") == 1

    def test_usage_errors_exit_2(self, capsys):
        assert main(["parse"]) == 2
        assert main(["frobnicate", "x"]) == 2
        capsys.readouterr()


class TestCompile:
    def test_contract_compiles_to_a_net_document(self, capsys):
        code, out, _ = run(capsys, "compile", TOYS)
        assert code == 0
        doc = parse_net(out)
        assert "a@*" in doc.net.places
        assert "goal a@*=0 b@*=0 c@*=0 honored\n" in out

    def test_output_file_and_prune(self, tmp_path, capsys):
        full = tmp_path / "full.lpn"
        slim = tmp_path / "slim.lpn"
        assert run(capsys, "compile", TOY_PARTS[0], "-o", str(full))[0] == 0
        assert run(capsys, "compile", TOY_PARTS[0], "--prune", "-o", str(slim))[0] == 0
        full_doc = parse_net(full.read_text())
        slim_doc = parse_net(slim.read_text())
        assert slim_doc.net.places < full_doc.net.places

    def test_net_input_is_refused(self, capsys):
        code, _, err = run(capsys, "compile", CREDIT_NET)
        assert code == 2
        assert "contract document" in err


class TestCompose:
    def test_net_compose_merges_goals(self, composed_net):
        doc = parse_net(Path(composed_net).read_text())
        assert doc.net.places == frozenset(
            {"la.p1", "la.p2", "la.p3", "sb.p1", "sb.p2", "sb.p3"}
        )
        goal = doc.goals[0]
        assert goal.zero == frozenset({"la.p3", "sb.p3"})
        assert goal.nonneg == frozenset({"la.p1"})

    def test_contract_compose_matches_the_shipped_composite(self, capsys):
        code, out, _ = run(capsys, "compose", *TOY_PARTS)
        assert code == 0
        assert parse_contract(out) == toy_swap_composite()

    def test_single_document_is_refused(self, capsys):
        code, _, err = run(capsys, "compose", TOYS)
        assert code == 2
        assert "at least two" in err

    def test_mixed_kinds_are_refused(self, capsys):
        code, _, err = run(capsys, "compose", TOYS, CREDIT_NET)
        assert code == 2
        assert "single kind" in err


class TestCheckWt:
    def test_lender_alone_fails(self, capsys):
        code, out, err = run(capsys, "check", "wt", CREDIT_NET)
        assert code == 1
        assert out == "weak termination: fails\n"
        assert "no goal reachable" in err

    def test_composed_pair_holds(self, composed_net, capsys):
        code, out, _ = run(capsys, "check", "wt", composed_net)
        assert code == 0
        assert out == "weak termination: holds\n"

    def test_contract_documents_check_their_goal_sets(self, capsys):
        code, out, _ = run(capsys, "check", "wt", TOYS)
        assert code == 0
        assert out == "weak termination: holds\n"

    def test_budget_exhaustion_exits_3(self, capsys):
        code, out, _ = run(capsys, "check", "wt", TOYS, "--budget", "1")
        assert code == 3
        assert out == "weak termination: inconclusive\n"


class TestCheckAgreement:
    def test_both_routes_agree_on_true(self, capsys):
        code, out, _ = run(capsys, "check", "agreement", TOYS)
        assert code == 0
        assert out == "logic=net=true\n"

    def test_single_routes(self, capsys):
        code, out, _ = run(capsys, "check", "agreement", TOYS, "--via", "logic")
        assert (code, out) == (0, "agreement (logic): true\n")
        code, out, _ = run(capsys, "check", "agreement", TOYS, "--via", "net")
        assert (code, out) == (0, "agreement (net): true\n")

    def test_both_routes_agree_on_false(self, tmp_path, capsys):
        doc = tmp_path / "stuck.pcl"
        doc.write_text("participant A\nowner a A\nowner b B\nclause b ->> a\ngoal a\n")
        code, out, _ = run(capsys, "check", "agreement", str(doc))
        assert code == 1
        assert out == "logic=net=false\n"

    def test_net_documents_are_refused(self, capsys):
        code, _, err = run(capsys, "check", "agreement", CREDIT_NET)
        assert code == 2
        assert "contract documents" in err

    def test_budget_exhaustion_exits_3(self, capsys):
        code, out, _ = run(capsys, "check", "agreement", TOYS, "--budget", "1")
        assert code == 3
        assert out == "agreement (net): inconclusive\n"


class TestUrgent:
    def test_contract_schedule(self, capsys):
        assert run(capsys, "urgent", EXCHANGE) == (0, "a\n", "")
        assert run(capsys, "urgent", EXCHANGE, "--done", "a") == (0, "b\n", "")
        assert run(capsys, "urgent", EXCHANGE, "--done", "b") == (0, "a\n", "")
        assert run(capsys, "urgent", EXCHANGE, "--done", "a,b") == (0, "\n", "")

    def test_net_schedule(self, composed_net, capsys):
        assert run(capsys, "urgent", composed_net)[:2] == (0, "a\n")
        assert run(capsys, "urgent", composed_net, "--done", "a")[:2] == (0, "b\n")

    def test_incomplete_graphs_exit_3(self, composed_net, capsys):
        code, _, err = run(capsys, "urgent", composed_net, "--budget", "1")
        assert code == 3
        assert "complete reachability graph" in err


class TestTraces:
    def test_contract_words(self, capsys):
        code, out, _ = run(capsys, "traces", CHAIN)
        assert code == 0
        assert out == "ε\na b\na b c\na c b\n"

    def test_net_words(self, composed_net, capsys):
        code, out, _ = run(capsys, "traces", composed_net)
        assert code == 0
        assert out == "ε\na\na b\n"

    def test_budget_exhaustion_exits_3(self, composed_net, capsys):
        code, _, err = run(capsys, "traces", composed_net, "--budget", "1")
        assert code == 3
        assert "incomplete" in err


class TestDot:
    def test_net_rendering_marks_lending_places(self, capsys):
        code, out, _ = run(capsys, "dot", CREDIT_NET)
        assert code == 0
        assert out.startswith("digraph")
        assert "peripheries=2" in out
        assert '"la.p1" -> "la.ta"' in out

    def test_contract_rendering_compiles_first(self, tmp_path, capsys):
        target = tmp_path / "toys.dot"
        code, _, _ = run(capsys, "dot", TOYS, "-o", str(target))
        assert code == 0
        assert "a@*" in target.read_text()

    def test_a_backslash_in_the_file_name_is_escaped(self, tmp_path, capsys):
        """The graph name is the file's stem; its backslash must not escape the closing quote."""
        odd = tmp_path / "odd\\.pcl"
        odd.write_text(Path(TOYS).read_text(encoding="utf-8"), encoding="utf-8")
        code, out, _ = run(capsys, "dot", str(odd))
        assert code == 0
        assert out.startswith('digraph "odd\\\\" {\n')

    def test_a_place_with_two_tokens_draws_its_count(self):
        out = export_dot(LendingNet(places=["p", "q"], initial={"p": 2, "q": 1}))
        assert '"p" [shape=circle, peripheries=1, label="p\\n2•"];' in out
        assert '"q" [shape=circle, peripheries=1, label="q\\n•"];' in out


class TestDeterminism:
    READ_ONLY = [
        ("parse", TOYS),
        ("compile", TOYS),
        ("compose", *TOY_PARTS),
        ("check", "wt", TOYS),
        ("urgent", EXCHANGE, "--done", "a"),
        ("traces", CHAIN),
        ("dot", CREDIT_NET),
    ]

    def test_repeated_runs_are_byte_identical(self, capsys):
        for argv in self.READ_ONLY:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second, argv

    def test_output_is_stable_across_hash_seeds(self):
        cases = [(["compile", TOYS], 0), (["traces", str(GOLDEN / "pairs6.pcl"), "--budget", "200"], 3)]
        for argv, code in cases:
            outputs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                proc = subprocess.run(
                    [sys.executable, "-m", "lendingnets.cli", *argv],
                    capture_output=True,
                    text=True,
                    env=env,
                )
                outputs.append((proc.stdout, proc.returncode))
            assert outputs[0] == outputs[1], argv
            assert outputs[0][1] == code, argv


class TestExitCodes:
    @pytest.mark.parametrize("budget", ("0", "-1"))
    def test_budgets_below_one_exit_2(self, budget, capsys):
        code, out, err = run(capsys, "check", "wt", TOYS, "--budget", budget)
        assert code == 2
        assert out == ""
        assert err == f"error: budget must be at least 1, got {budget}\n"

    def test_internal_errors_exit_4_with_one_line(self, monkeypatch, capsys):
        from lendingnets import Verdict, cli

        monkeypatch.setattr(cli, "agreement_reachable", lambda cn, budget: Verdict.fails())
        code, out, err = run(capsys, "check", "agreement", TOYS)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ")
        assert "logic and net disagree" in err
        assert err.count("\n") == 1

    def test_a_detail_that_cannot_be_built_exits_4_before_the_verdict_line(self, monkeypatch, capsys):
        """A verdict builds its detail on first read; the line is printed only after that read.
        A ``.pcl``'s stuck node is described by the sink rule, a ``.lpn``'s by ``Node.describe``."""
        from lendingnets import cli
        from lendingnets.analysis import Node

        def broken(*args):
            raise RuntimeError("no text")

        monkeypatch.setattr(Node, "describe", broken)
        monkeypatch.setattr(cli, "_full_text", broken)
        code, out, err = run(capsys, "check", "wt", TOY_PARTS[0])
        assert (code, out, err) == (4, "", "internal error: RuntimeError: no text\n")


class TestSharedParser:
    """``main`` reuses one parser; every command must read as with a parser of its own."""

    EXTRA = [
        [],
        ["parse"],
        ["frobnicate", "x"],
        ["--help"],
        ["check", "--help"],
        ["check", "agreement", "f", "--via", "bogus"],
        ["check", "wt", "f", "--budget", "abc"],
    ]

    def test_output_matches_a_fresh_parser(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        monkeypatch.setenv("COLUMNS", "80")
        golden = [case["argv"] for case in json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))]
        mixed = list(golden)
        for i, argv in enumerate(self.EXTRA):
            mixed.insert(i * len(golden) // len(self.EXTRA), argv)
        sequence = mixed + mixed[::-1]

        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            expected = {tuple(argv): run(capsys, *argv) for argv in mixed}

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.__wrapped__()
        one_tree = len(built)
        built.clear()
        cli.build_parser.cache_clear()
        for argv in sequence:
            assert run(capsys, *argv) == expected[tuple(argv)], argv
        assert len(built) == one_tree, built
