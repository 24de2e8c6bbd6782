"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload through ``run.py --tiny`` in both modes, and checks that
every metric named in BENCHMARK.json is printed with its unit, that traced
counts repeat exactly, that a wrong oracle answer counts as a failure, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(results, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in run.WORKLOADS:
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_counts_repeat_exactly(results):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for workload in run.WORKLOADS:
        again = json.loads(bench(workload, 1).stdout.strip().splitlines()[-1])
        first = results[workload, 1]["metrics"]
        assert {n: first[n]["value"] for n in counts} == {n: again["metrics"][n]["value"] for n in counts}
        assert first["items.count"]["value"] > 0


def test_a_wrong_oracle_answer_counts_as_a_failure(tmp_path):
    pairs = workloads.Workload("exchange_pairs", 1, True, ROOT, tmp_path).round()
    cli = workloads.Workload("cli_corpus", 1, True, ROOT, tmp_path).round()
    wrong_urgency = pairs[0]
    done, want = wrong_urgency.expected["urgent"][0]
    wrong_urgency.expected["urgent"][0] = (done, want | {"nosuchatom"})
    wrong_exit = cli[0]
    wrong_exit.expected["code"] = 1
    durations, failures = [], []
    with redirect_stdout(io.StringIO()):
        worker.decide(pairs + cli, 0, durations, failures)
    assert [f["item"] for f in failures] == [0, len(pairs)]
    assert "urgent (net)" in failures[0]["problems"][0]
    assert "exit code" in failures[1]["problems"][0]
    assert len(durations) == len(pairs) + len(cli) - 2


def test_item_times_are_scaled_by_the_probes_around_them(monkeypatch):
    probes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(worker, "reference_ms", lambda: next(probes))
    scale = worker.SpeedScale()
    scale.add(0.06, True)
    scale.add(0.06, True)  # a full slice: the probe after it reads 4.0
    scale.add(0.01, False)
    scale.flush()  # the last probe reads 1.0
    first, second = worker.NOMINAL_REF_MS / 3.0, worker.NOMINAL_REF_MS / 2.5
    assert scale.raw == [(0.06, True), (0.06, True), (0.01, False)]
    assert scale.scaled == pytest.approx([(0.06 * first, True), (0.06 * first, True), (0.01 * second, False)])
    assert worker.timing(scale.scaled)["decided_per_s"] == pytest.approx(2 / (0.12 * first + 0.01 * second))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("exchange_pairs", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
