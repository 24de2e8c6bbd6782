"""The lendingnets benchmark: time to verdict on seeded contract workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every measurement happens in a fresh interpreter started by this
process, one at a time, with no threads.

--trace 0 prints the end-to-end metrics: item time (median and 90th
percentile), items decided per second, peak resident memory, and set-up time
(the median over several fresh interpreters of the time from start to the
first timed item).  Times are scaled to the machine's nominal speed by a
reference loop run between items (see ``worker.py``); the table also prints
them unscaled.  --trace 1 decides a fixed block of items once untraced
and once traced, and prints the per-layer metrics of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result, with
the machine description, is also written to ``.bench_out/``.  The exit code
is 0 only when every answer matched its oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("exchange_pairs", "credit_rings", "random_contracts", "cli_corpus")
SETUP_PROBES = 9  # fresh interpreters that only set up; the timed one makes a tenth sample
DEADLINE_S = 170.0  # every run ends within this, or fails


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu": "not pinned"}


class WorkerError(Exception):
    pass


def spawn(args, mode: str, deadline: float, traced: bool = False) -> dict:
    """Run one worker to completion and return its result, with its set-up time."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    command += ["--traced"] * traced + ["--tiny"] * args.tiny
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set iteration order on every run
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish before the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready"] - started) * result["setup_factor"]
    return result


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    timed = spawn(args, "timed", deadline)
    setups.append(timed["setup_s"])
    scaled = timed["scaled"]
    metrics = {
        "decide_ms.p50": (scaled.get("p50", 0.0), "ms"),  # absent only when items failed
        "decide_ms.p90": (scaled.get("p90", 0.0), "ms"),
        "decided_per_s": (scaled["decided_per_s"], "items/s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    timed["setup_samples_s"] = setups
    return metrics, timed


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain = spawn(args, "block", deadline)
    traced = spawn(args, "block", deadline, traced=True)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    traced_rate = traced["scaled"]["decided_per_s"] or float("inf")  # zero only when every item failed
    metrics["trace.overhead_ratio"] = (plain["scaled"]["decided_per_s"] / traced_rate, "ratio")
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    return metrics, traced


def report(args, metrics: dict, raw: dict) -> dict:
    attempted, failed = raw["attempted"], raw["failed"]
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "commit": commit(), "src_sha256": source_digest(), **machine()}
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.4f} {unit}")
    print(f"{'failed_ratio':44s} {failed / attempted:14.4f} failed/attempted ({failed}/{attempted})")
    if "unscaled" in raw:
        plain = raw["unscaled"]
        print(f"# unscaled: decide_ms.p50={plain.get('p50', 0.0):.4f} decide_ms.p90={plain.get('p90', 0.0):.4f} "
              f"decided_per_s={plain['decided_per_s']:.4f}; median reference loop {raw['reference_ms']:.4f} ms "
              f"against {worker.NOMINAL_REF_MS} ms nominal")
    if args.trace:
        share = metrics["trace.predicted_self_share"][0]
        tops = sorted(((v, k.removesuffix(".self_ms")) for k, (v, _) in metrics.items()
                       if k.endswith(".self_ms") and not k.startswith("layer.")), reverse=True)[:3]
        verdict = "met" if share >= 0.5 else "NOT MET"
        print(f"# layer prediction {verdict}: predicted functions hold {share:.0%} of self time; "
              "largest: " + ", ".join(f"{name} {ms:.0f} ms" for ms, name in tops))
    for failure in raw["failures"]:
        print(f"# FAILED item {failure['item']}: {'; '.join(failure['problems'])}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": raw["failures"], "setup_samples_s": raw.get("setup_samples_s"),
              "unscaled": raw.get("unscaled"), "reference_ms": raw.get("reference_ms")}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest item sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lendingnets" / "__init__.py").is_file():
        print(f"error: no lendingnets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, raw = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(args, metrics, raw)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
