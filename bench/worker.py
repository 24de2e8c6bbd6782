"""One fresh interpreter that sets up one workload and decides its items.

Run by ``run.py``, never twice in one process: the library's caches persist
across items, so a second pass in the same process would mostly measure
cache hits.  Nothing is warmed up beyond the import.

Modes:
  setup  import the package, build the first round of inputs, report when ready
  timed  decide a fixed number of rounds in a closed loop with one client
  block  decide half as many rounds, optionally traced

The number of rounds is set by ``--seconds``: enough rounds to last that long
at the seed commit, and never fewer than MIN_ITEMS items.  Every run with a
given seed and ``--seconds`` therefore decides the same items, so counts and
memory repeat exactly, and a faster program simply finishes sooner.

On a shared host the CPU speed can swing by up to 1.6x from one second to
the next (seen on a 2-core x86-64 container).  A fixed reference loop, run between
items, slows down by the same factor, so every reported time is scaled to the
machine's nominal speed: multiplied by NOMINAL_REF_MS over the reference times
measured just before and just after it.  The unscaled times are reported
beside them.

The last line of standard output is one JSON object.  Times that cross the
process boundary use ``time.monotonic``, which is system-wide on Linux.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_ITEMS = 100  # so that at least ten samples lie beyond decide_ms.p90
ITEM_LIMIT_S = 10.0  # an item that takes longer counts as failed
OVERRUN = 2  # no further round starts after this many times --seconds have passed

# Duration of one full-size round at the seed commit, measured on a 2-core
# x86-64 Linux container with Python 3.11.
ROUND_SECONDS = {"exchange_pairs": 6.2, "credit_rings": 5.5, "random_contracts": 0.2, "cli_corpus": 0.085}


SLICE_S = 0.1  # item time between two speed probes
# Reference loop time at the nominal speed: the median of its swings on a 2-core x86-64 container.
NOMINAL_REF_MS = 2.0


def reference_ms() -> float:
    """Time of a fixed loop that allocates and hashes small sets: the machine's current speed.

    The collector is off while it runs and everything it allocates is freed
    before it returns, so it neither runs nor shifts a collection in the
    items around it.
    """
    gc.disable()
    start = perf_counter()
    counts: dict = {}
    seen = set()
    for i in range(3000):
        key = frozenset((i % 37, i % 11, i % 5))
        counts[key] = counts.get(key, 0) + 1
        seen.add(i * 7 % 101)
    ms = (perf_counter() - start) * 1000
    del counts, seen
    gc.enable()
    return ms


class SpeedScale:
    """Item times scaled to nominal speed, with a speed probe every SLICE_S of item time.

    Each slice of items is scaled by NOMINAL_REF_MS over the mean of the
    probes on either side of it.
    """

    def __init__(self):
        self.probes = [reference_ms()]
        self.pending: list[tuple[float, bool]] = []
        self.pending_s = 0.0
        self.scaled: list[tuple[float, bool]] = []
        self.raw: list[tuple[float, bool]] = []

    def add(self, seconds: float, ok: bool) -> None:
        self.raw.append((seconds, ok))
        self.pending.append((seconds, ok))
        self.pending_s += seconds
        if self.pending_s >= SLICE_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        self.probes.append(reference_ms())
        factor = NOMINAL_REF_MS / ((self.probes[-2] + self.probes[-1]) / 2)
        self.scaled += [(seconds * factor, ok) for seconds, ok in self.pending]
        self.pending, self.pending_s = [], 0.0


def timing(times: list[tuple[float, bool]]) -> dict:
    """Percentiles of decided items' times (ms) and items decided per second of item time."""
    ok = [seconds * 1000 for seconds, good in times if good]
    out = {"decided_per_s": len(ok) / sum(seconds for seconds, _ in times)}
    if len(ok) >= 2:
        deciles = statistics.quantiles(ok, n=10)
        out.update(p50=deciles[4], p90=deciles[8], samples=len(ok))
    return out


def timed_rounds(workload: str, seconds: float, round_len: int) -> int:
    return max(math.ceil(MIN_ITEMS / round_len), round(seconds / ROUND_SECONDS[workload]))


def decide(items, first_index: int, durations: list, failures: list, recorder=None, scale=None) -> None:
    for offset, item in enumerate(items):
        if recorder is not None:
            recorder.item = first_index + offset
        start = perf_counter()
        try:
            problems = item.run()
        except Exception as exc:  # an item that raises is a failed item; the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        if elapsed > ITEM_LIMIT_S:
            problems.append(f"took {elapsed:.1f} s, over the {ITEM_LIMIT_S} s limit")
        if problems:
            failures.append({"item": first_index + offset, "texts": item.texts, "problems": problems})
        else:
            durations.append(elapsed)
        if scale is not None:
            scale.add(elapsed, not problems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def size_stats(items, recorder) -> dict:
    """Spread of item sizes and the share of items whose theory came earlier."""
    seen: set = set()
    repeats = 0
    for item in items:
        if item.theory:
            repeats += item.theory in seen
            seen.add(item.theory)
    out = {"items.count": (len(items), "count"),
           "items.theory_repeat_share": (repeats / len(items), "ratio")}
    nodes = sorted(recorder.item_nodes.values()) if recorder else []
    for key, values in (("atoms", sorted(i.atoms for i in items)),
                        ("clauses", sorted(i.clauses for i in items)), ("nodes", nodes)):
        out[f"items.{key}.p50"] = (statistics.median(values) if values else 0, "count")
        out[f"items.{key}.max"] = (values[-1] if values else 0, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "block"), required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smallest item sizes, for the smoke test")
    args = parser.parse_args(argv)
    probe_start = perf_counter()
    first_probe = reference_ms()
    probe_s = perf_counter() - probe_start

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as work:
        workload = workloads.Workload(args.workload, args.seed, args.tiny, ROOT, Path(work))
        items = workload.round()
        ready = time.monotonic()
        # Set-up time is scaled like item time, by the probes on either side of it.
        result = {"ready": ready - probe_s,
                  "setup_factor": NOMINAL_REF_MS / ((first_probe + reference_ms()) / 2)}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        durations: list[float] = []
        failures: list[dict] = []
        rounds = timed_rounds(args.workload, args.seconds, len(items))
        recorder = None
        if args.mode == "block":
            rounds = max(1, rounds // 2)
            if args.traced:
                import tracing

                recorder = tracing.Recorder()
                recorder.install()
        decided_items = []
        elapsed = 0.0
        scale = SpeedScale()
        for r in range(rounds):
            if r:
                items = workload.round()  # built outside the timed wall clock
            start = perf_counter()
            decide(items, len(decided_items), durations, failures, recorder, scale)
            elapsed += perf_counter() - start
            decided_items += items
            if elapsed >= OVERRUN * args.seconds:
                break
        scale.flush()
        result["peak_rss_mb"] = peak_rss_mb()
        result.update(attempted=len(decided_items), failed=len(failures), failures=failures[:5],
                      elapsed_s=elapsed, scaled=timing(scale.scaled),
                      unscaled=timing(scale.raw),
                      reference_ms=statistics.median(scale.probes))
        if recorder is not None:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            recorder.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            layers = recorder.metrics(args.workload)
            layers.update(size_stats(decided_items, recorder))
            result["layers"] = layers
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
