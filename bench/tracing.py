"""Spans around the library's public functions, and the per-layer metrics made from them.

``Recorder.install`` replaces each traced function, in every ``lendingnets``
module that holds it (its own module and every module that imported it), by
a wrapper that records a span: name, start, end, parent span and item id.
Calls from one library module into another therefore nest under their
caller.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
Counts (nodes, edges, words, places, matching nodes, recompiles) are taken
from the traced functions' results at the same boundaries, so they repeat
exactly for a given seed.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, defining module, function).  Spans are named after the layer
# they measure; ``compose_contracts`` lives in ``logic`` but composes.
TRACED = (
    ("analysis.explore", "analysis", "explore"),
    ("analysis.trace_set", "analysis", "trace_set"),
    ("analysis.weakly_terminates", "analysis", "weakly_terminates"),
    ("analysis.urgent_for_done_set", "analysis", "urgent_for_done_set"),
    ("contracts.agreement_reachable", "contracts", "agreement_reachable"),
    ("contracts.weakly_terminates_in", "contracts", "weakly_terminates_in"),
    ("contracts.honored_done_sets", "contracts", "honored_done_sets"),
    ("contracts.urgent", "contracts", "urgent"),
    ("compiler.compile_contract", "compiler", "compile_contract"),
    ("compiler.urgent_via_net", "compiler", "urgent_via_net"),
    ("compiler.compile_compose_commutes", "compiler", "compile_compose_commutes"),
    ("logic.provable_atoms", "logic", "provable_atoms"),
    ("logic.proof_traces", "logic", "proof_traces"),
    ("logic.urgent_logic", "logic", "urgent_logic"),
    ("formats.parse_contract", "formats", "parse_contract"),
    ("formats.parse_net", "formats", "parse_net"),
    ("formats.serialize_contract", "formats", "serialize_contract"),
    ("formats.serialize_net", "formats", "serialize_net"),
    ("compose.compose_contracts", "logic", "compose_contracts"),
    ("compose.oplus", "compose", "oplus"),
    ("compose.trace_equivalent", "compose", "trace_equivalent"),
    ("cli.main", "cli", "main"),
    ("dot.export_dot", "dot", "export_dot"),
)

LAYERS = ("analysis", "contracts", "compiler", "logic", "formats", "compose", "cli", "dot")

CLI_COMMANDS = ("parse", "compile", "compose", "check.wt", "check.agreement", "urgent", "traces", "dot")

# The functions (or whole layers) expected to hold most of the self time on
# each workload; with ``subtree`` the spans below them count too.
PREDICTED = {
    "exchange_pairs": (("analysis.explore", "contracts.urgent"), False),
    "credit_rings": (("logic.urgent_logic", "logic.proof_traces", "logic.provable_atoms"), False),
    "random_contracts": (("compiler.urgent_via_net",), True),
    "cli_corpus": (("cli", "formats", "dot"), False),
}


def _count_explore(rec, args, graph):
    rec.counts["analysis.explore.nodes"] += len(graph.nodes)
    rec.counts["analysis.explore.edges"] += len(graph.edges)
    rec.item_nodes[rec.item] = max(rec.item_nodes.get(rec.item, 0), len(graph.nodes))


def _count_trace_set(rec, args, result):
    rec.counts["analysis.trace_set.words"] += len(result[0])


def _count_proof_traces(rec, args, words):
    rec.counts["logic.proof_traces.words"] += len(words)


def _count_compile(rec, args, cn):
    net = cn.net
    rec.counts["compiler.places"] += len(net.places)
    rec.counts["compiler.places_consumed"] += sum(1 for p in net.places if net.postset(p))


def _count_cli(rec, args, code):
    argv = list(args[0]) if args else []
    command = ".".join(argv[:2]) if argv[:1] == ["check"] else (argv[0] if argv else "")
    rec.counts[f"cli.main.{command}.calls"] += 1


COUNTERS = {
    "analysis.explore": _count_explore,
    "analysis.trace_set": _count_trace_set,
    "logic.proof_traces": _count_proof_traces,
    "compiler.compile_contract": _count_compile,
    "cli.main": _count_cli,
}


class Recorder:
    """In-memory spans of one traced run; ``item`` is the id of the item being decided."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item_nodes: dict[int, int] = {}
        self.item = -1

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "lendingnets" or name.startswith("lendingnets.")]
        for name, module, function in TRACED:
            original = getattr(sys.modules[f"lendingnets.{module}"], function)
            self._replace(modules, original, self._span(name, original, COUNTERS.get(name)))
        closure = sys.modules["lendingnets.analysis"].backward_closure
        self._replace(modules, closure, self._closure_counter(closure))

    @staticmethod
    def _replace(modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _span(self, name, fn, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end

        return traced

    def _closure_counter(self, fn):
        """Count the backward closures that ``contracts.urgent`` recomputes."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "contracts.urgent":
                self.counts["contracts.urgent.matching_nodes"] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, item in self.spans:
                out.write(json.dumps([name, round(start, 7), round(end, 7), parent, item]) + "\n")

    def metrics(self, workload: str) -> dict:
        """Per-layer metrics: calls and self time per function, counts, layer totals."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]

        calls: Counter = Counter()
        self_ms: dict[str, float] = defaultdict(float)
        recompiles = 0
        for i, (name, _, _, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ms[name] += self_s[i] * 1000
            if name == "compiler.compile_contract" and parent >= 0 and spans[parent][0] == "compiler.urgent_via_net":
                recompiles += 1

        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ms[name], "ms")
        c = self.counts
        for key in ("analysis.explore.nodes", "analysis.explore.edges", "analysis.trace_set.words",
                    "contracts.urgent.matching_nodes", "compiler.places", "logic.proof_traces.words"):
            out[key] = (c[key], "count")
        out["compiler.urgent_via_net.recompiles"] = (recompiles, "count")
        out["compiler.places_consumed_ratio"] = (c["compiler.places_consumed"] / max(c["compiler.places"], 1), "ratio")
        edges = c["analysis.explore.edges"]
        out["nets.step_us"] = (self_ms["analysis.explore"] * 1000 / edges if edges else 0.0, "us")
        for command in CLI_COMMANDS:
            out[f"cli.main.{command}.calls"] = (c[f"cli.main.{command}.calls"], "count")
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = (
                sum(v for name, v in self_ms.items() if name.split(".")[0] == layer), "ms")
        out["trace.predicted_self_share"] = (self._predicted_share(workload, self_s), "ratio")
        return out

    def _predicted_share(self, workload: str, self_s: list[float]) -> float:
        targets, subtree = PREDICTED[workload]
        spans = self.spans
        inside = [False] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            inside[i] = name in targets or name.split(".")[0] in targets or (
                subtree and parent >= 0 and inside[parent])
        total = sum(self_s)
        return sum(s for s, hit in zip(self_s, inside) if hit) / total if total else 0.0
