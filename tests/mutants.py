"""A catalogue of one-edit mutants of ``src/``, and a runner that checks tier-1 kills each one.

Each entry is ``(name, file, old, new, why)``: ``old`` is exact text that
occurs once in ``file``, ``new`` replaces it, and ``why`` says what the edit
breaks.  ``tests/test_mutant_catalogue.py`` checks in tier-1 that every
``old`` still occurs exactly once, so an entry fails loudly when its code
moves.  pytest collects only ``test_*.py``, so tier-1 does not run this file.

Run it from the repository root, for every entry or the named ones:

    python tests/mutants.py [name ...]

It copies the repository into a temporary directory once, then per entry
applies the edit, runs tier-1 there with ``-x``, restores the file, and
prints whether the mutant was killed or survived, with the time.  It exits 1
when one survived.  The catalogue only grows: a survivor is killed by a new
test, or kept with the argument that it is equivalent.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str


ANALYSIS, CONTRACTS, NETS = "src/lendingnets/analysis.py", "src/lendingnets/contracts.py", "src/lendingnets/nets.py"
COMPILER, COMPOSE = "src/lendingnets/compiler.py", "src/lendingnets/compose.py"

MUTANTS = (
    Mutant("id-screen-backslash", NETS, '"\\\\" not in joined and ', "",
           "the id screen lets a backslash through, which a net document cannot write back"),
    Mutant("verdict-text-not-kept", NETS, 'text = kept["detail"] = kept["_build"]()', 'text = kept["_build"]()',
           "a verdict's text is built on every read, and the second read finds no builder"),
    Mutant("argv-value-starting-with-dash", "src/lendingnets/cli.py",
           'if i == len(argv) or argv[i][:1] == "-":', "if i == len(argv):",
           "the plain argv screen takes an option as the value of the one before it"),
    Mutant("included-on-incomplete-left", COMPOSE,
           "    if left_done and not missing:", "    if not missing:",
           "trace inclusion holds though the left listing is incomplete"),
    Mutant("urgency-without-closure", ANALYSIS,
           "can_honor = _reaching(edges, [(packed + add) & mask == mask for packed in packs])",
           "can_honor = [(packed + add) & mask == mask for packed in packs]",
           "a step is urgent only when it lands on an honored state, not when one is reachable"),
    Mutant("granted-facts-once", "src/lendingnets/logic.py",
           "        assumed = kept\n", "        assumed, facts = kept, frozenset()\n",
           "_granted drops its facts after the first round"),
    Mutant("budget-zero-accepted", NETS, "    if budget < 1:", "    if budget < 0:",
           "a budget of 0 is accepted, though no search can keep a state under it"),
    Mutant("trace-set-budget-edge", ANALYSIS, "if len(seen) >= budget:", "if len(seen) > budget:",
           "trace_set keeps one (node, word) pair more than its budget"),
    Mutant("held-root-only-part-dropped", ANALYSIS,
           "        return [(part, share) for part, (_, share) in zip(held, parts)]",
           "        return [(part, share) for part, (_, share) in zip(held, parts) if len(part) > 1]",
           "a held walk that kept only its root is dropped whatever its goals, so its stuck root is missed"),
    Mutant("covering-join-last-target", ANALYSIS,
           "        i = next(_goal_states(net, part, goals, True), None)",
           "        i = max(_goal_states(net, part, goals, True), default=None)",
           "agreement joins each part's last goal state, not its first: another witness"),
    Mutant("done-test-ignores-covering", ANALYSIS,
           "0 if covering else every - total", "every - total",
           "a covering check asks for done sets equal to a goal set"),
    Mutant("held-parts-any-length", ANALYSIS,
           "    if held is not None and len(parts := split()) == len(held):",
           "    if held is not None and (parts := split()):",
           "held parts are read with a goal split of another length, merged goals on the first part"),
    Mutant("split-copy-walks-product", ANALYSIS,
           "        return _SplitGraph, (self.net, self._fields, *self._held)",
           "        return ReachGraph, (self.net, self._fields, (self._packs, self._keys, self.edges, self.complete))",
           "a copy of a held graph walks the product"),
    Mutant("urgent-done-set-on-parts", ANALYSIS,
           "        graph = _explored(net, budget)\n    done = _done_test(",
           "        graph = explore(net, budget)\n    done = _done_test(",
           "urgency at a done set walks a split net's parts, then its product"),
    Mutant("configurations-lose-credits", ANALYSIS,
           "(done | more, credits | owed) for done, credits in product",
           "(done | more, credits) for done, credits in product",
           "a held graph's configurations keep only the first part's credits"),
    Mutant("split-from-three-components", ANALYSIS,
           "sum([len(rows) > 1 for rows in _components(net)]) >= 4",
           "sum([len(rows) > 1 for rows in _components(net)]) >= 3",
           "explore holds the parts of nets the measured rule keeps whole"),
    Mutant("first-stuck-part-not-least", ANALYSIS,
           "graph, i = stuck[0] if len(stuck) == 1 else min(stuck, key=lambda s: _least_path(*s))",
           "graph, i = stuck[0]",
           "the stuck witness is the first stuck part's, not the least by path"),
    Mutant("graph-budget-not-its-length", CONTRACTS,
           "reads, budget = _held_parts(cn.net, graph, cn.goals, lambda: _goal_split(cn)), len(graph)",
           "reads = _held_parts(cn.net, graph, cn.goals, lambda: _goal_split(cn))",
           "an incomplete graph's INCONCLUSIVE names the budget passed, not the states it kept"),
    Mutant("compile-ignores-alphabet", COMPILER,
           "alphabet=c.atoms() if alphabet is None else alphabet,", "alphabet=c.atoms(),",
           "each side of the commutation check keeps its own alphabet, so their oplus raises"),
    Mutant("commutation-sides-compiled-in-full", COMPILER,
           "left, right = (_compile(side, frozenset(), union).net", "left, right = (_compile(side, union, union).net",
           "the sides are compiled with every delivery place: the same verdicts from quadratic nets"),
    Mutant("commutation-joint-pruned", COMPILER,
           "joint = _urgency_net(compose_contracts(first, second)).net",
           "joint = compile_contract(compose_contracts(first, second), prune=True).net",
           "the composition is compiled with its heads' delivery places: the same verdicts from a quadratic net"),
    Mutant("commutation-over-first-alphabet", COMPILER,
           "union = first.atoms() | second.atoms()", "union = first.atoms()",
           "the sides are compiled over the first side's alphabet, not the composition's"),
    Mutant("consumed-part-without-alphabet", ANALYSIS,
           "        net.alphabet,\n        layout.places,", "        layout.places,",
           "nets over different alphabets pass as equal, past trace_equivalent's one-universe check"),
    Mutant("consumed-part-without-start", ANALYSIS,
           "        layout.start,\n        {(layout.labels[k]", "        {(layout.labels[k]",
           "nets that differ only in their initial counts pass as trace equivalent"),
    Mutant("consumed-part-without-guard", ANALYSIS,
           "frozenset(pre), frozenset(guard), frozenset(post)", "frozenset(pre), frozenset(post)",
           "nets that differ only in which inputs lend pass as trace equivalent"),
    Mutant("oplus-drops-consumed-places", COMPOSE,
           "if s not in consumed and atom in granted}", "if atom in granted}",
           "oplus drops a consumed place whose label the partner grants, not only a sink"),
    Mutant("walk-root-counted-per-part", ANALYSIS,
           "budget -= len(packs) - 1", "budget -= len(packs)",
           "the component walks count their shared root once per part"),
    Mutant("walk-budget-edge", ANALYSIS,
           "if len(packs) >= budget:", "if len(packs) > budget:",
           "a walk keeps one state more than its budget"),
    Mutant("covering-walks-cut-short-read-complete", ANALYSIS,
           "return None, walks[-1][3]", "return None, True",
           "agreement without a graph FAILS where a walk the budget cut short leaves it INCONCLUSIVE"),
    Mutant("urgency-reads-incomplete-walks", ANALYSIS,
           "        if not complete:\n            raise IncompleteExplorationError(\"urgency",
           "        if False:\n            raise IncompleteExplorationError(\"urgency",
           "urgency answers from walks the budget cut short"),
    Mutant("sink-rule-every-atom", COMPILER,
           "for x in done - cl.body)", "for x in c.atoms() - cl.body)",
           "the full net's text marks a sink of every atom, granted or not"),
    Mutant("sink-rule-own-body", COMPILER,
           "for x in done - cl.body)", "for x in done)",
           "the full net's text also sets a clause's own body places, consumed ones among them, to 1"),
    Mutant("stuck-text-plain-describe", "src/lendingnets/cli.py",
           "False, functools.partial(_full_text, doc))", "False)",
           "a failing check wt on a .pcl prints the consumed-places net's text, without the sink places"),
    Mutant("agreement-text-plain-describe", COMPILER,
           "budget, None, lambda node: _full_text(c, node))", "budget, None)",
           "agreement_via_net's witness text is the consumed-places net's, without the sink places"),
)

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks",
                                 ".bench-tmp-*", "BENCH_*.json")


def run(mutants) -> list[Mutant]:
    """Apply each mutant in turn to one copy of the repository and run tier-1 there; the survivors."""
    survived = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
        for mutant in mutants:
            path = copy / mutant.file
            text = path.read_text()
            path.write_text(text.replace(mutant.old, mutant.new, 1))
            start = time.perf_counter()
            result = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            path.write_text(text)
            verdict = "killed" if result.returncode else "survived"
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s", flush=True)
            if not result.returncode:
                survived.append(mutant)
    return survived


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    return 1 if run([m for m in MUTANTS if not names or m.name in names]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
