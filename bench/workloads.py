"""Seeded workloads: item generators, the deciders that run them, and their oracles.

An item is one document (a ``.pcl`` contract, a pair of contracts, or one
``lpn`` command).  Deciding it takes it from its text to every checked answer.
Each item carries its expected answers as data in ``Item.expected``; the
decider compares every answer the program gives against them and returns the
mismatches, so an empty list means the item was decided and checked.

Items come in rounds.  A round holds a fixed number of items of each size
class, interleaved the same way every time, and a run decides whole rounds.
Every run therefore decides the same mix of sizes, which keeps the
percentiles of item time on the same size class from seed to seed.

The library is always reached through module attributes at call time
(``L.explore``, ``cli.main``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import string
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import lendingnets as L
from lendingnets import cli


@dataclass
class Item:
    """One unit of work: its texts, its expected answers and its size."""

    texts: tuple
    expected: dict
    decide: Callable[[Item], list[str]] = field(repr=False)
    atoms: int = 0
    clauses: int = 0
    theory: tuple = ()

    def run(self) -> list[str]:
        return self.decide(self)


def _check(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {sorted(got) if isinstance(got, frozenset) else got!r}, "
                        f"want {sorted(want) if isinstance(want, frozenset) else want!r}")


def _holds(verdict) -> bool:
    if verdict.outcome is L.Outcome.INCONCLUSIVE:
        raise RuntimeError(f"inconclusive: {verdict.detail}")
    return verdict.outcome is L.Outcome.HOLDS


def _fresh(rng: random.Random, index: int) -> str:
    """Atom prefix unique to one item, so no logic cache entry is ever reused."""
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3)) + f"{index}x"


# --- contract text ---------------------------------------------------------------


def contract_text(clauses, ownership: dict, goals) -> str:
    """A contract document in the normal form ``lpn parse`` prints.

    ``clauses`` are ``(head, body, contractual)`` triples.  Written here
    rather than with the library's serializer so that ``parse`` has an
    independent oracle.
    """
    lines = ["participant " + " ".join(sorted({ownership[h] for h, _, _ in clauses}))]
    lines += [f"owner {a} {ownership[a]}" for a in sorted(ownership)]
    ordered = sorted(clauses, key=lambda c: (c[0], c[2], tuple(sorted(c[1]))))
    lines += [f"fact {h}" for h, body, credit in ordered if not body and not credit]
    for h, body, credit in ordered:
        if body or credit:
            lines.append(f"clause {' & '.join(sorted(body))} {'->>' if credit else '->'} {h}")
    if set(map(frozenset, goals)) != {frozenset()}:
        for g in sorted(goals, key=lambda g: tuple(sorted(g))):
            lines.append(("goal " + " ".join(sorted(g))).rstrip())
    return "\n".join(lines) + "\n"


def pairs_spec(prefix: str, n: int):
    """``pairs(n)``: n independent credit handshakes ``b_j ->> a_j``, ``a_j -> b_j``."""
    a = [f"{prefix}a{j}" for j in range(n)]
    b = [f"{prefix}b{j}" for j in range(n)]
    clauses = [(a[j], (b[j],), True) for j in range(n)] + [(b[j], (a[j],), False) for j in range(n)]
    owners = {x: "P" + x for x in a + b}
    return a, b, clauses, owners


def ring_spec(prefix: str, n: int, side: int | None):
    """Credit ring ``x_{j+1} ->> x_j``; with ``side`` a strict clause ``x_side -> s``."""
    x = [f"{prefix}x{j:02d}" for j in range(n)]
    clauses = [(x[j], (x[(j + 1) % n],), True) for j in range(n)]
    owners = {v: "P" + v for v in x}
    s = None
    if side is not None:
        s = f"{prefix}s"
        clauses.append((s, (x[side],), False))
        owners[s] = "P" + s
    return x, s, clauses, owners


# --- exchange_pairs ----------------------------------------------------------------


def decide_pairs(item: Item) -> list[str]:
    e = item.expected
    problems: list[str] = []
    c = L.parse_contract(item.texts[0])
    agree_logic = L.admits_agreement(c)
    _check(problems, "agreement (logic)", agree_logic, e["agreement"])
    cn = L.compile_contract(c)
    graph = L.explore(cn.net)
    if not graph.complete:
        raise RuntimeError("exploration incomplete")
    _check(problems, "agreement (net) = logic", _holds(L.agreement_reachable(cn, graph=graph)), agree_logic)
    _check(problems, "weak termination", _holds(L.weakly_terminates_in(cn, graph=graph)), e["wt"])
    for done, want in e["urgent"]:
        _check(problems, f"urgent (net) at {sorted(done)}", L.urgent_via_net(c, done), want)
    return problems


def pairs_item(rng: random.Random, index: int, n: int) -> Item:
    a, b, clauses, owners = pairs_spec(_fresh(rng, index), n)
    k = n // 2
    urgent = [(frozenset(), frozenset(a))]
    if n <= 5:
        # A half-done set: the first k credits granted, so their repayments are due.
        urgent.append((frozenset(a[:k]), frozenset(b[:k] + a[k:])))
    text = contract_text(clauses, owners, [a + b])
    return Item((text,), {"agreement": True, "wt": True, "urgent": urgent}, decide_pairs,
                atoms=2 * n, clauses=2 * n)


# Share of each size in one round of exchange_pairs.  p50 falls in the middle
# of the pairs(4) class and p90 in the middle of pairs(5), so neither sits on
# the edge of a class; pairs(6) is queried at the empty set only.
PAIRS_ROUND = ((3, 8), (4, 25), (5, 6), (6, 1))
PAIRS_TINY = ((2, 3), (3, 2))


# --- credit_rings ------------------------------------------------------------------


def decide_ring(item: Item) -> list[str]:
    e = item.expected
    problems: list[str] = []
    c = L.parse_contract(item.texts[0])
    agree_logic = L.admits_agreement(c)
    _check(problems, "agreement (logic)", agree_logic, e["agreement"])
    if "urgent" not in e:
        return problems
    cn = L.compile_contract(c)
    graph = L.explore(cn.net)
    if not graph.complete:
        raise RuntimeError("exploration incomplete")
    _check(problems, "agreement (net) = logic", _holds(L.agreement_reachable(cn, graph=graph)), agree_logic)
    _check(problems, "weak termination", _holds(L.weakly_terminates_in(cn, graph=graph)), e["wt"])
    for done, want in e["urgent"]:
        logic = L.urgent_logic(c, done)
        _check(problems, f"urgent (logic) at {sorted(done)}", logic, want)
        _check(problems, f"urgent (net) = logic at {sorted(done)}", L.urgent_via_net(c, done), logic)
    return problems


def ring_item(rng: random.Random, index: int, n: int, with_side: bool) -> Item:
    side = rng.randrange(n) if with_side else None
    x, s, clauses, owners = ring_spec(_fresh(rng, index), n, side)
    expected: dict = {"agreement": True}
    if n <= 5:
        j = side if side is not None and rng.random() < 0.5 else rng.randrange(n)
        after = frozenset(x) - {x[j]} | ({s} if side == j else set())
        expected["wt"] = True
        expected["urgent"] = [(frozenset(), frozenset(x)), (frozenset({x[j]}), after)]
    text = contract_text(clauses, owners, [list(owners)])
    return Item((text,), expected, decide_ring, atoms=len(owners), clauses=len(clauses))


# (ring size, with side clause, count).  Rings of 3-5 atoms are decided on
# both sides, rings of 10-14 by logic agreement only.  Ordered by item time,
# p50 falls inside the plain 4-rings and p90 in the middle of the 4-rings with
# a side clause.
RINGS_ROUND = (
    (3, False, 6), (3, True, 6), (10, False, 5), (4, False, 13), (11, True, 2),
    (12, False, 2), (4, True, 4), (14, True, 1), (5, False, 1),
)
RINGS_TINY = ((3, False, 2), (3, True, 2), (6, False, 1))


# --- random_contracts --------------------------------------------------------------

POOL = ("a", "b", "c", "d")


def random_clauses(rng: random.Random, n_atoms: int, n_draws: int, heads=None, atoms=POOL):
    """Mixed clauses over the first ``n_atoms`` of a pool, as the test suite's generator makes them.

    That generator draws the pool size and the number of clause draws
    uniformly; here the caller fixes both, so each round can hold every
    shape equally often.
    """
    pool = list(atoms[:n_atoms])
    head_pool = [h for h in (heads or pool) if h in pool] or pool[:1]
    clauses = set()
    for _ in range(n_draws):
        head = rng.choice(head_pool)
        credit = rng.random() < 0.5
        body = frozenset(rng.sample(pool, rng.randint(1 if credit else 0, min(3, len(pool)))))
        clauses.add((head, body, credit and bool(body)))
    return sorted(clauses, key=lambda c: (c[0], c[2], tuple(sorted(c[1]))))


def random_contract_text(rng: random.Random, shape: tuple[int, int], names: dict, heads=None, atoms=POOL) -> str:
    """A random contract over the pool, written with the atoms renamed by ``names``."""
    clauses = random_clauses(rng, *shape, heads, atoms)
    mentioned = sorted({a for h, body, _ in clauses for a in (h, *body)})
    goals = [rng.sample(mentioned, rng.randint(0, len(mentioned))) for _ in range(rng.randint(1, 2))]
    clauses = [(names[h], tuple(names[a] for a in body), credit) for h, body, credit in clauses]
    goals = [[names[a] for a in goal] for goal in goals]
    return contract_text(clauses, {names[a]: names[a].upper() for a in mentioned}, goals)


def cross_check(c, problems: list[str]) -> None:
    """Criterion 8 on one contract: every logic answer equals its net answer."""
    theory = c.clauses
    provable = L.provable_atoms(theory)
    _check(problems, "provable = atoms of proof traces", provable,
           frozenset(a for word in L.proof_traces(theory) for a in word))
    cn = L.compile_contract(c)
    graph = L.explore(cn.net)
    if not graph.complete:
        raise RuntimeError("exploration incomplete")
    _check(problems, "honored done sets = proof-trace atom sets",
           L.honored_done_sets(cn, graph=graph), L.trace_atom_sets(theory))
    agree = L.admits_agreement(c)
    _check(problems, "agreement (net) = logic", _holds(L.agreement_reachable(cn, graph=graph)), agree)
    if _holds(L.weakly_terminates_in(cn, graph=graph)) and not agree:
        problems.append("weak termination holds without agreement")
    done_sets = {cfg.done for cfg in L.reachable_configurations(cn, graph=graph)} | {frozenset()}
    for done in sorted(done_sets, key=sorted):
        _check(problems, f"urgent (net) = logic at {sorted(done)}",
               L.urgent_via_net(c, done), L.urgent_logic(c, done))


def decide_random(item: Item) -> list[str]:
    problems: list[str] = []
    if len(item.texts) == 1:
        cross_check(L.parse_contract(item.texts[0]), problems)
        return problems
    first, second = (L.parse_contract(t) for t in item.texts)
    cross_check(L.compose_contracts(first, second), problems)
    _check(problems, "compile commutes with compose", _holds(L.compile_compose_commutes(first, second)), True)
    return problems


def _theory_of(texts) -> tuple:
    return tuple(sorted({line for t in texts for line in t.splitlines()
                         if line.startswith(("clause", "fact"))}))


def random_item(rng: random.Random, names: dict, shapes: tuple) -> Item:
    """One random contract, or with two shapes a compatible pair to compose."""
    if len(shapes) == 2:
        texts = (random_contract_text(rng, shapes[0], names, heads=("a", "b")),
                 random_contract_text(rng, shapes[1], names, heads=("c", "d"), atoms=("c", "d", "a", "b")))
    else:
        texts = (random_contract_text(rng, shapes[0], names),)
    theory = _theory_of(texts)
    atoms = {tok for line in theory for tok in line.split()[1:] if tok not in ("&", "->", "->>")}
    return Item(texts, {}, decide_random, atoms=len(atoms), clauses=len(theory), theory=theory)


def random_round(max_draws: int, pair_draws: int, copies: int) -> list[tuple]:
    """Shapes of one round: every (atoms, draws) shape ``copies`` times, then the pairs.

    Singles take up to 4 atoms and ``max_draws`` clause draws; each pair
    side takes up to ``pair_draws``, and the second side runs through the
    shapes in reverse, so a composite has at most 4 atoms and
    ``2 * pair_draws`` clauses.
    """
    singles = [(n, d) for n in range(1, 5) for d in range(1, max_draws + 1)]
    sides = [(n, d) for n in range(1, 5) for d in range(1, pair_draws + 1)]
    return [(shape,) for shape in singles] * copies + list(zip(sides, reversed(sides)))


# 40 single contracts and 12 composed pairs per round.
RANDOM_ROUND = random_round(5, 3, 2)
RANDOM_TINY = random_round(2, 1, 1)


# --- cli_corpus --------------------------------------------------------------------


def decide_cli(item: Item) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(item.texts))
    problems: list[str] = []
    e = item.expected
    _check(problems, f"exit code of lpn {' '.join(item.texts)}", code, e["code"])
    text = out.getvalue()
    if "file" in e:
        text = Path(e["file"]).read_text(encoding="utf-8")
    if "stdout" in e:
        _check(problems, "output", text, e["stdout"])
    if "head" in e:
        _check(problems, "first lines", text.splitlines()[: len(e["head"])], e["head"])
    for prefix, count in e.get("counts", {}).items():
        _check(problems, f"lines starting {prefix!r}", sum(line.startswith(prefix) for line in text.splitlines()), count)
    return problems


def compiled_places(clauses, universe, prune: bool) -> int:
    """Place count of a compiled contract, from the compiler's documented layout."""
    heads = {h for h, _, _ in clauses}
    if not prune:
        return len(heads) + len(clauses) * len(universe)
    tids = range(len(clauses))
    touched = {(a, t) for t in tids for a in clauses[t][1]}
    touched |= {(h, t) for h, _, _ in clauses for t in tids}
    return len(heads) + len(touched)


def compiled_arcs(clauses) -> int:
    """Arc count of a compiled contract: control, body and delivery arcs."""
    return len(clauses) + sum(len(body) for _, body, _ in clauses) + len(clauses) ** 2


def dot_lines(places: int, transitions: int, arcs: int) -> int:
    """Indented lines of a Graphviz export: two settings, then one per node and arc."""
    return 2 + places + transitions + arcs


def handshake_nets(prefix: str):
    """A credit handshake and its strict partner, with fresh ids and labels.

    Alone the lender cannot repay (weak termination fails); composed, the
    pair terminates and its traces are the empty word, ``x`` and ``x y``.
    """
    x, y = f"{prefix}x", f"{prefix}y"
    lender = (f"place {prefix}l.p1 label={y} lending\nplace {prefix}l.p2 label={x}\n"
              f"place {prefix}l.p3 tokens=1\ntransition {prefix}l.t label={x}\n"
              f"arc {prefix}l.p1 {prefix}l.t\narc {prefix}l.p3 {prefix}l.t\narc {prefix}l.t {prefix}l.p2\n"
              f"goal {prefix}l.p3=0 {prefix}l.p1>=0\n")
    strict = (f"place {prefix}s.p1 label={x}\nplace {prefix}s.p2 label={y}\n"
              f"place {prefix}s.p3 tokens=1\ntransition {prefix}s.t label={y}\n"
              f"arc {prefix}s.p1 {prefix}s.t\narc {prefix}s.p3 {prefix}s.t\narc {prefix}s.t {prefix}s.p2\n"
              f"goal {prefix}s.p3=0\n")
    return x, y, lender, strict


def cli_commands(rng: random.Random, samples: Path, work: Path) -> list[tuple[list[str], dict]]:
    """One round of ``lpn`` commands with their expected exit codes and output.

    Writes the generated documents into ``work``.  Expected sample verdicts
    are the ones the README states.
    """
    def sample(name: str) -> str:
        return str(samples / name)

    def normal_form(path: str) -> str:
        lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        return "\n".join(lines) + "\n"

    def put(name: str, text: str) -> str:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    p = _fresh(rng, 0)
    pa, pb, pair_clauses, pair_owners = pairs_spec(p, 2)
    pairs_pcl = put("pairs2.pcl", contract_text(pair_clauses, pair_owners, [pa + pb]))
    side = rng.randrange(3)
    rx, rs, ring_clauses, ring_owners = ring_spec(p, 3, side)
    ring_pcl = put("ring3.pcl", contract_text(ring_clauses, ring_owners, [list(ring_owners)]))
    ex_clauses = [(f"{p}e", (f"{p}f",), True), (f"{p}f", (f"{p}e",), False)]
    exchange_pcl = put("exchange.pcl", contract_text(ex_clauses, {f"{p}e": "E", f"{p}f": "F"}, [[f"{p}e", f"{p}f"]]))
    hx, hy, lender, strict = handshake_nets(p)
    lender_lpn, strict_lpn = put("lender.lpn", lender), put("strict.lpn", strict)
    composed_lpn, compiled_lpn, dot_file = str(work / "composed.lpn"), str(work / "compiled.lpn"), str(work / "toy_swap.dot")

    toy = [("a", ("b",), False), ("b", ("c",), False), ("c", ("a", "b"), True)]
    toy_a = [("a", ("b",), False)]
    pair_universe = pa + pb
    ok, fails = 0, 1
    commands: list[tuple[list[str], dict]] = []
    for name in sorted(f.name for f in samples.iterdir() if f.suffix in (".pcl", ".lpn")):
        commands.append((["parse", sample(name)], {"code": ok, "stdout": normal_form(sample(name))}))
    for path in (pairs_pcl, ring_pcl, lender_lpn, strict_lpn):
        commands.append((["parse", path], {"code": ok, "stdout": Path(path).read_text(encoding="utf-8")}))
    commands += [
        (["compile", sample("toy_swap.pcl")], {"code": ok, "head": [
            "place a@* tokens=1", "place a@a&b->>c label=a lending", "place a@b->a label=a"],
            "counts": {"place ": compiled_places(toy, "abc", False), "transition ": 3}}),
        (["compile", "--prune", sample("toy_swap_a.pcl")], {"code": ok, "counts": {
            "place ": compiled_places(toy_a, "abc", True), "transition ": 1}}),
        (["compile", pairs_pcl, "-o", compiled_lpn], {"code": ok, "file": compiled_lpn, "counts": {
            "place ": compiled_places(pair_clauses, pair_universe, False), "transition ": 4}}),
        (["compile", "--prune", ring_pcl], {"code": ok, "counts": {
            "place ": compiled_places(ring_clauses, list(ring_owners), True), "transition ": 4}}),
        (["compose", *(sample(f"toy_swap_{k}.pcl") for k in "abc")],
         {"code": ok, "stdout": normal_form(sample("toy_swap.pcl"))}),
        (["compose", sample("handshake_credit.lpn"), sample("handshake_strict.lpn")],
         {"code": ok, "counts": {"place ": 6, "transition ": 2}}),
        (["compose", lender_lpn, strict_lpn, "-o", composed_lpn],
         {"code": ok, "file": composed_lpn, "counts": {"place ": 6, "transition ": 2, "goal ": 1}}),
        (["check", "wt", composed_lpn], {"code": ok, "stdout": "weak termination: holds\n"}),
        (["check", "wt", lender_lpn], {"code": fails, "stdout": "weak termination: fails\n"}),
        (["check", "wt", sample("handshake_credit.lpn")], {"code": fails, "stdout": "weak termination: fails\n"}),
        (["check", "wt", sample("toy_swap.pcl")], {"code": ok, "stdout": "weak termination: holds\n"}),
        (["check", "wt", pairs_pcl], {"code": ok, "stdout": "weak termination: holds\n"}),
        (["check", "wt", ring_pcl], {"code": ok, "stdout": "weak termination: holds\n"}),
        (["check", "agreement", sample("toy_swap.pcl")], {"code": ok, "stdout": "logic=net=true\n"}),
        (["check", "agreement", "--via", "both", sample("self_credit.pcl")], {"code": ok, "stdout": "logic=net=true\n"}),
        (["check", "agreement", "--via", "both", sample("credit_chain.pcl")], {"code": ok, "stdout": "logic=net=true\n"}),
        (["check", "agreement", "--via", "both", sample("toy_swap_a.pcl")], {"code": fails, "stdout": "logic=net=false\n"}),
        (["check", "agreement", "--via", "both", pairs_pcl], {"code": ok, "stdout": "logic=net=true\n"}),
        (["check", "agreement", "--via", "both", ring_pcl], {"code": ok, "stdout": "logic=net=true\n"}),
        (["urgent", sample("exchange_pair.pcl"), "--done", "a"], {"code": ok, "stdout": "b\n"}),
        (["urgent", pairs_pcl, "--done", pa[0]], {"code": ok, "stdout": " ".join(sorted([pa[1], pb[0]])) + "\n"}),
        (["urgent", ring_pcl, "--done", rx[side]], {"code": ok, "stdout": " ".join(sorted(set(rx) - {rx[side]} | {rs})) + "\n"}),
        (["urgent", composed_lpn], {"code": ok, "stdout": f"{hx}\n"}),
        (["traces", sample("handshake_credit.lpn")], {"code": ok, "stdout": "ε\na\n"}),
        (["traces", sample("exchange_pair.pcl")], {"code": ok, "stdout": "ε\na b\n"}),
        (["traces", exchange_pcl], {"code": ok, "stdout": f"ε\n{p}e {p}f\n"}),
        (["traces", composed_lpn], {"code": ok, "stdout": f"ε\n{hx}\n{hx} {hy}\n"}),
        (["dot", sample("toy_swap.pcl"), "-o", dot_file], {"code": ok, "file": dot_file,
            "head": ['digraph "toy_swap" {'],
            "counts": {"  ": dot_lines(compiled_places(toy, "abc", False), 3, compiled_arcs(toy))}}),
        (["dot", sample("handshake_credit.lpn")], {"code": ok, "head": ['digraph "handshake_credit" {'],
            "counts": {"  ": dot_lines(3, 1, 3)}}),
        (["dot", pairs_pcl], {"code": ok, "counts": {"  ": dot_lines(
            compiled_places(pair_clauses, pair_universe, False), 4, compiled_arcs(pair_clauses))}}),
    ]
    return commands


# --- workloads ---------------------------------------------------------------------


class Workload:
    """A seeded source of rounds of items."""

    def __init__(self, name: str, seed: int, tiny: bool, root: Path, work: Path):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        if name == "random_contracts":
            # The theories come from one fixed stream, the same for every
            # seed; the seed renames the four pool atoms.  Every run then
            # decides the same population of theories, with its natural
            # repeats, and the spread between seeds measures the program
            # rather than which rare, costly theories one seed happened to draw.
            self.theories = random.Random("random_contracts:theories")
            pairs = [x + y for x in string.ascii_lowercase for y in string.ascii_lowercase]
            self.names = dict(zip(POOL, self.rng.sample(pairs, len(POOL))))
        self.tiny = tiny
        self.index = 0
        if name == "cli_corpus":
            self.commands = cli_commands(self.rng, root / "samples", work)
        elif name not in ("exchange_pairs", "credit_rings", "random_contracts"):
            raise ValueError(f"unknown workload {name!r}")

    def _next_index(self) -> int:
        self.index += 1
        return self.index

    def round(self) -> list[Item]:
        rng = self.rng
        if self.name == "exchange_pairs":
            items = [pairs_item(rng, self._next_index(), n)
                     for n, count in (PAIRS_TINY if self.tiny else PAIRS_ROUND) for _ in range(count)]
        elif self.name == "credit_rings":
            items = [ring_item(rng, self._next_index(), n, side)
                     for n, side, count in (RINGS_TINY if self.tiny else RINGS_ROUND) for _ in range(count)]
        elif self.name == "random_contracts":
            items = [random_item(self.theories, self.names, shapes)
                     for shapes in (RANDOM_TINY if self.tiny else RANDOM_ROUND)]
        else:
            # Commands stay in order: later ones read files that earlier ones write.
            return [Item(tuple(argv), expected, decide_cli) for argv, expected in self.commands]
        # One fixed interleaving for every seed and round: full garbage
        # collections follow allocation, so they then fall on the same kinds
        # of item from run to run.
        random.Random(0).shuffle(items)
        return items
