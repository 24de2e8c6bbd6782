"""A verdict's text is built when ``detail`` is first read.

Agreement's HOLDS witness and every stuck check's FAILS node are described
(``Node.describe``, and a contract's stuck node also by ``configuration``) only
when ``detail`` is read.  Until then the verdict keeps a builder that holds
the node and the contract net and no graph; a read verdict reads as one built
from its text, and the checks the bench decides read no text at all.
"""

import copy
import gc
import pickle
import random
from dataclasses import FrozenInstanceError
from types import FunctionType, ModuleType

import pytest

import lendingnets
from lendingnets import (
    ContractNet,
    Outcome,
    Verdict,
    admits_agreement,
    agreement_reachable,
    compile_contract,
    explore,
    honored_always_reachable,
    honored_done_sets,
    proof_traces,
    provable_atoms,
    reachable_configurations,
    urgent_logic,
    urgent_via_net,
    weakly_terminates,
    weakly_terminates_in,
)
from lendingnets.analysis import Node, ReachGraph

from generators import credit_ring, pairs_contract, random_contract
from test_node_reading import unlabeled_debt_net


@pytest.fixture(scope="module")
def cases():
    """``(name, make)`` pairs: ``make()`` runs a check that hands its verdict a text builder."""
    cn = compile_contract(pairs_contract(4))
    narrow = ContractNet(net=cn.net, participants=cn.participants, ownership=cn.ownership,
                         goals={frozenset({"a0"})})
    debt = unlabeled_debt_net(False).net
    return [
        ("agreement", lambda: agreement_reachable(cn)),
        ("agreement on a graph", lambda: agreement_reachable(cn, graph=explore(cn.net))),
        ("contract wt", lambda: weakly_terminates_in(narrow)),
        ("contract wt on a graph", lambda: weakly_terminates_in(narrow, graph=explore(cn.net))),
        ("net wt", lambda: weakly_terminates(cn.net, lambda node: False)),
        ("honored", lambda: honored_always_reachable(explore(debt))),
    ]


def reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, but types and modules, and a
    function's objects only through its closure cells: what the verdict holds, not its code's globals."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))


def test_every_case_is_built_by_a_builder(cases):
    for name, make in cases:
        verdict = make()
        assert "_build" in vars(verdict) and "detail" not in vars(verdict), name
        assert verdict.outcome is not Outcome.INCONCLUSIVE, name


def test_a_lazily_built_verdict_reads_as_one_built_from_its_text(cases):
    for name, make in cases:
        text = make().detail
        assert text, name
        lazy = make()
        eager = Verdict(lazy.outcome, lazy.witness, text)
        assert lazy == eager and eager == lazy, name
        assert hash(make()) == hash(eager), name
        assert repr(make()) == repr(eager), name
        assert vars(lazy) == vars(eager), name


def test_a_verdict_built_on_read_is_still_frozen(cases):
    for name, make in cases:
        verdict = make()
        with pytest.raises(FrozenInstanceError):
            verdict.detail = "other"
        assert verdict.detail != "other", name


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_copies_of_an_unread_verdict_equal_it(cases, clone):
    for name, make in cases:
        twin = clone(make())
        assert vars(twin).keys() == {"outcome", "witness", "detail"}, name
        assert twin == make(), name
        assert twin.detail == make().detail, name


def test_no_graph_is_reachable_from_a_verdict(cases):
    for name, make in cases:
        verdict = make()
        held = list(reachable(verdict))
        assert not any(isinstance(obj, ReachGraph) for obj in held), name
        # The walk does pass through the builder: it reaches the node the text describes.
        assert any(isinstance(obj, Node) for obj in held), name
        verdict.detail
        assert not any(isinstance(obj, ReachGraph) for obj in reachable(verdict)), name


def test_a_builder_that_raises_raises_on_each_read():
    def broken():
        raise RuntimeError("no text")

    verdict = Verdict._on_read(Outcome.FAILS, None, broken)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no text"):
            verdict.detail


def test_a_constructed_verdict_keeps_its_text():
    assert Verdict(Outcome.HOLDS).detail == ""
    assert vars(Verdict.fails(3, "x")) == {"outcome": Outcome.FAILS, "witness": 3, "detail": "x"}
    assert Verdict.holds("y") == Verdict(Outcome.HOLDS, None, "y")
    assert pickle.loads(pickle.dumps(Verdict.inconclusive("z"))) == Verdict.inconclusive("z")


# The decider sequences of bench/workloads.py, as plain calls.

def decide_pairs(c, urgent_done):
    admits_agreement(c)
    cn = compile_contract(c)
    graph = explore(cn.net)
    outcomes = agreement_reachable(cn, graph=graph).outcome, weakly_terminates_in(cn, graph=graph).outcome
    for done in urgent_done:
        urgent_via_net(c, done)
    return outcomes


def decide_ring(c, urgent_done):
    outcomes = decide_pairs(c, ())
    for done in urgent_done:
        urgent_logic(c, done)
        urgent_via_net(c, done)
    return outcomes


def cross_check(c):
    theory = c.clauses
    provable_atoms(theory)
    proof_traces(theory)
    cn = compile_contract(c)
    graph = explore(cn.net)
    honored_done_sets(cn, graph=graph)
    admits_agreement(c)
    outcomes = agreement_reachable(cn, graph=graph).outcome, weakly_terminates_in(cn, graph=graph).outcome
    for done in {cfg.done for cfg in reachable_configurations(cn, graph=graph)} | {frozenset()}:
        urgent_via_net(c, done)
        urgent_logic(c, done)
    return outcomes


def test_the_bench_deciders_build_no_text(monkeypatch):
    calls = []
    describe, configuration = Node.describe, lendingnets.contracts.configuration
    monkeypatch.setattr(Node, "describe", lambda node: calls.append("describe") or describe(node))
    monkeypatch.setattr(lendingnets.contracts, "configuration",
                        lambda cn, node: calls.append("configuration") or configuration(cn, node))
    pairs = pairs_contract(4)
    outcomes = [decide_pairs(pairs, [frozenset(), frozenset({"a0", "a1"})])]
    for side in (None, 0, 2):
        outcomes.append(decide_ring(credit_ring(4, side), [frozenset(), frozenset({"x1"})]))
    rng = random.Random(7)
    outcomes += [cross_check(random_contract(rng)) for _ in range(50)]
    assert calls == []
    # Agreement holds with a witness, and weak termination fails at a stuck node, many times over.
    agreements, terminations = zip(*outcomes)
    assert agreements.count(Outcome.HOLDS) >= 10 and terminations.count(Outcome.FAILS) >= 10
    assert weakly_terminates_in(ContractNet(net=compile_contract(pairs).net, participants=pairs.participants,
                                            ownership=pairs.ownership, goals={frozenset({"a0"})})).detail
    assert calls == ["configuration", "describe"]
