"""Compiling commutes with composing, decided from the consumed parts.

``compile_compose_commutes`` gives HOLDS without listing a word when the two
nets have the same consumed part (``analysis._consumed_part``): the same
alphabet, consumed places and initial counts on them, and the same set of
transition labels, inputs, non-lending inputs and consumed outputs.  Then
the two nets have the same runs up to transition ids, hence the same words
(README, "Compositionality from the consumed parts").  The oracle is
``trace_equivalent``, which lists the words: wherever the parts are equal it
must HOLD.  Nets whose parts differ still go to it.  Every compilation of a
contract has the same consumed part, and the consumed part of an ``oplus``
depends only on its operands', so the check compares the consumed-places
nets: the composition's, and each side's compiled over the joint alphabet.
``compile_oracle.full_compile_compose_commutes``, which compared the full
compiles, must give the same verdicts, also where a side's alphabet is not
the joint one.
"""

import random
import time
from dataclasses import replace

import pytest

import lendingnets.compiler
import lendingnets.compose
from lendingnets import (
    CompositionError,
    HornClause,
    LendingNet,
    NetStructureError,
    Outcome,
    PCLContract,
    ToolkitError,
    compile_compose_commutes,
    compile_contract,
    compose_contracts,
    oplus,
    tag_net,
    trace_equivalent,
    widen_alphabet,
)
from lendingnets.analysis import _consumed_part
from lendingnets.compiler import _compile, _same_traces
from lendingnets.nets import DEFAULT_BUDGET

from compile_oracle import full_compile_compose_commutes
from generators import _credit_contract, compatible_contract_pair, pairs_contract, random_contract


@pytest.fixture
def listed(monkeypatch):
    """The net pairs whose words ``compiler`` lists, one entry per call."""
    calls = []

    def recording(left, right, budget):
        calls.append((left, right))
        return trace_equivalent(left, right, budget)

    monkeypatch.setattr(lendingnets.compiler, "trace_equivalent", recording)
    return calls


def compiled_pair(first, second):
    joint = compile_contract(compose_contracts(first, second)).net
    left, right = widen_alphabet([compile_contract(first).net, compile_contract(second).net])
    return joint, oplus(left, right)


def test_equal_consumed_parts_are_trace_equivalent_on_composed_pairs(listed):
    rng = random.Random(0x2C)
    for _ in range(320):
        first, second = compatible_contract_pair(rng)
        joint, composed = compiled_pair(first, second)
        assert _consumed_part(joint) == _consumed_part(composed), (first, second)
        assert trace_equivalent(joint, composed).outcome is Outcome.HOLDS
        assert compile_compose_commutes(first, second).outcome is Outcome.HOLDS
    assert listed == []


def test_equal_consumed_parts_are_trace_equivalent_on_pruned_compiles():
    rng = random.Random(0x2D)
    for _ in range(300):
        c = random_contract(rng)
        full, pruned = compile_contract(c).net, compile_contract(c, prune=True).net
        assert _consumed_part(full) == _consumed_part(pruned)
        assert trace_equivalent(full, pruned).outcome is Outcome.HOLDS
        assert _same_traces(full, pruned, 1).outcome is Outcome.HOLDS


def handshake(tag: str) -> LendingNet:
    """``b`` on credit, then ``a`` pays it back, over place ids prefixed by ``tag``."""
    return LendingNet(
        places=[f"{tag}ctl_a", f"{tag}ctl_b", f"{tag}b_in", f"{tag}a_in"],
        transitions=[f"{tag}ta", f"{tag}tb"],
        flow=[(f"{tag}ctl_a", f"{tag}ta"), (f"{tag}ctl_b", f"{tag}tb"), (f"{tag}b_in", f"{tag}ta"),
              (f"{tag}tb", f"{tag}b_in"), (f"{tag}a_in", f"{tag}tb"), (f"{tag}ta", f"{tag}a_in")],
        place_labels={f"{tag}b_in": "b", f"{tag}a_in": "a"},
        transition_labels={f"{tag}ta": "a", f"{tag}tb": "b"},
        initial={f"{tag}ctl_a": 1, f"{tag}ctl_b": 1},
        lending=[f"{tag}a_in"],
    )


def test_different_consumed_parts_still_list_their_words(listed):
    left, renamed = handshake("l."), handshake("r.")
    assert _consumed_part(left) != _consumed_part(renamed)
    assert _same_traces(left, renamed, 100).outcome is Outcome.HOLDS
    assert listed == [(left, renamed)]
    tagged = tag_net(left, "x")
    assert _same_traces(tagged, left, 100).outcome is Outcome.HOLDS
    strict = replace(renamed, lending=frozenset())
    verdict = _same_traces(left, strict, 100)
    assert verdict == trace_equivalent(left, strict, 100) and verdict.outcome is Outcome.FAILS
    assert len(listed) == 3


def test_transition_ids_are_not_part_of_the_consumed_part(listed):
    net = handshake("n.")
    ids = {"n.ta": "n.pay", "n.tb": "n.lend"}
    renamed = LendingNet(
        places=net.places,
        transitions=ids.values(),
        flow=[(ids.get(x, x), ids.get(y, y)) for x, y in net.flow],
        place_labels=net.place_labels,
        transition_labels={ids[t]: a for t, a in net.transition_labels.items()},
        initial=net.initial,
        lending=net.lending,
    )
    assert _consumed_part(renamed) == _consumed_part(net)
    assert trace_equivalent(renamed, net).outcome is Outcome.HOLDS
    assert _same_traces(renamed, net, 1).outcome is Outcome.HOLDS and listed == []


def test_a_bad_budget_is_rejected_before_any_comparison(listed):
    first, second = compatible_contract_pair(random.Random(1))
    for budget in (0, 2.5, True):
        with pytest.raises(ToolkitError, match="budget must be at least 1"):
            compile_compose_commutes(first, second, budget)
    assert listed == []


def halves(n: int):
    clauses = sorted(pairs_contract(n).clauses, key=HornClause.sort_key)
    low = [cl for cl in clauses if int(cl.head[1:]) < n // 2]
    return _credit_contract(low), _credit_contract([cl for cl in clauses if cl not in low])


def test_the_halves_of_pairs_6_commute_in_under_a_second(listed):
    first, second = halves(6)
    start = time.perf_counter()
    verdict = compile_compose_commutes(first, second)
    elapsed = time.perf_counter() - start
    assert verdict.outcome is Outcome.HOLDS and listed == []
    assert elapsed < 1.0, elapsed
    assert trace_equivalent(*compiled_pair(first, second), 1000).outcome is Outcome.INCONCLUSIVE


def owning(c: PCLContract, atom: str, in_goals: bool) -> PCLContract:
    """``c`` also owning ``atom``, which none of its clauses names, and wanting it in every goal when ``in_goals``."""
    return PCLContract(
        clauses=c.clauses,
        participants=c.participants,
        ownership={**c.ownership, atom: atom.upper()},
        goals=frozenset(g | {atom} for g in c.goals) if in_goals else c.goals,
    )


def wider_alphabet_cases():
    """Pairs in which some side's alphabet is not the union of both: a side that owns an atom no clause
    of it names, a goal atom only one side owns, a side with no clause, and the halves of ``pairs(8)``."""
    rng = random.Random(8)
    cases = [halves(8), (PCLContract(ownership={"z": "Z"}, goals=[{"z"}]), pairs_contract(2))]
    for _ in range(40):
        first, second = compatible_contract_pair(rng)
        cases += [(owning(first, "e", False), second), (first, owning(second, "g", True)),
                  (owning(first, "e", True), owning(second, "g", False))]
    return cases


@pytest.mark.parametrize("budget", (1, 2, 3, 5, 8, DEFAULT_BUDGET))
def test_the_pruned_compiles_give_the_verdicts_of_the_full_ones(budget, listed):
    rng = random.Random(5)
    cases = [compatible_contract_pair(rng) for _ in range(150)] + [halves(6), halves(4)] + wider_alphabet_cases()
    for first, second in cases:
        want = full_compile_compose_commutes(first, second, budget)
        assert compile_compose_commutes(first, second, budget) == want, (first, second, budget)
    assert listed == []


def test_the_halves_of_pairs_200_commute_in_under_half_a_second(listed):
    first, second = halves(200)
    start = time.perf_counter()
    verdict = compile_compose_commutes(first, second)
    elapsed = time.perf_counter() - start
    assert verdict.outcome is Outcome.HOLDS and listed == []
    assert elapsed < 0.5, elapsed


def test_sides_compiled_over_their_own_alphabets_would_not_compose():
    for first, second in wider_alphabet_cases():
        assert first.atoms() != second.atoms()
        with pytest.raises(CompositionError, match="label universes differ"):
            oplus(_compile(first, frozenset()).net, _compile(second, frozenset()).net)


def test_one_check_builds_four_nets_of_consumed_places(monkeypatch):
    """The composition's consumed-places net, each side's over the joint alphabet, and their ``oplus``:
    no pruned or full compile, no widened copy, and no net kept with a side."""
    built, widened = [], []
    post_init = LendingNet.__post_init__

    def counting(net):
        post_init(net)
        built.append(net)

    def widening(nets):
        widened.append(nets)
        return widen_alphabet(nets)

    monkeypatch.setattr(LendingNet, "__post_init__", counting)
    monkeypatch.setattr(lendingnets.compose, "widen_alphabet", widening)
    # Also under the name a route importing it into ``compiler`` would call.
    monkeypatch.setattr(lendingnets.compiler, "widen_alphabet", widening, raising=False)
    rng = random.Random(0x2E)
    cases = [compatible_contract_pair(rng) for _ in range(40)] + [halves(6)] + wider_alphabet_cases()[:8]
    for first, second in cases:
        built.clear()
        assert compile_compose_commutes(first, second).outcome is Outcome.HOLDS
        assert len(built) == 4, (first, second)
        for net in built:
            consumed = {p for t in net.transitions for p in net.preset(t)}
            assert net.places <= consumed, (first, second, sorted(net.places - consumed))
        for side in (first, second):
            assert not {"_pruned", "_compiled", "_urgency_net"} & set(vars(side)), side
    assert widened == []


def test_nets_over_different_alphabets_go_to_trace_equivalent():
    """The alphabet is part of the consumed part: nets that differ only in it are compared by
    ``trace_equivalent``, which needs one label universe."""
    net = handshake("n.")
    with pytest.raises(NetStructureError, match="shared label universe"):
        _same_traces(net, net.with_alphabet(net.alphabet | {"z"}), 100)


def test_nets_that_differ_only_in_a_start_count_or_a_guard_differ_in_words(listed):
    """Equal places, transitions and arcs: one net starts without the control token of ``a``, the
    other lends on no place.  Each changes the consumed part, and the listed words tell them apart."""
    net = handshake("n.")
    for other in (replace(net, initial={"n.ctl_b": 1}), replace(net, lending=frozenset())):
        assert _consumed_part(other) != _consumed_part(net)
        verdict = _same_traces(net, other, 100)
        assert verdict == trace_equivalent(net, other, 100) and verdict.outcome is Outcome.FAILS
    assert len(listed) == 2
