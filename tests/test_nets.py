"""Core net semantics: enabling, firing, runs, structural predicates."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lendingnets import (
    FiringError,
    LendingNet,
    NetStructureError,
    Outcome,
    enabled,
    enabled_transitions,
    explore,
    fire,
    is_correctly_labeled,
    is_honored,
    is_occurrence_net,
    is_safe,
    marking_of_state,
    run,
    state_of,
    subnet,
    trace_of,
)

from fixtures import circular_lending_net, prepaid_choice_net
from generators import random_net, random_plain_net


def nonzero(marking):
    return {p: n for p, n in marking.items() if n}


class TestCircularLendingNet:
    def test_only_the_settling_order_fires(self):
        net = circular_lending_net()
        m = net.initial_marking()
        assert enabled_transitions(net, m) == ["c"]
        m = fire(net, m, "c")
        assert enabled_transitions(net, m) == ["b"]
        m = fire(net, m, "b")
        assert enabled_transitions(net, m) == ["a"]
        m = fire(net, m, "a")
        assert enabled_transitions(net, m) == []

    def test_marking_chain(self):
        net = circular_lending_net()
        seq = run(net, ["c", "b", "a"])
        markings = [nonzero(m) for _, m in seq.steps]
        assert markings == [
            {"p1": 1, "p2": -1, "p4": -1},
            {"p3": 1, "p2": -1},
            {},
        ]
        assert not is_honored(net, seq.steps[0][1])
        assert not is_honored(net, seq.steps[1][1])
        assert is_honored(net, seq.final)

    def test_trace_and_state(self):
        net = circular_lending_net()
        seq = run(net, ["c", "b"])
        assert trace_of(net, seq) == ("c", "b")
        assert state_of(seq) == {"c": 1, "b": 1}
        assert marking_of_state(net, state_of(seq)) == seq.final

    def test_structural_predicates(self):
        net = circular_lending_net()
        assert is_occurrence_net(net).outcome is Outcome.HOLDS
        assert is_safe(net).outcome is Outcome.HOLDS
        assert is_correctly_labeled(net)


class TestFiringErrors:
    def test_unknown_transition_is_structural(self):
        net = circular_lending_net()
        with pytest.raises(NetStructureError):
            enabled(net, net.initial_marking(), "nope")
        with pytest.raises(NetStructureError):
            fire(net, net.initial_marking(), "nope")

    def test_disabled_fire_names_the_blocking_place(self):
        net = circular_lending_net()
        with pytest.raises(FiringError) as exc:
            fire(net, net.initial_marking(), "b")
        assert exc.value.transition == "b"
        assert exc.value.place == "p1"

    def test_fire_names_the_first_blocking_place_by_id(self):
        """Whatever order a set keeps, the place named is the least blocking id."""
        for prefix in "abcdefghij":
            inputs = [f"{prefix}{k}" for k in range(8)]
            net = LendingNet(places=inputs, transitions=["t"], flow=[(p, "t") for p in inputs],
                             initial={inputs[0]: 1})
            assert not enabled(net, net.initial_marking(), "t")
            with pytest.raises(FiringError, match=f"place '{prefix}1' has no token") as exc:
                fire(net, net.initial_marking(), "t")
            assert exc.value.place == f"{prefix}1"
            assert enabled(net, dict.fromkeys(inputs, 1), "t")

    def test_unknown_ids_are_structural(self):
        net = circular_lending_net()
        for read in (net.preset, net.postset):
            with pytest.raises(NetStructureError, match="unknown node 'nope'"):
                read("nope")
        with pytest.raises(NetStructureError, match="unknown transition 'nope'"):
            trace_of(net, ["c", "nope"])
        with pytest.raises(NetStructureError, match="unknown transition 'nope'"):
            marking_of_state(net, {"nope": 1})
        with pytest.raises(NetStructureError, match="negative firing count for 'c'"):
            marking_of_state(net, {"c": -1})

    @pytest.mark.parametrize("count", [1.5, True, "1"], ids=repr)
    def test_a_firing_count_must_be_an_int(self, count):
        """A float would give a float marking, a bool read as 0 or 1, and a string fail inside the sum."""
        with pytest.raises(NetStructureError, match=f"firing count for 'c' must be an int, got {count!r}"):
            marking_of_state(circular_lending_net(), {"c": count})

    def test_lending_place_does_not_block(self):
        net = circular_lending_net()
        m = fire(net, net.initial_marking(), "c")
        assert m["p2"] == -1 and m["p4"] == -1


def test_self_loop_keeps_marking_but_breaks_occurrence():
    net = LendingNet.build(
        places=["s"],
        transitions=["t"],
        flow=[("s", "t"), ("t", "s")],
        initial={"s": 1},
    )
    m = fire(net, net.initial_marking(), "t")
    assert m == net.initial_marking()
    verdict = is_occurrence_net(net)
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness == "t"


def test_two_transition_loop_supports_repeated_firing():
    net = LendingNet.build(
        places=["s0", "s1"],
        transitions=["t1", "t2"],
        flow=[("s0", "t1"), ("t1", "s1"), ("s1", "t2"), ("t2", "s0")],
        initial={"s0": 1},
    )
    seq = run(net, ["t1", "t2", "t1"])
    assert state_of(seq)["t1"] == 2
    assert marking_of_state(net, state_of(seq)) == seq.final
    assert is_occurrence_net(net).outcome is Outcome.FAILS


def test_net_without_transitions_is_occurrence_and_safe():
    net = LendingNet.build(places=["s"], initial={"s": 1})
    assert is_occurrence_net(net).outcome is Outcome.HOLDS
    assert is_safe(net).outcome is Outcome.HOLDS


def test_unsafe_net_is_detected():
    net = LendingNet.build(
        places=["s", "trig"],
        transitions=["t"],
        flow=[("trig", "t"), ("t", "s")],
        initial={"s": 1, "trig": 1},
    )
    verdict = is_safe(net)
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness == "s"


def test_a_place_that_starts_with_two_tokens_is_unsafe():
    verdict = is_safe(LendingNet(places=["s"], initial={"s": 2}))
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness == "s"
    assert verdict.detail == "place 's' initially holds 2 tokens"


def test_a_marking_met_twice_is_kept_once():
    """Two independent transitions reach one marking in either order: 4 markings, not 5."""
    net = LendingNet(
        places=["a", "b", "c", "d"],
        transitions=["ta", "tb"],
        flow=[("a", "ta"), ("ta", "c"), ("b", "tb"), ("tb", "d")],
        initial={"a": 1, "b": 1},
    )
    assert is_safe(net, budget=4).outcome is Outcome.HOLDS
    assert is_safe(net, budget=3).outcome is Outcome.INCONCLUSIVE


def test_budget_exhaustion_is_inconclusive_not_false():
    net = LendingNet.build(
        places=["s0", "s1"],
        transitions=["t1", "t2"],
        flow=[("s0", "t1"), ("t1", "s1"), ("s1", "t2"), ("t2", "s0")],
        initial={"s0": 1},
    )
    assert is_occurrence_net(net, budget=2).outcome is not Outcome.HOLDS
    assert is_safe(net, budget=1).outcome is Outcome.INCONCLUSIVE


def test_empty_marking_of_state_is_initial():
    net = circular_lending_net()
    assert marking_of_state(net, {}) == net.initial_marking()


class TestStructuralValidation:
    def test_arc_between_two_places_is_rejected(self):
        with pytest.raises(NetStructureError):
            LendingNet.build(places=["p", "q"], flow=[("p", "q")])

    def test_transition_needs_an_input(self):
        with pytest.raises(NetStructureError):
            LendingNet.build(places=["p"], transitions=["t"], flow=[("t", "p")])

    def test_negative_initial_marking_is_rejected(self):
        with pytest.raises(NetStructureError):
            LendingNet.build(places=["p"], initial={"p": -1})

    def test_bool_initial_marking_is_rejected(self):
        """``True`` is an int but not a token count: it would be written as ``tokens=True``."""
        for flag in (True, False):
            with pytest.raises(NetStructureError, match="non-negative int"):
                LendingNet.build(places=["p"], initial={"p": flag})

    def test_alphabet_must_cover_labels(self):
        with pytest.raises(NetStructureError):
            LendingNet.build(
                places=["p", "q"],
                transitions=["t"],
                flow=[("p", "t")],
                place_labels={"q": "a"},
                alphabet=["b"],
            )

    def test_lending_must_be_places(self):
        with pytest.raises(NetStructureError):
            LendingNet.build(places=["p"], lending=["q"])

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            (dict(places=["x"], transitions=["x"]), "used both as place and transition"),
            (dict(places=["p"], place_labels={"q": "a"}), "label on unknown place 'q'"),
            (dict(places=["p"], transition_labels={"t": "a"}), "label on unknown transition 't'"),
            (dict(places=["p"], initial={"q": 1}), "initial marking on unknown place 'q'"),
            (dict(places=["p"], transitions=["t"], flow=[("p", "t", "p")]), "is not a pair"),
            (dict(places=["p q"]), "place id 'p q' contains whitespace or a reserved character"),
            (dict(places=["p", ""]), "place id must be a non-empty string, got ''"),
            (dict(places=["p", 3]), "place id must be a non-empty string, got 3"),
            (dict(places=[["p"]]), r"place id must be a non-empty string, got \['p'\]"),
            (dict(transitions=["t=1"]), "transition id 't=1' contains whitespace or a reserved character"),
            (dict(places=["p"], place_labels={"p": "a#"}), "atom id 'a#' contains whitespace"),
            (dict(places=["p"], place_labels={"p": 7}), "atom id must be a non-empty string, got 7"),
            (dict(alphabet=["a", 'b"']), "atom id 'b\"' contains whitespace"),
            (dict(places=["p"], place_labels={"p": "a"}, alphabet=["b"]), r"labels \['a'\] missing from the alphabet"),
            (dict(places=["p"], initial={"p": -1}), "initial token count of 'p' must be a non-negative int"),
            (dict(places=["p"], initial={"p": True}), "initial token count of 'p' must be a non-negative int"),
            (dict(places=["p"], lending=["p", "q"]), r"lending ids \['q'\] are not places"),
            (dict(places=["p", "q"], transitions=["t"], flow=[("p", "t"), ("p", "q")]),
             "arc 'p' -> 'q' must connect one place and one transition of the net"),
            (dict(places=["p"], transitions=["t"], flow=[("t", "p")]), "transition 't' has no input place"),
            (dict(places="pq"), "place ids 'pq' are one string, not a collection of ids"),
            (dict(transitions="tu"), "transition ids 'tu' are one string, not a collection of ids"),
            (dict(places=["p", "q"], lending="pq"), "lending ids 'pq' are one string, not a collection of ids"),
            (dict(alphabet="ab"), "atom ids 'ab' are one string, not a collection of ids"),
        ],
    )
    def test_malformed_nets_are_rejected_with_their_reason(self, fields, fragment):
        with pytest.raises(NetStructureError, match=fragment):
            LendingNet(**fields)

    def test_one_string_is_no_alphabet_to_widen_to(self):
        with pytest.raises(NetStructureError, match="atom ids 'ab' are one string, not a collection of ids"):
            circular_lending_net().with_alphabet("ab")


def test_correct_labeling_violation():
    net = LendingNet.build(
        places=["s", "out"],
        transitions=["t"],
        flow=[("s", "t"), ("t", "out")],
        place_labels={"out": "a"},
        transition_labels={"t": "b"},
        initial={"s": 1},
    )
    assert not is_correctly_labeled(net)


def test_unlabeled_transitions_are_silent_in_traces():
    net = LendingNet.build(
        places=["s", "out"],
        transitions=["t", "u"],
        flow=[("s", "t"), ("t", "out"), ("out", "u")],
        transition_labels={"t": "a"},
        initial={"s": 1},
    )
    assert trace_of(net, ["t", "u"]) == ("a",)


class TestSubnet:
    def test_full_transition_set_is_identity(self):
        net = circular_lending_net()
        assert subnet(net, net.transitions) == net

    def test_empty_generator_keeps_marked_places(self):
        net = circular_lending_net()
        small = subnet(net, [])
        assert small.places == frozenset({"p0"})
        assert small.transitions == frozenset()
        assert small.initial == {"p0": 1}

    def test_unknown_generator_rejected(self):
        with pytest.raises(NetStructureError):
            subnet(circular_lending_net(), ["zz"])

    def test_one_string_of_generators_is_rejected(self):
        """``"tu"`` would pick both ``t`` and ``u`` of a net that has them."""
        net = LendingNet.build(places=["s"], transitions=["t", "u"], flow=[("s", "t"), ("s", "u")])
        with pytest.raises(NetStructureError, match="transition ids 'tu' are one string, not a collection of ids"):
            subnet(net, "tu")
        assert subnet(net, ["t", "u"]) == net

    def test_neighborhood_restriction(self):
        net = circular_lending_net()
        small = subnet(net, ["c"])
        assert small.places == frozenset({"p0", "p1", "p2", "p4"})
        assert small.lending == frozenset({"p2", "p4"})
        assert ("p3", "a") not in small.flow


def test_correct_labeling_is_monotone_under_subnet():
    rng = random.Random(7)
    checked = 0
    for i in range(40):
        net = random_net(rng, f"m{i}")
        if not is_correctly_labeled(net):
            continue
        checked += 1
        tids = sorted(net.transitions)
        chosen = rng.sample(tids, rng.randint(0, len(tids)))
        assert is_correctly_labeled(subnet(net, chosen))
    assert checked >= 10


def test_trace_of_prefix_is_prefix_of_trace():
    rng = random.Random(11)
    for i in range(30):
        net = random_net(rng, f"w{i}")
        marking = net.initial_marking()
        fired = []
        while True:
            options = enabled_transitions(net, marking)
            if not options or len(fired) > 6:
                break
            t = rng.choice(options)
            marking = fire(net, marking, t)
            fired.append(t)
        whole = trace_of(net, fired)
        for cut in range(len(fired) + 1):
            prefix = trace_of(net, fired[:cut])
            assert whole[: len(prefix)] == prefix


class ClassicNet:
    """Independent textbook semantics used as an oracle when nothing lends."""

    def __init__(self, net: LendingNet):
        self.inputs = {t: set() for t in net.transitions}
        self.outputs = {t: set() for t in net.transitions}
        for src, dst in net.flow:
            if dst in self.inputs:
                self.inputs[dst].add(src)
            else:
                self.outputs[src].add(dst)
        self.start = net.initial_marking()

    def enabled(self, marking, t):
        return all(marking[s] >= 1 for s in self.inputs[t])

    def fire(self, marking, t):
        out = dict(marking)
        for s in self.inputs[t]:
            out[s] -= 1
        for s in self.outputs[t]:
            out[s] += 1
        return out

    def reachable(self, limit=2000):
        seen = {tuple(sorted(self.start.items()))}
        frontier = [self.start]
        markings = [self.start]
        while frontier and len(seen) < limit:
            m = frontier.pop()
            for t in self.inputs:
                if self.enabled(m, t):
                    nxt = self.fire(m, t)
                    key = tuple(sorted(nxt.items()))
                    if key not in seen:
                        seen.add(key)
                        frontier.append(nxt)
                        markings.append(nxt)
        return markings


def test_lending_free_semantics_matches_classic_oracle():
    rng = random.Random(23)
    for i in range(40):
        net = random_plain_net(rng, f"c{i}")
        oracle = ClassicNet(net)
        for m in oracle.reachable():
            for t in sorted(net.transitions):
                assert enabled(net, m, t) == oracle.enabled(m, t)
                if oracle.enabled(m, t):
                    assert fire(net, m, t) == oracle.fire(m, t)


def test_explored_markings_respect_lending_discipline():
    rng = random.Random(31)
    for i in range(25):
        net = random_net(rng, f"d{i}")
        graph = explore(net, budget=500)
        for node in graph.nodes:
            for p, n in node.marking:
                assert n >= 0 or p in net.lending


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from("abcd"), max_size=8))
def test_honored_iff_no_negative_counts(counts):
    net = circular_lending_net()
    marking = net.initial_marking()
    for atom in counts:
        for t in enabled_transitions(net, marking):
            if net.transition_labels[t] == atom:
                marking = fire(net, marking, t)
                break
    assert is_honored(net, marking) == all(n >= 0 for n in marking.values())


def test_net_equality_is_componentwise():
    assert circular_lending_net() == circular_lending_net()
    assert prepaid_choice_net() != circular_lending_net()
    widened = circular_lending_net().with_alphabet({"a", "b", "c", "d"})
    assert widened != circular_lending_net()
    assert widened.places == circular_lending_net().places


def test_nets_and_nodes_differ_from_values_of_other_types():
    net = circular_lending_net()
    root = explore(net).root
    for value in (net, root):
        assert (value == "net") is False
        assert value != object()
