"""``LendingNet`` checks its fields by set operations, against the per-id checks it made before.

``reference`` is the constructor's body as it was, copied unchanged apart
from returning the fields it set: it checked each id with ``_check_id``,
each label key, initial place and arc in turn, and built a preset and a
postset per node, empty ones included.  The constructor now checks each kind
of id with one search over the joined ids and label keys, initial places and
lending places by subset tests, and keeps the presets and postsets of the
transitions only: a place's are read off them.  Valid inputs must give equal
fields, the reference's preset and postset of every node through ``preset``
and ``postset``, and the same error for an unknown id; an input with one fault
must give the same exception and message.
"""

import random
from dataclasses import fields

import pytest

from lendingnets import LendingNet, NetStructureError, compile_contract
from lendingnets.nets import _check_id

from fixtures import fixture_nets
from generators import pairs_contract, random_contract, random_cyclic_net, random_net

NAMES = [f.name for f in fields(LendingNet)]


def reference(places=(), transitions=(), flow=(), place_labels=None, transition_labels=None, initial=None,
              lending=(), alphabet=None) -> dict:
    place_labels, transition_labels, initial = place_labels or {}, transition_labels or {}, initial or {}
    places = frozenset(_check_id(p, "place") for p in places)
    transitions = frozenset(_check_id(t, "transition") for t in transitions)
    if places & transitions:
        shared = sorted(places & transitions)
        raise NetStructureError(f"ids used both as place and transition: {shared}")

    place_labels = {p: a for p, a in dict(place_labels).items() if a is not None}
    transition_labels = {t: a for t, a in dict(transition_labels).items() if a is not None}
    for p in place_labels:
        if p not in places:
            raise NetStructureError(f"label on unknown place {p!r}")
    for t in transition_labels:
        if t not in transitions:
            raise NetStructureError(f"label on unknown transition {t!r}")
    checked: set = set()
    for a in (*place_labels.values(), *transition_labels.values()):
        if not isinstance(a, str) or a not in checked:
            checked.add(_check_id(a, "atom"))

    used = frozenset(place_labels.values()) | frozenset(transition_labels.values())
    alphabet = used if alphabet is None else frozenset(_check_id(a, "atom") for a in alphabet)
    if not used <= alphabet:
        raise NetStructureError(f"labels {sorted(used - alphabet)} missing from the alphabet")

    marking = {}
    for p, n in dict(initial).items():
        if p not in places:
            raise NetStructureError(f"initial marking on unknown place {p!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise NetStructureError(f"initial token count of {p!r} must be a non-negative int")
        if n:
            marking[p] = n

    lending = frozenset(lending)
    if not lending <= places:
        raise NetStructureError(f"lending ids {sorted(lending - places)} are not places")

    flow = frozenset(flow)
    pre: dict = {x: set() for x in places | transitions}
    post: dict = {x: set() for x in places | transitions}
    for arc in flow:
        if not (isinstance(arc, tuple) and len(arc) == 2):
            raise NetStructureError(f"arc {arc!r} is not a pair")
        src, dst = arc
        src_place, dst_place = src in places, dst in places
        src_trans, dst_trans = src in transitions, dst in transitions
        if not ((src_place and dst_trans) or (src_trans and dst_place)):
            raise NetStructureError(
                f"arc {src!r} -> {dst!r} must connect one place and one transition of the net"
            )
        post[src].add(dst)
        pre[dst].add(src)
    for t in transitions:
        if not pre[t]:
            raise NetStructureError(f"transition {t!r} has no input place")
    return dict(places=places, transitions=transitions, flow=flow, place_labels=place_labels,
                transition_labels=transition_labels, initial=marking, lending=lending, alphabet=alphabet,
                presets={x: frozenset(v) for x, v in pre.items()}, postsets={x: frozenset(v) for x, v in post.items()})


def built(**kw) -> dict:
    """The fields of the net built from ``kw``, and the preset and postset of each of its nodes."""
    net = LendingNet(**kw)
    # The arcs are indexed by transition only: no place has a table of its own.
    assert net._pre.keys() == net._post.keys() == net.transitions
    nodes = net.places | net.transitions
    return {**{name: getattr(net, name) for name in NAMES},
            "presets": {x: net.preset(x) for x in nodes}, "postsets": {x: net.postset(x) for x in nodes}}


def outcome(build, kw):
    try:
        return build(**kw)
    except NetStructureError as exc:
        return type(exc), str(exc)


def valid_inputs() -> list[dict]:
    rng = random.Random(0x5E7)
    nets = fixture_nets() + [random_net(rng, f"n{k}") for k in range(60)]
    nets += [random_cyclic_net(rng, f"c{k}") for k in range(30)]
    contracts = [pairs_contract(n) for n in (1, 3, 5)] + [random_contract(rng) for _ in range(40)]
    nets += [compile_contract(c).net for c in contracts]
    return [{name: getattr(net, name) for name in NAMES} for net in nets]


VALID = valid_inputs()


def test_valid_nets_build_the_reference_fields_presets_and_postsets():
    for kw in VALID:
        as_lists = {k: list(v) if isinstance(v, frozenset) else v for k, v in kw.items()}
        for given in (kw, {**kw, "alphabet": None}, as_lists):
            assert built(**given) == reference(**given)
        net = LendingNet(**kw)
        # Ids hold no whitespace, so this one names no node.
        for read in (net.preset, net.postset):
            with pytest.raises(NetStructureError, match="^unknown node 'no such node'$"):
                read("no such node")


def faults(kw: dict, rng: random.Random) -> list[dict]:
    """Inputs with one fault each, made from the valid input ``kw``."""
    place, transition = sorted(kw["places"])[0], sorted(kw["transitions"] or ["t"])[0]
    return [
        {**kw, "places": [*kw["places"], rng.choice(["p q", "p=", "p#", 'p"', "p\\", "p\t", ""])]},
        {**kw, "places": [*kw["places"], rng.choice([3, None, ("p",)])]},
        {**kw, "transitions": [*kw["transitions"], rng.choice(["t u", "", 4])]},
        {**kw, "places": [*kw["places"], transition]} if kw["transitions"] else {**kw, "transitions": [place]},
        {**kw, "place_labels": {**kw["place_labels"], "nowhere": "a"}},
        {**kw, "transition_labels": {**kw["transition_labels"], "never": "a"}},
        {**kw, "place_labels": {**kw["place_labels"], place: rng.choice(["a b", "", 5])}, "alphabet": None},
        {**kw, "alphabet": [*kw["alphabet"], rng.choice(["z#", 6])]},
        {**kw, "place_labels": {**kw["place_labels"], place: "zz"}},
        {**kw, "initial": {**kw["initial"], "nowhere": 1}},
        {**kw, "initial": {**kw["initial"], place: rng.choice([-1, True, 1.0, "1"])}},
        {**kw, "lending": [*kw["lending"], "nowhere"]},
        {**kw, "flow": [*kw["flow"], rng.choice([("p",), (place, transition, place), "pt"])]},
        {**kw, "flow": [*kw["flow"], (place, place)]},
        {**kw, "transitions": [*kw["transitions"], "lonely"]},
    ]


def test_an_input_with_one_fault_gets_the_reference_error():
    rng = random.Random(0xFA17)
    seen = set()
    for kw in VALID[:80]:
        for bad in faults(kw, rng):
            want = outcome(reference, bad)
            assert isinstance(want, tuple), bad
            assert outcome(built, bad) == want
            seen.add(want[1].split(" ")[0] + " " + want[1].split(" ")[-1])
    assert len(seen) >= 12
