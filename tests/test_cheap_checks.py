"""Checks made cheaper without changing what they accept.

Ids are screened by one precompiled pattern instead of a per-character
``str.isspace`` scan, and a node's honored flag is one masked test of the
counts it keeps (``analysis._Fields.owed``) instead of a scan of its marking.
"""

import random
import sys

import pytest

from lendingnets import NetStructureError, compile_contract, explore
from lendingnets.nets import _check_id

from generators import pairs_contract, random_contract, random_net


def accepted(value: str) -> bool:
    try:
        _check_id(value, "place")
    except NetStructureError:
        return False
    return True


def test_ids_accepted_over_every_code_point_are_unchanged():
    rejected = [
        cp for cp in range(sys.maxunicode + 1)
        if not accepted(f"p{chr(cp)}q")
    ]
    assert rejected == [cp for cp in range(sys.maxunicode + 1) if chr(cp).isspace() or chr(cp) in '=#"\\']


def test_bad_atom_labels_are_still_reported():
    """Each distinct label is checked once; an unhashable one still gets the id error."""
    net = compile_contract(pairs_contract(1)).net
    for bad, message in (("x y", "contains whitespace"), ("", "non-empty string"), (["a"], "non-empty string")):
        labels = dict(net.place_labels) | {"a0@*": bad}
        with pytest.raises(NetStructureError, match=message):
            type(net)(
                places=net.places, transitions=net.transitions, flow=net.flow, place_labels=labels,
                transition_labels=net.transition_labels, initial=net.initial, lending=net.lending,
                alphabet=net.alphabet,
            )


def graphs():
    rng = random.Random(5)
    for k in range(60):
        yield explore(random_net(rng, f"n{k}"))
        yield explore(compile_contract(random_contract(rng, max_clauses=6)).net)


def test_honored_flag_means_no_place_owes():
    owing = 0
    for graph in graphs():
        for node in graph.nodes:
            assert node.honored == all(n >= 0 for _, n in node.marking)
            owing += not node.honored
    assert owing


def test_honored_flag_stays_out_of_equality_hash_and_repr():
    node = explore(compile_contract(pairs_contract(1)).net).nodes[1]
    assert not node.honored
    assert "honored" not in repr(node)
