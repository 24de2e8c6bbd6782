"""Checks made cheaper without changing what they accept.

An id is checked by one precompiled pattern instead of a per-character
``str.isspace`` scan.  A collection of ids is screened first, by string
operations on the joined ids (``nets._check_ids``), and a clause's or a
contract's atoms by one match of the atom pattern over the joined atoms
(``logic._atoms_pass``); only a failed screen reads each one, to name it.  A
node's honored flag is one masked test of the counts it keeps
(``analysis._Fields.owed``) instead of a scan of its marking.
"""

import random
import sys

import pytest

from lendingnets import ContractError, NetStructureError, compile_contract, explore
from lendingnets.logic import HornClause, PCLContract, _ATOM_RE, _atoms_pass, _check_atoms
from lendingnets.nets import _check_id, _check_ids

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


def outcome(check, *args):
    try:
        return check(*args)
    except (NetStructureError, ContractError) as exc:
        return type(exc), str(exc)


def test_the_joined_id_screen_accepts_exactly_what_check_id_accepts_over_every_code_point():
    mismatched = [
        cp for cp in range(sys.maxunicode + 1)
        if (outcome(_check_ids, ["p", f"q{chr(cp)}r"], "place") == frozenset({"p", f"q{chr(cp)}r"}))
        != accepted(f"q{chr(cp)}r")
    ]
    assert mismatched == []


def test_a_failed_id_screen_names_the_first_bad_id_as_check_id_does():
    for ids, bad in ((["p", ""], ""), (["p", 3], 3), (["p", "a b", "c=d"], "a b"), ([None], None),
                     (["p", "q\u2028"], "q\u2028"), (["p#", "q"], "p#")):
        assert outcome(_check_ids, ids, "place") == outcome(_check_id, bad, "place"), ids
    assert outcome(_check_ids, (), "place") == frozenset()
    assert outcome(_check_ids, ["p", "q", "p"], "place") == frozenset({"p", "q"})
    assert outcome(_check_ids, "pq", "place") == (
        NetStructureError, "place ids 'pq' are one string, not a collection of ids")


def atom_accepted(atom) -> bool:
    return outcome(_check_atoms, [atom], "atom") is None


def test_the_joined_atom_screen_accepts_exactly_what_the_atom_rule_accepts_over_every_code_point():
    assert _ATOM_RE.pattern == r'[^\s=#"\\&@>-]+\Z'
    mismatched = [
        cp for cp in range(sys.maxunicode + 1)
        if _atoms_pass(("a", f"b{chr(cp)}c")) != atom_accepted(f"b{chr(cp)}c")
    ]
    assert mismatched == []
    rejected = [cp for cp in range(0x250) if not atom_accepted(f"b{chr(cp)}c")]
    assert rejected == [cp for cp in range(0x250) if chr(cp).isspace() or chr(cp) in '=#"\\&@>-']


def test_a_failed_atom_screen_names_the_bad_atom():
    for atoms in (("a", ""), ("a", 3), ("a", None), ("", "a b"), ("a b", "c-d"), ()):
        assert not _atoms_pass(atoms), atoms
    assert _atoms_pass(("a",)) and _atoms_pass(("a", "b", "a"))
    for atoms, bad in ((("a", ""), "''"), (("a", 3), "3"), (("a", None), "None"), (("", "a b"), "''"),
                       (("a b", "c-d"), "'a b'"), ((" a", "b"), "' a'")):
        assert outcome(_check_atoms, atoms, "atom") == (ContractError, f"bad atom {bad}"), atoms
    for head, body, message in (
        ("a b", {"c"}, "bad clause head 'a b'"), ("a", {"c", "d-e"}, "bad body atom 'd-e'"),
        ("", {"c"}, "bad clause head ''"), ("a", {""}, "bad body atom ''"), (3, {"c"}, "bad clause head 3"),
        ("a", {"x y", 7}, "bad body atom 'x y'"), ("a@", {"&"}, "bad clause head 'a@'"),
    ):
        assert outcome(HornClause, head, body) == (ContractError, message), (head, body)
    assert outcome(HornClause, "a", "bc") == (
        ContractError, "clause body 'bc' is one string, not a collection of atoms")
    for ownership, message in (({"a": "A", "b c": "B"}, "bad owned atom 'b c'"),
                               ({"a": "A", "": "B"}, "bad owned atom ''"), ({"a": "A", 3: "B"}, "bad owned atom 3")):
        assert outcome(PCLContract, frozenset(), frozenset({"A"}), ownership) == (ContractError, message)


def test_a_contract_names_its_unowned_atoms_and_its_first_foreign_head():
    body = lambda *atoms: frozenset(atoms)
    clauses = frozenset({HornClause("b", body("a")), HornClause("a", body("b"), True), HornClause("c", body("a"))})
    assert outcome(PCLContract, clauses, frozenset({"A"}), {"a": "A"}) == (
        ContractError, "atoms without an owner: ['b', 'c']")
    assert outcome(PCLContract, clauses, frozenset({"A"}), {"a": "A", "b": "B", "c": "C"}) == (
        ContractError, "head 'b' is owned by 'B', not a bound participant")
    assert outcome(PCLContract, clauses, frozenset({"A"}), {"a": "A", "b": "A", "c": "A"}, [{"d"}]) == (
        ContractError, "atoms without an owner: ['d']")
    c = PCLContract(clauses, frozenset({"A", "B"}), {"a": "A", "b": "B", "c": "A"}, [{"a"}])
    assert c.atoms() == frozenset({"a", "b", "c"}) and c.atoms() is c.atoms()


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
