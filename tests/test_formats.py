"""Reading and writing the textual net and contract formats."""

import itertools
import random
import sys

import pytest

from lendingnets import (
    ContractError,
    DocumentError,
    HONORED_GOAL,
    MarkingPredicate,
    NetDocument,
    combine_goals,
    compile_contract,
    conjoin,
    contract,
    contract_net_document,
    detect_kind,
    fact,
    parse_contract,
    parse_net,
    serialize_contract,
    serialize_net,
    weakly_terminates,
    weakly_terminates_in,
)
from lendingnets.formats import _parse_clause
from lendingnets.logic import HornClause

from clause_oracle import old_parse_clause
from fixtures import (
    fixture_contracts,
    fixture_nets,
    handshake_goal_lending_a,
    handshake_lending_a,
    toy_swap_contracts,
)
from generators import random_contract, random_net

SMALL_NET = """\
# two-party exchange, one side lending
alphabet a b c
place p1 label=b lending
place p2 tokens=1
place p3
transition ta label=a
arc p1 ta
arc p2 ta
arc ta p3  # delivery
goal p3>=1 honored
goal false
"""


class TestParseNet:
    def test_small_document(self):
        doc = parse_net(SMALL_NET)
        net = doc.net
        assert net.places == frozenset({"p1", "p2", "p3"})
        assert net.place_labels == {"p1": "b"}
        assert net.lending == frozenset({"p1"})
        assert net.initial == {"p2": 1}
        assert net.transition_labels == {"ta": "a"}
        assert net.flow == frozenset({("p1", "ta"), ("p2", "ta"), ("ta", "p3")})
        assert net.alphabet == frozenset({"a", "b", "c"})
        assert doc.goals == (
            MarkingPredicate(unsat=True),
            MarkingPredicate(positive=frozenset({"p3"}), honored=True),
        )

    def test_alphabet_defaults_to_used_labels(self):
        doc = parse_net("place p\nplace q label=b\ntransition t label=a\narc p t\narc t q\n")
        assert doc.net.alphabet == frozenset({"a", "b"})

    def test_goalless_documents_check_for_honored_markings(self):
        doc = parse_net("place p tokens=1\ntransition t\narc p t\n")
        assert doc.goals == ()
        assert doc.goal_like() == (HONORED_GOAL,)

    def test_goal_constraint_kinds(self):
        doc = parse_net(
            "place p tokens=1\nplace q\nplace r\ntransition t\narc p t\n"
            "goal p=0 q>=1 r>=0\n"
        )
        assert doc.goals == (
            MarkingPredicate(
                zero=frozenset({"p"}),
                positive=frozenset({"q"}),
                nonneg=frozenset({"r"}),
            ),
        )

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("place p\nplace p\n", "duplicate id"),
            ("place p\ntransition p\n", "duplicate id"),
            ("widget w\n", "unknown keyword"),
            ("place p sticky\n", "unknown place attribute"),
            ("place p\ntransition t sticky=1\n", "unknown transition attribute"),
            ("place p tokens=x\n", "bad token count"),
            ("place p tokens=-1\n", "non-negative"),
            ("place p\narc p\n", "source and a target"),
            ("place p\ntransition t\narc p q\n", "not declared"),
            ("place p\ngoal q=0\n", "unknown place"),
            ("place p\ngoal p>=2\n", "unsupported bound"),
            ("place p\ngoal p=1\n", "unsupported constraint"),
            ("place p\ngoal p\n", "unreadable goal constraint"),
            ("place p\ngoal\n", "at least one constraint"),
            ("alphabet\n", "at least one atom"),
            ("place\n", "needs an id"),
            ("transition\n", "needs an id"),
        ],
    )
    def test_bad_documents_are_rejected(self, text, fragment):
        with pytest.raises(DocumentError, match=fragment):
            parse_net(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(DocumentError) as info:
            parse_net("place p\n# fine\nplace p\n")
        assert str(info.value).startswith("line 3:")

    def test_structural_problems_surface_as_document_errors(self):
        with pytest.raises(DocumentError):
            parse_net("place p\nplace q\narc p q\n")
        with pytest.raises(DocumentError):
            parse_net("place p\ntransition t\narc t p\n")


def random_goal(rng: random.Random, places: list[str]) -> MarkingPredicate:
    """A goal alternative with at least one constraint, each kind drawn on its own."""
    while True:
        goal = MarkingPredicate(
            zero=frozenset(rng.sample(places, rng.randint(0, 2))),
            positive=frozenset(rng.sample(places, rng.randint(0, 2))),
            nonneg=frozenset(rng.sample(places, rng.randint(0, 2))),
            honored=rng.random() < 0.5,
            unsat=rng.random() < 0.2,
        )
        if goal != MarkingPredicate():
            return goal


class TestNetRoundTrip:
    def test_fixture_nets_round_trip(self):
        for net in fixture_nets():
            doc = NetDocument(net=net)
            assert parse_net(serialize_net(doc)) == doc

    def test_documents_with_goals_round_trip(self):
        doc = NetDocument(net=handshake_lending_a(), goals=(handshake_goal_lending_a(),))
        assert parse_net(serialize_net(doc)) == doc

    def test_serialization_is_a_fixed_point(self):
        for net in fixture_nets():
            text = serialize_net(NetDocument(net=net))
            assert serialize_net(parse_net(text)) == text

    def test_random_nets_round_trip(self):
        rng = random.Random(23)
        goal_rng = random.Random(24)
        for i in range(30):
            net = random_net(rng, f"r{i}")
            goals = tuple(random_goal(goal_rng, sorted(net.places)) for _ in range(goal_rng.randint(1, 3)))
            for doc in (NetDocument(net=net), NetDocument(net=net, goals=goals)):
                text = serialize_net(doc)
                assert parse_net(text) == doc
                assert serialize_net(parse_net(text)) == text

    def test_an_always_true_goal_alternative_has_no_document(self):
        doc = NetDocument(net=handshake_lending_a(), goals=(handshake_goal_lending_a(), MarkingPredicate()))
        with pytest.raises(DocumentError, match="^an always-true goal alternative has no document form$"):
            serialize_net(doc)

    def test_bare_nets_serialize_like_their_documents(self):
        net = handshake_lending_a()
        assert serialize_net(net) == serialize_net(NetDocument(net=net))


TOY_CREDIT_DOC = """\
participant C
owner a A
owner b B
owner c C
clause a & b ->> c
goal a b
"""


class TestParseContract:
    def test_toy_credit_document(self):
        assert parse_contract(TOY_CREDIT_DOC) == toy_swap_contracts()[2]

    def test_empty_document_is_the_empty_contract(self):
        assert parse_contract("") == contract()

    def test_goalless_documents_get_the_empty_goal(self):
        got = parse_contract("participant A\nowner a A\nfact a\n")
        assert got.goals == frozenset({frozenset()})

    def test_comments_and_blanks_are_skipped(self):
        got = parse_contract("# header\n\nparticipant A # trailing\nowner a A\nfact a\n")
        assert got.participants == frozenset({"A"})

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("participant a\n", "capitalized"),
            ("participant\n", "participant line needs at least one name"),
            ("owner A B\n", "lowercase"),
            ("owner a\n", "an atom and a participant"),
            ("participant A B\nowner a A\nowner a B\nfact a\n", "two owners"),
            ("fact a b\n", "exactly one atom"),
            ("clause a b\n", "exactly one arrow"),
            ("clause a -> b -> c\n", "exactly one arrow"),
            ("clause a ->\n", "exactly one head atom"),
            ("clause -> a\n", "use a fact line"),
            ("clause a & -> b\n", "dangling '&'"),
            ("clause & a -> b\n", "misplaced '&'"),
            ("clause a b -> c\n", "not an atom"),
            ("widget w\n", "unknown keyword"),
            ("participant A\nfact a\n", "without an owner"),
            ("participant B\nowner a A\nfact a\n", "not a bound participant"),
        ],
    )
    def test_bad_documents_are_rejected(self, text, fragment):
        with pytest.raises(DocumentError, match=fragment):
            parse_contract(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(DocumentError) as info:
            parse_contract("participant A\nclause a b\n")
        assert str(info.value).startswith("line 2:")


class TestContractRoundTrip:
    def test_fixture_contracts_round_trip(self):
        for c in fixture_contracts():
            assert parse_contract(serialize_contract(c)) == c

    def test_serialization_is_a_fixed_point(self):
        for c in fixture_contracts():
            text = serialize_contract(c)
            assert serialize_contract(parse_contract(text)) == text

    def test_random_contracts_round_trip(self):
        rng = random.Random(29)
        for _ in range(30):
            c = random_contract(rng)
            assert parse_contract(serialize_contract(c)) == c

    def test_a_contract_without_goal_sets_has_no_document(self):
        c = contract(clauses={fact("a")}, participants={"A"}, ownership={"a": "A"}, goals=())
        with pytest.raises(ContractError, match="no goal set"):
            serialize_contract(c)


# Every clause line of up to five pieces over these is parsed as the oracle
# parses it: arrows, '&', atoms, a non-atom, and the characters of arrows.
CLAUSE_PIECES = ("a", "b", "A", "_", "&", "-", ">", " ", "->", "->>")


def _clause_outcome(parse, text: str):
    try:
        return parse(text, 3)
    except DocumentError as exc:
        return str(exc)


# Lines that the pieces above do not build: glued operators, tabs and other
# whitespace between tokens (every code point ``str.isspace`` accepts, and a
# zero-width space, which it does not), repeated body atoms, a split arrow,
# trailing and doubled '&', and two arrows.
SPACES = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
CLAUSE_LINES = (
    "a&b->>c", "a->b", "a&b->c", "ab_1&c2->>d_", "a\t&\tb\t->\tc", "\ta ->> b\t",
    *(f"{ws}a{ws}&{ws}b{ws}->{ws}c{ws}" for ws in SPACES), "a\u200b&b->c", "a&b\u200b->c",
    "a & a -> b", "a&b&a->>c", "b & a & b & a -> a",
    "a - > b", "a -\t> b", "a & -> b", "a & b & -> c", "a -> b &", "a && b -> c", "a & & b -> c", "& a -> b",
    "a -> b -> c", "a ->> b -> c", "a ->> b ->> c", "a ->-> b", "a ->>> b", "a -> ->> b",
)


def test_clause_lines_parse_as_the_oracle_parses_them():
    compared = 0
    for n in range(1, 6):
        for pieces in itertools.product(CLAUSE_PIECES, repeat=n):
            text = "".join(pieces)
            assert _clause_outcome(_parse_clause, text) == _clause_outcome(old_parse_clause, text), text
            compared += 1
    assert compared == 111_110
    outcomes = [_clause_outcome(_parse_clause, text) for text in CLAUSE_LINES]
    assert outcomes == [_clause_outcome(old_parse_clause, text) for text in CLAUSE_LINES]
    # Both a clause and every kind of error are among them.
    assert HornClause("c", frozenset({"a", "b"}), True) in outcomes
    for message in ("exactly one arrow", "exactly one head atom", "misplaced '&'", "dangling '&'", "is not an atom"):
        assert any(isinstance(out, str) and message in out for out in outcomes), message


class TestCompiledDocuments:
    def test_goals_become_control_place_constraints(self):
        from fixtures import toy_swap_composite

        doc = contract_net_document(compile_contract(toy_swap_composite()))
        assert doc.goals == (
            MarkingPredicate(
                zero=frozenset({"a@*", "b@*", "c@*"}),
                honored=True,
            ),
        )

    def test_partial_goals_pin_the_other_control_places(self):
        c = contract(
            clauses={fact("a"), fact("b")},
            participants={"A", "B"},
            ownership={"a": "A", "b": "B"},
            goals=[{"a"}],
        )
        doc = contract_net_document(compile_contract(c))
        assert doc.goals == (
            MarkingPredicate(
                zero=frozenset({"a@*"}),
                positive=frozenset({"b@*"}),
                honored=True,
            ),
        )

    def test_goal_sets_with_ungrantable_atoms_are_unsatisfiable(self):
        c = contract(
            clauses={fact("a")},
            participants={"A"},
            ownership={"a": "A", "b": "B"},
            goals=[{"b"}],
        )
        doc = contract_net_document(compile_contract(c))
        assert doc.goals == (MarkingPredicate(honored=True, unsat=True),)

    def test_compiled_documents_round_trip(self):
        for c in fixture_contracts():
            for prune in (False, True):
                doc = contract_net_document(compile_contract(c, prune=prune))
                assert parse_net(serialize_net(doc)) == doc

    def test_document_goals_decide_exact_termination(self):
        for c in fixture_contracts():
            cn = compile_contract(c)
            doc = contract_net_document(cn)
            via_document = weakly_terminates(cn.net, doc.goal_like())
            direct = weakly_terminates_in(cn)
            assert via_document.outcome is direct.outcome


class TestDetectKind:
    def test_extensions_win(self):
        assert detect_kind("x.lpn", "participant A\n") == "net"
        assert detect_kind("X.PCL", "place p\n") == "contract"

    def test_content_sniffing(self):
        assert detect_kind(None, "# note\nplace p\n") == "net"
        assert detect_kind("notes.txt", "owner a A\n") == "contract"
        assert detect_kind(None, "alphabet a\n") == "net"

    def test_undetectable_documents_are_rejected(self):
        with pytest.raises(DocumentError, match="cannot tell"):
            detect_kind(None, "# nothing here\n")


def test_conjoin_and_combine_goals():
    left = MarkingPredicate(zero=frozenset({"p"}), honored=True)
    right = MarkingPredicate(positive=frozenset({"q"}))
    met = conjoin(left, right)
    assert met == MarkingPredicate(
        zero=frozenset({"p"}), positive=frozenset({"q"}), honored=True
    )
    assert combine_goals((), (left,)) == (left,)
    assert combine_goals((left,), ()) == (left,)
    assert combine_goals((left,), (right,)) == (met,)


def test_goal_lists_are_canonicalized():
    g1 = MarkingPredicate(zero=frozenset({"la.p3"}))
    g2 = MarkingPredicate(honored=True)
    net = handshake_lending_a()
    assert NetDocument(net=net, goals=(g2, g1, g2)) == NetDocument(net=net, goals=(g1, g2))


MALFORMED_ATTRIBUTES = [
    ("place p0\nplace p1 label= tokens=1\n", 2, "has an empty value"),
    ("place p1 tokens=1 tokens=2\n", 1, "given twice"),
    ("place p\ntransition t label=a label=b\narc p t\n", 2, "given twice"),
    ("place p lending lending\n", 1, "given twice"),
    ("place p\ntransition t label=\narc p t\n", 2, "has an empty value"),
]


@pytest.mark.parametrize("text, line, fragment", MALFORMED_ATTRIBUTES)
def test_empty_and_repeated_attributes_are_rejected_with_their_line(text, line, fragment):
    with pytest.raises(DocumentError, match=fragment) as caught:
        parse_net(text)
    assert caught.value.line == line


@pytest.mark.parametrize("text, line, fragment", MALFORMED_ATTRIBUTES)
def test_lpn_parse_exits_2_on_empty_and_repeated_attributes(text, line, fragment, tmp_path, capsys):
    from lendingnets.cli import main

    path = tmp_path / "bad.lpn"
    path.write_text(text, encoding="utf-8")
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {line}: " in captured.err and fragment in captured.err


# Token counts are plain ASCII decimal digits: what int() also reads is refused.
MALFORMED_COUNTS = [
    ("place p tokens=1_0\n", "'tokens=1_0'"),
    ("place p tokens=+1\n", "'tokens=+1'"),
    ("place p tokens=\u0661\n", "'tokens=\u0661'"),
    ("place p tokens=\uff11\n", "'tokens=\uff11'"),
    ("place p tokens=0x1\n", "'tokens=0x1'"),
    ("place p tokens=1.0\n", "'tokens=1.0'"),
]


@pytest.mark.parametrize("text, fragment", MALFORMED_COUNTS)
def test_token_counts_other_than_ascii_digits_are_rejected_with_their_line(text, fragment, tmp_path, capsys):
    from lendingnets.cli import main

    document = "place q\n" + text
    with pytest.raises(DocumentError, match="bad token count") as caught:
        parse_net(document)
    assert caught.value.line == 2 and fragment in str(caught.value)
    path = tmp_path / "bad.lpn"
    path.write_text(document, encoding="utf-8")
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line 2: bad token count" in captured.err


def test_ascii_token_counts_still_parse():
    net = parse_net("place p tokens=007\nplace q tokens=0\nplace r\n").net
    assert net.initial == {"p": 7}
