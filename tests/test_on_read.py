"""One mechanism builds a group of attributes on first read (``nets._OnRead``), for each of its owners.

Its three owners are a verdict built by ``Verdict._on_read`` (``detail``), a net of
``compile_contract`` (the fields that list its sinks, ``_pre`` and ``_post``) and the split graph
of a compiled ``pairs(4)`` (the product's ``_packs``, ``_keys`` and ``edges``).  The first read of
any name of a group runs its builder once and keeps every name, the builder's key then leaves the
owner's instance dict, and a builder that raises stays, so the next read builds the group.  Only a
split graph declares its lists so: a graph of one walk reads them from its slots.
"""

from types import MemberDescriptorType

import pytest

import lendingnets.analysis
import lendingnets.compiler
from lendingnets import Outcome, Verdict, compile_contract, explore
from lendingnets.analysis import ReachGraph, _SplitGraph
from lendingnets.compiler import _whole
from lendingnets.nets import _Sinks

from generators import pairs_contract

NET_GROUP = ("places", "flow", "place_labels", "lending", "_pre", "_post")
GRAPH_GROUP = ("_packs", "_keys", "edges")


def failing_once(build, calls: list, fails: bool):
    """``build``, recording each call in ``calls``; with ``fails`` the first call raises instead."""
    def recording(*args):
        calls.append(args)
        if fails and len(calls) == 1:
            raise RuntimeError("not yet")
        return build(*args)

    return recording


def verdict(calls: list, fails: bool = False) -> Verdict:
    return Verdict._on_read(Outcome.FAILS, 3, failing_once(lambda: "stuck", calls, fails))


def compiled_net(monkeypatch, calls: list, fails: bool = False):
    """A fresh ``compile_contract(pairs_contract(2))`` net; ``calls`` records each build of its sinks
    by the compile loop (``compiler._net``), the one build of its consumed-places net left out."""
    build = lendingnets.compiler._net

    def sinks(theory, extra, alphabet):
        return (failing_once(build, calls, fails) if extra else build)(theory, extra, alphabet)

    monkeypatch.setattr(lendingnets.compiler, "_net", sinks)
    return compile_contract(pairs_contract(2)).net


def split_graph(monkeypatch, calls: list, fails: bool = False) -> _SplitGraph:
    """The split graph of the compiled ``pairs(4)``; ``calls`` records each walk of its product."""
    monkeypatch.setattr(lendingnets.analysis, "_explored", failing_once(lendingnets.analysis._explored, calls, fails))
    graph = explore(compile_contract(pairs_contract(4)).net)
    assert type(graph) is _SplitGraph and calls == []
    return graph


def test_a_verdict_builds_its_text_once():
    calls = []
    text = verdict(calls)
    assert "_build" in vars(text)
    assert text.detail == "stuck" and calls == [()]
    assert "_build" not in vars(text) and vars(text) == vars(Verdict.fails(3, "stuck"))
    assert text.detail == "stuck" and calls == [()]


@pytest.mark.parametrize("name", NET_GROUP[:4])
def test_a_compiled_net_builds_its_sinks_once_on_the_first_read_of_any_of_them(name, monkeypatch):
    calls, eager = [], _whole(pairs_contract(2)).net
    net = compiled_net(monkeypatch, calls)
    assert isinstance(vars(net)["_post"], _Sinks) and calls == []
    assert getattr(net, name) == getattr(eager, name) and len(calls) == 1
    # The builder's key holds the built arc table now, and every name of the group is kept.
    assert not isinstance(vars(net)["_post"], _Sinks)
    assert [vars(net)[other] for other in NET_GROUP] == [getattr(eager, other) for other in NET_GROUP]
    assert net == eager and len(calls) == 1


@pytest.mark.parametrize("name", GRAPH_GROUP)
def test_a_split_graph_walks_its_product_once_on_the_first_read_of_any_of_its_lists(name, monkeypatch):
    calls = []
    graph = split_graph(monkeypatch, calls)
    assert "_product" in vars(graph)
    getattr(graph, name)
    assert len(calls) == 1 and "_product" not in vars(graph)
    assert all(other in vars(graph) for other in GRAPH_GROUP)
    assert len(graph._keys) == len(graph._packs) == len(graph) == 81 and len(graph.edges) == 4 * 2 * 3 ** 3
    assert len(calls) == 1


def test_a_builder_that_raises_stays_for_the_next_read(monkeypatch):
    calls = []
    text = verdict(calls, fails=True)
    with pytest.raises(RuntimeError, match="not yet"):
        text.detail
    assert "_build" in vars(text) and text.detail == "stuck" and len(calls) == 2

    calls, eager = [], _whole(pairs_contract(2)).net
    net = compiled_net(monkeypatch, calls, fails=True)
    with pytest.raises(RuntimeError, match="not yet"):
        net.places
    assert isinstance(vars(net)["_post"], _Sinks) and "places" not in vars(net)
    assert net.places == eager.places and len(calls) == 2

    calls = []
    graph = split_graph(monkeypatch, calls, fails=True)
    with pytest.raises(RuntimeError, match="not yet"):
        graph.edges
    assert "_product" in vars(graph) and "edges" not in vars(graph)
    assert len(graph.edges) == 4 * 2 * 3 ** 3 and len(calls) == 2


def test_a_graph_of_one_walk_reads_its_lists_from_slots():
    for name in ("_packs", "_keys"):
        assert isinstance(ReachGraph.__dict__[name], MemberDescriptorType)
    graph = explore(compile_contract(pairs_contract(3)).net)
    assert type(graph) is ReachGraph and not {"_packs", "_keys", "_product"} & set(vars(graph))
