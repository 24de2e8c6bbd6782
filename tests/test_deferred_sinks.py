"""A compiled contract net builds its sinks, the places no transition consumes, on the first read
that lists them.

``compile_contract(c, prune)`` shares its consumed part with the consumed-places net
(``compiler._urgency_net``) and builds the rest through the validating constructor when it is
read (``nets._deferred``).  Once built, the net must be the one the full-net compiler kept in
``tests/compile_oracle.py`` gives: every field, the arc tables, ``==`` and ``hash`` both ways, a
pickle, and the text of every graph node and of every check; its ``repr`` is that of the whole
compile ``lpn compile`` prints (``compiler._whole``), built by the same loop.  Each read the
README lists ("When a compiled net builds its sinks") builds them, and the walks build none.
"""

import copy
import pickle
import random
from dataclasses import fields, replace

import pytest

import lendingnets.compiler
from lendingnets import (
    ContractNet,
    LendingNet,
    agreement_reachable,
    compile_contract,
    compose_contracts,
    explore,
    export_dot,
    serialize_net,
    validate,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from lendingnets.compiler import _urgency_net, _whole

from compile_oracle import full_compile
from generators import compatible_contract_pair, credit_ring, pairs_contract, random_contract, settled_pairs

CHECKS = (agreement_reachable, weakly_terminates_in, weakly_terminates_covering)
FIELDS = [f.name for f in fields(LendingNet)]


def families():
    return [pairs_contract(n) for n in range(1, 7)] + [settled_pairs(n) for n in range(1, 7)] + [
        credit_ring(n, side) for n, side in ((1, None), (2, None), (3, 0), (4, 2), (5, None), (6, 3))]


def drawn():
    rng = random.Random(4501)
    return [random_contract(rng) for _ in range(300)]


def composed():
    rng = random.Random(4502)
    return [compose_contracts(*compatible_contract_pair(rng)) for _ in range(100)]


def texts(cn: ContractNet) -> tuple:
    """The text of every node of ``cn``'s graph, then each check's outcome and text."""
    nodes = [node.describe() for node in explore(cn.net).nodes]
    return nodes, [(v.outcome, v.detail) for v in (check(cn) for check in CHECKS)]


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("group", [families, drawn, composed])
def test_the_built_net_is_the_eager_one(group, prune):
    for c in group():
        cn = compile_contract(c, prune)
        want = full_compile(c, prune, frozenset())
        # The texts first: a node's text builds the sinks without reading a field of the net.
        assert texts(cn) == texts(want), c
        assert "places" not in vars(cn.net)
        net, eager = cn.net, want.net
        assert [getattr(net, name) for name in FIELDS] == [getattr(eager, name) for name in FIELDS]
        assert (net._pre, net._post) == (eager._pre, eager._post)
        assert net == eager and eager == net and hash(net) == hash(eager)
        assert cn == want and want == cn and hash(cn) == hash(want)
        assert repr(net) == repr(_whole(c, prune).net)
        assert pickle.loads(pickle.dumps(cn)) == want


def test_a_fresh_net_has_only_its_consumed_part():
    c = pairs_contract(3)
    net, consumed = compile_contract(c).net, _urgency_net(c).net
    assert not {"places", "flow", "place_labels", "lending"} & set(vars(net))
    for name in ("transitions", "transition_labels", "initial", "alphabet", "_pre"):
        assert vars(net)[name] is vars(consumed)[name]


@pytest.fixture
def compiled(monkeypatch):
    """The delivered atoms of each net the compile loop (``compiler._net``) builds."""
    calls = []
    build = lendingnets.compiler._net

    def recording(theory, extra, alphabet):
        calls.append(extra)
        return build(theory, extra, alphabet)

    monkeypatch.setattr(lendingnets.compiler, "_net", recording)
    return calls


SINK = "a0@b0->>a0"  # the delivery place of a0 to its own clause, fed once a0 is granted
READS = {
    "places": lambda cn: cn.net.places,
    "flow": lambda cn: cn.net.flow,
    "place_labels": lambda cn: cn.net.place_labels,
    "lending": lambda cn: cn.net.lending,
    "postset of a place": lambda cn: cn.net.postset("a0@*"),
    "preset of a place": lambda cn: cn.net.preset(SINK),
    "postset of a transition": lambda cn: cn.net.postset("a0->b0"),
    "initial_marking": lambda cn: cn.net.initial_marking(),
    "==": lambda cn: cn.net == full_compile(pairs_contract(2), False, frozenset()).net,
    "hash": lambda cn: hash(cn.net),
    "repr": lambda cn: repr(cn.net),
    "pickle": lambda cn: pickle.loads(pickle.dumps(cn.net)),
    "copy": lambda cn: copy.copy(cn.net),
    "deepcopy": lambda cn: copy.deepcopy(cn.net),
    "replace": lambda cn: replace(cn.net),
    "with_alphabet": lambda cn: cn.net.with_alphabet(cn.net.alphabet | {"zz"}),
    "serialize_net": lambda cn: serialize_net(cn.net),
    "export_dot": lambda cn: export_dot(cn),
    "validate": lambda cn: validate(cn),
    "node marking": lambda cn: explore(cn.net).nodes[-1].marking,
    "node tokens": lambda cn: explore(cn.net).nodes[-1].tokens(SINK),
    "node describe": lambda cn: explore(cn.net).nodes[-1].describe(),
    "witness text": lambda cn: agreement_reachable(cn).detail,
}


@pytest.mark.parametrize("name", sorted(READS))
def test_a_read_that_lists_the_sinks_builds_them_once(name, compiled):
    c = pairs_contract(2)
    want = READS[name](_whole(c))
    compiled.clear()
    cn = compile_contract(c)
    explore(cn.net), [check(cn).outcome for check in CHECKS]
    assert compiled == [frozenset()]  # the consumed-places net alone
    assert READS[name](cn) == want and READS[name](cn) == want
    assert compiled == [frozenset(), c.atoms()]


def test_a_read_of_the_consumed_part_builds_nothing(compiled):
    c = pairs_contract(2)
    cn = compile_contract(c)
    net, node = cn.net, explore(cn.net).nodes[-1]
    net.transitions, net.transition_labels, net.initial, net.alphabet, net.preset("a0->b0")
    node.fired, node.honored, node.fired_set()
    assert node.tokens("a0@*") == 0 and node.tokens("a0@a0->b0") == 0
    assert compiled == [frozenset()]
