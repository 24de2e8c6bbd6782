"""The credit-free rule of the graph checks before they read it off the walk's counts.

``_honored`` is copied unchanged apart from its imports, the key it keeps
its result under, its done sets and its credits.  It reads every owing
node's credits, counts a node as credit-free when it is honored or has no
credits, and keeps the indices in the graph's instance dict when the
contract's net is the graph's own.  Credits are the labels of the labeled
places below 0 over the node's whole marking, as ``_credits`` read them for
a node that held its marking; it now reads them (``analysis._credits``) on
the places that can owe alone.  Every node's done set is read with the labels of the graph's
net, built inline where it read the graph's ``_done_sets`` list, which meant
the same and is gone.  Its key, ``_oracle_credit_free``, differs from the one
``contracts._honored`` keeps its (index, done set) pairs under, so the two
can read one graph.
"""

from __future__ import annotations

from collections.abc import Iterator

from lendingnets.analysis import ReachGraph, _done_set
from lendingnets.contracts import ContractNet
from lendingnets.nets import Atom, _kept


def _honored(cn: ContractNet, graph: ReachGraph) -> Iterator[tuple[int, frozenset[Atom]]]:
    """Index and done set of each node without credits; a node where no place owes has none.

    When ``cn.net`` is the graph's own net, the indices are read once per
    graph and kept in its instance dict: the checks that share a graph read
    each owing node's credits once.
    """
    net = cn.net

    def credits(node) -> list[Atom]:
        labels = net.place_labels
        return [labels[p] for p, n in node.marking if n < 0 and p in labels]

    def credit_free() -> list[int]:
        return [i for i, node in enumerate(graph.nodes) if node.honored or not credits(node)]

    free = _kept(graph, "_oracle_credit_free", credit_free) if net is graph.net else credit_free()
    done_sets = [_done_set(graph.net, n) for n in graph.nodes]
    return ((i, done_sets[i]) for i in free)
