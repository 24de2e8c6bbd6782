"""``analysis.explore`` as it was before a split net's graph held its component walks.

It is the walk of every row of the layout, the whole net, from the initial
marking, held as one graph: the product, walked at once.  A graph of it holds
no parts, so every check reads its product.
"""

from lendingnets import ReachGraph
from lendingnets.analysis import _layout, _walk
from lendingnets.nets import DEFAULT_BUDGET, _check_budget


def explore(net, budget=DEFAULT_BUDGET):
    _check_budget(budget)
    fields, [walk] = _walk(net, [(_layout(net).steps, None)], (), budget)
    return ReachGraph(net, fields, walk)
