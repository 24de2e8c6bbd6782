"""The inductive proof-trace rules, kept as the oracle for the logic side.

``_traces`` is the worklist definition that ``logic.proof_traces`` ran on
before it read the justification rule directly, copied unchanged.  A ``->``
clause appends its head to a word containing its body; a ``->>`` clause takes
a word of the theory with its head as a fact, requires its body there, and
inserts the head at any earlier point.  ``memo`` maps theories to their word
sets and may be shared across calls.
"""

from lendingnets.logic import HornClause, Trace, fact, interleave


def _traces(theory: frozenset[HornClause], memo: dict) -> frozenset[Trace]:
    if theory in memo:
        return memo[theory]
    # Each word meets each clause once.  A ``->>`` clause whose head is not a fact
    # draws on the fixed traces of the theory with that fact: queued up front.
    clauses = sorted(theory, key=HornClause.sort_key)
    grow = [c for c in clauses if not c.contractual or fact(c.head) in theory]
    todo: list[Trace] = [()]
    for c in clauses:
        if c.contractual and fact(c.head) not in theory:
            for word in _traces(theory | {fact(c.head)}, memo):
                if c.body <= set(word):
                    todo.extend(interleave(word, (c.head,)))
    words: set[Trace] = set()
    while todo:
        word = todo.pop()
        if word in words:
            continue
        words.add(word)
        have = set(word)
        for c in grow:
            if c.contractual and c.body <= have:
                todo.extend(interleave(word, (c.head,)))
            elif c.head not in have and c.body <= have:
                todo.append(word + (c.head,))
    memo[theory] = frozenset(words)
    return memo[theory]
