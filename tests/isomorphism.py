"""A small isomorphism search between one-sort algebras, for tests.

The package compares modules by their kill counts and searches for no
isomorphism; this search is the other side of that comparison.  It
sends each generator of A, in the order of ``homs._generation_plan``,
to an element of B of the same order, derives the images of the other
elements from the tables, and returns the first bijection that
preserves every table, or None.
"""

import itertools

from semiab import morphism
from semiab.homs import _element_orders, _generation_plan


def _preserves(S, T, m) -> bool:
    n = range(S.order)
    return (all(tt[m[x]][m[y]] == m[st[x][y]] for st, tt in zip(S.binary, T.binary)
                for x in n for y in n)
            and all(tu[m[x]] == m[su[x]] for su, tu in zip(S.unary, T.unary) for x in n))


def find_isomorphism(A, B):
    (S,), (T,) = A.sorts, B.sorts
    if A.variety != B.variety or S.order != T.order:
        return None
    source, target = _element_orders(S), _element_orders(T)
    plan, _ = _generation_plan(S)
    pools = [[y for y in range(T.order) if target[y] == source[g]] for g, _ in plan]
    for images in itertools.product(*pools):
        m = [0] * S.order
        for (g, steps), img in zip(plan, images):
            m[g] = img
            for v, t, x, y in steps:
                m[v] = T.unary[-1 - t][m[x]] if t < 0 else T.binary[t][m[x]][m[y]]
        if len(set(m)) == S.order and _preserves(S, T, m):
            return morphism(A, B, m)
    return None
