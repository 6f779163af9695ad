"""Enumeration of morphisms between finite algebras.

Candidates are generated sort by sort by images of a small generating
set, pruned by element-order arithmetic (the image order must divide
the source order), then tested on the binary tables at the rows of
the generating set (``algebra._passes``); a single-sort algebra's
arrays are its homs as they come, and with several sorts the product
of the per-sort arrays is filtered by the structure maps.
Nothing here searches for isomorphisms: the package compares modules
by their kill counts (``birkhoff._kills``) instead.

A candidate array is tested at most once, by ``_passes``, which names
no failure, so a dropped candidate costs no message.  It is not tested
at all when its source sort is built on a basis and its target is
abelian (``_sort_homs``): then every candidate is a homomorphism.  The
tuple that passed is the one the ``Morphism`` stores: a map whose
arrays passed and that commutes with the structure maps is built
without ``validate_morphism``, which would test the same things again.
The hom sets are cached by algebra, not per array.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import lru_cache

from .algebra import (
    Algebra,
    Morphism,
    Sort,
    _element_order,
    _generators,
    _passes,
    _respects_structure,
    _unchecked,
    compose,
    identity_morphism,
    is_surjective,
)

@lru_cache(maxsize=None)
def _generation_plan(S: Sort):
    """Per-generator derivation steps covering every element of a sort,
    and whether its generators are a basis.

    Returns (((gen, steps), ...), basis) over the sort's greedy
    generating set, where each step (v, t, x, y) derives element v as
    binary table t applied to already-derived x, y, or as unary map
    -1-t applied to x.  The closure of {0} alone is {0}, so the
    segments cover the whole carrier.  ``basis`` holds when the sort
    has one binary table, its generators commute pairwise and the
    product of their orders is its order: the sort is then the direct
    sum of the cyclic groups they generate (see ``_sort_homs``).
    """
    plan: list = []
    gens = _generators(S.binary, S.unary, S.order, plan)
    op, orders = S.binary[0], _element_orders(S)
    basis = (len(S.binary) == 1 and _commute(op, gens)
             and math.prod(orders[g] for g in gens) == S.order)
    return tuple(plan), basis


def _commute(op, gens) -> bool:
    return all(op[g][h] == op[h][g] for g in gens for h in gens)


@lru_cache(maxsize=None)
def _element_orders(S: Sort) -> tuple[int, ...]:
    return tuple(_element_order(S, x) for x in range(S.order))


def _sort_homs(S: Sort, T: Sort):
    """Homomorphism arrays from sort S to sort T, lazily, in product order.

    Each generator's image ranges over the elements whose order
    divides its own, and the other images are derived from the tables
    by the generation plan.  A candidate is tested by ``_passes``, at
    the rows of ``S.gens``, and one that fails is dropped unnamed.

    The test is skipped when S is built on a basis g1..gk of orders
    o1..ok (``_generation_plan``) and T is abelian (its group table
    commutes on ``T.gens``): then every candidate passes.  The map
    Z/o1 + ... + Z/ok -> S, (a_i) -> sum a_i g_i, is a homomorphism, as
    the g_i commute, onto, as they generate S, and so bijective, as
    both sides have prod o_i elements.  So for images y_i in abelian T
    with ord(y_i) | o_i, which are what the pools hold, sum a_i g_i ->
    sum a_i y_i is a well-defined homomorphism h.  Each derived element
    is an operation of S on elements derived before it, and h
    preserves every operation (inverses, negatives and scalars are
    iterated sums), so the derived array is h.  In a nonabelian T,
    images that do not commute give no homomorphism, and the test is
    needed.
    """
    plan, basis = _generation_plan(S)
    orders, source = _element_orders(T), _element_orders(S)
    pools = [[y for y in range(T.order) if source[g] % orders[y] == 0] for g, _ in plan]
    tested = not (basis and _commute(T.binary[0], T.gens))
    tb, tu = T.binary, T.unary
    for images in itertools.product(*pools):
        m = [-1] * S.order
        m[0] = 0
        for (g, steps), img in zip(plan, images):
            m[g] = img
            for v, t_id, x, y in steps:
                m[v] = tu[-1 - t_id][m[x]] if t_id < 0 else tb[t_id][m[x]][m[y]]
        m = tuple(m)
        if not tested or _passes(S, T, m):
            yield m


def _iter_homs(A: Algebra, B: Algebra):
    if A.variety != B.variety:
        raise ValueError("hom enumeration needs a shared variety")
    if len(A.sorts) == 1:  # no structure maps to commute with
        for m in _sort_homs(A.sorts[0], B.sorts[0]):
            yield _unchecked(Morphism, A, B, (m,))
        return
    per_sort = [tuple(_sort_homs(S, T)) for S, T in zip(A.sorts, B.sorts)]
    for mapping in itertools.product(*per_sort):
        if _respects_structure(A, B, mapping):
            yield _unchecked(Morphism, A, B, mapping)


def enumerate_homs(A: Algebra, B: Algebra) -> tuple[Morphism, ...]:
    """All morphisms A -> B, in enumeration order."""
    return _between(_homs(A, B), A, B)


@lru_cache(maxsize=None)
def _homs(A: Algebra, B: Algebra) -> tuple[Morphism, ...]:
    return tuple(_iter_homs(A, B))


def _between(homs: tuple[Morphism, ...], A: Algebra, B: Algebra) -> tuple[Morphism, ...]:
    """Cached maps between A and B themselves.

    The caches compare algebras by content, so a hit may hold maps made
    for another A or B under another name; their arrays are bound to the
    caller's algebras, unchecked, since the tables are the same.
    """
    if homs and (homs[0].dom is not A or homs[0].cod is not B):
        return tuple(_unchecked(Morphism, A, B, f.mapping) for f in homs)
    return homs


def surjections(A: Algebra, B: Algebra) -> tuple[Morphism, ...]:
    return _between(_surjections(A, B), A, B)


@lru_cache(maxsize=None)
def _surjections(A: Algebra, B: Algebra) -> tuple[Morphism, ...]:
    return tuple(f for f in enumerate_homs(A, B) if is_surjective(f))


def _corpus_surjections(corpus) -> Iterator[Morphism]:
    """Every surjection between same-variety members of a corpus, pair by pair."""
    algebras = list(corpus)
    for A in algebras:
        for B in algebras:
            if A.variety == B.variety:
                yield from surjections(A, B)


def sections(f: Morphism) -> tuple[Morphism, ...]:
    """Right inverses of f."""
    ident = identity_morphism(f.cod)
    return tuple(s for s in enumerate_homs(f.cod, f.dom)
                 if compose(f, s) == ident)
