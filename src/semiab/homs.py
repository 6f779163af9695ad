"""Enumeration of morphisms between finite algebras.

Candidates are generated by images of a small generating set, pruned
by element-order arithmetic (the image order must divide the source
order, and must equal it for embeddings), then verified against every
operation table.  Isomorphism search additionally prunes on the order
profile and reports the first hit in enumeration order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import lru_cache

from .algebra import (
    Algebra,
    Morphism,
    _generators,
    _respects_structure,
    _signature,
    _violation,
    compose,
    element_order,
    identity_morphism,
    is_surjective,
    order_profile,
)

MODES = ("all", "monos", "isos")


@lru_cache(maxsize=None)
def _generation_plan(A: Algebra):
    """Per-generator derivation steps covering every element.

    Returns ((gen, steps), ...) over ``generating_set(A)``, where each
    step (v, t, x, y) derives element v as binary table t applied to
    already-derived x, y, or as unary map -1-t applied to x.  The
    closure of {0} alone is {0}, so the segments cover the whole
    carrier.
    """
    plan: list = []
    _generators(*_signature(A), A.order, plan)
    return tuple(plan)


@lru_cache(maxsize=None)
def _element_orders(B: Algebra) -> tuple[int, ...]:
    return tuple(element_order(B, x) for x in range(B.order))


def _candidates(A: Algebra, B: Algebra, g: int, exact: bool) -> list[int]:
    og = element_order(A, g)
    orders = _element_orders(B)
    if exact:
        return [y for y in range(B.order) if orders[y] == og]
    return [y for y in range(B.order) if og % orders[y] == 0]


def _iter_single_sorted(A: Algebra, B: Algebra, mode: str):
    plan = _generation_plan(A)
    bb, bu = _signature(B)
    exact = mode in ("monos", "isos")
    pools = [_candidates(A, B, g, exact) for g, _ in plan]
    for images in itertools.product(*pools):
        m = [-1] * A.order
        m[0] = 0
        for (g, steps), img in zip(plan, images):
            m[g] = img
            for v, t_id, x, y in steps:
                m[v] = bu[-1 - t_id][m[x]] if t_id < 0 else bb[t_id][m[x]][m[y]]
        if exact and len(set(m)) != A.order:
            continue
        if _violation(A, B, m) is None:
            yield tuple(m)


def _iter_gpd(A: Algebra, B: Algebra, mode: str):
    level_mode = "monos" if mode in ("monos", "isos") else "all"
    for f1 in enumerate_homs(A.g1, B.g1, level_mode):
        m1 = f1.mapping
        for f0 in enumerate_homs(A.g0, B.g0, level_mode):
            m0 = f0.mapping
            if _respects_structure(A, B, (m1, m0)):
                yield (m1, m0)


def _iter_homs(A: Algebra, B: Algebra, mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if A.variety != B.variety:
        raise ValueError("hom enumeration needs a shared variety")
    if mode == "isos" and order_profile(A) != order_profile(B):
        return
    mappings = _iter_gpd(A, B, mode) if A.is_gpd else _iter_single_sorted(A, B, mode)
    for mapping in mappings:
        f = Morphism(A, B, mapping)
        if mode == "isos" and not is_surjective(f):
            continue
        yield f


@lru_cache(maxsize=None)
def enumerate_homs(A: Algebra, B: Algebra, mode: str = "all") -> tuple[Morphism, ...]:
    """All morphisms A -> B; ``monos`` embeddings only, ``isos`` bijective."""
    return tuple(_iter_homs(A, B, mode))


def find_isomorphism(A: Algebra, B: Algebra) -> Morphism | None:
    """First isomorphism in enumeration order, or None."""
    for f in _iter_homs(A, B, "isos"):
        return f
    return None


def is_isomorphic(A: Algebra, B: Algebra) -> bool:
    return find_isomorphism(A, B) is not None


@lru_cache(maxsize=None)
def surjections(A: Algebra, B: Algebra) -> tuple[Morphism, ...]:
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


def is_split_epi(f: Morphism) -> bool:
    return is_surjective(f) and bool(sections(f))
