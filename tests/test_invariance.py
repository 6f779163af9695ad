"""Relabelling invariance: an algebra under a permutation of its labels
that fixes 0 has the same hom sets and radicals, carried through it.

The exact answers of hom search and of the radicals may not depend on
which label an element carries.  Each example relabels every case, with
one permutation per sort (arrows and objects apart for groupoids) from a
random stream whose seed Hypothesis draws; the relabelled algebra is built
through ``Sort`` and ``Algebra``, so it is checked as any caller's input
is, and every answer on it is compared with the answer on the original
carried element by element.
"""

import random
from functools import cache

from hypothesis import Phase, given, settings, strategies as st

from semiab import (
    Algebra,
    NCube,
    corpus_by_id,
    corpus_ids,
    enumerate_homs,
    is_nfold_normal,
    morphism,
    radical,
    reflector_by_id,
    surjections,
)
from semiab.algebra import _MAP_ENDS, Sort

from higher_extensions import THM_4_6, glued_cubes, thm_4_6_squares

_REFLECTORS = [reflector_by_id(rid) for rid in (
    "id", "ab", "burnside:2", "burnside:3", "reduced", "zerorng", "boole", "pi0",
    "composite:burnside:2∘ab", "composite:burnside:3∘ab")]

_CORPORA = ("groups", "rings", "rng-star", "groupoids", "zmod4-modules")


# The drawn integer only seeds the permutations, so a smaller one is no
# simpler case: shrinking it would re-run whole examples of about 1 s
# each and name no better witness.  A failure is reported as drawn.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _carry(p, q, m):
    """The array m carried through p on its domain and q on its
    codomain: the result sends p[x] to q[m[x]]."""
    out = [0] * len(m)
    for x, v in enumerate(m):
        out[p[x]] = q[v]
    return tuple(out)


def _relabel(A: Algebra, perms) -> Algebra:
    """A with element x of sort k renamed ``perms[k][x]``."""
    sorts = []
    for S, p in zip(A.sorts, perms):
        binary = [[[0] * S.order for _ in range(S.order)] for _ in S.binary]
        for t, table in zip(binary, S.binary):
            for x, row in enumerate(table):
                for y, v in enumerate(row):
                    t[p[x]][p[y]] = p[v]
        sorts.append(Sort(S.variety, S.order, binary, [_carry(p, p, u) for u in S.unary],
                          [p[g] for g in S.gens], S.name))
    maps = [_carry(perms[s], perms[t], m) for m, (s, t) in zip(A.maps, _MAP_ENDS)]
    return Algebra(A.variety, sorts, maps, A.name)


def _relabelled(A: Algebra, rng):
    perms = tuple([0, *rng.sample(range(1, S.order), S.order - 1)] for S in A.sorts)
    return _relabel(A, perms), perms


def _carried_homs(homs, pa, pb):
    """The mappings of ``homs``, carried through pa and pb sort by sort."""
    return {tuple(map(_carry, pa, pb, f.mapping)) for f in homs}


_PAIRS = [(A, B) for cid in corpus_ids() for A in corpus_by_id(cid) for B in corpus_by_id(cid)
          if A.variety == B.variety and A.order * B.order <= 600]


@settings(max_examples=3, deadline=None, phases=_NO_SHRINK)
@given(st.integers(0, 2**32 - 1))
def test_hom_sets_are_carried_by_a_relabelling(seed):
    """On every same-variety corpus pair with |A|.|B| <= 600: the hom
    set and the surjections."""
    rng = random.Random(seed)
    assert len(_PAIRS) > 1000
    for A, B in _PAIRS:
        (A2, pa), (B2, pb) = _relabelled(A, rng), _relabelled(B, rng)
        homs, homs2 = enumerate_homs(A, B), enumerate_homs(A2, B2)
        assert len(homs2) == len(homs), (A, B)
        assert {f.mapping for f in homs2} == _carried_homs(homs, pa, pb), (A, B)
        onto, onto2 = surjections(A, B), surjections(A2, B2)
        assert len(onto2) == len(onto), (A, B)
        assert {f.mapping for f in onto2} == _carried_homs(onto, pa, pb), (A, B)


_RADICAL_CASES = [(R, A) for cid in _CORPORA for A in corpus_by_id(cid)
                  for R in _REFLECTORS if R.applies_to(A.variety)]


@settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
@given(st.integers(0, 2**32 - 1))
def test_radicals_are_carried_by_a_relabelling(seed):
    """Every reflector that applies to a member of these corpora."""
    rng = random.Random(seed)
    assert len(_RADICAL_CASES) > 200
    for R, A in _RADICAL_CASES:
        A2, perms = _relabelled(A, rng)
        T, T2 = radical(R, A), radical(R, A2)
        carried = tuple(frozenset(p[x] for x in X) for p, X in zip(perms, T.elements))
        assert T2.elements == carried and T2.normal == T.normal, (R.name, A)


def _relabelled_cube(c: NCube, rng) -> NCube:
    """c with each vertex relabelled by its own permutations, and each
    edge carried through the permutations at its two ends."""
    new = {m: _relabelled(V, rng) for m, V in c.vertices.items()}
    edges = {}
    for (m, a), f in c.edges.items():
        (A, pa), (B, pb) = new[m], new[m | 1 << a]
        edges[(m, a)] = morphism(A, B, *map(_carry, pa, pb, f.mapping))
    return NCube(c.dim, {m: A for m, (A, _) in new.items()}, edges)


@cache
def _normality_cases():
    """(R, cube, verdict) for every thm-4.6 double extension and every
    eighth 3-fold extension glued from them."""
    cases = []
    for rid, cid in THM_4_6:
        R, squares = thm_4_6_squares(rid, cid)
        cubes = squares + [c for sq in squares for c in glued_cubes(sq)][::8]
        cases += [(R, c, is_nfold_normal(R, c)) for c in cubes]
    return cases


@settings(max_examples=2, deadline=None, phases=_NO_SHRINK)
@given(st.integers(0, 2**32 - 1))
def test_normality_is_carried_by_a_relabelling(seed):
    """Both normality routes, compared inside ``is_nfold_normal``, give
    the same verdict on a cube whose vertices are all relabelled."""
    rng = random.Random(seed)
    cases = _normality_cases()
    assert {c.dim for _, c, _ in cases} == {2, 3}
    assert {verdict for _, _, verdict in cases} == {True, False}
    for R, c, verdict in cases:
        assert is_nfold_normal(R, _relabelled_cube(c, rng)) == verdict, R.name
