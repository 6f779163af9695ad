"""Constructions that would copy an input return its unnamed view.

``ops.quotient`` by zero returns the unnamed view of its algebra
(``algebra._renamed``) with the identity arrays as its map, and
``ops._build_pairs`` returns the unnamed view of a factor whose leg is
``range(order)`` on every sort; neither builds a table.  The routes
they skip are kept here as oracles and run on what they return, entry
by entry: the quotient on cosets in first-appearance order, and the
algebra on the pairs that a scan finds (the row oracle of
tests/test_pair_sorts.py), structure maps and legs included.  The
quotient tables that the other quotients read with one ``itemgetter``
per row are checked against the same oracle, down to the quotient by
the whole algebra, which has one representative.
"""

import pytest

from semiab import (
    corpus_by_id,
    full_subobject,
    identity_morphism,
    is_injective,
    kernel,
    kernel_pair,
    pullback,
    quotient,
    zero_subobject,
)
from semiab.algebra import _MAP_ENDS
from semiab.corpus import corpus_ids
from semiab.homs import _corpus_surjections

from test_pair_sorts import _pairs_by_scan, _rows_table


CORPORA = corpus_ids()


def _unnamed(A):
    return A.name is None and all(S.name is None for S in A.sorts)


# ---------------------------------------------------------------------------
# quotients


def _by_cosets(A, N):
    """A/N as the quotient built it before the shortcut: per sort the
    tables and unary maps carried to the cosets, in first-appearance
    order, entry by entry; the structure maps; the quotient arrays."""
    sorts, qmaps, reps = [], [], []
    for S, X in zip(A.sorts, N.elements):
        op = S.binary[0]
        coset = [frozenset(op[x][k] for k in X) for x in range(S.order)]
        ids = {}
        for c in coset:
            ids.setdefault(c, len(ids))
        q = tuple(ids[c] for c in coset)
        rs = [coset.index(c) for c in ids]
        sorts.append((tuple(tuple(tuple(q[t[r][s]] for s in rs) for r in rs) for t in S.binary),
                      tuple(tuple(q[u[r]] for r in rs) for u in S.unary)))
        qmaps.append(q)
        reps.append(rs)
    maps = tuple(tuple(qmaps[t][m[r]] for r in reps[s]) for m, (s, t) in zip(A.maps, _MAP_ENDS))
    return sorts, maps, tuple(qmaps)


def _check_quotient(A, N):
    Q, q = quotient(A, N)
    sorts, maps, qmaps = _by_cosets(A, N)
    assert [(S.binary, S.unary) for S in Q.sorts] == sorts, A
    assert (Q.maps, q.mapping) == (maps, qmaps) and q.dom is A and q.cod is Q, A
    assert _unnamed(Q), A
    return Q


@pytest.mark.parametrize("cid", CORPORA)
def test_a_quotient_by_zero_is_the_unnamed_algebra_itself(cid):
    """Every algebra of every bundled corpus: the quotient by zero equals
    the coset oracle, is unnamed, and shares A's tables and ``gens``
    (no table was built); an unnamed A comes back as itself."""
    for A in corpus_by_id(cid):
        Q = _check_quotient(A, zero_subobject(A))
        assert all(S.binary is T.binary and S.unary is T.unary and S.gens == T.gens
                   for S, T in zip(Q.sorts, A.sorts))
        assert Q.maps is A.maps and Q == A
        assert quotient(Q, zero_subobject(Q))[0] is Q


@pytest.mark.parametrize("cid", CORPORA)
def test_a_quotient_by_the_whole_algebra_has_one_element_per_sort(cid):
    """One representative: the one-index ``itemgetter`` would return an
    entry, not a row."""
    for A in corpus_by_id(cid):
        Q = _check_quotient(A, full_subobject(A))
        assert all(S.order == 1 for S in Q.sorts)


@pytest.mark.parametrize("cid", CORPORA)
def test_quotients_by_kernels_match_the_coset_oracle(cid):
    """The kernel of the first surjection onto each member, from each
    member: the tables read with one ``itemgetter`` per row."""
    corpus = corpus_by_id(cid)
    seen = 0
    for A in corpus:
        for B in corpus:
            if B.variety == A.variety:
                for f in _corpus_surjections([A, B]):
                    if f.dom is A and f.cod is B:
                        assert _check_quotient(A, kernel(f)).order == B.order
                        seen += 1
                        break
    assert seen >= len(corpus)


# ---------------------------------------------------------------------------
# pair algebras with an identity leg


def _on_scanned_pairs(f, g):
    """The pullback of f and g built entry by entry on the pairs that a
    scan finds: per sort the tables and unary maps, then the structure
    maps and the two legs."""
    sorts, indices, legs = [], [], []
    for SA, SB, fm, gm in zip(f.dom.sorts, g.dom.sorts, f.mapping, g.mapping):
        pairs = _pairs_by_scan(fm, gm)
        firsts, seconds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
        index = [[-1] * SB.order for _ in range(SA.order)]
        for k, (a, b) in enumerate(pairs):
            index[a][b] = k
        sorts.append((tuple(tuple(_rows_table(index, firsts, seconds, tA, tB))
                            for tA, tB in zip(SA.binary, SB.binary)),
                      tuple(tuple(index[uA[a]][uB[b]] for a, b in pairs)
                            for uA, uB in zip(SA.unary, SB.unary))))
        indices.append((index, pairs))
        legs.append((firsts, seconds))
    maps = tuple(tuple(indices[t][0][mA[a]][mB[b]] for a, b in indices[s][1])
                 for mA, mB, (s, t) in zip(f.dom.maps, g.dom.maps, _MAP_ENDS))
    return sorts, maps, tuple(zip(*legs))


def _check_pairs(f, g):
    """pullback(f, g) equals the scanned-pair oracle and is unnamed.
    Returns the factor whose leg is ``range(order)`` on every sort, if
    any, after checking that P shares its tables (no table was built)."""
    P, p1, p2 = pullback(f, g)
    sorts, maps, (firsts, seconds) = _on_scanned_pairs(f, g)
    assert [(S.binary, S.unary) for S in P.sorts] == sorts
    assert (P.maps, p1.mapping, p2.mapping) == (maps, firsts, seconds)
    assert p1.dom is P and p1.cod is f.dom and p2.dom is P and p2.cod is g.dom
    assert _unnamed(P)
    for factor, leg in ((f.dom, firsts), (g.dom, seconds)):
        if leg == tuple(tuple(range(S.order)) for S in factor.sorts):
            assert all(S.binary is T.binary and S.unary is T.unary
                       for S, T in zip(P.sorts, factor.sorts))
            return factor
    return None


# the 2,759 maps of zmod8-modules, up to 64 elements each, would take
# the oracles about 10 s; every fourth of them is checked
STRIDE = {"zmod8-modules": 4}


def _corpus_maps(cid):
    """The corpus surjections of ``cid``, every one but in the corpora of STRIDE."""
    return list(_corpus_surjections(corpus_by_id(cid)))[::STRIDE.get(cid, 1)]


@pytest.mark.parametrize("cid", CORPORA)
def test_a_pullback_along_an_identity_matches_the_scanned_pairs(cid):
    """pullback(f, identity) and pullback(identity, f) for every corpus
    map f.  The pairs of the first are (a, f(a)), so it is dom f; those
    of the second are (f(a), a), in the order of f's values, so it is
    dom f relabelled, and a copy of dom f only when that order is a's,
    or of cod f when f is one to one."""
    copies = 0
    for f in _corpus_maps(cid):
        one = identity_morphism(f.cod)
        assert _check_pairs(f, one) is f.dom
        copied = _check_pairs(one, f)
        assert copied in (None, f.dom, f.cod)
        copies += copied is not None
    assert copies


@pytest.mark.parametrize("cid", CORPORA)
def test_the_kernel_pair_of_an_injective_map_is_the_unnamed_domain(cid):
    """Each element pairs only with itself: the kernel pair is dom f,
    with both legs the identity arrays."""
    injective = [f for f in _corpus_maps(cid) if is_injective(f)]
    assert injective
    for f in injective:
        assert _check_pairs(f, f) is f.dom
        _, p1, p2 = kernel_pair(f)
        assert p1.mapping == p2.mapping == identity_morphism(f.dom).mapping
