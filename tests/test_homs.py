"""Hom-set enumeration oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    AlgebraError,
    compose,
    corpus_by_id,
    cyclic_group,
    enumerate_homs,
    gpd_discrete,
    gpd_indiscrete,
    identity_morphism,
    morphism,
    sections,
    surjections,
    symmetric_3,
    zmod_cyclic,
    zring,
)
from semiab import algebra, homs
from semiab.algebra import _renamed, validate_morphism
from semiab.serialize import morphism_to_doc

from test_invariance import _relabel


def test_hom_counts_between_cyclic_groups():
    c4, c2, c3 = cyclic_group(4), cyclic_group(2), cyclic_group(3)
    assert len(enumerate_homs(c4, c2)) == 2
    assert len(enumerate_homs(c2, c4)) == 2
    assert len(enumerate_homs(c3, c2)) == 1  # zero only
    assert len(enumerate_homs(c4, c4)) == 4


def test_hom_count_to_s3():
    # trivial + 3 maps onto a reflection subgroup
    assert len(enumerate_homs(cyclic_group(2), symmetric_3())) == 4


def test_surjections_counts():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    assert len(surjections(c4, c2)) == 1
    assert len(surjections(c4, cyclic_group(3))) == 0
    assert len(surjections(symmetric_3(), c2)) == 1


def test_cached_hom_sets_carry_the_callers_algebras(monkeypatch):
    # the caches compare algebras by content: a renamed copy hits the
    # entry of the first, and the maps must be bound to the copy
    A = cyclic_group(4)
    first, onto = enumerate_homs(A, A), surjections(A, A)
    B = _renamed(A, "other")

    def no_enumeration(*args):
        raise AssertionError("a hit enumerated again")

    checked = []
    monkeypatch.setattr(homs, "_iter_homs", no_enumeration)
    monkeypatch.setattr(algebra, "validate_morphism",
                        lambda f: checked.append(f) or validate_morphism(f))
    hits = [(enumerate_homs(B, B), first, B), (surjections(B, B), onto, B),
            (enumerate_homs(A, B), first, A)]
    assert checked == []
    for got, want, dom in hits:
        assert got == want and len(got) > 0
        assert all(f.dom is dom and f.cod is B for f in got)
        # the skipped check, run directly on the rebound maps
        assert all(validate_morphism(f) == f.mapping for f in got)
    assert morphism_to_doc(hits[0][0][0])["dom"]["name"] == "other"
    assert all(f.dom is A and f.cod is A for f in enumerate_homs(A, A))


def test_hom_search_names_no_candidate_it_drops(monkeypatch):
    """Hom search tests its candidates, where it tests them at all, by
    ``_passes`` alone: with
    ``_full_scan``, which names a failure, made to raise, it still finds
    every hom between the members of two corpora, fresh from empty
    caches.  The counts are pinned by their totals and the totals of
    their squares over the 676 and 100 ordered pairs."""
    corpora = [(list(corpus_by_id(cid)), want) for cid, want in
               (("groups", (676, 3340, 68720)), ("zmod8-modules", (100, 10065, 19684375)))]

    def named(*args):
        raise AssertionError("a dropped candidate was named")

    homs._homs.cache_clear()
    homs._surjections.cache_clear()
    monkeypatch.setattr(algebra, "_full_scan", named)
    for algebras, want in corpora:
        counts = [len(enumerate_homs(A, B)) for A in algebras for B in algebras]
        assert (len(counts), sum(counts), sum(c * c for c in counts)) == want


def test_sections_of_s3_onto_c2():
    s3, c2 = symmetric_3(), cyclic_group(2)
    (f,) = surjections(s3, c2)
    secs = sections(f)
    assert len(secs) == 3  # one per reflection
    for s in secs:
        assert compose(f, s) == identity_morphism(c2)


def test_nonsplit_surjection_has_no_sections():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    (f,) = surjections(c4, c2)
    assert sections(f) == ()


def test_ring_homs_respect_multiplication():
    z4, z2 = zring(4), zring(2)
    homs = enumerate_homs(z4, z2)
    assert len(homs) == 2  # zero and reduction mod 2
    for h in homs:
        for x in range(4):
            for y in range(4):
                (m,), mul4, mul2 = h.mapping, z4.sorts[0].binary[1], z2.sorts[0].binary[1]
                assert m[mul4[x][y]] == mul2[m[x]][m[y]]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
def test_hom_count_between_cyclics_is_gcd(m, n):
    import math

    assert len(enumerate_homs(cyclic_group(m), cyclic_group(n))) == math.gcd(m, n)


def _algebra(corpus_id, name):
    return next(A for A in corpus_by_id(corpus_id) if A.name == name)


def _accepted_maps(A, B):
    """Every mapping A -> B that ``morphism`` accepts, by trying all of them."""
    def arrays(src, dst):
        return [tuple(m) for m in itertools.product(range(dst.order), repeat=src.order)]

    candidates = itertools.product(*(arrays(S, T) for S, T in zip(A.sorts, B.sorts)))
    found = set()
    for m in candidates:
        try:
            found.add(morphism(A, B, *m).mapping)
        except AlgebraError:
            pass
    return found


@pytest.mark.parametrize("A, B", [
    (_algebra("groups", "c4"), _algebra("groups", "c2")),
    (_algebra("groups", "s3"), _algebra("groups", "c2")),
    (_algebra("groups", "c2"), _algebra("groups", "s3")),
    (_algebra("rings", "z4"), _algebra("rings", "z2")),
    (_algebra("rng-star", "zero4"), _algebra("rng-star", "zero2")),
    (_algebra("nonassoc-rings", "example-2.8.3-ring"),
     _algebra("nonassoc-rings", "example-2.8.3-ring")),
    (zmod_cyclic(4, 4), zmod_cyclic(4, 2)),
    (zmod_cyclic(4, 2), zmod_cyclic(4, 4)),
    (gpd_indiscrete(cyclic_group(2)), gpd_discrete(cyclic_group(2))),
    (gpd_discrete(cyclic_group(2)), gpd_indiscrete(cyclic_group(2))),
], ids=["c4-c2", "s3-c2", "c2-s3", "z4-z2", "zero4-zero2", "ex283-ex283",
        "m4c4-m4c2", "m4c2-m4c4", "ind-dis", "dis-ind"])
def test_enumerate_homs_matches_brute_force(A, B):
    assert {f.mapping for f in enumerate_homs(A, B)} == _accepted_maps(A, B)


def test_hom_sets_from_a_basis_into_an_abelian_target_are_the_tested_ones(monkeypatch):
    """``_sort_homs`` skips ``_passes`` when its source is built on a
    basis and its target is abelian.  On every same-variety pair of four
    corpora, and from and into an ``m4-c4xc4`` relabelled so that its
    greedy generators are no basis: every array found without the test
    passes ``_full_scan``, and each hom set is, in arrays and in order,
    the one the tested path finds.  Abelian sources into ``s3``, ``d4``
    and ``q8`` and the relabelled source keep the test."""
    c4xc4 = _algebra("zmod4-modules", "m4-c4xc4")  # x = (x // 4, x % 4)
    swap = list(range(16))
    swap[2], swap[9] = 9, 2  # label 2 is now (2, 1): the greedy set is (0,1), (2,1), (1,0)
    twisted = _relabel(c4xc4, (swap,))
    assert not homs._generation_plan(twisted.sorts[0])[1]
    pairs = [(A, B) for cid in ("zmod4-modules", "zmod8-modules", "abelian-groups", "groups")
             for A in corpus_by_id(cid) for B in corpus_by_id(cid) if A.variety == B.variety]
    pairs += [(twisted, B) for B in corpus_by_id("zmod4-modules")]
    pairs += [(B, twisted) for B in corpus_by_id("zmod4-modules")]
    plan, passes = homs._generation_plan, homs._passes
    tested = []
    monkeypatch.setattr(homs, "_passes", lambda S, T, m: tested.append((S, T)) or passes(S, T, m))
    skipped = []
    for A, B in pairs:
        del tested[:]
        found = [f.mapping[0] for f in homs._iter_homs(A, B)]
        skipped.append(not tested)
        if not tested:
            assert all(algebra._full_scan(A.sorts[0], B.sorts[0], m) is None for m in found)
        with monkeypatch.context() as m:
            m.setattr(homs, "_generation_plan", lambda S: (plan(S)[0], False))
            assert found == [f.mapping[0] for f in homs._iter_homs(A, B)], (A, B)
    nonabelian = {"d3", "d4", "d5", "d6", "d7", "d8", "s3", "q8"}
    assert skipped == [A is not twisted and not {A.name, B.name} & nonabelian for A, B in pairs]
    assert skipped.count(True) == 36 + 100 + 18 * 18 + 18 * 18 + 6
