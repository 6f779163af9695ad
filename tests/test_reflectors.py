"""Reflector registry, radicals and torsion-theory certification."""

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    Reflector,
    ReflectorError,
    compose,
    corpus_by_id,
    cyclic_group,
    dihedral_group,
    identity_morphism,
    is_free_member,
    is_torsion_member,
    kernel,
    map_reflect,
    morphism,
    named_algebra,
    quaternion_8,
    radical,
    radical_algebra,
    reflect,
    reflector_by_id,
    split_exact_sequences,
    symmetric_3,
    verify_suite,
    zring,
)
from semiab import reflectors
from semiab.algebra import _renamed, subobject, validate_morphism
from semiab.homs import enumerate_homs
from semiab.ops import direct_product, pullback
from semiab.reflectors import known_protoadditive_on, short_exact_sequences
from semiab.verification import _applicable, _sample
from semiab.serialize import morphism_to_doc

_TORSION_THEORY_CHECKS = {"idempotent-radical", "hom-vanishing",
                          "torsion-extension-closure", "free-extension-closure"}


def _rad_elems(rid, A):
    return radical(reflector_by_id(rid), A).elements[0]


def test_reflector_registry_ids():
    for rid, kind, tt in [
        ("ab", "group", False),
        ("reduced", "comm-ring", True),
        ("zerorng", "rng-star", True),
        ("pi0", "gpd-in-group", True),
        ("burnside:2", "zmod-module", False),
        ("boole", "nonassoc-ring", False),
    ]:
        r = reflector_by_id(rid)
        assert kind in r.kinds
        assert r.torsion_theory == tt
    with pytest.raises(ReflectorError):
        reflector_by_id("nope")
    with pytest.raises(ReflectorError):
        reflector_by_id("burnside:0")


def test_composite_reflector_id_round_trip():
    r = reflector_by_id("composite:burnside:2∘ab")
    assert r.name == "composite:burnside:2∘ab"
    assert r.is_composite and r.kinds == ("group",)
    with pytest.raises(ReflectorError):
        reflector_by_id("composite:ab")  # missing inner factor


def test_abelianisation_radicals():
    assert _rad_elems("ab", symmetric_3()) == frozenset({0, 3, 4})
    assert len(_rad_elems("ab", quaternion_8())) == 2
    assert len(_rad_elems("ab", dihedral_group(4))) == 2
    assert _rad_elems("ab", cyclic_group(6)) == frozenset({0})


def test_reduced_radical_is_nilradical():
    assert _rad_elems("reduced", zring(12)) == frozenset({0, 6})
    assert _rad_elems("reduced", zring(8)) == frozenset({0, 2, 4, 6})
    assert _rad_elems("reduced", zring(6)) == frozenset({0})


def test_burnside_radical_on_modules():
    c4 = named_algebra("m4-c4")
    assert _rad_elems("burnside:2", c4) == frozenset({0, 2})
    c2 = named_algebra("m4-c2")
    assert _rad_elems("burnside:2", c2) == frozenset({0})


def test_reflect_decomposition_shape():
    r = reflector_by_id("ab")
    s3 = symmetric_3()
    dec = reflect(r, s3)
    assert dec.radical_part.elements == (frozenset({0, 3, 4}),)
    assert dec.reflection.order == 2
    assert dec.unit.dom == s3 and dec.unit.cod == dec.reflection
    assert kernel(dec.unit).elements == dec.radical_part.elements


def test_reflection_is_idempotent():
    for rid, name in [("ab", "d4"), ("reduced", "z12"), ("burnside:2", "m4-c4")]:
        r = reflector_by_id(rid)
        A = named_algebra(name)
        once = reflect(r, A).reflection
        twice = reflect(r, once).reflection
        assert twice == once
        assert radical(r, once).is_zero()


def test_membership_predicates():
    ab = reflector_by_id("ab")
    assert is_free_member(ab, cyclic_group(6))
    assert not is_free_member(ab, symmetric_3())
    red = reflector_by_id("reduced")
    from semiab import zero_multiplication_ring

    nil = zero_multiplication_ring(4, kind="comm-ring")
    assert is_torsion_member(red, nil)
    assert not is_torsion_member(red, zring(6))


def test_map_reflect_functoriality():
    ab = reflector_by_id("ab")
    s3, c2 = symmetric_3(), cyclic_group(2)
    from semiab import surjections

    (f,) = surjections(s3, c2)
    Ff = map_reflect(ab, f)
    assert Ff.dom == reflect(ab, s3).reflection
    assert Ff.cod == reflect(ab, c2).reflection
    # naturality: unit . f = Ff . unit
    assert compose(Ff, reflect(ab, s3).unit) == compose(reflect(ab, c2).unit, f)


def test_radical_algebra_is_the_kernel_algebra():
    red = reflector_by_id("reduced")
    ra = radical_algebra(red, zring(8))
    assert ra.order == 4


def test_split_sequence_count_for_rings_corpus():
    corpus = corpus_by_id("rings")
    seqs = split_exact_sequences(corpus)
    assert len(seqs) == 41
    shorts = short_exact_sequences(corpus)
    assert len(shorts) >= len(seqs)
    for s in seqs:
        assert s.splitting is not None
        assert compose(s.f, s.splitting) == identity_morphism(s.f.cod)


def test_torsion_theory_report_verdicts():
    red = reflector_by_id("reduced")
    rep = verify_suite("thm-1.6", reflector=red, corpus=corpus_by_id("rings"))
    assert rep.passed
    assert list(rep.sample) == ["objects", "hom-pairs", "sequences", "unit-pullbacks"]
    b2 = reflector_by_id("burnside:2")
    rep2 = verify_suite("thm-1.6", reflector=b2, corpus=corpus_by_id("zmod4-modules"))
    assert not rep2.passed
    assert any(w["check"] in _TORSION_THEORY_CHECKS for w in rep2.witnesses)


def test_idempotent_radical_check():
    red = reflector_by_id("reduced")
    rep = verify_suite("thm-1.6", reflector=red, corpus=corpus_by_id("rings"))
    assert not any(w["check"] == "idempotent-radical" for w in rep.witnesses)
    b2 = reflector_by_id("burnside:2")
    rep2 = verify_suite("thm-1.6", reflector=b2, corpus=corpus_by_id("zmod4-modules"))
    idem = [w for w in rep2.witnesses if w["check"] == "idempotent-radical"]
    assert idem
    assert all({"radical", "radical-of-radical"} <= set(w) for w in idem)


def test_known_protoadditive_table():
    assert known_protoadditive_on(reflector_by_id("reduced"), "comm-ring")
    assert known_protoadditive_on(reflector_by_id("pi0"), "gpd-in-group")
    assert not known_protoadditive_on(reflector_by_id("ab"), "group")


def test_reflector_rejects_wrong_kind():
    ab = reflector_by_id("ab")
    with pytest.raises(ReflectorError):
        radical(ab, zring(4))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["c2", "c4", "c6", "c8", "d4", "q8", "s3", "d6"]))
def test_radical_is_normal_and_kernel_of_unit(name):
    ab = reflector_by_id("ab")
    A = named_algebra(name)
    dec = reflect(ab, A)
    assert dec.radical_part.normal
    assert kernel(dec.unit).elements == dec.radical_part.elements


def test_cached_decompositions_carry_the_callers_algebra(monkeypatch):
    # the cache compares algebras by content: a renamed copy hits the
    # entry of the first, and its parts must be moved to the copy
    ab, s3 = reflector_by_id("ab"), symmetric_3()
    first = reflect(ab, s3)
    B = _renamed(s3, "other")

    def no_radical(*args):
        raise AssertionError("a hit computed the radical again")

    monkeypatch.setattr(reflectors, "_base_radical", no_radical)
    dec = reflect(ab, B)
    assert dec.algebra is B and dec.unit.dom is B and dec.radical_part.parent is B
    assert morphism_to_doc(dec.unit)["dom"]["name"] == "other"
    assert dec.reflection is first.reflection and dec.unit.mapping == first.unit.mapping
    assert radical(ab, B).parent is B
    assert reflect(ab, s3).algebra is s3
    # the skipped checks, run directly on the moved parts
    assert validate_morphism(dec.unit) == dec.unit.mapping
    assert kernel(dec.unit).elements == dec.radical_part.elements
    assert subobject(B, *dec.radical_part.elements).normal == dec.radical_part.normal


def _nilradical_by_powers(A):
    """The nilradical by multiplying up to |A| powers of each element."""
    mul = A.sorts[0].binary[1]
    nils = set()
    for x in range(A.order):
        v = x
        for _ in range(A.order):
            if v == 0:
                nils.add(x)
                break
            v = mul[v][x]
    return frozenset(nils)


def _prop_2_2_pullbacks(seed):
    """The pullbacks that prop-2.2 reflects under reduced on rings."""
    R = reflector_by_id("reduced")
    algebras = _applicable(R, corpus_by_id("rings"))
    for seq in split_exact_sequences(algebras):
        homs = [g for C in algebras if C.variety == seq.f.cod.variety
                for g in enumerate_homs(C, seq.f.cod)]
        for g in _sample(homs, seed, 6):
            yield pullback(seq.f, g)[0]


def test_nilradical_by_squaring_agrees_with_powers():
    rings = _applicable(reflector_by_id("reduced"), corpus_by_id("rings"))
    products = [direct_product(A, B)[0] for A in rings for B in rings if A.order * B.order <= 400]
    pullbacks = list(_prop_2_2_pullbacks(0))
    checked = [*rings, *products, *pullbacks]
    for A in checked:
        assert reflectors._nilradical(A).elements[0] == _nilradical_by_powers(A), A.name
    assert len(pullbacks) > 100 and max(P.order for P in pullbacks) >= 64
    assert {len(_nilradical_by_powers(A)) > 1 for A in checked} == {True, False}
