"""Limits, colimits, the normal lattice and commutators."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    AlgebraError,
    ExactSequence,
    compose,
    corpus_by_id,
    cyclic_group,
    dihedral_group,
    direct_product,
    full_subobject,
    gpd_discrete,
    group_algebra,
    huq_commutator,
    identity_morphism,
    image,
    induced_on_quotient,
    into_pullback,
    is_isomorphism_map,
    is_surjective,
    join_normal,
    kernel,
    meet_subobjects,
    morphism,
    named_algebra,
    normal_closure,
    power_subobject,
    pullback,
    quaternion_8,
    quotient,
    sections,
    sub_algebra,
    subobject,
    surjections,
    symmetric_3,
    zero_morphism,
    zero_subobject,
    zmod_cyclic,
    zring,
)
from semiab.algebra import closure_under_ops
from semiab.ops import kernel_pair, preimage_subobject

from normal_lattice import normal_subobjects


def _mod_map(m, n):
    return morphism(cyclic_group(m), cyclic_group(n), [x % n for x in range(m)])


def test_kernel_of_mod_map():
    f = _mod_map(8, 2)
    k = kernel(f)
    assert k.elements == (frozenset({0, 2, 4, 6}),)
    assert k.normal


def test_quotient_kernel_is_the_given_subobject():
    d4 = dihedral_group(4)
    for n in normal_subobjects(d4):
        q_alg, q = quotient(d4, n)
        assert kernel(q).elements == n.elements
        assert q_alg.order * n.size == d4.order


def test_quotient_rejects_nonnormal():
    s3 = symmetric_3()
    refl = subobject(s3, closure_under_ops(s3, {1}))
    assert not refl.normal
    with pytest.raises(AlgebraError):
        quotient(s3, refl)


def test_pullback_universal_property():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f, g = _mod_map(4, 2), _mod_map(4, 2)
    P, p1, p2 = pullback(f, g)
    assert compose(f, p1) == compose(g, p2)
    # fibre product of two 2:1 maps over C2 has order 8
    assert P.order == 8
    # mediating map from the diagonal cone
    u = identity_morphism(c4)
    h = into_pullback(P, p1, p2, u, u)
    assert compose(p1, h) == u and compose(p2, h) == u
    # mediator must be unique among morphisms with that cone property
    count = sum(
        1
        for m in _all_group_homs(c4, P)
        if compose(p1, m) == u and compose(p2, m) == u
    )
    assert count == 1


def _all_group_homs(A, B):
    from semiab import enumerate_homs

    return enumerate_homs(A, B)


def test_kernel_pair_order():
    f = _mod_map(4, 2)
    KP, q1, q2 = kernel_pair(f)
    assert KP.order == 8
    assert compose(f, q1) == compose(f, q2)


def test_normal_closure_is_idempotent_and_monotone():
    s3 = symmetric_3()
    refl = closure_under_ops(s3, {1})
    nc = normal_closure(s3, refl)
    assert nc.elements == (frozenset(range(6)),)  # reflections generate all of S3
    again = normal_closure(s3, *nc.elements)
    assert again.elements == nc.elements


def test_join_meet_absorption_on_normal_lattice():
    d4 = dihedral_group(4)
    ns = normal_subobjects(d4)
    for m, n in itertools.product(ns, repeat=2):
        j = join_normal(d4, m, n)
        w = meet_subobjects(d4, m, n)
        assert meet_subobjects(d4, m, j).elements == m.elements
        assert join_normal(d4, m, w).elements == m.elements


def test_every_surjection_is_a_normal_epi():
    d4, c2 = dihedral_group(4), cyclic_group(2)
    for f in surjections(d4, c2):
        q_alg, q = quotient(d4, kernel(f))
        # f factors through its kernel quotient via an isomorphism
        iso = induced_on_quotient(q, f)
        assert is_isomorphism_map(iso)


def test_image_of_nonsurjective_map():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    j = morphism(c2, c4, [0, 2])
    im = image(j)
    assert im.elements == (frozenset({0, 2}),)
    assert im.normal


def test_induced_on_quotient_requires_containment():
    c4 = cyclic_group(4)
    q_alg, q = quotient(c4, subobject(c4, {0, 2}))
    idm = identity_morphism(c4)
    with pytest.raises(AlgebraError):
        induced_on_quotient(q, idm)  # K[q] not inside K[id]


def _brute_commutator(A, H, K):
    # smallest normal subobject N with H,K commuting in A/N
    best = None
    for n in normal_subobjects(A):
        _, q = quotient(A, n)
        if _commute_in_image(q, H.elements[0], K.elements[0]):
            if best is None or n.size < best.size:
                best = n
    return best


def _commute_in_image(q, hs, ks):
    op, (m,) = q.cod.sorts[0].binary[0], q.mapping
    for h in hs:
        for k in ks:
            if op[m[h]][m[k]] != op[m[k]][m[h]]:
                return False
    return True


@pytest.mark.parametrize("maker", [symmetric_3, quaternion_8, lambda: dihedral_group(4)])
def test_huq_commutator_matches_brute_force(maker):
    """On (whole, whole), on (kernel, whole) either way round, and on
    every pair of normal subobjects."""
    A = maker()
    whole = full_subobject(A)
    lattice = normal_subobjects(A)
    kernels = [kernel(quotient(A, N)[1]) for N in lattice]
    pairs = [(whole, whole), *((K, whole) for K in kernels), *((whole, K) for K in kernels),
             *itertools.product(lattice, repeat=2)]
    for H, K in pairs:
        got = huq_commutator(A, H, K)
        assert got.normal and got.elements == _brute_commutator(A, H, K).elements, (H, K)


def test_huq_commutator_rejects_a_subgroup_that_is_not_normal():
    s3 = symmetric_3()
    op = s3.sorts[0].binary[0]
    flip = subobject(s3, {0, next(x for x in range(1, 6) if op[x][x] == 0)})
    assert not flip.normal
    for H, K in ((flip, full_subobject(s3)), (full_subobject(s3), flip)):
        with pytest.raises(AlgebraError, match="commutator is defined for normal subobjects"):
            huq_commutator(s3, H, K)


def test_derived_subgroup_oracles():
    s3 = symmetric_3()
    assert huq_commutator(s3, full_subobject(s3), full_subobject(s3)).size == 3
    q8 = quaternion_8()
    assert huq_commutator(q8, full_subobject(q8), full_subobject(q8)).size == 2
    d4 = dihedral_group(4)
    assert huq_commutator(d4, full_subobject(d4), full_subobject(d4)).size == 2


def test_commutator_with_zero_is_zero():
    s3 = symmetric_3()
    z = zero_subobject(s3)
    assert huq_commutator(s3, full_subobject(s3), z).elements == z.elements


def test_power_subobject_on_modules():
    from semiab import zmod_cyclic

    m4 = zmod_cyclic(4, 4)
    assert power_subobject(m4, 2).elements == (frozenset({0, 2}),)
    assert power_subobject(m4, 4).elements == (frozenset({0}),)


@pytest.mark.parametrize("name", ["c4", "s3", "m8-c8xc8"])
def test_power_subobject_reads_the_exponent_modulo_the_order(name):
    # x^|A| = 0 by Lagrange, and the added exponent is a multiple of 4, 6 and 64
    A = named_algebra(name)
    for k in range(1, 9):
        assert power_subobject(A, k + 10**18 * 720720) == power_subobject(A, k)


def test_preimage_subobject():
    f = _mod_map(8, 4)
    c4 = cyclic_group(4)
    back = preimage_subobject(f, subobject(c4, {0, 2}))
    assert back.elements == (frozenset({0, 2, 4, 6}),)


# a subobject of C4 handed to an operation on V4, whose carrier it fits
def _v4_and_a_c4_subobject():
    c2 = cyclic_group(2)
    return direct_product(c2, c2)[0], subobject(cyclic_group(4), {0, 2})


def test_meet_rejects_a_subobject_of_another_algebra():
    v4, foreign = _v4_and_a_c4_subobject()
    with pytest.raises(AlgebraError, match="subobject of a different parent"):
        meet_subobjects(v4, foreign, subobject(v4, {0, 1}))


def test_join_rejects_a_subobject_of_another_algebra():
    v4, foreign = _v4_and_a_c4_subobject()
    with pytest.raises(AlgebraError, match="subobject of a different parent"):
        join_normal(v4, subobject(v4, {0, 1}), foreign)


def test_preimage_rejects_a_subobject_of_another_algebra():
    v4, foreign = _v4_and_a_c4_subobject()
    with pytest.raises(AlgebraError, match="subobject of a different parent"):
        preimage_subobject(identity_morphism(v4), foreign)


def test_exact_sequence_validation():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    (g,) = surjections(c4, c2)
    _, incl = sub_algebra(c4, kernel(g))
    seq = ExactSequence(incl, g)
    assert seq.splitting is None
    with pytest.raises(AlgebraError, match="sequence maps do not compose"):
        ExactSequence(g, g)


def test_classify_sequence_split_and_nonsplit():
    s3, c2 = symmetric_3(), cyclic_group(2)
    (f,) = surjections(s3, c2)
    _, incl = sub_algebra(s3, kernel(f))
    section = sections(f)[0]
    assert compose(f, section) == identity_morphism(c2)
    assert ExactSequence(incl, f, section).splitting == section
    with pytest.raises(AlgebraError, match="splitting is not a section"):
        ExactSequence(incl, f, zero_morphism(c2, s3))

    c4 = cyclic_group(4)
    (g,) = surjections(c4, c2)
    _, incl2 = sub_algebra(c4, kernel(g))
    assert sections(g) == ()
    assert ExactSequence(incl2, g).splitting is None


def test_classify_sequence_rejects_non_exact():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    (g,) = surjections(c4, c2)
    # another embedding onto K[g] is still a short exact sequence
    assert ExactSequence(morphism(c2, c4, [0, 2]), g).k.mapping == ((0, 2),)
    with pytest.raises(AlgebraError, match="not a short exact sequence"):
        ExactSequence(identity_morphism(c4), g)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 8]), st.sampled_from([2, 3, 4]))
def test_product_projections_are_surjective(m, n):
    P, p1, p2 = direct_product(cyclic_group(m), cyclic_group(n))
    assert P.order == m * n
    assert is_surjective(p1) and is_surjective(p2)
    assert meet_subobjects(P, kernel(p1), kernel(p2)).is_zero()


def _groupoid_surjections():
    corpus = corpus_by_id("groupoids")
    return [f for A in corpus for B in corpus for f in surjections(A, B)]


def test_groupoid_corpus_has_sixteen_surjections():
    assert len(_groupoid_surjections()) == 16


@pytest.mark.parametrize("f", _groupoid_surjections())
def test_groupoid_constructions_match_their_levels(f):
    """Each construction on a groupoid is the group construction on each sort."""
    A, B = f.dom, f.cod
    K = kernel(f)
    Q, q = quotient(A, K)
    S, incl = sub_algebra(A, K)
    P, p1, p2 = kernel_pair(f)
    for k in range(2):
        X, Y = (group_algebra(*T.binary, *T.unary) for T in (A.sorts[k], B.sorts[k]))
        fk = morphism(X, Y, f.mapping[k])
        Qk, qk = quotient(X, kernel(fk))
        Sk, inclk = sub_algebra(X, kernel(fk))
        Pk, p1k, p2k = kernel_pair(fk)
        assert Q.sorts[k] == Qk.sorts[0] and q.mapping[k] == qk.mapping[0]
        assert S.sorts[k] == Sk.sorts[0] and incl.mapping[k] == inclk.mapping[0]
        assert P.sorts[k] == Pk.sorts[0]
        assert p1.mapping[k] == p1k.mapping[0] and p2.mapping[k] == p2k.mapping[0]


@pytest.mark.parametrize("A, B", [
    (cyclic_group(2), zring(2)),
    (cyclic_group(2), gpd_discrete(cyclic_group(2))),
    (zmod_cyclic(4, 4), zmod_cyclic(8, 8)),
    (zmod_cyclic(4, 2), zmod_cyclic(8, 2)),
], ids=["group-ring", "group-groupoid", "zmod4-zmod8", "zmod4-zmod8-small"])
def test_direct_product_needs_a_shared_variety(A, B):
    with pytest.raises(AlgebraError, match="cannot multiply"):
        direct_product(A, B)
