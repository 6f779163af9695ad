"""Torsion factorisations, orthogonality, and extension classes."""

import pytest

from semiab import (
    AlgebraError,
    check_orthogonal,
    classify_em,
    compose,
    corpus_by_id,
    cube_of_morphism,
    cube_torsion_meet,
    cyclic_group,
    double_normal_by_galois,
    em_factorize,
    identity_morphism,
    induced_on_quotient,
    is_injective,
    is_nfold_extension,
    is_nfold_normal,
    is_normal_extension,
    is_surjective,
    is_trivial_extension,
    join_normal,
    kernel,
    morphism,
    named_algebra,
    nfold_factorize,
    quotient,
    radical,
    reflector_by_id,
    rib_kernel_meet,
    square,
    sub_algebra,
    surjections,
    zero_morphism,
    zring,
)
from semiab.algebra import _derived_subobject
from semiab.cubes import _kernel_pair_cube
from semiab.factorisation import _radical_within, condition_N_check, nfold_normal_by_criterion
from semiab.homs import _corpus_surjections
from semiab.ops import image_elements
from semiab.verification import _applicable, _derived_squares

from higher_extensions import THM_4_6, glued_cubes, thm_4_6_squares


RED = reflector_by_id("reduced")


def _ring_mod(m, n):
    return morphism(zring(m), zring(n), [x % n for x in range(m)])


def test_em_factorize_z12_to_z2():
    f = _ring_mod(12, 2)
    fac = em_factorize(RED, f)
    assert fac.m.dom.order == 6  # kill the nilpotents {0, 6} first
    assert compose(fac.m, fac.e) == f
    assert classify_em(RED, fac.e) == "e"
    assert classify_em(RED, fac.m) == "m"


def test_em_factorize_edge_classes():
    # torsion-free kernel: the map is already in m
    f = _ring_mod(6, 2)
    fac = em_factorize(RED, f)
    assert fac.m.dom.order == 6
    assert classify_em(RED, f) == "m"
    # all-torsion kernel: already in e (every even element of Z/8 is nilpotent)
    g = _ring_mod(8, 2)
    assert classify_em(RED, g) == "e"
    assert classify_em(RED, identity_morphism(zring(4))) == "both"
    # kernel {0,2,...,10} has radical {0,6}: neither whole nor zero
    assert classify_em(RED, _ring_mod(12, 2)) == "neither"


def test_em_factorisation_is_unique_up_to_the_middle():
    f = _ring_mod(12, 3)
    fac = em_factorize(RED, f)
    assert is_surjective(fac.e)
    assert kernel(fac.m).is_zero() or not is_injective(fac.m)
    # kernel of e is exactly the torsion part of K[f]
    sub, _ = sub_algebra(f.dom, kernel(f))
    rad = radical(RED, sub)
    assert kernel(fac.e).size == rad.size


def test_check_orthogonal_unique_diagonal():
    e = _ring_mod(4, 2)
    m = _ring_mod(6, 2)  # torsion-free kernel {0, 2, 4}? kernel is multiples of 2
    top = morphism(zring(4), zring(6), [0, 3, 0, 3])
    bottom = identity_morphism(zring(2))
    status, diags = check_orthogonal(e, m, (top, bottom))
    assert status == "unique"
    (d,) = diags
    assert compose(d, e) == top and compose(m, d) == bottom


def test_check_orthogonal_none_and_multiple():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    e = morphism(c4, c2, [x % 2 for x in range(4)])
    m = morphism(c4, c2, [x % 2 for x in range(4)])
    top = identity_morphism(c4)
    bottom = identity_morphism(c2)
    status, _ = check_orthogonal(e, m, (top, bottom))
    assert status == "none"  # no section of the mod-2 map

    z = cyclic_group(1)
    ez = morphism(z, c2, [0])
    mz = zero_morphism(c2, z)
    status2, diags2 = check_orthogonal(ez, mz, (zero_morphism(z, c2), zero_morphism(c2, z)))
    assert status2 == "multiple"
    assert len(diags2) == 2  # both endos of C2 fill the square


def test_trivial_and_normal_extension_classes():
    # torsion-free kernel: trivial, hence normal
    f = _ring_mod(6, 2)
    assert is_trivial_extension(RED, f)
    assert is_normal_extension(RED, f)
    # nilpotents inside the kernel survive the kernel-pair pullback too
    g = _ring_mod(12, 2)
    assert not is_trivial_extension(RED, g)
    assert not is_normal_extension(RED, g)


def test_extension_checks_demand_surjections():
    j = zero_morphism(zring(2), zring(4))
    with pytest.raises(AlgebraError):
        is_trivial_extension(RED, j)
    with pytest.raises(AlgebraError):
        is_normal_extension(RED, j)


def test_condition_N_holds_on_reduced_rings():
    for f in surjections(zring(8), zring(2)):
        assert condition_N_check(RED, f)


def _pushout_square(f, g):
    A = f.dom
    _, q = quotient(A, join_normal(A, kernel(f), kernel(g)))
    return square(f, g, induced_on_quotient(f, q), induced_on_quotient(g, q))


def test_double_extension_normality_routes_agree():
    cases = [
        (_ring_mod(12, 2), _ring_mod(12, 3)),  # nilpotents in a rib kernel
        (_ring_mod(6, 2), _ring_mod(6, 3)),  # torsion-free everywhere
    ]
    verdicts = []
    for f, g in cases:
        sq = _pushout_square(f, g)
        assert is_nfold_extension(sq)
        via_galois = double_normal_by_galois(RED, sq)
        via_criterion = nfold_normal_by_criterion(RED, sq)
        assert via_galois == via_criterion == is_nfold_normal(RED, sq)
        verdicts.append(via_criterion)
    assert verdicts == [False, True]


def test_one_fold_normality_matches_single_map_check():
    """On a 1-cube the derived-reflection route reflects a 0-cube, the
    kernel pair, and agrees with the pullback route on f for every
    reflector.  The kernel criterion is the paper's for torsion
    theories, so ``is_nfold_normal`` is asked only there."""
    for rid, cid in [("reduced", "rings"), ("zerorng", "rng-star"), ("pi0", "groupoids"),
                     ("ab", "groups"), ("burnside:2", "zmod4-modules"),
                     ("boole", "nonassoc-rings")]:
        R = reflector_by_id(rid)
        verdicts = []
        for f in _corpus_surjections(_applicable(R, corpus_by_id(cid))):
            c = cube_of_morphism(f)
            verdicts.append(is_normal_extension(R, f))
            assert double_normal_by_galois(R, c) == verdicts[-1], (rid, f)
            if R.torsion_theory:
                assert is_nfold_normal(R, c) == verdicts[-1], (rid, f)
        assert set(verdicts) == {True, False}, rid


@pytest.mark.parametrize("rid, cid", [
    ("reduced", "rings"), ("zerorng", "rng-star"), ("pi0", "groupoids"), ("ab", "groups"),
    ("burnside:2", "zmod4-modules"), ("boole", "nonassoc-rings")])
def test_the_radical_within_a_whole_subobject_is_the_copy_routes(rid, cid):
    """On the kernel-pair 0-cube of every corpus surjection, whose
    rib-kernel meet is whole, ``_radical_within`` takes the radical of
    the kernel pair itself; the skipped route, through the sub-algebra
    copy, gives the same elements and ``normal`` flag."""
    R = reflector_by_id(rid)
    for f in _corpus_surjections(_applicable(R, corpus_by_id(cid))):
        rcube, _, _ = _kernel_pair_cube(cube_of_morphism(f))
        P, S = rcube.top_vertex, rib_kernel_meet(rcube)
        assert S.is_whole()
        sub, incl = sub_algebra(P, S)
        copy = _derived_subobject(P, image_elements(incl, radical(R, sub)))
        got = _radical_within(R, P, S)
        assert (got.parent, got.elements, got.normal) == (P, copy.elements, copy.normal), (rid, f)


def test_three_fold_normality_routes_agree():
    """On 3-fold extensions glued from the thm-4.6 squares, along every
    axis: ``is_nfold_normal`` raises if the criterion and the
    derived-reflection route disagree."""
    verdicts = []
    for rid, cid in THM_4_6:
        R, squares = thm_4_6_squares(rid, cid)
        verdicts += [is_nfold_normal(R, c) for sq in squares for c in glued_cubes(sq)]
    assert verdicts.count(True) >= 200 and verdicts.count(False) >= 200


def test_cube_torsion_meet_on_doubled_square():
    f = _ring_mod(8, 2)
    sq = square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))
    meet = cube_torsion_meet(RED, sq)
    # torsion part of K[f] = nilpotents inside {0,2,4,6}
    assert meet <= kernel(f)


def test_nfold_factorize_splits_into_trivial_over_normal():
    f = _ring_mod(12, 2)
    c = cube_of_morphism(f)
    upper, lower = nfold_factorize(RED, c)
    assert upper.dim == c.dim and lower.dim == c.dim
    # the lower part is a normal extension and composes back to f
    assert compose(lower.edge(0, 0), upper.edge(0, 0)) == f
    assert is_nfold_normal(RED, lower)


def test_nfold_factorize_on_double_extensions():
    squares = [sq for sq in _derived_squares(corpus_by_id("rings"), 0, 400)
               if is_nfold_extension(sq)]
    with_torsion = [sq for sq in squares if cube_torsion_meet(RED, sq).size > 1]
    torsion_free = [sq for sq in squares if cube_torsion_meet(RED, sq).size == 1]
    assert len(with_torsion) >= 4 and torsion_free
    for sq in with_torsion[:4] + torsion_free[:1]:
        e_cube, m_cube = nfold_factorize(RED, sq)
        for c in (e_cube, m_cube):
            assert c.dim == 2 and is_nfold_extension(c)
        assert is_nfold_normal(RED, m_cube)
        meet = cube_torsion_meet(RED, sq)
        assert m_cube.top_vertex.order == sq.top_vertex.order // meet.size
        assert e_cube.top_vertex == sq.top_vertex


def test_zerorng_extension_checks():
    zr = reflector_by_id("zerorng")
    bool2 = named_algebra("bool2s")
    prod = named_algebra("bool2xzero2")
    maps = surjections(prod, bool2)
    assert maps
    for f in maps:
        assert is_normal_extension(zr, f) in (True, False)  # total on the corpus
