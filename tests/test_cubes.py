"""Squares and higher cubes as presentations of n-fold quotient data."""

import pytest

from semiab import (
    AlgebraError,
    NCube,
    compose,
    cube_between,
    cube_of_morphism,
    cyclic_group,
    dihedral_group,
    identity_morphism,
    is_nfold_extension,
    is_pushout_square,
    join_normal,
    kernel,
    morphism,
    quotient,
    rib_kernel_meet,
    square,
    surjections,
    symmetric_3,
    trivial_of_variety,
    zero_morphism,
)
from semiab.cubes import square_comparison, square_extension_explicit


def _mod_map(m, n):
    return morphism(cyclic_group(m), cyclic_group(n), [x % n for x in range(m)])


def _pushout_square_of(f, g):
    A = f.dom
    joined = join_normal(A, kernel(f), kernel(g))
    _, q = quotient(A, joined)
    from semiab import induced_on_quotient

    bottom1 = induced_on_quotient(f, q)
    bottom2 = induced_on_quotient(g, q)
    return square(f, g, bottom1, bottom2)


def test_square_edges_layout():
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    assert sq.dim == 2
    assert sq.edge(0, 0) == f  # top vertex is mask 0
    assert sq.edge(0, 1) == g
    assert sq.top_vertex == f.dom
    assert sq.bottom_vertex.order == 2  # C8/(K[f] v K[g]) = C8/K[g]


def test_cube_of_morphism_is_one_dim():
    f = _mod_map(4, 2)
    c = cube_of_morphism(f)
    assert c.dim == 1
    assert is_nfold_extension(c)


def test_one_dim_extension_is_surjectivity():
    j = morphism(cyclic_group(2), cyclic_group(4), [0, 2])
    assert not is_nfold_extension(cube_of_morphism(j))


def test_pushout_square_is_double_extension():
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    assert is_pushout_square(sq)
    assert is_nfold_extension(sq)
    assert square_extension_explicit(sq)


def test_doubled_square_is_double_extension():
    f = _mod_map(4, 2)
    sq = square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))
    assert is_nfold_extension(sq)
    assert square_extension_explicit(sq)


def test_zero_bottom_square_needs_kernels_to_join_to_whole():
    c8 = cyclic_group(8)
    z = trivial_of_variety(c8.variety)
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    tf = zero_morphism(f.cod, z)
    tg = zero_morphism(g.cod, z)
    sq = square(f, g, tf, tg)
    # K[f] v K[g] = K[g] is proper, so the comparison to the pullback misses pairs
    assert not is_nfold_extension(sq)
    assert not square_extension_explicit(sq)

    # with complementary kernels the skew square is a double extension
    s3, c2 = symmetric_3(), cyclic_group(2)
    (p,) = surjections(s3, c2)
    zer = trivial_of_variety(s3.variety)
    sq2 = square(p, zero_morphism(s3, zer), zero_morphism(c2, zer), identity_morphism(zer))
    assert is_nfold_extension(sq2)


def test_explicit_square_check_agrees_with_general_criterion():
    c8 = cyclic_group(8)
    cases = []
    for f in surjections(c8, cyclic_group(4)):
        for g in surjections(c8, cyclic_group(2)):
            cases.append(_pushout_square_of(f, g))
    f = _mod_map(8, 2)
    z = trivial_of_variety(c8.variety)
    cases.append(square(f, f, zero_morphism(f.cod, z), zero_morphism(f.cod, z)))
    for sq in cases:
        assert is_nfold_extension(sq) == square_extension_explicit(sq)


def test_rib_kernel_meet_on_doubled_square():
    f = _mod_map(8, 2)
    sq = square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))
    meet = rib_kernel_meet(sq)
    assert meet.elements == kernel(f).elements


def test_rib_kernel_meet_on_pushout_square():
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    meet = rib_kernel_meet(sq)
    assert meet.elements == (kernel(f).elements[0] & kernel(g).elements[0],)


def test_cube_between_identity_components_preserves_extension():
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    comps = {mask: identity_morphism(sq.vertex(mask)) for mask in range(4)}
    cube3 = cube_between(sq, sq, comps)
    assert cube3.dim == 3
    assert is_nfold_extension(cube3) == is_nfold_extension(sq)


def test_cube_between_rejects_non_commuting_components():
    f = _mod_map(4, 2)
    sq = square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))
    comps = {mask: identity_morphism(sq.vertex(mask)) for mask in range(4)}
    comps[0] = zero_morphism(f.dom, f.dom)  # f . 0 != id . f
    with pytest.raises(AlgebraError):
        cube_between(sq, sq, comps)


def test_ncube_validates_commutation():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f = _mod_map(4, 2)
    twist = morphism(c2, c2, [0, 1])
    bad_bottom = morphism(c2, c2, [0, 0])
    with pytest.raises(AlgebraError):
        square(f, f, twist, bad_bottom)


def test_face_extraction():
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    comps = {mask: identity_morphism(sq.vertex(mask)) for mask in range(4)}
    cube3 = cube_between(sq, sq, comps)
    top = cube3.face(2, 1)
    assert top.dim == 2
    assert top.vertex(3) == sq.vertex(3)
