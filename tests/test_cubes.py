"""Squares and higher cubes as presentations of n-fold quotient data.

Whether a cube is an extension and whether a square is a pullback are
decided by counting on the edges' arrays (``cubes._limit_comparison``).
The oracles below do the skipped work directly: the walk over the whole
product of the lower vertices, and the materialised pullback with its
mediating map.
"""

from itertools import product

import pytest

from semiab import (
    AlgebraError,
    NCube,
    compose,
    corpus_by_id,
    cube_between,
    cube_of_morphism,
    cyclic_group,
    dihedral_group,
    direct_product,
    identity_morphism,
    induced_on_quotient,
    into_pullback,
    is_isomorphism_map,
    is_nfold_extension,
    is_pullback_square,
    is_pushout_square,
    is_surjective,
    is_trivial_extension,
    join_normal,
    kernel,
    kernel_pair,
    morphism,
    named_algebra,
    pullback,
    quotient,
    reflector_by_id,
    rib_kernel_meet,
    square,
    sub_algebra,
    subobject,
    surjections,
    symmetric_3,
    trivial_of_variety,
    zero_morphism,
)
from semiab import factorisation
from semiab.cubes import _kernel_pair_cube, _limit_comparison
from semiab.factorisation import double_normal_by_galois, unit_square
from semiab.homs import _corpus_surjections
from semiab.verification import _applicable, _derived_squares

from higher_extensions import THM_4_6, glued_cubes, thm_4_6_squares


def _walk_surjective(cube, mask, k):
    """Oracle: every tuple of the product of the vertices one level below
    mask that meets the pairwise equations further down is hit."""
    atoms = [i for i in range(cube.dim) if not mask & (1 << i)]
    maps = {key: f.mapping[k] for key, f in cube.edges.items()}
    hit = {tuple(maps[(mask, i)][x] for i in atoms)
           for x in range(cube.vertex(mask).sorts[k].order)}
    for tup in product(*(range(cube.vertex(mask | (1 << i)).sorts[k].order) for i in atoms)):
        if all(maps[(mask | (1 << i), j)][tup[a]] == maps[(mask | (1 << j), i)][tup[b]]
               for a, i in enumerate(atoms) for b, j in enumerate(atoms) if a < b):
            if tup not in hit:
                return False
    return True


def _onto_every_limit(cube):
    """The definition ``is_nfold_extension`` shortens: ``_limit_comparison``
    at every vertex above the bottom, one free atom or more, sort by sort."""
    return all(_limit_comparison(cube, mask, k)[0] for k in range(len(cube.top_vertex.sorts))
               for mask in range((1 << cube.dim) - 1))


def _comparison(sq):
    """Oracle: the mediating map into the materialised bottom pullback."""
    P, p1, p2 = pullback(sq.edge(1, 1), sq.edge(2, 0))
    return into_pullback(P, p1, p2, sq.rib(0), sq.rib(1))


def _explicit_extension(sq):
    """Oracle: four surjections and a surjective comparison."""
    return all(is_surjective(f) for f in sq.edges.values()) and is_surjective(_comparison(sq))


def _checked(cube):
    """(extension, pullback) of the cube, each checked against the oracles;
    pullback is None above dimension 2."""
    sorts = range(len(cube.top_vertex.sorts))
    masks = range((1 << cube.dim) - 1)
    for k in sorts:
        for mask in masks:
            assert _limit_comparison(cube, mask, k)[0] == _walk_surjective(cube, mask, k)
    extension = is_nfold_extension(cube)
    assert extension == all(_walk_surjective(cube, m, k) for k in sorts for m in masks)
    assert extension == _onto_every_limit(cube)
    if cube.dim != 2:
        return extension, None
    cmp = _comparison(cube)
    for k, (m, D, C) in enumerate(zip(cmp.mapping, cmp.dom.sorts, cmp.cod.sorts)):
        assert _limit_comparison(cube, 0, k) == (len(set(m)) == C.order, len(set(m)) == D.order)
    assert extension == _explicit_extension(cube)
    assert is_pullback_square(cube) == is_isomorphism_map(cmp)
    return extension, is_isomorphism_map(cmp)


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
    assert sq.vertex(3).order == 2  # C8/(K[f] v K[g]) = C8/K[g]


def test_cube_of_morphism_is_one_dim():
    f = _mod_map(4, 2)
    c = cube_of_morphism(f)
    assert c.dim == 1
    assert is_nfold_extension(c)


# ---------------------------------------------------------------------------
# 0-cubes: one object, the base of the chain of higher extensions


def test_zero_cube_is_one_vertex_and_no_edge():
    c2 = cyclic_group(2)
    point = NCube(0, {0: c2}, {})
    assert point.dim == 0 and point.top_vertex == c2 and point.edges == {}
    with pytest.raises(AlgebraError, match="dimension"):
        NCube(-1, {0: c2}, {})
    with pytest.raises(AlgebraError, match="extra edges"):
        NCube(0, {0: c2}, {(0, 0): identity_morphism(c2)})
    with pytest.raises(AlgebraError):
        point.face(0, 0)


def test_faces_of_an_arrow_are_the_zero_cubes_of_its_ends():
    f = _mod_map(8, 4)
    for side, end in ((0, f.dom), (1, f.cod)):
        face = cube_of_morphism(f).face(0, side)
        assert (face.dim, face.top_vertex, face.edges) == (0, end, {})


def test_kernel_pair_cube_of_an_arrow_is_its_kernel_pair():
    f = _mod_map(8, 4)
    rcube, p1, p2 = _kernel_pair_cube(cube_of_morphism(f))
    P, q1, q2 = kernel_pair(f)
    assert (rcube.dim, rcube.top_vertex, rcube.edges) == (0, P, {})
    assert (p1, p2) == (q1, q2)


def test_zero_cube_is_an_extension_with_the_whole_meet():
    for A in (cyclic_group(4), named_algebra("c2xc2"), corpus_by_id("groupoids")[-1]):
        point = NCube(0, {0: A}, {})
        assert rib_kernel_meet(point).is_whole()
        assert is_nfold_extension(point)


def test_one_dim_extension_is_surjectivity():
    j = morphism(cyclic_group(2), cyclic_group(4), [0, 2])
    assert not is_nfold_extension(cube_of_morphism(j))


def test_pushout_square_is_double_extension():
    f = _mod_map(8, 4)
    g = _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    assert is_pushout_square(sq)
    assert is_nfold_extension(sq)
    assert _explicit_extension(sq)


def test_doubled_square_is_double_extension():
    f = _mod_map(4, 2)
    sq = square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))
    assert is_nfold_extension(sq)
    assert _explicit_extension(sq)


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
    assert not _explicit_extension(sq)

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
        extension, _ = _checked(sq)
        assert extension == _explicit_extension(sq)


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


# ---------------------------------------------------------------------------
# the counting route against the oracles


@pytest.mark.parametrize("rid, cid", [
    ("ab", "groups"), ("burnside:2", "zmod4-modules"), ("reduced", "rings"), ("pi0", "groupoids")])
def test_unit_squares_of_corpus_surjections_match_the_oracles(rid, cid):
    """Every unit square is a double extension; is it a pullback (is the
    surjection a trivial extension)?  ``groupoids`` has two sorts."""
    R = reflector_by_id(rid)
    verdicts = set()
    for f in _corpus_surjections(_applicable(R, corpus_by_id(cid))):
        extension, pullback_ = _checked(unit_square(R, f))
        assert extension and is_trivial_extension(R, f) == pullback_
        verdicts.add(pullback_)
    assert verdicts == {True, False}


@pytest.mark.parametrize("rid, cid", [("reduced", "rings"), ("zerorng", "rng-star")])
def test_galois_route_squares_match_the_oracles(monkeypatch, rid, cid):
    """The squares whose pullback test ends ``double_normal_by_galois``,
    on the double extensions that thm-4.6 samples at seed 0."""
    R = reflector_by_id(rid)
    asked = []
    test = factorisation.is_pullback_square

    def recorded(sq):
        asked.append(sq)
        return test(sq)

    monkeypatch.setattr(factorisation, "is_pullback_square", recorded)
    squares = [sq for sq in _derived_squares(_applicable(R, corpus_by_id(cid)), 0, 120)
               if is_nfold_extension(sq)]
    verdicts = [double_normal_by_galois(R, sq) for sq in squares]
    assert len(asked) == len(squares)
    assert [_checked(sq)[1] for sq in asked] == verdicts
    assert set(verdicts) == {True, False}


def test_non_extension_squares_match_the_oracles():
    c8 = cyclic_group(8)
    z = trivial_of_variety(c8.variety)
    f, g = _mod_map(8, 4), _mod_map(8, 2)
    assert _checked(_pushout_square_of(f, g)) == (True, False)
    assert _checked(square(f, g, zero_morphism(f.cod, z), zero_morphism(g.cod, z))) == (False, False)
    # not even the bottom maps are onto
    j = morphism(cyclic_group(2), cyclic_group(4), [0, 2])
    c2 = cyclic_group(2)
    assert _checked(square(identity_morphism(c2), identity_morphism(c2), j, j)) == (False, True)
    assert _checked(square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))) == (True, False)
    i8 = identity_morphism(c8)
    assert _checked(square(i8, f, f, identity_morphism(f.cod))) == (True, True)
    # the squares thm-4.6 draws, collapsed ones among them, against the
    # definition at every vertex
    verdicts = []
    for rid, cid in THM_4_6:
        for sq in _derived_squares(_applicable(reflector_by_id(rid), corpus_by_id(cid)), 0, 120):
            verdicts.append(is_nfold_extension(sq))
            assert verdicts[-1] == _onto_every_limit(sq)
    assert verdicts.count(False) > 0 and verdicts.count(True) > 100


def test_three_cubes_match_the_oracles():
    f, g = _mod_map(8, 4), _mod_map(8, 2)
    sq = _pushout_square_of(f, g)
    assert _checked(cube_between(sq, sq, {m: identity_morphism(sq.vertex(m)) for m in range(4)})) \
        == (True, None)
    # the three projections of C2 x C2 onto C2 over zero: every face is a
    # double extension, but C2 x C2 has 4 elements and the limit 8
    v4 = named_algebra("c2xc2")
    p1, p2, p3 = surjections(v4, cyclic_group(2))
    c2 = p1.cod
    z = trivial_of_variety(c2.variety)
    to_zero, i0 = zero_morphism(c2, z), identity_morphism(z)
    top = square(p1, p2, to_zero, to_zero)
    bottom = square(to_zero, to_zero, i0, i0)
    cube = cube_between(top, bottom, {0: p3, 1: to_zero, 2: to_zero, 3: i0})
    assert all(is_nfold_extension(cube.face(a, s)) for a in range(3) for s in (0, 1))
    assert _checked(cube) == (False, None)
    # every 3-fold extension glued from the thm-4.6 squares
    glued = [c for rid, cid in THM_4_6 for sq in thm_4_6_squares(rid, cid)[1] for c in glued_cubes(sq)]
    assert len(glued) == 1155 and all(map(_onto_every_limit, glued))


def _coordinate_cube(top):
    """The 3-cube of the quotients of X = C2^3 = ``top.cod`` by the
    coordinate axes spanned by each subset of {0, 1, 2}, with ``top``
    mapped into X at the top."""
    X = top.cod
    axes = (4, 2, 1)  # (1,0,0), (0,1,0), (0,0,1) as ((a, b), c) -> 4a + 2b + c
    quotients = {}
    for mask in range(8):
        spanned = {0}
        for i in range(3):
            if mask & (1 << i):
                spanned |= {X.sorts[0].binary[0][x][axes[i]] for x in spanned}
        quotients[mask] = quotient(X, subobject(X, spanned))[1]
    edges = {(mask, i): induced_on_quotient(quotients[mask], quotients[mask | (1 << i)])
             for mask in range(8) for i in range(3) if not mask & (1 << i)}
    edges.update({(0, i): compose(quotients[1 << i], top) for i in range(3)})
    return NCube(3, {m: q.cod for m, q in quotients.items()} | {0: top.dom}, edges)


def test_three_cube_equations_between_later_atoms_cut_the_limit():
    """Over C2^3 the three quotients agree pairwise on one coordinate
    each, and only all three equations together cut the limit down to
    8 tuples: C2^3 itself covers it, its even-weight subgroup does not."""
    c2 = cyclic_group(2)
    X = direct_product(direct_product(c2, c2)[0], c2)[0]
    assert _checked(_coordinate_cube(identity_morphism(X))) == (True, None)
    even = subobject(X, {x for x in range(8) if bin(x).count("1") % 2 == 0})
    assert _checked(_coordinate_cube(sub_algebra(X, even)[1])) == (False, None)
