"""Table validation, subobjects, and morphism plumbing."""

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    AlgebraError,
    Morphism,
    Subobject,
    compose,
    closure_under_ops,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    gpd_discrete,
    group_algebra,
    gpd_algebra,
    identity_morphism,
    is_injective,
    is_isomorphism_map,
    is_surjective,
    module_algebra,
    morphism,
    normal_closure,
    quaternion_8,
    quotient,
    ring_algebra,
    sub_algebra,
    subobject,
    symmetric_3,
    zero_morphism,
    zring,
)


def test_group_table_must_be_associative():
    # constant 0 is an identity for this table but (1.1).2 != 1.(1.2)
    op = [[0, 1, 2], [1, 2, 1], [2, 0, 0]]
    with pytest.raises(AlgebraError):
        group_algebra(op)


def test_group_table_must_have_inverses_matching():
    c3 = cyclic_group(3)
    with pytest.raises(AlgebraError):
        group_algebra(c3.sorts[0].binary[0], inv=(0, 1, 2))


def test_comm_ring_rejects_noncommutative_mul():
    add = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    mul = [[0, 1], [0, 1]]  # 0.1 = 1 but 1.0 = 0
    with pytest.raises(AlgebraError):
        ring_algebra("comm-ring", add, mul)


def test_rng_star_identity_enforced():
    # Z/3 fails xyxy = xy (1.1 = 1, then 1.1 = 1 but x=2: 2.2=1, 1.2=2 != 1)
    z3 = zring(3)
    with pytest.raises(AlgebraError):
        ring_algebra("rng-star", *z3.sorts[0].binary)


def test_module_scalar_action_validated():
    c2 = cyclic_group(2)
    act = [[0, 0], [0, 1], [0, 1]]  # 2.x should be 0 over Z/2+Z/2? modulus 2 has rows 0..1
    with pytest.raises(AlgebraError):
        module_algebra(2, c2.sorts[0].binary[0], act)
    with pytest.raises(AlgebraError):  # Z/0 is rejected before any table is read
        module_algebra(0, [[0]], [])


def test_the_only_z1_module_is_zero():
    assert module_algebra(1, [[0]], [[0]]).order == 1
    with pytest.raises(AlgebraError):  # 1 = 0 in Z/1, so 1x = x forces x = 0
        module_algebra(1, [[0, 1], [1, 0]], [[0, 0]])


def test_subobject_must_contain_constant_and_close():
    c4 = cyclic_group(4)
    with pytest.raises(AlgebraError):
        subobject(c4, {1, 3})
    with pytest.raises(AlgebraError):
        subobject(c4, {0, 1})  # 1+1 = 2 escapes


@pytest.mark.parametrize("order,elements", [
    (4, {0, 99}),    # past the carrier: an IndexError in the closure test
    (4, {0, 2.0}),   # not an index: a TypeError there
    (1, {0, -1}),    # wraps round to 0 and was accepted, with size 2
    (2, {0, True}),  # equal to {0, 1}, which is closed, and was accepted
    (3, {0, "1"}),
], ids=["past-order", "float", "negative-on-trivial", "bool", "str"])
def test_subobject_rejects_entries_outside_the_carrier(order, elements):
    with pytest.raises(AlgebraError, match=f"subobject entries must be indices below {order}"):
        subobject(cyclic_group(order), elements)


def test_subobject_checks_each_sort_of_a_groupoid():
    G = gpd_discrete(cyclic_group(2))
    assert subobject(G, {0, 1}, {0, 1}).size == 2
    with pytest.raises(AlgebraError, match="subobject entries must be indices below 2"):
        subobject(G, {0, 1}, {0, 2})


def test_normality_certificate():
    s3 = symmetric_3()
    rotations = closure_under_ops(s3, {3})  # a 3-cycle generates the even part
    assert len(rotations) == 3
    assert subobject(s3, rotations).normal
    reflection = closure_under_ops(s3, {1})
    assert len(reflection) == 2
    assert not subobject(s3, reflection).normal


def test_subobject_computes_its_own_normality():
    s3 = symmetric_3()
    reflection = Subobject(s3, (frozenset({0, 1}),))
    assert reflection.normal is False
    with pytest.raises(AlgebraError, match="can only quotient by a normal subobject"):
        quotient(s3, reflection)
    with pytest.raises(TypeError):
        Subobject(s3, (frozenset({0, 1}),), True)  # the flag is computed


def test_subobject_converts_element_sets():
    s3 = symmetric_3()
    zero = Subobject(s3, ([0],))
    assert zero.elements == (frozenset({0}),)
    assert all(type(X) is frozenset for X in zero.elements)
    assert zero.normal and zero == subobject(s3, {0})


def test_sub_algebra_inclusion_is_injective_morphism():
    q8 = quaternion_8()
    center = subobject(q8, closure_under_ops(q8, {1}))
    sub, incl = sub_algebra(q8, center)
    assert sub.order == center.size
    assert is_injective(incl) and not is_surjective(incl)


def test_morphism_tables_checked():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(AlgebraError):
        morphism(c4, c2, [0, 1, 1, 0])  # not additive
    f = morphism(c4, c2, [0, 1, 0, 1])
    assert is_surjective(f)


def test_compose_and_identity():
    c8, c4, c2 = cyclic_group(8), cyclic_group(4), cyclic_group(2)
    f = morphism(c8, c4, [x % 4 for x in range(8)])
    g = morphism(c4, c2, [x % 2 for x in range(4)])
    assert compose(g, f).mapping == (tuple(x % 2 for x in range(8)),)
    assert compose(f, identity_morphism(c8)) == f
    assert zero_morphism(c8, c2).mapping == ((0,) * 8,)


def test_isomorphism_map_detection():
    c4 = cyclic_group(4)
    assert is_isomorphism_map(morphism(c4, c4, [0, 3, 2, 1]))
    assert not is_isomorphism_map(morphism(c4, c4, [0, 2, 0, 2]))


def test_algebra_equality_ignores_name():
    other = cyclic_group(6, name="other")
    assert other.name != cyclic_group(6).name
    assert cyclic_group(6) == other
    assert cyclic_group(6) != cyclic_group(3)


def test_gpd_construction_and_validation():
    c2 = cyclic_group(2)
    one = group_algebra([[0]])
    # one object, arrow group C2
    G = gpd_algebra(c2, one, d=(0, 0), c=(0, 0), i=(0,))
    assert G.kind == "gpd-in-group" and [S.order for S in G.sorts] == [2, 1]
    with pytest.raises(AlgebraError):
        gpd_algebra(c2, one, d=(0, 1), c=(0, 0), i=(0,))
    # one object again, but Ker d = Ker c = S3 is not abelian
    with pytest.raises(AlgebraError):
        gpd_algebra(symmetric_3(), one, d=(0,) * 6, c=(0,) * 6, i=(0,))


@pytest.mark.parametrize("build", [
    lambda G: morphism(G, G, [0, 0]),
    lambda G: subobject(G, {0}),
    lambda G: normal_closure(G, {0}),
    lambda G: morphism(G, G, (0, 1), (0, 1), (0, 1)),
    lambda G: subobject(G, {0}, {0}, {0}),
], ids=["morphism-1", "subobject-1", "normal-closure-1", "morphism-3", "subobject-3"])
def test_parts_must_match_the_sorts(build):
    """A groupoid has two sorts: one array or element set per sort, no fewer or more."""
    G = gpd_discrete(cyclic_group(2))
    with pytest.raises(AlgebraError, match=r"per sort of <Algebra dis\(c2\) order=2> \(2\)"):
        build(G)
    with pytest.raises(AlgebraError, match=r"per sort of <Algebra c2 order=2> \(1\), got 2"):
        morphism(cyclic_group(2), cyclic_group(2), [0, 1], [0, 1])


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=7), max_size=4))
def test_closure_under_ops_is_closed_and_monotone(seed):
    d4 = dihedral_group(4)
    closed = closure_under_ops(d4, seed | {0})
    assert seed | {0} <= closed
    assert closure_under_ops(d4, closed) == closed
    sub = subobject(d4, closed)  # must not raise: closed sets are subobjects
    assert sub.size == len(closed)


def _accepts(build, *args) -> bool:
    try:
        build(*args)
    except AlgebraError:
        return False
    return True


def _interchange_holds(G1, d, c, i) -> bool:
    """Groupoid axioms of the composite h.i(c(g))^-1.g, on all composable pairs."""
    (op,), (inv,) = G1.sorts[0].binary, G1.sorts[0].unary

    def comp(g, h):
        return op[op[h][inv[i[c[g]]]]][g]

    pairs = [(g, h) for g in range(G1.order) for h in range(G1.order) if c[g] == d[h]]
    if any(d[comp(g, h)] != d[g] or c[comp(g, h)] != c[h] for g, h in pairs):
        return False
    if any(comp(g, i[c[g]]) != g or comp(i[d[g]], g) != g for g in range(G1.order)):
        return False
    return all(comp(op[g][g2], op[h][h2]) == op[comp(g, h)][comp(g2, h2)]
               for g, h in pairs for g2, h2 in pairs)


def test_gpd_check_matches_the_interchange_oracle():
    c2 = cyclic_group(2)
    # over c2, d4 and d6 give graphs where Ker c and Ker d do not commute
    # although Ker c ∩ Ker d commutes with Ker d
    arrows = [cyclic_group(1), c2, cyclic_group(3), cyclic_group(4), symmetric_3(),
              direct_product(c2, c2)[0], dihedral_group(4), dihedral_group(6)]
    objects = [cyclic_group(1), c2, cyclic_group(3), symmetric_3()]
    verdicts = []
    for G1 in arrows:
        for G0 in objects:
            down = [f.mapping[0] for f in enumerate_homs(G1, G0)]
            for i in (f.mapping[0] for f in enumerate_homs(G0, G1)):
                for d in down:
                    for c in down:
                        if any(d[i[x]] != x or c[i[x]] != x for x in range(G0.order)):
                            continue
                        accepted = _accepts(gpd_algebra, G1, G0, d, c, i)
                        assert accepted == _interchange_holds(G1, d, c, i), (G1, G0, d, c, i)
                        verdicts.append(accepted)
    assert True in verdicts and False in verdicts


_SMALL_GROUPS = [cyclic_group(n) for n in range(2, 7)] + [
    direct_product(cyclic_group(2), cyclic_group(2))[0], symmetric_3()]


@st.composite
def _near_tables(draw, abelian: bool):
    """(add, mul): a small group table relabelled with 0 fixed, and a table
    with a few random entries changed.

    For groups, ``mul`` starts as ``add`` and 0 stays neutral.  For
    rings (``abelian``), ``mul`` starts as a multiple of the cyclic
    product, or as zero, and ``add`` stays an abelian group.
    """
    pool = _SMALL_GROUPS[:-1] if abelian else _SMALL_GROUPS
    G = draw(st.sampled_from(pool))
    n = G.order
    perm = [0] + draw(st.permutations(range(1, n)))
    add = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            add[perm[x]][perm[y]] = perm[G.sorts[0].binary[0][x][y]]
    if abelian:
        k = draw(st.integers(0, n - 1)) if G == cyclic_group(n) else 0
        mul = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                mul[perm[x]][perm[y]] = perm[k * x * y % n]
        low = 0
    else:
        mul = [row[:] for row in add]
        low = 1  # keep 0 neutral
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(low, n - 1)), draw(st.integers(low, n - 1))
        mul[x][y] = draw(st.integers(0, n - 1))
    return add, mul


def _is_group_table(op) -> bool:
    n = len(op)
    inverses = all(any(op[x][y] == 0 == op[y][x] for y in range(n)) for x in range(n))
    return inverses and all(op[op[x][y]][z] == op[x][op[y][z]]
                            for x in range(n) for y in range(n) for z in range(n))


def _is_bilinear(add, mul) -> bool:
    n = len(add)
    return all(mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
               and mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


@settings(max_examples=300, deadline=None)
@given(_near_tables(abelian=False))
def test_group_check_matches_the_triple_loop(tables):
    _, op = tables
    assert _accepts(group_algebra, op) == _is_group_table(op)


@settings(max_examples=300, deadline=None)
@given(_near_tables(abelian=True))
def test_bilinearity_check_matches_all_elements(tables):
    add, mul = tables
    assert _accepts(ring_algebra, "nonassoc-ring", add, mul) == _is_bilinear(add, mul)


@st.composite
def _bilinear_tables(draw, symmetric: bool):
    """(add, mul) on F2^d, d = 1..3, relabelled with 0 fixed.

    ``add`` is XOR and ``mul`` extends random products of basis vectors
    bilinearly, so it is always distributive and often not associative;
    with ``symmetric`` it is commutative too.
    """
    d = draw(st.integers(1, 3))
    n = 1 << d
    const = [[draw(st.integers(0, n - 1)) for _ in range(d)] for _ in range(d)]
    if symmetric:
        const = [[const[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]

    def prod(x, y):
        v = 0
        for i in range(d):
            for j in range(d):
                if x >> i & 1 and y >> j & 1:
                    v ^= const[i][j]
        return v

    perm = [0] + draw(st.permutations(range(1, n)))
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            add[perm[x]][perm[y]] = perm[x ^ y]
            mul[perm[x]][perm[y]] = perm[prod(x, y)]
    return add, mul


def _is_ring(kind, add, mul) -> bool:
    n = len(add)
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    ok = _is_group_table(add) and _is_bilinear(add, mul)
    ok = ok and all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for x, y, z in triples)
    if kind == "comm-ring":
        return ok and all(mul[x][y] == mul[y][x] for x in range(n) for y in range(n))
    return ok and all(mul[mul[mul[x][y]][x]][y] == mul[x][y] for x in range(n) for y in range(n))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["comm-ring", "rng-star"]), st.data())
def test_ring_verdicts_match_the_triple_loop(kind, data):
    add, mul = data.draw(_bilinear_tables(symmetric=kind == "comm-ring"))
    assert _accepts(ring_algebra, kind, add, mul) == _is_ring(kind, add, mul)
