"""Table validation, subobjects, and morphism plumbing."""

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    AlgebraError,
    Morphism,
    compose,
    closure_under_ops,
    cyclic_group,
    dihedral_group,
    group_algebra,
    gpd_algebra,
    identity_morphism,
    is_injective,
    is_isomorphism_map,
    is_surjective,
    module_algebra,
    morphism,
    quaternion_8,
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
        group_algebra(c3.op, inv=(0, 1, 2))


def test_comm_ring_rejects_noncommutative_mul():
    add = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    mul = [[0, 1], [0, 1]]  # 0.1 = 1 but 1.0 = 0
    with pytest.raises(AlgebraError):
        ring_algebra("comm-ring", add, mul)


def test_rng_star_identity_enforced():
    # Z/3 fails xyxy = xy (1.1 = 1, then 1.1 = 1 but x=2: 2.2=1, 1.2=2 != 1)
    z3 = zring(3)
    with pytest.raises(AlgebraError):
        ring_algebra("rng-star", z3.add, z3.mul)


def test_module_scalar_action_validated():
    c2 = cyclic_group(2)
    act = [[0, 0], [0, 1], [0, 1]]  # 2.x should be 0 over Z/2+Z/2? modulus 2 has rows 0..1
    with pytest.raises(AlgebraError):
        module_algebra(2, c2.op, act)


def test_subobject_must_contain_constant_and_close():
    c4 = cyclic_group(4)
    with pytest.raises(AlgebraError):
        subobject(c4, {1, 3})
    with pytest.raises(AlgebraError):
        subobject(c4, {0, 1})  # 1+1 = 2 escapes


def test_normality_certificate():
    s3 = symmetric_3()
    rotations = closure_under_ops(s3, {3})  # a 3-cycle generates the even part
    assert len(rotations) == 3
    assert subobject(s3, rotations).normal
    reflection = closure_under_ops(s3, {1})
    assert len(reflection) == 2
    assert not subobject(s3, reflection).normal


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
    assert compose(g, f).mapping == tuple(x % 2 for x in range(8))
    assert compose(f, identity_morphism(c8)) == f
    assert zero_morphism(c8, c2).mapping == (0,) * 8


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
    assert G.is_gpd and G.g1.order == 2
    with pytest.raises(AlgebraError):
        gpd_algebra(c2, one, d=(0, 1), c=(0, 0), i=(0,))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=7), max_size=4))
def test_closure_under_ops_is_closed_and_monotone(seed):
    d4 = dihedral_group(4)
    closed = closure_under_ops(d4, seed | {0})
    assert seed | {0} <= closed
    assert closure_under_ops(d4, closed) == closed
    sub = subobject(d4, closed)  # must not raise: closed sets are subobjects
    assert sub.size == len(closed)
