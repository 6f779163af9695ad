"""Structure checks for the built-in algebra constructors."""

import weakref

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    AlgebraError,
    cyclic_group,
    dihedral_group,
    direct_product,
    gpd_discrete,
    gpd_indiscrete,
    gpd_one_object,
    is_normal_subset,
    module_algebra,
    quaternion_8,
    split_witness_ring,
    subobject,
    symmetric_3,
    trivial_of_variety,
    zero_multiplication_ring,
    zmod_cyclic,
    zmod_free,
    zring,
)
from semiab import algebra, ops
from semiab.algebra import _element_order, closure_under_ops

from isomorphism import find_isomorphism


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_cyclic_group_orders(n):
    g = cyclic_group(n)
    assert g.order == n
    assert _element_order(g.sorts[0], 1 % n) == n if n > 1 else True


def test_dihedral_involution_count():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert sum(1 for x in range(8) if _element_order(d4.sorts[0], x) == 2) == 5


def test_quaternion_structure():
    q8 = quaternion_8()
    assert q8.order == 8
    assert sum(1 for x in range(8) if _element_order(q8.sorts[0], x) == 2) == 1
    # every subgroup of Q8 is normal
    subgroups = set()
    for gens in [{x} for x in range(8)] + [{1, 2}, {1, 4}, {2, 4}]:
        subgroups.add(closure_under_ops(q8, gens))
    for s in subgroups:
        assert is_normal_subset(q8, s)


def test_d3_is_s3():
    assert find_isomorphism(dihedral_group(3), symmetric_3()) is not None


def test_zring_arithmetic():
    z6 = zring(6)
    add, mul = z6.sorts[0].binary
    assert mul[2][3] == 0 and mul[5][5] == 1
    assert add[4][5] == 3


def test_zero_multiplication_ring():
    r = zero_multiplication_ring(5)
    assert all(r.sorts[0].binary[1][i][j] == 0 for i in range(5) for j in range(5))


def test_split_witness_ring_square():
    r = split_witness_ring()
    assert r.kind == "nonassoc-ring"
    assert r.sorts[0].binary[1][3][3] == 2  # the nontrivial idempotent-free square


def test_module_builders():
    m = zmod_cyclic(4, 2)
    assert m.order == 2 and m.variety.modulus == 4
    f = zmod_free(4, 1)
    assert f.order == 4
    assert find_isomorphism(zmod_cyclic(4, 4), f) is not None


def _digit_free_module(m: int, rank: int):
    """The tables of the free Z/m-module built digit by digit, little-endian."""
    def digits(x):
        out = []
        for _ in range(rank):
            x, r = divmod(x, m)
            out.append(r)
        return out

    def pack(ds):
        x = 0
        for v in reversed(ds):
            x = x * m + v
        return x

    elems = [digits(x) for x in range(m ** rank)]
    add = [[pack([(a + b) % m for a, b in zip(ex, ey)]) for ey in elems] for ex in elems]
    act = [[pack([(s * a) % m for a in ex]) for ex in elems] for s in range(m)]
    return add, act


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_free_module_labels_are_little_endian_digits(m, rank):
    free = zmod_free(m, rank)
    add, act = _digit_free_module(m, rank)
    (table,), (_, *scalars) = free.sorts[0].binary, free.sorts[0].unary
    assert [list(row) for row in table] == add
    assert [list(row) for row in scalars] == act
    assert free.name == free.sorts[0].name == f"zmod{m}^({rank})"
    if rank == 0:
        assert free.order == 1


_FREE_SHAPES = [(m, rank) for m in (1, 2, 3, 4, 8) for rank in range(4)] + [(2, 6), (3, 4), (4, 5)]


def _product_route(m: int, rank: int):
    """The free module as ``rank`` direct products of Z/m with the zero module."""
    free, factor = module_algebra(m, [[0]], [[0]] * m), zmod_cyclic(m, m)
    for _ in range(rank):
        free = direct_product(free, factor)[0]
    return free


@pytest.mark.parametrize("m, rank", _FREE_SHAPES)
def test_the_closed_form_free_module_is_the_iterated_product(monkeypatch, m, rank):
    """``zmod_free`` writes the tables down and skips the checks; they
    equal the product route's entry by entry, with its ``gens``, and up
    to order 256 the checked constructor, with the intern emptied so
    that every identity check runs, gives an equal sort."""
    free, product = zmod_free(m, rank), _product_route(m, rank)
    (S,), (P,) = free.sorts, product.sorts
    assert S.binary == P.binary and S.unary == P.unary and S.gens == P.gens
    assert S.gens == (tuple(m ** k for k in reversed(range(rank))) if m > 1 else ())
    assert free == product and hash(free) == hash(product) and hash(S) == hash(P)
    assert free.name == S.name == f"zmod{m}^({rank})"
    assert zmod_free(m, rank, name="F").name == "F"
    if free.order <= 256:
        monkeypatch.setattr(algebra, "_CHECKED", weakref.WeakValueDictionary())
        (add,), (_, *act) = S.binary, S.unary
        assert module_algebra(m, add, act).sorts[0] == S


def test_a_free_module_builds_no_pair_algebra(monkeypatch):
    def refused(*args):
        raise AssertionError("built a pair algebra")

    monkeypatch.setattr(ops, "_build_pairs", refused)
    assert zmod_free(4, 4).order == 256
    with pytest.raises(AssertionError, match="pair algebra"):
        direct_product(zmod_free(4, 1), zmod_free(4, 1))


def test_free_module_arguments_are_checked():
    with pytest.raises(AlgebraError, match="rank must be >= 0"):
        zmod_free(4, -1)
    with pytest.raises(AlgebraError, match="modulus must be >= 1"):
        zmod_free(0, 2)


def test_trivial_of_variety_matches_kind():
    for a in (cyclic_group(5), zring(4), zmod_cyclic(4, 2)):
        t = trivial_of_variety(a.variety)
        assert t.order == 1 and t.variety == a.variety


def test_gpd_shapes():
    c3 = cyclic_group(3)
    disc = gpd_discrete(c3)
    assert [S.order for S in disc.sorts] == [3, 3]
    indisc = gpd_indiscrete(c3)
    assert [S.order for S in indisc.sorts] == [9, 3]
    one = gpd_one_object(cyclic_group(4))
    assert [S.order for S in one.sorts] == [4, 1]


def test_constructor_rejects_bad_sizes():
    with pytest.raises(AlgebraError):
        cyclic_group(0)
    with pytest.raises(AlgebraError):
        zmod_cyclic(4, 3)  # 3 does not divide 4
