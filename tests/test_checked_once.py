"""Each distinct table and map is checked once while an equal sort is alive.

``algebra._CHECKED`` interns the sorts that passed every identity check,
and each sort remembers the (codomain, array) pairs that passed the
homomorphism scan.  These tests pin down that neither record changes a
verdict, that the derived constructions pass the checks when these are
called directly, past both records, and that the homomorphism test on
generator rows (``_scan``) agrees with the test at every pair
(``_full_scan``), which the direct checks use.
"""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    AlgebraError,
    Morphism,
    corpus_by_id,
    cyclic_group,
    direct_product,
    enumerate_homs,
    group_algebra,
    kernel_pair,
    module_algebra,
    morphism,
    normal_subobjects,
    pullback,
    quotient,
    sub_algebra,
)
from semiab import algebra
from semiab.algebra import (
    _MAP_ENDS,
    _check_sort,
    _close,
    _full_scan,
    _respects_structure,
    _scan,
)
from semiab.corpus import corpus_ids


def _cyclic_table(n: int):
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def test_bool_table_entries_are_rejected():
    with pytest.raises(AlgebraError, match="entries must be indices"):
        group_algebra([[False, True], [True, False]])
    with pytest.raises(AlgebraError, match="entries must be indices"):
        morphism(cyclic_group(2), cyclic_group(2), [False, True])


def test_a_morphism_given_lists_stores_tuples():
    A = cyclic_group(2)
    f = Morphism(A, A, ([0, 1],))
    assert f.mapping == ((0, 1),) and type(f.mapping[0]) is tuple
    assert f == Morphism(A, A, ((0, 1),))
    assert hash(f) == hash(Morphism(A, A, ((0, 1),)))


def test_each_morphism_is_validated_once(monkeypatch):
    calls = []
    validate = algebra.validate_morphism
    monkeypatch.setattr(algebra, "validate_morphism", lambda f: calls.append(f) or validate(f))
    A = cyclic_group(4)
    Morphism(A, A, ([0, 3, 2, 1],))
    assert len(calls) == 1


def test_a_bad_table_fails_the_same_way_every_time():
    op = [[0, 1, 2], [1, 2, 1], [2, 0, 0]]
    errors = []
    for _ in range(2):
        with pytest.raises(AlgebraError) as err:
            group_algebra(op)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_a_non_hom_array_fails_every_time_and_is_not_recorded():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="does not preserve"):
            morphism(c4, c2, [0, 1, 1, 0])
    assert (0, 1, 1, 0) not in algebra._passed(c4.sorts[0]).get(c2.sorts[0], ())
    assert algebra._violation(c4.sorts[0], c2.sorts[0], (0, 1, 1, 0)) is not None


def test_a_table_one_entry_off_a_live_group_is_checked_and_rejected():
    live = group_algebra(_cyclic_table(6))
    op = [list(row) for row in live.sorts[0].binary[0]]
    op[2][3] = 1
    with pytest.raises(AlgebraError):
        group_algebra(op)


def test_an_action_one_entry_off_a_live_module_is_checked_and_rejected():
    add = _cyclic_table(4)
    act = [[(s * x) % 4 for x in range(4)] for s in range(4)]
    live = module_algebra(4, add, act)
    act[2] = [0, 2, 2, 2]
    with pytest.raises(AlgebraError):
        module_algebra(4, add, act)
    assert live.sorts[0].unary[1:] == tuple(tuple((s * x) % 4 for x in range(4)) for s in range(4))


def test_an_array_that_passed_into_one_codomain_is_checked_into_another():
    c4 = cyclic_group(4)
    v4 = group_algebra([[x ^ y for y in range(4)] for x in range(4)])
    Morphism(c4, c4, ((0, 1, 2, 3),))
    with pytest.raises(AlgebraError, match="does not preserve"):
        Morphism(c4, v4, ((0, 1, 2, 3),))


def test_equal_derived_sorts_are_one_object():
    c3, c5 = cyclic_group(3), cyclic_group(5)
    (P1, p1, _), (P2, p2, _) = direct_product(c3, c5), direct_product(c3, c5)
    assert P1.sorts[0] is P2.sorts[0]
    (K1, _, _), (K2, _, _) = kernel_pair(p1), kernel_pair(p2)
    assert K1.sorts[0] is K2.sorts[0]


def test_a_renamed_sort_shares_the_tables_and_keeps_its_name():
    a = group_algebra(_cyclic_table(7), name="a")
    b = group_algebra(_cyclic_table(7), name="b")
    Sa, Sb = a.sorts[0], b.sorts[0]
    assert Sa is not Sb and Sa == Sb
    assert Sb.binary is Sa.binary and Sb.unary is Sa.unary
    assert (Sa.name, Sb.name, b.name) == ("a", "b", "b")
    # equal content, so the passing arrays of one hold for the other
    assert algebra._passed(Sb) is algebra._passed(Sa)


def test_the_intern_holds_a_sort_only_while_it_is_alive():
    A = group_algebra(_cyclic_table(41))
    S = A.sorts[0]
    key = (S.variety, S.order, S.binary, S.unary)
    assert algebra._CHECKED.get(key) is S
    del A, S
    gc.collect()
    assert key not in algebra._CHECKED


# ---------------------------------------------------------------------------
# the homomorphism test on generators


def _corpus_algebras():
    return [A for cid in corpus_ids() for A in corpus_by_id(cid)]


def test_the_generator_test_agrees_with_the_pairwise_scan():
    """On every corpus hom with |A|.|B| <= 600, and on three random
    one-entry mutations of each, ``_scan`` (generator rows only) and
    ``_full_scan`` (every pair) give the same verdict and message."""
    rng = random.Random(2008)
    algebras = _corpus_algebras()
    verdicts = {"pass": 0, "fail": 0}
    for A in algebras:
        for B in algebras:
            if A.variety != B.variety or A.order * B.order > 600:
                continue
            for f in enumerate_homs(A, B):
                for D, C, m in zip(A.sorts, B.sorts, f.mapping):
                    arrays = [m]
                    for _ in range(3):
                        x = rng.randrange(D.order)
                        arrays.append(m[:x] + (rng.randrange(C.order),) + m[x + 1:])
                    for a in arrays:
                        bad = _scan(D, C, a)
                        assert bad == _full_scan(D, C, a), (A, B, a)
                        verdicts["pass" if bad is None else "fail"] += 1
    assert verdicts["pass"] > 5000 and verdicts["fail"] > 5000, verdicts


def test_the_stored_generating_set_generates_the_carrier():
    for A in _corpus_algebras() + [direct_product(cyclic_group(4), cyclic_group(6))[0]]:
        for S in A.sorts:
            closed = _close((S.binary[0],), (), {0, *S.gens}, [0, *S.gens])
            assert closed == set(range(S.order)), (A, S.gens)
    a = group_algebra(_cyclic_table(10), name="a")
    b = group_algebra(_cyclic_table(10), name="b")
    assert b.sorts[0].gens is a.sorts[0].gens == (1,)


# ---------------------------------------------------------------------------
# derived constructions pass the checks called directly; the pairwise
# scan keeps these independent of the generator test


def _assert_checked_algebra(A) -> None:
    for S in A.sorts:
        _check_sort(S.variety, S.binary, S.unary, "derived sort")
    for m, (s, t) in zip(A.maps, _MAP_ENDS):
        assert _full_scan(A.sorts[s], A.sorts[t], m) is None


def _assert_checked_morphism(f) -> None:
    for D, C, m in zip(f.dom.sorts, f.cod.sorts, f.mapping):
        assert _full_scan(D, C, m) is None
    assert _respects_structure(f.dom, f.cod, f.mapping)


_SMALL = [A for cid in ("groups", "rings", "nonassoc-rings", "rng-star",
                        "zmod4-modules", "zmod8-modules", "groupoids")
          for A in corpus_by_id(cid) if A.order <= 12]


@st.composite
def _corpus_pairs(draw):
    A = draw(st.sampled_from(_SMALL))
    B = draw(st.sampled_from([X for X in _SMALL if X.variety == A.variety
                              and A.order * X.order <= 48]))
    return A, B


@settings(max_examples=25, deadline=None)
@given(_corpus_pairs(), st.data())
def test_derived_constructions_pass_the_direct_checks(pair, data):
    A, B = pair
    N = data.draw(st.sampled_from(normal_subobjects(A)))
    Q, q = quotient(A, N)
    S, incl = sub_algebra(A, N)
    P, p1, p2 = direct_product(A, B)
    for X in (Q, S, P):
        _assert_checked_algebra(X)
    for f in (q, incl, p1, p2):
        _assert_checked_morphism(f)
    f = data.draw(st.sampled_from(enumerate_homs(A, Q)))
    g = data.draw(st.sampled_from(enumerate_homs(B, Q)))
    for X, u, v in (pullback(f, g), kernel_pair(f)):
        _assert_checked_algebra(X)
        _assert_checked_morphism(u)
        _assert_checked_morphism(v)
