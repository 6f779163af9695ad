"""The sorts of pair algebras equal what the plain loops build.

``_check_sort`` takes the greedy generating set of a group table coset
by coset (``algebra._coset_generators``), ``generating_set`` does the
same for group and module sorts, and
``ops._pair_table`` builds a table from blocks shared by the rows with
one second component when the pairs' runs are long.  The loops they
replaced are kept here as oracles: the greedy loop over ``_close``,
which multiplies each new element by every closed one, the table
built entry by entry from ``index``, and the pair list of a pullback
by a scan of every pair.
"""

import random
from itertools import groupby
from operator import getitem, itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    Algebra,
    AlgebraError,
    Variety,
    corpus_by_id,
    cyclic_group,
    direct_product,
    generating_set,
    kernel_pair,
    morphism,
    named_algebra,
    pullback,
    sub_algebra,
    surjections,
    zero_morphism,
    zmod_cyclic,
    zring,
)
from semiab import ops
from semiab.algebra import Sort, _check_associative, _close, _generators
from semiab.birkhoff import _presentation_map
from semiab.corpus import corpus_ids


def _greedy_by_close(binary, unary, order):
    """The greedy generating set as ``_generators`` took it before cosets."""
    closed = _close(binary, unary, {0}, [0])
    gens = []
    for x in range(order):
        if x not in closed:
            gens.append(x)
            closed.add(x)
            _close(binary, unary, closed, [x])
    return gens


def _group_gens(op):
    return _generators((op,), (), len(op))


def _relabel(op, rng):
    """The table under a random permutation of the labels that fixes 0."""
    n = len(op)
    p = [0, *rng.sample(range(1, n), n - 1)]
    back = [0] * n
    for x, y in enumerate(p):
        back[y] = x
    return tuple(tuple(p[op[back[x]][back[y]]] for y in range(n)) for x in range(n))


def _every_sort():
    for cid in corpus_ids():
        for A in corpus_by_id(cid):
            for S in A.sorts:
                yield f"{A.name}:{S.order}", S


@pytest.mark.parametrize("S", [S for _, S in _every_sort()], ids=[k for k, _ in _every_sort()])
def test_coset_greedy_set_matches_the_closure_loop_on_every_corpus_sort(S):
    op = S.binary[0]
    assert _group_gens(op) == _greedy_by_close((op,), (), S.order)


RELABELLED = ["s3", "d4", "q8", "d6", "c2xc4", "c12", "z12", "bool2xbool2", "m8-c2xc4",
              "example-2.8.3-ring", "ind-c3", "dis-s3"]


@pytest.mark.parametrize("name", RELABELLED)
def test_coset_greedy_set_matches_the_closure_loop_on_relabellings(name):
    """Non-abelian groups, both sorts of groupoids and the additive groups
    of rings, each under seeded relabellings that fix 0."""
    rng = random.Random(name)
    for S in named_algebra(name).sorts:
        if S.order < 3:
            continue
        for _ in range(5):
            op = _relabel(S.binary[0], rng)
            assert _group_gens(op) == _greedy_by_close((op,), (), S.order)


def _some_surjections(corpus):
    """Up to two surjections onto each smaller member, from each member."""
    for A in corpus:
        for B in corpus:
            if B.order < A.order and B.variety == A.variety:
                yield from surjections(A, B)[:2]


def _pair_sorts():
    """Sorts of kernel pairs, pullbacks and sub-algebras."""
    for cid in ("groups", "rings", "zmod4-modules", "groupoids"):
        for f in _some_surjections(corpus_by_id(cid)):
            yield from kernel_pair(f)[0].sorts
    G = named_algebra("d4")
    for X in ({0, 2}, {0, 1, 2, 3}, {0, 4}):
        yield from sub_algebra(G, ops.normal_closure(G, X))[0].sorts


def test_coset_greedy_set_matches_the_closure_loop_on_derived_sorts():
    sorts = list(_pair_sorts())
    assert len(sorts) > 100
    for S in sorts:
        op = S.binary[0]
        assert _group_gens(op) == _greedy_by_close((op,), (), S.order)


def _every_algebra():
    for cid in corpus_ids():
        yield from corpus_by_id(cid)
    yield direct_product(named_algebra("m8-c2xc4"), zmod_cyclic(8, 8))[0]


def test_generating_set_matches_the_closure_under_every_operation():
    """Group and module sorts go by cosets, rings close under everything.
    A hand-built module sort is rejected unless its ``gens`` generate;
    with the whole carrier as ``gens``, it gets the same set."""
    for A in _every_algebra():
        S = A.sorts[0]
        assert generating_set(A) == _greedy_by_close(S.binary, S.unary, S.order), A.name
    S = named_algebra("m4-c2xc4").sorts[0]
    with pytest.raises(AlgebraError, match="gens do not generate the carrier"):
        Sort(S.variety, S.order, S.binary, S.unary, ())
    hand = Algebra(S.variety, (Sort(S.variety, S.order, S.binary, S.unary, range(S.order)),))
    assert generating_set(hand) == _greedy_by_close(S.binary, S.unary, S.order)


def _put(table, x, y, v):
    rows = [list(row) for row in table]
    rows[x][y] = v
    return tuple(map(tuple, rows))


def _outcome(table, gens):
    try:
        _check_associative(table, "op", gens)
    except AlgebraError as err:
        return str(err)
    return None


@pytest.mark.parametrize("name", ["c6", "s3", "q8", "c2xc4", "d5"])
def test_a_table_that_is_no_group_fails_associativity_at_the_same_place(name):
    """With 0 still neutral, the coset set may differ from the closure
    loop's, but names the same first failure."""
    op = named_algebra(name).sorts[0].binary[0]
    n, rng = len(op), random.Random(name)
    failures = 0
    for _ in range(40):
        bad = _put(op, rng.randrange(1, n), rng.randrange(1, n), rng.randrange(n))
        got = _outcome(bad, _group_gens(bad))
        assert got == _outcome(bad, _greedy_by_close((bad,), (), n))
        failures += got is not None
    assert failures > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_the_coset_set_generates_any_table_under_its_closure(rows):
    """On any square table it stops, and every element lies in the
    closure of its set, as ``_check_associative`` needs."""
    op = tuple(map(tuple, rows))
    gens = _group_gens(op)
    assert gens == sorted(set(gens)) and 0 not in gens
    assert _close((op,), (), {0, *gens}, [0, *gens]) == set(range(len(op)))


# ---------------------------------------------------------------------------
# pair tables


def _pairs_by_scan(fm, gm):
    return [(a, b) for a in range(len(fm)) for b in range(len(gm)) if fm[a] == gm[b]]


def _rows_table(index, firsts, seconds, tA, tB):
    """The table built entry by entry, as ``_pair_table`` did before blocks."""
    rows = []
    for x1, run in groupby(zip(firsts, seconds), key=itemgetter(0)):
        halves = list(map(index.__getitem__, map(tA[x1].__getitem__, firsts)))
        rows.extend(tuple(map(getitem, halves, map(tB[x2].__getitem__, seconds))) for _, x2 in run)
    return rows


@pytest.fixture
def block_builds(monkeypatch):
    """One mark per block cache that ``_pair_table`` makes (one per second component)."""
    made = []

    class Counted(ops._Blocks):
        __slots__ = ()

        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(ops, "_Blocks", Counted)
    return made


def _check_pair_sorts(A, B, maps, P):
    """Every table and unary map of P, the algebra on the pairs that ``maps``
    identify, equals the oracle built from the scanned pair list.  Returns
    whether any sort's pairs number four times their distinct first and
    second components, where ``_pair_table`` builds from blocks."""
    long_runs = False
    for SA, SB, (fm, gm), SP in zip(A.sorts, B.sorts, maps, P.sorts):
        pairs = _pairs_by_scan(fm, gm)
        firsts, seconds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
        assert ops._fibre_pairs(fm, gm) == (firsts, seconds)
        index = [[-1] * SB.order for _ in range(SA.order)]
        for k, (a, b) in enumerate(pairs):
            index[a][b] = k
        for tA, tB, tP in zip(SA.binary, SB.binary, SP.binary):
            assert tP == tuple(_rows_table(index, firsts, seconds, tA, tB))
            assert list(tP) == ops._pair_table(index, firsts, seconds, tA, tB)
        for uA, uB, uP in zip(SA.unary, SB.unary, SP.unary):
            assert uP == tuple(index[uA[a]][uB[b]] for a, b in pairs)
        long_runs |= len(pairs) >= 4 * max(len(set(firsts)), len(set(seconds)))
    return long_runs


def _check_pullback(f, g):
    P = pullback(f, g)[0]
    return _check_pair_sorts(f.dom, g.dom, list(zip(f.mapping, g.mapping)), P)


def _check_product(A, B):
    P = direct_product(A, B)[0]
    return _check_pair_sorts(A, B, [((0,) * SA.order, (0,) * SB.order)
                                    for SA, SB in zip(A.sorts, B.sorts)], P)


def test_product_tables_match_the_row_oracle(block_builds):
    assert not _check_product(cyclic_group(3), cyclic_group(2))
    assert not block_builds
    assert _check_product(named_algebra("s3"), named_algebra("q8"))
    assert _check_product(named_algebra("d4"), cyclic_group(4))
    assert block_builds


def test_a_ring_product_builds_its_multiplication_table_from_blocks(block_builds):
    """Blocks read ``index`` at any binary table, not only a group's."""
    assert _check_product(zring(6), zring(4))
    assert _check_product(named_algebra("bool2xbool2"), named_algebra("example-2.8.3-ring"))
    assert block_builds


def test_kernel_pair_tables_match_the_row_oracle(block_builds):
    injective = morphism(cyclic_group(4), cyclic_group(8), [0, 2, 4, 6])
    assert not _check_pullback(injective, injective)
    assert not block_builds
    G = named_algebra("d8")
    zero = zero_morphism(G, cyclic_group(2))
    assert _check_pullback(zero, zero)
    onto = surjections(G, named_algebra("c2xc2"))[0]
    assert _check_pullback(onto, onto)
    assert block_builds


def test_a_pullback_with_uneven_fibres_matches_the_row_oracle(block_builds):
    """A leg that is not onto: the odd elements of Z/8 have no fibre
    under f, the even ones fibres of four under both legs."""
    Z = cyclic_group(8)
    f = morphism(cyclic_group(16), Z, [2 * x % 8 for x in range(16)])
    g = morphism(cyclic_group(32), Z, [x % 8 for x in range(32)])
    assert _check_pullback(f, g)
    assert _check_pullback(g, f)
    assert block_builds
    h = morphism(cyclic_group(4), Z, [2 * x for x in range(4)])
    assert not _check_pullback(h, g)


def test_groupoid_pair_tables_match_the_row_oracle():
    groupoids = corpus_by_id("groupoids")
    for f in _some_surjections(groupoids):
        _check_pullback(f, f)
    for A in groupoids:
        _check_product(A, A)


def test_the_largest_kernel_pair_of_a_homology_query_matches_the_row_oracle(block_builds):
    """The 2048-pair kernel pair of the rank-2 cover in H2(m8-c2)."""
    p = _presentation_map(named_algebra("m8-c2"), 1)
    assert p.dom.order == 64
    assert _check_pullback(p, p)
    assert kernel_pair(p)[0].order == 2048 and block_builds


def test_a_hand_built_kernel_pair_matches_the_row_oracle():
    """A hand-built Z/8 is rejected when its ``gens`` (the even elements)
    do not generate; with ``gens`` of its own that do, its kernel pair
    onto Z/2 is the one the row oracle builds."""
    V = Variety("group")
    S = cyclic_group(8).sorts[0]
    with pytest.raises(AlgebraError, match="gens do not generate the carrier"):
        Sort(V, 8, S.binary, S.unary, (2, 4, 6))
    A = Algebra(V, (Sort(V, 8, S.binary, S.unary, (3,)),))
    f = morphism(A, cyclic_group(2), [x % 2 for x in range(8)])
    assert _check_pullback(f, f)
