"""Each distinct table is checked once, and derived tables and maps not at all.

``algebra._CHECKED`` interns the sorts that passed every identity check
or were derived from such sorts; homomorphism verdicts are not
remembered per sort, so every array is scanned each time it is tested.
These tests pin down that the intern changes no verdict and that no
sort grows a record of its own, that the derived constructions and the
identity and zero maps pass every check they skip when it is called
directly, past the intern, that they really skip it, that the homomorphism test on
generator rows (``_passes``, and ``_scan`` with its message), which
reads no unary map, agrees with the test at every pair and every unary
map (``_full_scan``), which the direct checks use, that the maps hom
enumeration finds and the maps
induced through quotients, built without ``validate_morphism``, pass
the direct checks, that normality tested on generators agrees with the
test over the carrier, and that a ``Sort`` or an ``Algebra`` made
directly is checked when it is made.
"""

import copy
import gc
import importlib.util
import random
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    Algebra,
    AlgebraError,
    Morphism,
    Variety,
    algebra_from_doc,
    compose,
    corpus_by_id,
    cyclic_group,
    direct_product,
    enumerate_homs,
    full_subobject,
    gpd_algebra,
    gpd_indiscrete,
    group_algebra,
    identity_morphism,
    image,
    induced_on_quotient,
    is_normal_subset,
    join_normal,
    kernel,
    kernel_pair,
    map_reflect,
    meet_subobjects,
    module_algebra,
    morphism,
    named_algebra,
    normal_closure,
    preimage_subobject,
    pullback,
    quotient,
    reflect,
    reflector_by_id,
    sub_algebra,
    subobject,
    surjections,
    symmetric_3,
    trivial_of_variety,
    zero_morphism,
    zero_subobject,
    zmod_cyclic,
    zmod_free,
    zring,
)
from semiab import algebra, homs
from semiab.algebra import (
    _MAP_ENDS,
    Sort,
    _check_sort,
    _check_structure,
    _close,
    _closed_subset,
    _full_scan,
    _passes,
    _respects_structure,
    _scan,
    _structure_images,
)
from semiab.corpus import corpus_ids
from semiab.homs import _corpus_surjections

from normal_lattice import normal_subobjects


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


def test_a_non_hom_array_fails_every_time():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="does not preserve"):
            morphism(c4, c2, [0, 1, 1, 0])


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


def test_a_sort_hashes_as_its_content():
    """``_sort`` and ``_renamed_sort`` give a sort the hash its intern key
    computed once; it must be the hash of the sort's content."""
    a = group_algebra(_cyclic_table(41), name="a")
    b = group_algebra(_cyclic_table(41), name="b")
    derived = direct_product(a, cyclic_group(2))[0]
    for S in (a.sorts[0], b.sorts[0], derived.sorts[0], zmod_free(2, 3).sorts[0]):
        assert hash(S) == hash((S.variety, S.order, S.binary, S.unary))


def test_the_intern_holds_a_sort_only_while_it_is_alive():
    A = group_algebra(_cyclic_table(41))
    S = A.sorts[0]
    key = (S.variety, S.order, S.binary, S.unary)
    assert algebra._CHECKED.get(key) is S
    del A, S
    gc.collect()
    assert key not in algebra._CHECKED


def test_hom_search_leaves_no_record_on_a_sort():
    """Hom verdicts are cached by algebra in ``homs`` and nowhere else:
    after hom search, every live sort holds its dataclass fields and
    its hash, and no per-sort record of passing arrays."""
    for cid in ("groups", "groupoids", "zmod4-modules"):
        algebras = list(corpus_by_id(cid))
        for A in algebras:
            for B in algebras:
                enumerate_homs(A, B)
                surjections(A, B)
    allowed = {*Sort.__dataclass_fields__, "_hash"}
    sorts = [o for o in gc.get_objects() if type(o) is Sort]
    assert len(sorts) > 50
    assert {k for S in sorts for k in vars(S)} - allowed == set()


# ---------------------------------------------------------------------------
# the homomorphism test on generators


def _corpus_algebras():
    return [A for cid in corpus_ids() for A in corpus_by_id(cid)]


def test_the_generator_test_agrees_with_the_pairwise_scan():
    """On every corpus hom with |A|.|B| <= 600, and on three random
    one-entry mutations of each, ``_scan`` (generator rows only) and
    ``_full_scan`` (every pair) give the same verdict and message, and
    ``_passes`` the same verdict.  Sorts of order 1 and 2 are among the
    sources: there an ``itemgetter`` of one index returns an int."""
    rng = random.Random(2008)
    algebras = _corpus_algebras()
    verdicts = {"pass": 0, "fail": 0}
    orders = set()
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
                        assert _passes(D, C, a) == (bad is None), (A, B, a)
                        verdicts["pass" if bad is None else "fail"] += 1
                    orders.add(D.order)
    assert verdicts["pass"] > 5000 and verdicts["fail"] > 5000, verdicts
    assert {1, 2} <= orders


def _binary_preserved(D, C, m) -> bool:
    """m preserves every binary table at every pair; no unary map is read."""
    n = range(D.order)
    return all(m[dt[x][y]] == ct[m[x]][m[y]]
               for dt, ct in zip(D.binary, C.binary) for x in n for y in n)


@pytest.mark.parametrize("dom, cod, k", [
    ("c4", "c4", 0), ("s3", "s3", 0), ("m4-c2xc2", "m4-c4", 0), ("m8-c2xc2", "m8-c4", 0),
    ("z4", "z4", 0), ("ind-c2", "ind-c2", 0), ("ind-c2", "ind-c2", 1)])
def test_an_array_that_preserves_the_binary_tables_preserves_every_unary_map(dom, cod, k):
    """``_scan`` reads no unary map.  Over every array between these
    sorts (6^6 for s3), one that preserves the binary tables at every
    pair also preserves the inverse, the negation and every scalar, and
    ``_scan`` passes exactly those arrays."""
    D, C = named_algebra(dom).sorts[k], named_algebra(cod).sorts[k]
    passed = 0
    for m in product(range(C.order), repeat=D.order):
        preserved = _binary_preserved(D, C, m)
        assert (_full_scan(D, C, m) is None) == preserved, m
        assert (_scan(D, C, m) is None) == preserved, m
        passed += preserved
    assert 0 < passed < C.order ** D.order


def test_a_module_action_that_is_not_a_repeated_sum_is_rejected():
    """The unary maps follow from additivity because ``module_algebra``
    makes sx the s-fold sum of x: a Z/4 action whose row 2 is not
    x + x is rejected, though it is an automorphism of the group."""
    add = _cyclic_table(4)
    act = [[(s * x) % 4 for x in range(4)] for s in range(4)]
    act[2] = [(-x) % 4 for x in range(4)]
    with pytest.raises(AlgebraError, match=r"\(s\+t\)x != sx\+tx at \(1,1,1\)"):
        module_algebra(4, add, act)


def _module_identities_hold(add, act, m: int) -> bool:
    """The module identities, each at every scalar and element."""
    n = len(add)
    return (all(act[1 % m][x] == x for x in range(n))
            and all(act[s * t % m][x] == act[s][act[t][x]]
                    and act[(s + t) % m][x] == add[act[s][x]][act[t][x]]
                    for s in range(m) for t in range(m) for x in range(n))
            and all(act[s][add[x][y]] == add[act[s][x]][act[s][y]]
                    for s in range(m) for x in range(n) for y in range(n)))


def test_the_module_check_agrees_with_the_identities_one_by_one():
    """``_check_module`` decides by 0x = 0 and (s+1)x = sx + x; on
    abelian groups of order <= 8 under every modulus 1..8, with the
    repeated-sum action, that action one entry or one row off, and that
    action translated by an element, it accepts exactly the actions that
    pass every identity."""
    rng = random.Random(7)
    groups = [_cyclic_table(n) for n in (1, 2, 3, 4, 6, 8)]
    groups += [[[x ^ y for y in range(4)] for x in range(4)],
               direct_product(cyclic_group(2), cyclic_group(4))[0].sorts[0].binary[0]]
    verdicts = {True: 0, False: 0}
    for add in groups:
        n = len(add)
        sums = [[0] * n]
        for _ in range(7):
            sums.append([add[v][x] for x, v in enumerate(sums[-1])])
        for m in range(1, 9):
            act = [list(row) for row in sums[:m]]
            trials = [act]
            for _ in range(6):
                off = [list(row) for row in act]
                off[rng.randrange(m)][rng.randrange(n)] = rng.randrange(n)
                trials.append(off)
            trials.append([act[-1 % m] if s == 1 % m else row for s, row in enumerate(act)])
            # sx + z for a fixed z: (s+1)x = sx + x holds, 0x = 0 fails unless z = 0
            trials.append([[add[n - 1][v] for v in row] for row in act])
            for trial in trials:
                expected = _module_identities_hold(add, trial, m)
                try:
                    module_algebra(m, add, trial)
                except AlgebraError:
                    assert not expected, (add, m, trial)
                else:
                    assert expected, (add, m, trial)
                verdicts[expected] += 1
    assert verdicts[True] > 100 and verdicts[False] > 300, verdicts


def _perfbench_gen():
    """perfbench's input generator, which imports nothing of the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _assert_enumerated(f, A, B) -> None:
    assert f.dom is A and f.cod is B
    assert type(f.mapping) is tuple and all(type(m) is tuple for m in f.mapping)
    _assert_checked_morphism(f)


def test_every_enumerated_map_passes_the_direct_checks():
    """``_iter_homs`` builds its maps without ``validate_morphism``: each
    map that ``enumerate_homs`` returns, on corpus pairs with
    |A|.|B| <= 600, passes the check at every pair and commutes with
    the structure maps."""
    algebras = _corpus_algebras()
    found = 0
    for A in algebras:
        for B in algebras:
            if A.variety != B.variety or A.order * B.order > 600:
                continue
            for f in enumerate_homs(A, B):
                _assert_enumerated(f, A, B)
                found += 1
    assert found > 5000, found


def test_maps_enumerated_between_relabelled_modules_pass_the_direct_checks():
    """As perfbench's context workload builds them: Z/8-modules under a
    seeded relabelling that keeps a random basis at labels 1, 2, so
    their generating sets are not those of the bundled labelling."""
    gen = _perfbench_gen()
    rng = gen.rng_for(7, "context:0")
    modules = []
    for summands in ((2, 4), (4, 8)):
        doc, _ = gen.relabel_algebra(gen.zmod_module(8, summands), rng,
                                     first=gen.module_basis(summands, rng))
        modules.append(algebra_from_doc(doc))
    counts = {}
    for A in modules:
        for B in modules:
            homs_AB = enumerate_homs(A, B)
            for f in homs_AB:
                _assert_enumerated(f, A, B)
            counts[A.order, B.order] = len(homs_AB)
    # |Hom(Z/d1 x Z/d2, Z/e1 x Z/e2)| is the product of the gcd(di, ej)
    assert counts == {(8, 8): 32, (8, 32): 64, (32, 8): 64, (32, 32): 512}


@pytest.mark.parametrize("rid, cid", [("reduced", "rings"), ("ab", "groups"),
                                      ("burnside:2", "zmod4-modules"), ("pi0", "groupoids")])
def test_maps_induced_on_reflections_pass_the_direct_checks(rid, cid):
    """``induced_on_quotient`` skips ``validate_morphism``; on the
    sweep's own inputs, the reflection of every corpus surjection
    passes the check at every pair and is the map through the units."""
    R = reflector_by_id(rid)
    surjections = list(_corpus_surjections(corpus_by_id(cid)))
    for f in surjections:
        g = map_reflect(R, f)
        eta_dom, eta_cod = reflect(R, f.dom).unit, reflect(R, f.cod).unit
        assert g.dom == eta_dom.cod and g.cod == eta_cod.cod
        _assert_checked_morphism(g)
        assert compose(g, eta_dom).mapping == compose(eta_cod, f).mapping
    assert len(surjections) > 10


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
        assert _close((S.binary[0],), (), {0, *S.gens}, [0, *S.gens]) == set(range(S.order))
    for m, (s, t) in zip(A.maps, _MAP_ENDS):
        assert _full_scan(A.sorts[s], A.sorts[t], m) is None
    _check_structure(A.sorts, A.maps, "derived gpd")


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


def _assert_checked_subobject(sub) -> None:
    """Every check that ``_derived_subobject`` skips, normality over the
    whole carrier rather than ``gens``."""
    A, sets = sub.parent, sub.elements
    assert len(sets) == len(A.sorts)
    for S, X in zip(A.sorts, sets):
        assert type(X) is frozenset and 0 in X and X <= set(range(S.order))
        assert _closed_subset(S, X)
    assert all(img <= X for img, X in zip(_structure_images(A, sets), sets))
    assert sub.normal == all(X.issuperset(_carrier_demands(S, X))
                             for S, X in zip(A.sorts, sets))


@settings(max_examples=25, deadline=None)
@given(_corpus_pairs(), st.data())
def test_derived_subobjects_pass_the_direct_checks(pair, data):
    """Whole carriers, kernels, images, preimages, meets, joins and
    normal closures in checked algebras and their quotients, products
    and kernel pairs skip their checks; each passes them called directly
    and holds exactly the elements its definition names."""
    A, B = pair
    Q, q = quotient(A, data.draw(st.sampled_from(normal_subobjects(A))))
    P, p1, p2 = direct_product(A, B)
    f = data.draw(st.sampled_from(enumerate_homs(A, Q)))
    R, r1, r2 = kernel_pair(f)
    for g in (q, f, p1, p2, r1, r2):
        X, Y = g.dom, g.cod
        # images of maps into Y include subobjects that are not normal
        T = data.draw(st.sampled_from([image(h) for h in enumerate_homs(A, Y)]
                                      + normal_subobjects(Y)))
        seeds = [data.draw(st.sets(st.integers(0, S.order - 1), max_size=2)) for S in X.sorts]
        K, pre, closed = kernel(g), preimage_subobject(g, T), normal_closure(X, *seeds)
        expected = [
            (full_subobject(X), [set(range(S.order)) for S in X.sorts]),
            (K, [{x for x, y in enumerate(m) if y == 0} for m in g.mapping]),
            (image(g), [set(m) for m in g.mapping]),
            (pre, [{x for x, y in enumerate(m) if y in Z} for m, Z in zip(g.mapping, T.elements)]),
            (meet_subobjects(X, K, pre), [a & b for a, b in zip(K.elements, pre.elements)]),
            (meet_subobjects(X, K, closed), [a & b for a, b in zip(K.elements, closed.elements)]),
            (closed, _carrier_normal_closure(X, *seeds)),
            (join_normal(X, K, closed),
             _carrier_normal_closure(X, *(a | b for a, b in zip(K.elements, closed.elements)))),
        ]
        assert K.normal and closed.normal
        for sub, sets in expected:
            assert list(sub.elements) == list(sets), (g, sub)
            _assert_checked_subobject(sub)


# ---------------------------------------------------------------------------
# a Sort or an Algebra made directly is checked when it is made


_LOOP = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def _error(build) -> str:
    with pytest.raises(AlgebraError) as err:
        build()
    return str(err.value)


def test_a_hand_built_algebra_is_still_checked():
    """A loop of order 5, not a group, is rejected when its sort is made,
    with the message that ``group_algebra`` gives on the same table."""
    V = Variety("group")
    expected = _error(lambda: group_algebra(_LOOP))
    assert "not associative" in expected
    assert _error(lambda: Algebra(V, (Sort(V, 5, (_LOOP,), ((0, 1, 2, 3, 4),), (1, 2)),))) == expected


def test_a_sort_whose_gens_do_not_generate_is_rejected():
    """``_scan`` tests maps, and ``_normal_demands`` normality, at the rows
    of ``gens`` alone, so ``gens`` must generate the carrier: with none,
    or with the two 3-cycles of S3 alone, they do not."""
    (S,) = symmetric_3().sorts
    for gens in ((), (0,), (3, 4)):
        assert _error(lambda: Sort(S.variety, 6, S.binary, S.unary, gens, "s3")) == (
            "s3: gens do not generate the carrier")
    with pytest.raises(AlgebraError, match="gens entries must be indices below 6"):
        Sort(S.variety, 6, S.binary, S.unary, (1, 6))


def test_a_hand_built_s3_decides_maps_and_normality_as_symmetric_3_does():
    """With ``gens`` of its own that generate, a hand-built S3 equals
    ``symmetric_3()``; swapping its two 3-cycles is no homomorphism,
    it has the same endomorphisms, and a reflection's normal closure is
    the whole group."""
    s3 = symmetric_3()
    (S,) = s3.sorts
    hand = Algebra(S.variety, (Sort(S.variety, 6, S.binary, S.unary, [5, 4]),))
    assert hand == s3 and hand.sorts[0].gens == (5, 4) != S.gens
    for A in (s3, hand):
        assert _error(lambda: morphism(A, A, (0, 1, 2, 4, 3, 5))) == (
            "map does not preserve an operation at (1,2)")
        assert subobject(A, {0, 1}).normal is False
        assert normal_closure(A, {1}).size == 6
    # uncached, unlike enumerate_homs, which takes hand for s3
    assert ([f.mapping for f in homs._iter_homs(hand, hand)]
            == [f.mapping for f in homs._iter_homs(s3, s3)])
    assert len(enumerate_homs(s3, s3)) == 10


def test_a_sort_of_the_wrong_shape_is_rejected():
    (S,) = cyclic_group(4).sorts
    V = S.variety
    assert _error(lambda: Sort(V, 5, S.binary, S.unary, S.gens)) == (
        "group: order must be 4, the size of its tables")
    assert _error(lambda: Sort(Variety("gpd-in-group"), 4, S.binary, S.unary, S.gens)) == (
        "groupoid sorts must be groups")
    assert _error(lambda: Sort(V, 4, S.binary * 2, S.unary, S.gens)) == (
        "a sort of group has 1 binary table(s) and 1 unary map(s)")
    assert _error(lambda: Sort(Variety("zmod-module", 2), 4, S.binary, S.unary, S.gens)) == (
        "a sort of zmod-module(2) has 1 binary table(s) and 3 unary map(s)")


def test_a_group_over_a_ring_sort_is_rejected():
    """Accepted, it would count 4 maps from c4 into itself but 2 from
    itself into itself: hom search zips the ring sort's two tables
    against a group sort's one."""
    assert _error(lambda: Algebra(Variety("group"), zring(4).sorts)) == (
        "an algebra of group has one sort of its variety and no maps")


def test_a_groupoid_with_one_sort_and_no_maps_is_rejected():
    assert _error(lambda: Algebra(Variety("gpd-in-group"), cyclic_group(4).sorts)) == (
        "an algebra of gpd-in-group has two group sorts and three maps")
    G = gpd_indiscrete(cyclic_group(3))
    assert Algebra(G.variety, G.sorts, G.maps, G.name) == G


def test_an_algebra_without_sorts_is_rejected():
    assert _error(lambda: Algebra(Variety("group"), ())) == (
        "an algebra of group has one sort of its variety and no maps")


def test_replace_with_a_corrupted_table_or_map_is_rejected():
    """``dataclasses.replace`` creates the dataclass, so its checks run:
    the messages are those of the public constructors on the same
    tables and maps."""
    A = cyclic_group(4)
    (S,) = A.sorts
    bad = tuple(row if x != 1 else (1, 2, 2, 0) for x, row in enumerate(S.binary[0]))
    expected = _error(lambda: group_algebra(bad, name="c4"))
    assert "not associative" in expected
    assert _error(lambda: replace(A, sorts=(replace(S, binary=(bad,)),))) == expected
    assert "one sort of its variety" in _error(lambda: replace(A, sorts=(S.binary,)))
    G = gpd_indiscrete(cyclic_group(3))
    d, c, _ = G.maps
    g1, g0 = (Algebra(Variety("group"), (T,)) for T in G.sorts)
    expected = _error(lambda: gpd_algebra(g1, g0, d, c, (0, 4, 7), name=G.name))
    assert _error(lambda: replace(G, maps=(d, c, (0, 4, 7)))) == expected


@pytest.mark.parametrize("make", [lambda A: replace(A, name="other"), copy.copy],
                         ids=["replace", "copy"])
@pytest.mark.parametrize("original", [symmetric_3, lambda: zring(4),
                                      lambda: gpd_indiscrete(cyclic_group(3))],
                         ids=["group", "ring", "groupoid"])
def test_a_renamed_or_copied_algebra_builds_what_the_original_does(make, original):
    A = original()
    B = make(A)
    assert B is not A and B == A and hash(B) == hash(A)
    assert [f.mapping for f in enumerate_homs(B, B)] == [f.mapping for f in enumerate_homs(A, A)]
    for fA, fB in zip(enumerate_homs(A, A), enumerate_homs(B, B)):
        assert fB.dom is B and fB.cod is B
        assert kernel_pair(fB) == kernel_pair(fA)
        assert quotient(B, kernel(fB)) == quotient(A, kernel(fA))


def _kernel_sets(f):
    return [{x for x in range(len(m)) if m[x] == 0} for m in f.mapping]


_IDENTITY_CHECKS = ("_as_table", "_as_map", "_check_abelian", "_check_group_tables",
                    "_check_associative", "_check_ring", "_check_bilinear", "_check_module",
                    "_check_structure", "validate_morphism")


@pytest.mark.parametrize("factors", [
    lambda: (cyclic_group(9), cyclic_group(10)),
    lambda: (zring(6), zring(4)),
    lambda: (zmod_cyclic(4, 2), zmod_cyclic(4, 4)),
    lambda: (gpd_indiscrete(cyclic_group(3)), gpd_indiscrete(cyclic_group(2))),
    lambda: (named_algebra("m8-c2"), named_algebra("m8-c2xc4")),
], ids=["groups", "rings", "modules", "groupoids", "corpus-members"])
def test_constructions_from_checked_algebras_run_no_check(monkeypatch, factors):
    """A product, a quotient and a sub-algebra of checked algebras skip every identity, shape, structure-map and
    morphism check, and are still interned."""
    monkeypatch.setattr(algebra, "_CHECKED", weakref.WeakValueDictionary())
    A, B = factors()
    calls = []
    for name in _IDENTITY_CHECKS:
        monkeypatch.setattr(algebra, name, lambda *args, name=name: calls.append(name))
    P, p1, p2 = direct_product(A, B)
    Q, q = quotient(P, subobject(P, *_kernel_sets(p1)))
    S, incl = sub_algebra(P, subobject(P, *_kernel_sets(p2)))
    assert calls == []
    for X in (P, Q, S):
        for T in X.sorts:
            assert (T.variety, T.order, T.binary, T.unary) in algebra._CHECKED
    monkeypatch.undo()
    for X in (P, Q, S):
        _assert_checked_algebra(X)
    for f in (p1, p2, q, incl):
        _assert_checked_morphism(f)


def test_enumerated_and_induced_maps_run_no_morphism_check(monkeypatch):
    """Hom enumeration and ``induced_on_quotient`` build their maps
    without ``validate_morphism``; the tests above run its checks."""
    A, B = named_algebra("m8-c2xc4"), named_algebra("m8-c4")
    calls = []
    monkeypatch.setattr(algebra, "validate_morphism", lambda f: calls.append(f))
    maps = list(homs._iter_homs(A, B))
    induced = [induced_on_quotient(quotient(A, kernel(f))[1], f) for f in maps]
    assert calls == []
    assert len(maps) == 8 and len(induced) == 8


def test_identity_and_zero_maps_pass_the_direct_checks():
    """``identity_morphism`` and ``zero_morphism`` skip
    ``validate_morphism``: the identity of every corpus algebra, the zero
    map between every pair of a corpus and the zero map onto the trivial
    algebra pass the check at every pair and the structure maps."""
    checked = 0
    for cid in corpus_ids():
        algebras = list(corpus_by_id(cid))
        for A in algebras:
            _assert_checked_morphism(identity_morphism(A))
            _assert_checked_morphism(zero_morphism(A, trivial_of_variety(A.variety)))
            for B in algebras:
                if A.variety == B.variety:
                    _assert_checked_morphism(zero_morphism(A, B))
                    checked += 1
    assert checked > 1000, checked
    with pytest.raises(AlgebraError, match="share a variety"):
        zero_morphism(cyclic_group(2), zring(2))


def test_identity_and_zero_maps_run_no_morphism_check(monkeypatch):
    A, B = named_algebra("m8-c2xc4"), named_algebra("m8-c4")
    G = corpus_by_id("groupoids")[0]
    calls = []
    monkeypatch.setattr(algebra, "validate_morphism", lambda f: calls.append(f))
    maps = [identity_morphism(A), identity_morphism(G), zero_morphism(A, B), zero_morphism(G, G)]
    assert calls == []
    assert maps[0].mapping == (tuple(range(8)),) and maps[2].mapping == ((0,) * 8,)


def test_the_product_generators_come_from_the_factors():
    A, B = group_algebra(_cyclic_table(12)), group_algebra(_cyclic_table(15))
    P, p1, p2 = direct_product(A, B)
    (T,) = P.sorts
    assert sorted((p1.mapping[0][g], p2.mapping[0][g]) for g in T.gens) == [(0, 1), (1, 0)]
    closed = _close((T.binary[0],), (), {0, *T.gens}, [0, *T.gens])
    assert closed == set(range(T.order))


# ---------------------------------------------------------------------------
# normality on generators against the test over the whole carrier


def _carrier_demands(S, X):
    """The normality demands of the earlier code, over every element of the carrier."""
    if S.variety.kind == "group":
        (op,), (inv,) = S.binary, S.unary
        for g in range(S.order):
            for x in X:
                yield op[op[g][x]][inv[g]]
    elif S.variety.kind in algebra.RING_KINDS:
        mul = S.binary[1]
        for a in range(S.order):
            for x in X:
                yield mul[a][x]
                yield mul[x][a]


def _carrier_normal_closure(A, *seeds):
    """``normal_closure``'s fixed point with the carrier-wide demands."""
    sets = [set(X) | {0} for X in seeds]
    while True:
        sets = [_close(S.binary, S.unary, X, list(X)) for S, X in zip(A.sorts, sets)]
        bigger = [X.union(_carrier_demands(S, X)) for S, X in zip(A.sorts, sets)]
        bigger = [X | img for X, img in zip(bigger, _structure_images(A, bigger))]
        if bigger == sets:
            return tuple(map(frozenset, sets))
        sets = bigger


def _closed_subsets(S):
    """Every subset of the sort closed under its operations."""
    found = {frozenset(_close(S.binary, S.unary, {0}, [0]))}
    frontier = list(found)
    while frontier:
        nxt = []
        for X in frontier:
            for y in range(S.order):
                if y not in X:
                    Y = frozenset(_close(S.binary, S.unary, set(X) | {y}, [y]))
                    if Y not in found:
                        found.add(Y)
                        nxt.append(Y)
        frontier = nxt
    return found


_NORMALITY_CORPUS = [A for cid in ("groups", "rings", "rng-star", "nonassoc-rings", "groupoids")
                     for A in corpus_by_id(cid) if A.order <= 16]


def test_normality_on_generators_agrees_with_the_carrier_scan():
    counts = {True: 0, False: 0}
    for A in _NORMALITY_CORPUS:
        per_sort = [sorted(_closed_subsets(S), key=sorted) for S in A.sorts]
        for sets in product(*per_sort):
            expected = all(X.issuperset(_carrier_demands(S, X)) for S, X in zip(A.sorts, sets))
            assert is_normal_subset(A, *sets) == expected, (A, sets)
            counts[expected] += 1
    assert counts[True] > 200 and counts[False] > 50, counts


def test_normal_closure_reaches_the_carrier_fixed_point():
    for A in _NORMALITY_CORPUS:
        for k, S in enumerate(A.sorts):
            for x in range(S.order):
                seeds = [{x} if j == k else set() for j in range(len(A.sorts))]
                assert normal_closure(A, *seeds).elements == _carrier_normal_closure(A, *seeds)
