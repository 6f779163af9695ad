"""Subvariety radicals of maps, composite radicals and low-degree homology."""

import gc
import itertools
import weakref
from math import gcd, prod

import pytest

from semiab import (
    AlgebraError,
    BirkhoffContext,
    birkhoff_radical,
    centralize,
    composite_radical,
    corpus_by_id,
    cube_of_morphism,
    cyclic_group,
    direct_product,
    full_subobject,
    hopf_homology,
    huq_commutator,
    is_birkhoff_normal,
    kernel,
    kernel_pair,
    meet_subobjects,
    morphism,
    named_algebra,
    normal_closure,
    object_cube,
    radical_n,
    reflector_by_id,
    square,
    identity_morphism,
    surjections,
    zmod_cyclic,
    zero_morphism,
    zmod_free,
)
from semiab import birkhoff
from semiab.algebra import _STORE, _renamed, _store, sub_algebra, subobject
from semiab.birkhoff import Presentation, _is_free_module, _kills, build_presentation
from semiab.cli import _module_label
from semiab.corpus import corpus_ids
from semiab.cubes import _kernel_pair_cube
from semiab.homs import _corpus_surjections
from semiab.ops import image_elements, power_subobject
from semiab.reflectors import _base_radical
from semiab.verification import _pushout_square
from isomorphism import find_isomorphism
from tor import invariant_factors, module_invariant_factors, tor1


def _mod_map(m, n):
    return morphism(cyclic_group(m), cyclic_group(n), [x % n for x in range(m)])


def test_birkhoff_radical_of_ab_is_relative_commutator():
    s3 = named_algebra("s3")
    c2 = cyclic_group(2)
    (f,) = surjections(s3, c2)
    rad = birkhoff_radical(reflector_by_id("ab"), f)
    # [K[f], X]: kernel A3 against the whole of S3
    want = huq_commutator(s3, kernel(f), full_subobject(s3))
    assert rad.elements == want.elements == (frozenset({0, 3, 4}),)


def test_birkhoff_radical_of_identity_cod_is_object_radical():
    d4 = named_algebra("d4")
    z = morphism(d4, cyclic_group(1), [0] * 8)
    rad = birkhoff_radical(reflector_by_id("ab"), z)
    from semiab import radical

    assert rad.elements == radical(reflector_by_id("ab"), d4).elements


def test_burnside_radical_of_module_maps():
    b2 = reflector_by_id("burnside:2")
    m4 = named_algebra("m4-c4")
    m2 = named_algebra("m4-c2")
    f = morphism(m4, m2, [x % 2 for x in range(4)])
    assert birkhoff_radical(b2, f).elements == (frozenset({0}),)
    to_zero = morphism(m4, named_algebra("m4-0"), [0] * 4)
    assert birkhoff_radical(b2, to_zero).elements == (frozenset({0, 2}),)
    g = morphism(m2, named_algebra("m4-0"), [0, 0])
    assert birkhoff_radical(b2, g).elements == (frozenset({0}),)


def test_radical_n_extends_radical_1():
    m4 = named_algebra("m4-c4")
    to_zero = morphism(m4, named_algebra("m4-0"), [0] * 4)
    assert radical_n(reflector_by_id("burnside:2"), cube_of_morphism(to_zero)).elements == (frozenset({0, 2}),)


def test_radical_n_on_doubled_square_matches_one_fold():
    ab = reflector_by_id("ab")
    s3, c2 = named_algebra("s3"), cyclic_group(2)
    (f,) = surjections(s3, c2)
    sq = square(f, f, identity_morphism(c2), identity_morphism(c2))
    assert radical_n(ab, sq).elements == birkhoff_radical(ab, f).elements


def test_object_cube_radical():
    q8 = named_algebra("q8")
    rad = radical_n(reflector_by_id("ab"), object_cube(q8))
    assert rad.size == 2  # derived subgroup of Q8


def test_birkhoff_normal_cubes():
    ab = reflector_by_id("ab")
    f = _mod_map(8, 2)
    assert is_birkhoff_normal(ab, cube_of_morphism(f))
    s3 = named_algebra("s3")
    (g,) = surjections(s3, cyclic_group(2))
    assert not is_birkhoff_normal(ab, cube_of_morphism(g))


def test_composite_radical_modes_on_d4_quotients():
    # base subvariety from ab, comparison from the smaller burnside:2
    ab, b2 = reflector_by_id("ab"), reflector_by_id("burnside:2")
    d4 = named_algebra("d4")
    c2 = cyclic_group(2)
    for f in surjections(d4, c2):
        assert composite_radical(ab, b2, cube_of_morphism(f)).elements == (frozenset({0, 2}),)


def test_context_certifies_containment():
    # exponent-4 free members are not all abelian-free under burnside:2
    with pytest.raises(AlgebraError):
        BirkhoffContext(
            reflector_by_id("burnside:2"),
            corpus_by_id("groups"),
            reflector_by_id("ab"),
        )


def _counted_kernel_pairs(monkeypatch) -> list:
    """The arrows of the kernel pairs that birkhoff takes from now on."""
    pairs = []
    kernel_pair = birkhoff.kernel_pair
    monkeypatch.setattr(birkhoff, "kernel_pair", lambda h: pairs.append(h) or kernel_pair(h))
    return pairs


def test_radical_memo_takes_each_kernel_pair_once(monkeypatch):
    ab = reflector_by_id("ab")
    s3, c2 = named_algebra("s3"), cyclic_group(2)
    other = _renamed(s3, "s3-renamed")
    (f,) = surjections(s3, c2)
    (g,) = surjections(other, c2)
    pairs = _counted_kernel_pairs(monkeypatch)
    with _store():
        first = birkhoff_radical(ab, f)
        assert birkhoff_radical(ab, f) is first
        # the renamed copy hits the entry of the first by content, and
        # gets the same sets in its own algebra
        moved = birkhoff_radical(ab, g)
    assert pairs == [f]
    assert moved.parent is other and first.parent is s3
    assert moved.elements == first.elements == (frozenset({0, 3, 4}),)
    # the checks the move skips, run directly
    assert subobject(other, *moved.elements).normal == moved.normal


def test_outside_a_store_each_radical_takes_its_kernel_pair(monkeypatch):
    ab = reflector_by_id("ab")
    (f,) = surjections(named_algebra("s3"), cyclic_group(2))
    pairs = _counted_kernel_pairs(monkeypatch)
    assert birkhoff_radical(ab, f).elements == birkhoff_radical(ab, f).elements
    assert pairs == [f, f]


def test_a_stored_radical_goes_with_the_store():
    ab = reflector_by_id("ab")
    (f,) = surjections(named_algebra("s3"), cyclic_group(2))
    with _store():
        stored = weakref.ref(birkhoff_radical(ab, f))
        assert [v for k, v in _STORE.get().items() if k[0] is birkhoff._arrow_radical] == [stored()]
    gc.collect()
    assert stored() is None


def _stored_certifications() -> list[tuple]:
    """The name and reflectors of each certification in the open store."""
    return [(key[0].__name__, *key[1:-1]) for key in _STORE.get()
            if key[0] in (birkhoff._certify, birkhoff._compare)]


def test_comparison_contexts_share_the_base_certification(monkeypatch):
    ab, b2 = reflector_by_id("ab"), reflector_by_id("burnside:2")
    groups = corpus_by_id("groups")
    squares = []
    unit_square = birkhoff.unit_square
    monkeypatch.setattr(birkhoff, "unit_square", lambda R, f: squares.append(f) or unit_square(R, f))
    with _store():
        comp = BirkhoffContext(ab, groups, b2)
        base = BirkhoffContext(ab, groups)
        assert (comp.B, comp.C, base.C) == (ab, b2, None)
        BirkhoffContext(ab, groups, b2)
        assert _stored_certifications() == [("_certify", ab), ("_compare", ab, b2)]
    assert len(squares) == comp.checked_surjections == 398
    direct = BirkhoffContext(ab, groups, b2)
    assert comp.checked_surjections == base.checked_surjections == direct.checked_surjections
    assert comp.comparison_sequences == direct.comparison_sequences > 0
    assert base.comparison_sequences == 0


def test_failed_certification_is_not_stored():
    b2, ab = reflector_by_id("burnside:2"), reflector_by_id("ab")
    with _store():
        for _ in range(2):  # see test_context_certifies_containment
            with pytest.raises(AlgebraError):
                BirkhoffContext(b2, corpus_by_id("groups"), ab)
        assert _stored_certifications() == [("_certify", b2)]


def test_context_with_inapplicable_corpus_checks_nothing():
    ctx = BirkhoffContext(reflector_by_id("ab"), corpus_by_id("rings"))
    assert ctx.checked_surjections == 0


def test_presentation_rejects_non_free_top():
    m2 = named_algebra("m4-c2")
    cube = object_cube(m2)
    with pytest.raises(AlgebraError, match="non-free upper vertex"):
        Presentation(cube)


@pytest.mark.parametrize("m", [*range(1, 13), 18])
def test_freeness_test_matches_the_isomorphism_search(m):
    """V is free exactly when its invariant factors (tests/tor.py) are
    r copies of m, for |V| = m^r."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    modules = [zmod_free(m, 2)] + [direct_product(zmod_cyclic(m, a), zmod_cyclic(m, b))[0]
                                   for i, a in enumerate(divisors) for b in divisors[i:]]
    free = 0
    for V in modules:
        rank = 0
        while m ** rank < V.order:
            rank += 1
        is_free = m ** rank == V.order and module_invariant_factors(V) == (m,) * rank
        assert _is_free_module(V) == is_free, V
        free += is_free
    # (Z/m)^2 twice, Z/1 x Z/1 and each Z/a x Z/b with a <= b, ab = m and
    # gcd(a, b) = 1; every module when m = 1
    coprime = sum(a * b == m and gcd(a, b) == 1 for i, a in enumerate(divisors) for b in divisors[i:])
    assert free == (3 + coprime if m > 1 else len(modules))


def _synthesized_modules():
    """Every direct sum of one to three cyclic Z/d, d | m, of order at
    most 256, for m in 2, 3, 4, 6, 8, 9, 12, 16, with its summands."""
    out = []
    for m in (2, 3, 4, 6, 8, 9, 12, 16):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        for r in (1, 2, 3):
            for orders in itertools.combinations_with_replacement(divisors, r):
                if prod(orders) <= 256:
                    M = zmod_cyclic(m, orders[0])
                    for d in orders[1:]:
                        M = direct_product(M, zmod_cyclic(m, d))[0]
                    out.append((orders, M))
    return out


_MODULES = _synthesized_modules()


def test_module_label_is_named_by_the_invariant_factors():
    """The label from kill counts equals the one spelled out from the
    invariant factors that tests/tor.py computes."""
    assert len(_MODULES) == 246
    names = {(): "0"}
    for orders, M in _MODULES:
        factors = module_invariant_factors(M)
        assert factors == invariant_factors(orders), orders
        names[factors] = _module_label(M)
        if len(factors) == 1:
            assert _module_label(M) == f"C{factors[0]}", orders
        elif len(factors) == 2:
            assert _module_label(M) == f"C{factors[0]}xC{factors[1]}", orders
        else:
            assert _module_label(M) == ("0" if not factors else f"module of order {M.order}"), orders
    assert names[(2, 4)] == "C2xC4" and names[(2, 2, 2)] == "module of order 8"


def test_kill_counts_decide_isomorphism():
    """Equal kill counts, on every pair of equal-order synthesized
    modules up to order 64, exactly when the search finds an isomorphism."""
    verdicts = []
    for (_, M), (_, N) in itertools.combinations(_MODULES, 2):
        if M.variety == N.variety and M.order == N.order <= 64:
            iso = find_isomorphism(M, N) is not None
            assert (_kills(M) == _kills(N)) == iso, (M, N)
            verdicts.append(iso)
    assert len(verdicts) == 340 and sum(verdicts) == 170


def test_presentations_that_disagree_fail_the_homology(monkeypatch):
    """H2(C2 x C2) over Z/4 is C2 x C2; a second presentation giving the
    cyclic group of the same order is caught."""
    hopf_once = birkhoff._hopf_once

    def disagreeing(B, A, degree, variant, presentations):
        H = hopf_once(B, A, degree, variant, presentations)
        return zmod_cyclic(4, 4) if variant else H

    b2, A = reflector_by_id("burnside:2"), named_algebra("m4-c2xc2")
    assert _module_label(hopf_homology(b2, A, 2)) == "C2xC2"
    monkeypatch.setattr(birkhoff, "_hopf_once", disagreeing)
    with pytest.raises(AlgebraError, match="presentation independence failed"):
        hopf_homology(b2, A, 2)


def _module_squares():
    """Pushout squares of zmod4-modules surjections onto orders <= 2, from
    members of order <= 8, whose materialised kernel pairs stay small."""
    corpus = corpus_by_id("zmod4-modules")
    out = []
    for A in corpus:
        if A.order > 8:
            continue
        fs = [f for B in corpus if B.order <= 2 for f in surjections(A, B)]
        out += [_pushout_square(f, g) for i, f in enumerate(fs) for g in fs[i:]
                if A.order * A.order // g.cod.order <= 16 or f.cod.order == 2]
    return out


def _materialised(c, *reflectors):
    """radical_n's kernel-pair recursion with every pair algebra built,
    one radical per reflector: kernel pair, object radical, meet with
    the first projection's kernel, image under the second, normal
    closure.  The object radical is taken without the reflection, whose
    cache would keep each pair algebra alive."""
    if c.dim == 1:
        R, p1, p2 = kernel_pair(c.arrow)
        inners = [_base_radical(B, R) for B in reflectors]
    else:
        rcube, p1, p2 = _kernel_pair_cube(c)
        R, inners = rcube.top_vertex, _materialised(rcube, *reflectors)
    K = kernel(p1)
    return [normal_closure(c.top_vertex, *image_elements(p2, meet_subobjects(R, inner, K)))
            for inner in inners]


_MODULE_RIDS = ["burnside:2", "id", "burnside:4"]


@pytest.fixture(scope="module")
def module_arrows():
    """Every zmod4-modules and zmod8-modules surjection, a zero map and an
    inclusion, each with the materialised radical under every reflector
    of _MODULE_RIDS.  The recursion reads an arrow only through its
    kernel pair's element set, so it runs once per domain and kernel."""
    C8xC8 = named_algebra("m8-c8xc8")
    arrows = [*_corpus_surjections(corpus_by_id("zmod4-modules")),
              *_corpus_surjections(corpus_by_id("zmod8-modules")),
              zero_morphism(C8xC8, named_algebra("m8-c2")),
              sub_algebra(C8xC8, power_subobject(C8xC8, 2))[1]]
    keys = [(f.dom, kernel(f).elements) for f in arrows]
    by_kernel = {}
    for f, key in zip(arrows, keys):
        if key not in by_kernel:
            rads = _materialised(cube_of_morphism(f), *map(reflector_by_id, _MODULE_RIDS))
            by_kernel[key] = {rid: rad.elements for rid, rad in zip(_MODULE_RIDS, rads)}
    return [(f, by_kernel[key]) for f, key in zip(arrows, keys)]


@pytest.mark.parametrize("rid", _MODULE_RIDS)
def test_module_square_radical_matches_the_materialised_recursion(rid, module_arrows):
    B = reflector_by_id(rid)
    squares = arrows = 0
    for c in _module_squares():
        rad = radical_n(B, c)
        assert [rad] == _materialised(c, B)
        squares += not rad.is_zero()
    for f, expected in module_arrows:
        rad = radical_n(B, cube_of_morphism(f))
        assert rad.elements == expected[rid], f
        arrows += not rad.is_zero()
    # non-zero radicals, squares and arrows
    assert (squares, arrows) == {"burnside:2": (3, 299), "id": (0, 0), "burnside:4": (0, 80)}[rid]


_BASE_RIDS = ("ab", "reduced", "zerorng", "boole", "pi0", "id", "burnside:2")


def test_the_pushed_forward_radical_is_normal_without_a_closure(monkeypatch):
    """``_pushed_forward`` takes the image of the cut radical along p2 as
    a normal subobject and takes no normal closure.  Over the radical of
    every surjection of every corpus under every base reflector that
    applies to it, and of pushout squares of groups of order <= 8 onto
    C2 under ab (non-zero for d3, d4, s3 and q8), each result passes the closure and normality tests of a checked
    ``subobject`` and equals the normal closure of that image."""
    calls = []
    pushed = birkhoff._pushed_forward

    def recorded(top, inner, p1, p2):
        rad = pushed(top, inner, p1, p2)
        calls.append((top, inner, p1, p2, rad))
        return rad

    monkeypatch.setattr(birkhoff, "_pushed_forward", recorded)
    for cid in corpus_ids():
        corpus = corpus_by_id(cid)
        for rid in _BASE_RIDS:
            B = reflector_by_id(rid)
            if corpus[0].kind in B.kinds:
                for f in _corpus_surjections(corpus):
                    radical_n(B, cube_of_morphism(f))
    groups = [A for A in corpus_by_id("groups") if A.order <= 8]
    for A in groups:
        fs = [f for B in groups if B.order == 2 for f in surjections(A, B)]
        for i, f in enumerate(fs):
            for g in fs[i:]:
                radical_n(reflector_by_id("ab"), _pushout_square(f, g))
    nonzero = dict.fromkeys(("group", "comm-ring", "rng-star", "nonassoc-ring", "gpd-in-group"), 0)
    for top, inner, p1, p2, rad in calls:
        closed = normal_closure(top, *image_elements(p2, meet_subobjects(p1.dom, inner, kernel(p1))))
        assert rad.parent is top and rad.normal
        assert subobject(top, *rad.elements).normal
        assert rad.elements == closed.elements
        nonzero[top.kind] += not rad.is_zero()
    assert all(nonzero.values()), nonzero


@pytest.mark.parametrize("rid, name", [("burnside:2", "m4-c2xc4"), ("burnside:2", "m8-c2"),
                                       ("burnside:4", "m8-c4")])
def test_degree_two_homology_builds_no_kernel_pair(monkeypatch, rid, name):
    calls = []

    def counted(f):
        calls.append(f)
        return kernel_pair(f)

    monkeypatch.setattr(birkhoff, "kernel_pair", counted)
    hopf_homology(reflector_by_id(rid), named_algebra(name), 2)
    assert calls == []


@pytest.mark.parametrize("cid", ["zmod4-modules", "zmod8-modules"])
def test_degree_two_homology_is_tor_of_the_invariant_factors(cid):
    """H2 under burnside:2 against Tor_1^{Z/m}(A, Z/gcd(2, m)), computed
    from A's invariant factors alone (tests/tor.py)."""
    b2 = reflector_by_id("burnside:2")
    labels = {}
    for A in corpus_by_id(cid):
        m = A.variety.modulus
        factors = module_invariant_factors(A)
        # the bundled names spell the invariant factors out
        body = A.name.split("-")[1]
        assert factors == (() if body == "0" else tuple(int(c[1:]) for c in body.split("x"))), A.name
        H = module_invariant_factors(hopf_homology(b2, A, 2))
        assert H == tor1(factors, m, gcd(2, m)), A.name
        labels[A.name] = H
    if cid == "zmod8-modules":
        assert labels["m8-c4xc4"] == (2, 2) and labels["m8-c8xc8"] == ()


def test_build_presentation_covers_with_free_module():
    m2 = named_algebra("m4-c2")
    pres = build_presentation(m2, 1)
    assert pres.cube.dim == 1
    top = pres.cube.top_vertex
    assert find_isomorphism(top, zmod_free(4, 1)) is not None


def test_hopf_homology_of_c2_over_zmod4():
    b2 = reflector_by_id("burnside:2")
    m2 = named_algebra("m4-c2")
    h2 = hopf_homology(b2, m2, 2)
    assert find_isomorphism(h2, named_algebra("m4-c2")) is not None
    h3 = hopf_homology(b2, m2, 3)
    assert find_isomorphism(h3, named_algebra("m4-c2")) is not None


def test_hopf_homology_vanishes_on_free_modules():
    b2 = reflector_by_id("burnside:2")
    free = named_algebra("m4-c4")
    assert hopf_homology(b2, free, 2).order == 1
    assert hopf_homology(b2, free, 3).order == 1


def test_hopf_homology_zmod8_degree_two():
    m2 = named_algebra("m8-c2")
    h2 = hopf_homology(reflector_by_id("burnside:2"), m2, 2)
    assert h2.order == 2


def test_hopf_degree_validation():
    b2 = reflector_by_id("burnside:2")
    with pytest.raises(AlgebraError):
        hopf_homology(b2, named_algebra("m4-c2"), 1)
    with pytest.raises(AlgebraError):
        hopf_homology(b2, named_algebra("m4-c2"), 4)


def test_centralize_yields_birkhoff_normal_cube():
    ab = reflector_by_id("ab")
    s3 = named_algebra("s3")
    (f,) = surjections(s3, cyclic_group(2))
    c = cube_of_morphism(f)
    assert not is_birkhoff_normal(ab, c)
    central = centralize(ab, c)
    assert is_birkhoff_normal(ab, central)
    # top vertex is the quotient by the radical
    assert central.top_vertex.order == s3.order // 3
