"""Kernels, quotients, limits and subobject arithmetic.

Quotients and pair algebras go through ``algebra._assemble``.  Every
algebra has passed its checks or was derived from algebras that did,
so they satisfy every identity of their kind by construction and skip
its checks, as do their projections and quotient maps (see the
``algebra`` docstring).  A product's sort is generated by the (g, 0)
and (0, h) of its factors' ``gens``, a quotient's by the images of its
parent's.  Quotient carriers are cosets indexed in
first-appearance order, so the class of the constant is always index 0,
and pair carriers (products, pullbacks, kernel pairs) are sorted
lexicographically for the same reason.  A construction that would
copy an input returns its unnamed view instead (``algebra._renamed``):
the quotient by zero, and a pair algebra one of whose legs is
``range(order)`` on every sort (``_build_pairs``).  A pair algebra
looks pair (a, b) up as ``index[a][b]``, with no per-entry tuple or
hash: the table of a rectangle K x L of pairs, a product above all, is
written in closed form, each row a concatenation of shifted copies of
one row (``_rectangle_table``); otherwise a row whose pairs' runs are
short is one chain of ``map``s, and one whose runs are long is a
concatenation of blocks shared with the other rows of its second
component (``_pair_table``).

Kernels, preimages, images, meets and normal closures are closed by
construction, and each says why in its docstring; they go through
``algebra._derived_subobject``, which skips the closure tests of a
``Subobject`` and, where the construction guarantees it (kernels,
normal closures, and preimages and meets of normal subobjects), the
normality test too.  They reject a subobject of another algebra.

Each construction is written once and runs sort by sort (see the
``algebra`` docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, groupby, repeat
from operator import add, getitem, itemgetter, not_

from .algebra import (
    Algebra,
    AlgebraError,
    GROUP,
    Morphism,
    Sort,
    Subobject,
    _assemble,
    _check_parent,
    _close,
    _derived_subobject,
    _normal_demands,
    _one_per_sort,
    _rebuild,
    _renamed,
    _shifted_copies,
    _stored,
    _structure_images,
    _unchecked,
    closure_under_ops,
    compose,
    full_subobject,
    identity_morphism,
    is_injective,
    is_surjective,
    subobject,
    zero_subobject,
)


# ---------------------------------------------------------------------------
# subobject images and preimages


def image_elements(f: Morphism, S: Subobject) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(map(m.__getitem__, X)) for m, X in zip(f.mapping, S.elements))


def preimage_subobject(f: Morphism, S: Subobject) -> Subobject:
    """The elements that f sends into S.

    They are closed, since f is a morphism: f(x*y) = f(x)*f(y) lies in
    S when f(x) and f(y) do, and likewise for the unary and structure
    maps.  They are normal when S is, since f(g x g^-1) = f(g) f(x)
    f(g)^-1 and f(ax) = f(a)f(x) lie in S; otherwise normality is tested.
    """
    _check_parent(f.cod, S)
    return _derived_subobject(
        f.dom, (frozenset(compress(range(len(m)), map(X.__contains__, m)))
                for m, X in zip(f.mapping, S.elements)),
        S.normal or None)


def kernel(f: Morphism) -> Subobject:
    """The fibre of the constant: the preimage of the zero subobject, so
    closed, and normal, as the kernel of f, by definition."""
    return _derived_subobject(f.dom, (frozenset(compress(range(len(m)), map(not_, m)))
                                      for m in f.mapping), True)


def image(f: Morphism) -> Subobject:
    """The elements that f reaches: closed, since f(x)*f(y) = f(x*y) and
    likewise for the unary and structure maps; normality is tested."""
    return _derived_subobject(f.cod, f.mapping)


# ---------------------------------------------------------------------------
# quotients


def _cosets(S: Sort, elems) -> tuple[list[int], list[int]]:
    """Coset index of each element of a sort and one representative per coset."""
    table = S.binary[0]
    coset_of = [-1] * S.order
    reps: list[int] = []
    for x in range(S.order):
        if coset_of[x] < 0:
            cid = len(reps)
            reps.append(x)
            for k in elems:
                coset_of[table[x][k]] = cid
    return coset_of, reps


def quotient(A: Algebra, N: Subobject) -> tuple[Algebra, Morphism]:
    """The quotient by a normal subobject plus its projection.

    By zero every coset is a singleton, so the quotient is the unnamed
    view of A (``algebra._renamed``) with the identity arrays as its
    map, and no table is built.  Otherwise row r of a table is row r
    of A's read at the representatives, by one ``itemgetter``, and
    carried to the cosets.
    """
    _check_parent(A, N)
    if not N.normal:
        raise AlgebraError("can only quotient by a normal subobject")
    if N.is_zero():
        Q = _renamed(A, None)
        return Q, _unchecked(Morphism, A, Q, identity_morphism(A).mapping)
    sorts, qmaps, legs = [], [], []
    for S, X in zip(A.sorts, N.elements):
        qmap, reps = _cosets(S, X)
        # itemgetter of one index returns the entry, not a 1-tuple; the
        # one representative is then 0
        pick = itemgetter(*reps) if len(reps) > 1 else lambda row: (row[0],)
        sorts.append(_rebuild(
            (S,),
            lambda t: [list(map(qmap.__getitem__, pick(t[r]))) for r in reps],
            lambda u: list(map(qmap.__getitem__, pick(u))),
            tuple(dict.fromkeys(qmap[g] for g in S.gens if qmap[g]))))
        qmaps.append(qmap)
        legs.append((reps,))
    Q = _assemble((A,), sorts, legs, [q.__getitem__ for q in qmaps])
    return Q, _unchecked(Morphism, A, Q, tuple(map(tuple, qmaps)))


# ---------------------------------------------------------------------------
# normal closure and the subobject lattice


def normal_closure(A: Algebra, *seeds) -> Subobject:
    """Smallest normal subobject containing the seeds, one set per sort.

    Alternates closure under the operations with closure under the
    normality condition of the variety and under the structure maps
    until stable.  At the fixed point the sets are closed under the
    operations, and neither the normality demands (``_normal_demands``)
    nor the structure maps add an element, so they are closed and
    normal.
    """
    sets = [set(X) | {0} for X in _one_per_sort(A, seeds, "seed set")]
    while True:
        sets = [_close(S.binary, S.unary, X, list(X)) for S, X in zip(A.sorts, sets)]
        bigger = [X.union(_normal_demands(S, X)) for S, X in zip(A.sorts, sets)]
        bigger = [X | img for X, img in zip(bigger, _structure_images(A, bigger))]
        if bigger == sets:
            return _derived_subobject(A, sets, True)
        sets = bigger


def join_normal(A: Algebra, M: Subobject, N: Subobject) -> Subobject:
    """Join in the normal subobject lattice (kernel of the pushout diagonal)."""
    _check_parent(A, M, N)
    if not (M.normal and N.normal):
        raise AlgebraError("join is defined for normal subobjects")
    return normal_closure(A, *(a | b for a, b in zip(M.elements, N.elements)))


def meet_subobjects(A: Algebra, M: Subobject, N: Subobject) -> Subobject:
    """The intersection: closed, as both sets are, and normal when both
    are, since a conjugate or product that lies in each lies in both;
    otherwise normality is tested."""
    _check_parent(A, M, N)
    return _derived_subobject(A, (a & b for a, b in zip(M.elements, N.elements)),
                              (M.normal and N.normal) or None)


def huq_commutator(A: Algebra, H: Subobject, K: Subobject) -> Subobject:
    """The commutator of two normal subobjects.

    Groups: the subgroup generated by commutators, which is the normal
    closure N of the commutators of generators of H and of K: it is
    normal, so it holds N, and modulo N the generators commute, so H
    and K do.  A side that is the whole sort is generated by the
    sort's ``gens``, any other by its elements.  Commutative rings and
    xyxy=xy rings: sums of pairwise products.  Modules: zero.
    """
    _check_parent(A, H, K)
    if not (H.normal and K.normal):
        raise AlgebraError("commutator is defined for normal subobjects")
    S, hs, ks = A.sorts[0], H.elements[0], K.elements[0]
    op, inv = S.binary[0], S.unary[0]
    if A.kind == GROUP:
        hs, ks = (S.gens if len(X) == S.order else X for X in (hs, ks))
        return normal_closure(A, {op[op[inv[x]][inv[y]]][op[x][y]] for x in hs for y in ks})
    if A.kind in ("comm-ring", "rng-star"):
        mul = S.binary[1]
        prods = {mul[h][k] for h in hs for k in ks}
        prods |= {mul[k][h] for h in hs for k in ks}
        prods.add(0)
        return subobject(A, _close((op,), (inv,), prods, list(prods)))
    if A.kind == "zmod-module":
        return zero_subobject(A)
    raise AlgebraError(f"no commutator for {A.kind}")


def power_subobject(A: Algebra, k: int) -> Subobject:
    """k-th powers: the subobject generated by x^k (written kx additively).

    For commutative rings and modules the multiples kx already form a
    subobject, since k(xy) = (kx)y and s(kx) = k(sx).  By Lagrange,
    x^|A| = 0, so x^k = x^(k mod |A|), and the work is bounded by the
    table, not by k.
    """
    if k < 1:
        raise AlgebraError("power must be >= 1")
    if A.kind not in (GROUP, "comm-ring", "zmod-module"):
        raise AlgebraError(f"powers are not defined for {A.kind}")
    op = A.sorts[0].binary[0]
    powers = set()
    for x in range(A.order):
        v = 0
        for _ in range(k % A.order):
            v = op[v][x]
        powers.add(v)
    return subobject(A, closure_under_ops(A, powers))


# ---------------------------------------------------------------------------
# products, pullbacks, kernel pairs


class _Blocks(dict):
    """The blocks of one second component x2, each built when first asked for.

    The block of key a' + width * c is ``index[a']`` read at ``moved[c]``,
    the image under row x2 of tB of the c-th distinct run content.
    """

    __slots__ = ("index", "moved", "width")

    def __init__(self, index, moved, width: int) -> None:
        super().__init__()
        self.index, self.moved, self.width = index, moved, width

    def __missing__(self, key: int) -> list[int]:
        c, a = divmod(key, self.width)
        block = self[key] = list(map(self.index[a].__getitem__, self.moved[c]))
        return block


def _pair_table(index, firsts, seconds, tA, tB) -> list[tuple[int, ...]]:
    """The table on the pairs (firsts[k], seconds[k]) from the tables tA, tB.

    When the pairs number their distinct first components times their
    distinct second components, they are a rectangle K x L, and the
    table is written in closed form (``_rectangle_table``): products,
    and pullbacks along a zero map, such as A x ker g.  Other pair sets
    are unions of several fibres, such as the kernel pairs that
    homology builds, and are built as follows.

    The pairs are those of ``_fibre_pairs``, so they fall into runs of
    columns, one per first component a, each holding the fibre of the
    second leg that a lies over.  Entry (x1, x2) times (a, b) is
    ``index[tA[x1][a]][tB[x2][b]]``, so a row's entries over one run
    form a block that depends on x2, a' = tA[x1][a] and the run's
    content, not on x1.  A block pays when it is long and shared:
    blocks are used when the pairs number at least four times their
    distinct first components (the average run length) and four times
    their distinct second components (the rows that share one x2's
    blocks); the kernel pair of the rank-2 cover in H2(m8-c2) has 32 of
    each.  Then, one x2 at a time, each block is built once and each row
    of that x2 is one concatenation of its blocks.  Otherwise, as in
    most of the sweep's small tables, whose runs are singletons, each
    row is built entry by entry, and rows with one x1 share the lookup
    of ``index`` at row x1 of tA.  Either way every entry is read from
    ``index``, so the table is the same.

    Rows come in lexicographic order, each built as a list and copied
    once into a tuple of its exact size: ``tuple(map(...))`` grows its
    result by reallocation, and the freed blocks it leaves between the
    rows kept alive raised the sweep's peak memory by about 1%.  The
    blocks and run contents are lists and live only for this call:
    freed short tuples stay on the interpreter's free lists, and as
    tuples they kept 0.2 to 0.4 MB more alive through the homology
    workload's queries.
    """
    heads = list(dict.fromkeys(firsts))
    n_seconds = len(set(seconds))
    if len(firsts) == len(heads) * n_seconds:
        return _rectangle_table(index, heads, seconds[:n_seconds], tA, tB)
    if len(firsts) < 4 * max(len(heads), n_seconds):
        rows = []
        for x1, run in groupby(zip(firsts, seconds), key=itemgetter(0)):
            halves = list(map(index.__getitem__, map(tA[x1].__getitem__, firsts)))
            rows.extend(tuple(list(map(getitem, halves, map(tB[x2].__getitem__, seconds))))
                        for _, x2 in run)
        return rows
    # the runs are fibres of the second leg, so a run's first element names it
    width, ids, contents, offsets = len(tA), {}, [], []
    for _, run in groupby(zip(firsts, seconds), key=itemgetter(0)):
        b = next(run)[1]
        if b not in ids:
            ids[b] = len(contents)
            contents.append([b, *map(itemgetter(1), run)])
        offsets.append(width * ids[b])
    rows = [None] * len(firsts)
    for x2 in dict.fromkeys(seconds):
        get = _Blocks(index, [list(map(tB[x2].__getitem__, b)) for b in contents],
                      width).__getitem__
        for x1 in heads:
            k = index[x1][x2]
            if k >= 0:
                rows[k] = tuple(list(chain.from_iterable(
                    map(get, map(add, map(tA[x1].__getitem__, heads), offsets)))))
    return rows


def _rectangle_table(index, K, L, tA, tB) -> list[tuple[int, ...]]:
    """The table on the pairs K x L, lexicographic, from the tables tA, tB.

    Pair (K[i], L[j]) is i * len(L) + j, and K is closed under tA, so
    row (x1, x2) is, for each a of K in turn, the copy of row x2 of tB
    over L read in the pairs of tA[x1][a]: the copies of one x2 are
    ``algebra._shifted_copies`` of it, read in the rows of ``index`` at
    K, and each row is one concatenation of them, as in
    ``algebra._free_module``.  Only one x2's copies are alive at a time.
    """
    at = {a: i for i, a in enumerate(K)}
    moves = [list(map(at.__getitem__, map(tA[x1].__getitem__, K))) for x1 in K]
    pairs_of = [index[a] for a in K]
    rows = [None] * (len(K) * len(L))
    for j, x2 in enumerate(L):
        get = _shifted_copies(list(map(tB[x2].__getitem__, L)), pairs_of).__getitem__
        for i, move in enumerate(moves):
            rows[i * len(L) + j] = tuple(list(chain.from_iterable(map(get, move))))
    return rows


def _pair_map(index, firsts, seconds, uA, uB) -> tuple[int, ...]:
    """The unary map on the pairs from the maps uA, uB, sized as in ``_pair_table``."""
    return tuple(list(map(getitem, map(index.__getitem__, map(uA.__getitem__, firsts)),
                          map(uB.__getitem__, seconds))))


def _fibre_pairs(fm, gm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pairs (a, b) with fm[a] == gm[b], in lexicographic order, as
    the tuple of their first and the tuple of their second components.

    The fibres of gm are indexed once, so the work is that of the
    output, and no pair is built as a tuple: a list of them stayed
    alive while the tables were built, and raised the peak memory of
    CLI H3(m4-c2xc2) by 0.3 MB.
    """
    fibres: dict[int, list[int]] = {}
    for b, y in enumerate(gm):
        fibres.setdefault(y, []).append(b)
    firsts: list[int] = []
    seconds: list[int] = []
    for a, y in enumerate(fm):
        bs = fibres.get(y, ())
        firsts += repeat(a, len(bs))
        seconds += bs
    return tuple(firsts), tuple(seconds)


def _pairs_algebra(A: Algebra, B: Algebra, sort_maps) -> tuple[Algebra, Morphism, Morphism]:
    """The algebra on the pairs that arrays fm, gm identify, one (fm, gm)
    per sort in the tuple ``sort_maps``, with its projections to A and B
    themselves; built once per content in a store (``algebra._store``)."""
    P, firsts, seconds = _stored(_build_pairs, A, B, sort_maps)
    return P, _unchecked(Morphism, P, A, firsts), _unchecked(Morphism, P, B, seconds)


def _build_pairs(A: Algebra, B: Algebra, sort_maps) -> tuple[Algebra, tuple, tuple]:
    """The pair algebra of ``_pairs_algebra`` with its two legs' arrays.

    When one leg is ``range(order)`` on every sort, each element of that
    factor lies in exactly one pair, pair k is the k-th, and the pair
    algebra's tables and structure maps are exactly that factor's: the
    unnamed view of the factor (``algebra._renamed``) is returned, and
    no table is built.
    """
    legs = [_fibre_pairs(fm, gm) for fm, gm in sort_maps]
    for factor, leg in zip((A, B), zip(*legs)):
        if all(k == tuple(range(S.order)) for k, S in zip(leg, factor.sorts)):
            return (_renamed(factor, None), *zip(*legs))
    sorts, backs = [], []
    for SA, SB, (firsts, seconds) in zip(A.sorts, B.sorts, legs):
        index = [[-1] * SB.order for _ in range(SA.order)]
        for k, (a, b) in enumerate(zip(firsts, seconds)):
            index[a][b] = k
        # a product is generated by the (g, 0) and (0, h) of its factors' gens
        gens = (tuple(index[g][0] for g in SA.gens) + tuple(index[0][h] for h in SB.gens)
                if len(firsts) == SA.order * SB.order else None)
        sorts.append(_rebuild((SA, SB), partial(_pair_table, index, firsts, seconds),
                              partial(_pair_map, index, firsts, seconds), gens))
        backs.append(lambda a, b, index=index: index[a][b])
    return (_assemble((A, B), sorts, legs, backs), *zip(*legs))


def pullback(f: Morphism, g: Morphism) -> tuple[Algebra, Morphism, Morphism]:
    """The pullback of f and g over their shared codomain.

    Returns (P, to_dom_f, to_dom_g); the carrier is the set of pairs
    that the two maps identify, ordered lexicographically.
    """
    if f.cod != g.cod:
        raise AlgebraError("pullback needs a shared codomain")
    return _pairs_algebra(f.dom, g.dom, tuple(zip(f.mapping, g.mapping)))


def kernel_pair(f: Morphism) -> tuple[Algebra, Morphism, Morphism]:
    return pullback(f, f)


def into_pullback(P: Algebra, p1: Morphism, p2: Morphism,
                  u: Morphism, v: Morphism) -> Morphism:
    """The mediating map into a pullback from a cone (u, v)."""
    if u.dom != v.dom:
        raise AlgebraError("cone legs must share a domain")
    return Morphism(u.dom, P, tuple(
        _mediate(*arrays) for arrays in zip(p1.mapping, p2.mapping, u.mapping, v.mapping)))


def _mediate(p1m, p2m, um, vm) -> tuple[int, ...]:
    index = {(p1m[p], p2m[p]): p for p in range(len(p1m))}
    try:
        return tuple(index[(um[x], vm[x])] for x in range(len(um)))
    except KeyError:
        raise AlgebraError("cone does not land in the pullback") from None


def direct_product(A: Algebra, B: Algebra) -> tuple[Algebra, Morphism, Morphism]:
    if A.variety != B.variety:
        raise AlgebraError(f"cannot multiply a {A.variety} by a {B.variety}")
    # the pullback over the terminal algebra
    return _pairs_algebra(A, B, tuple(((0,) * SA.order, (0,) * SB.order)
                                      for SA, SB in zip(A.sorts, B.sorts)))


# ---------------------------------------------------------------------------
# exactness


@dataclass(frozen=True)
class ExactSequence:
    """A short exact sequence with an optional splitting."""

    k: Morphism
    f: Morphism
    splitting: Morphism | None = None

    def __post_init__(self) -> None:
        if self.k.cod != self.f.dom:
            raise AlgebraError("sequence maps do not compose")
        # k embeds exactly onto the kernel of the surjection f
        if not (is_injective(self.k) and is_surjective(self.f)
                and image_elements(self.k, full_subobject(self.k.dom))
                == kernel(self.f).elements):
            raise AlgebraError("not a short exact sequence")
        if self.splitting is not None:
            if compose(self.f, self.splitting) != identity_morphism(self.f.cod):
                raise AlgebraError("splitting is not a section")


class NoFactorError(AlgebraError):
    """A map that does not factor through the quotient map given for it."""


def induced_on_quotient(q: Morphism, f: Morphism) -> Morphism:
    """The unique map through a quotient: q surjective, ker q <= ker f.

    ``_induced_array`` proves the map g with g(q(x)) = f(x) well defined
    and q onto on every sort, so g is a morphism by construction:
    g(q(x)*q(y)) = g(q(x*y)) = f(x*y) = g(q(x))*g(q(y)), likewise for
    the unary and structure maps, and every element of the quotient is
    some q(x).  It skips ``validate_morphism``.
    """
    if q.dom != f.dom:
        raise AlgebraError("maps must share a domain")
    return _unchecked(Morphism, q.cod, f.cod, tuple(
        _induced_array(qm, fm, S.order) for qm, fm, S in zip(q.mapping, f.mapping, q.cod.sorts)))


def _induced_array(qm, fm, size: int) -> tuple[int, ...]:
    # g(q(x)) = f(x) is well defined when no q-fibre meets two f-values:
    # then there are as many (q(x), f(x)) pairs as q-values
    out = dict(zip(qm, fm))
    if len(set(zip(qm, fm))) != len(out):
        raise NoFactorError("map does not factor through the quotient")
    if len(out) != size:
        raise AlgebraError("quotient map is not surjective")
    return tuple(map(out.__getitem__, range(size)))

