"""Kernels, quotients, limits and subobject arithmetic.

All constructions return algebras that passed every check of the
``algebra`` constructor, each distinct content checked once while an
equal sort is alive (see the ``algebra`` docstring); quotient carriers
are cosets indexed in first-appearance order, so the class of the
constant is always index 0, and pair carriers (products, pullbacks,
kernel pairs) are sorted lexicographically for the same reason.  A
pair algebra looks pair (a, b) up as ``index[a][b]`` and builds each
table row as one chain of ``map``s, with no per-entry tuple or hash.

Each construction is written once and runs sort by sort (see the
``algebra`` docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import getitem, itemgetter

from .algebra import (
    Algebra,
    AlgebraError,
    GROUP,
    Morphism,
    Sort,
    Subobject,
    _assemble,
    _close,
    _normal_demands,
    _one_per_sort,
    _rebuild,
    _structure_images,
    closure_under_ops,
    compose,
    full_subobject,
    identity_morphism,
    is_injective,
    is_surjective,
    subobject,
    zero_subobject,
)
from .homs import sections


# ---------------------------------------------------------------------------
# subobject images and preimages


def image_elements(f: Morphism, S: Subobject) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(map(m.__getitem__, X)) for m, X in zip(f.mapping, S.elements))


def preimage_subobject(f: Morphism, S: Subobject) -> Subobject:
    return subobject(f.dom, *(frozenset(x for x in range(len(m)) if m[x] in X)
                              for m, X in zip(f.mapping, S.elements)))


def kernel(f: Morphism) -> Subobject:
    """The fibre of the constant, certified normal."""
    K = preimage_subobject(f, zero_subobject(f.cod))
    if not K.normal:
        raise AlgebraError("kernel failed its normality certificate")
    return K


def image(f: Morphism) -> Subobject:
    return subobject(f.cod, *f.mapping)


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
    """The quotient by a normal subobject plus its projection."""
    if N.parent != A:
        raise AlgebraError("subobject of a different parent")
    if not N.normal:
        raise AlgebraError("can only quotient by a normal subobject")
    sorts, qmaps, legs = [], [], []
    for S, X in zip(A.sorts, N.elements):
        qmap, reps = _cosets(S, X)
        sorts.append(_rebuild(
            (S,),
            lambda t: [[qmap[t[rx][ry]] for ry in reps] for rx in reps],
            lambda u: [qmap[u[r]] for r in reps]))
        qmaps.append(qmap)
        legs.append((reps,))
    Q = _assemble((A,), sorts, legs, [q.__getitem__ for q in qmaps])
    return Q, Morphism(A, Q, tuple(map(tuple, qmaps)))


def cokernel(f: Morphism) -> tuple[Algebra, Morphism]:
    closed = normal_closure(f.cod, *image_elements(f, full_subobject(f.dom)))
    return quotient(f.cod, closed)


# ---------------------------------------------------------------------------
# normal closure and the subobject lattice


def normal_closure(A: Algebra, *seeds) -> Subobject:
    """Smallest normal subobject containing the seeds, one set per sort.

    Alternates closure under the operations with closure under the
    normality condition of the variety and under the structure maps
    until stable.
    """
    sets = [set(X) | {0} for X in _one_per_sort(A, seeds, "seed set")]
    while True:
        sets = [_close(S.binary, S.unary, X, list(X)) for S, X in zip(A.sorts, sets)]
        bigger = [X.union(_normal_demands(S, X)) for S, X in zip(A.sorts, sets)]
        bigger = [X | img for X, img in zip(bigger, _structure_images(A, bigger))]
        if bigger == sets:
            sub = subobject(A, *sets)
            if not sub.normal:
                raise AlgebraError("normal closure failed its certificate")
            return sub
        sets = bigger


def join_normal(A: Algebra, M: Subobject, N: Subobject) -> Subobject:
    """Join in the normal subobject lattice (kernel of the pushout diagonal)."""
    if not (M.normal and N.normal):
        raise AlgebraError("join is defined for normal subobjects")
    return normal_closure(A, *(a | b for a, b in zip(M.elements, N.elements)))


def meet_subobjects(A: Algebra, M: Subobject, N: Subobject) -> Subobject:
    return subobject(A, *(a & b for a, b in zip(M.elements, N.elements)))


def _sub_key(sub: Subobject):
    return tuple(tuple(sorted(X)) for X in sub.elements)


def normal_subobjects(A: Algebra) -> list[Subobject]:
    """Every kernel of a quotient of A, smallest first.

    A normal subobject is the join of the normal closures of its own
    elements, so breadth-first joins of single-element closures reach
    all of them.
    """
    atoms = [normal_closure(A, *({x} if j == k else () for j in range(len(A.sorts))))
             for k, S in enumerate(A.sorts) for x in range(S.order)]
    found = {_sub_key(atom): atom for atom in atoms}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for sub in frontier:
            for atom in atoms:
                joined = join_normal(A, sub, atom)
                key = _sub_key(joined)
                if key not in found:
                    found[key] = joined
                    nxt.append(joined)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.size, _sub_key(s)))


def huq_commutator(A: Algebra, H: Subobject, K: Subobject) -> Subobject:
    """The commutator of two subobjects.

    Groups: the subgroup generated by commutators.  Commutative rings
    and xyxy=xy rings: sums of pairwise products.  Modules: zero.
    """
    S, hs, ks = A.sorts[0], H.elements[0], K.elements[0]
    op, inv = S.binary[0], S.unary[0]
    if A.kind == GROUP:
        gens = {op[op[inv[x]][inv[y]]][op[x][y]] for x in hs for y in ks}
        return subobject(A, closure_under_ops(A, gens))
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
    subobject, since k(xy) = (kx)y and s(kx) = k(sx).
    """
    if k < 1:
        raise AlgebraError("power must be >= 1")
    if A.kind not in (GROUP, "comm-ring", "zmod-module"):
        raise AlgebraError(f"powers are not defined for {A.kind}")
    op = A.sorts[0].binary[0]
    powers = set()
    for x in range(A.order):
        v = 0
        for _ in range(k):
            v = op[v][x]
        powers.add(v)
    return subobject(A, closure_under_ops(A, powers))


# ---------------------------------------------------------------------------
# products, pullbacks, kernel pairs


def _pair_table(index, firsts, seconds, tA, tB) -> list[tuple[int, ...]]:
    """The table on the pairs (firsts[k], seconds[k]) from the tables tA, tB.

    Rows with one first component x1, consecutive in sorted pairs, share
    the lookup of ``index`` at the entries of row x1 of tA.  Each row is
    built as a list and copied once into a tuple of its exact size:
    ``tuple(map(...))`` grows its result by reallocation, and the freed
    blocks it leaves between the rows kept alive raised the sweep's peak
    memory by about 1%.
    """
    rows = []
    for x1, run in groupby(zip(firsts, seconds), key=itemgetter(0)):
        halves = list(map(index.__getitem__, map(tA[x1].__getitem__, firsts)))
        rows.extend(tuple(list(map(getitem, halves, map(tB[x2].__getitem__, seconds))))
                    for _, x2 in run)
    return rows


def _pair_map(index, firsts, seconds, uA, uB) -> tuple[int, ...]:
    """The unary map on the pairs from the maps uA, uB, sized as in ``_pair_table``."""
    return tuple(list(map(getitem, map(index.__getitem__, map(uA.__getitem__, firsts)),
                          map(uB.__getitem__, seconds))))


def _pairs_algebra(A: Algebra, B: Algebra, sort_pairs) -> tuple[Algebra, Morphism, Morphism]:
    """The algebra on the given sorted pairs, sort by sort, with its projections."""
    sorts, legs, backs = [], [], []
    for SA, SB, pairs in zip(A.sorts, B.sorts, sort_pairs):
        firsts, seconds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
        index = [[-1] * SB.order for _ in range(SA.order)]
        for k, (a, b) in enumerate(pairs):
            index[a][b] = k
        sorts.append(_rebuild((SA, SB), partial(_pair_table, index, firsts, seconds),
                              partial(_pair_map, index, firsts, seconds)))
        legs.append((firsts, seconds))
        backs.append(lambda a, b, index=index: index[a][b])
    P = _assemble((A, B), sorts, legs, backs)
    return (P, Morphism(P, A, tuple(leg[0] for leg in legs)),
            Morphism(P, B, tuple(leg[1] for leg in legs)))


def pullback(f: Morphism, g: Morphism) -> tuple[Algebra, Morphism, Morphism]:
    """The pullback of f and g over their shared codomain.

    Returns (P, to_dom_f, to_dom_g); the carrier is the set of pairs
    that the two maps identify, ordered lexicographically.
    """
    if f.cod != g.cod:
        raise AlgebraError("pullback needs a shared codomain")
    A, B = f.dom, g.dom
    return _pairs_algebra(A, B, [
        [(a, b) for a in range(SA.order) for b in range(SB.order) if fm[a] == gm[b]]
        for SA, SB, fm, gm in zip(A.sorts, B.sorts, f.mapping, g.mapping)])


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
    return _pairs_algebra(A, B, [[(a, b) for a in range(SA.order) for b in range(SB.order)]
                                 for SA, SB in zip(A.sorts, B.sorts)])


# ---------------------------------------------------------------------------
# exactness


@dataclass(frozen=True)
class SequenceClassification:
    kind: str  # "not-exact" | "exact" | "split-exact"
    splitting: Morphism | None = None


def _is_exact(k: Morphism, f: Morphism) -> bool:
    """k embeds exactly onto the kernel of the surjection f."""
    return (is_injective(k) and is_surjective(f)
            and image_elements(k, full_subobject(k.dom)) == kernel(f).elements)


def classify_sequence(k: Morphism, f: Morphism) -> SequenceClassification:
    """Classify the composable pair k, f as a short exact sequence.

    Exact means k embeds exactly onto the kernel of f and f is a
    quotient map; split-exact additionally returns a section witness.
    """
    if k.cod != f.dom:
        raise AlgebraError("sequence maps do not compose")
    if not _is_exact(k, f):
        return SequenceClassification("not-exact")
    secs = sections(f)
    if secs:
        return SequenceClassification("split-exact", secs[0])
    return SequenceClassification("exact")


@dataclass(frozen=True)
class ExactSequence:
    """A short exact sequence with an optional splitting."""

    k: Morphism
    f: Morphism
    splitting: Morphism | None = None

    def __post_init__(self) -> None:
        # classify_sequence would also hunt for a section; skip that here
        if self.k.cod != self.f.dom:
            raise AlgebraError("sequence maps do not compose")
        if not _is_exact(self.k, self.f):
            raise AlgebraError("not a short exact sequence")
        if self.splitting is not None:
            if compose(self.f, self.splitting) != identity_morphism(self.f.cod):
                raise AlgebraError("splitting is not a section")


def induced_on_quotient(q: Morphism, f: Morphism) -> Morphism:
    """The unique map through a quotient: q surjective, ker q <= ker f."""
    if q.dom != f.dom:
        raise AlgebraError("maps must share a domain")
    return Morphism(q.cod, f.cod, tuple(
        _induced_array(qm, fm, S.order) for qm, fm, S in zip(q.mapping, f.mapping, q.cod.sorts)))


def _induced_array(qm, fm, size: int) -> tuple[int, ...]:
    out = [-1] * size
    for x, qx in enumerate(qm):
        if out[qx] < 0:
            out[qx] = fm[x]
        elif out[qx] != fm[x]:
            raise AlgebraError("map does not factor through the quotient")
    if any(v < 0 for v in out):
        raise AlgebraError("quotient map is not surjective")
    return tuple(out)


def epi_kernel_factorisation(f: Morphism) -> tuple[Morphism, Morphism]:
    """Factor a surjection as its kernel quotient followed by an iso."""
    if not is_surjective(f):
        raise AlgebraError("not a surjection")
    Q, proj = quotient(f.dom, kernel(f))
    iso = induced_on_quotient(proj, f)
    if not is_injective(iso):
        raise AlgebraError("induced comparison is not an isomorphism")
    return proj, iso
