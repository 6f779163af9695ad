"""Kernels, quotients, limits and subobject arithmetic.

All constructions return fully validated algebras; quotient carriers
are cosets indexed in first-appearance order, so the class of the
constant is always index 0, and pair carriers (products, pullbacks,
kernel pairs) are sorted lexicographically for the same reason.

Each construction is written once, level by level, through the
signature and the level views of ``algebra`` (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    AlgebraError,
    GROUP,
    Morphism,
    Subobject,
    _arrays,
    _assemble,
    _close,
    _levels,
    _normal_demands,
    _pack,
    _rebuild,
    _sets,
    _signature,
    _split,
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


def image_elements(f: Morphism, S: Subobject) -> frozenset[int] | tuple:
    return _pack(f.cod, [frozenset(map(m.__getitem__, X)) for m, X in zip(_arrays(f), _sets(S))])


def preimage_subobject(f: Morphism, S: Subobject) -> Subobject:
    return subobject(f.dom, _pack(f.dom, [frozenset(x for x in range(len(m)) if m[x] in X)
                                          for m, X in zip(_arrays(f), _sets(S))]))


def kernel(f: Morphism) -> Subobject:
    """The fibre of the constant, certified normal."""
    K = preimage_subobject(f, zero_subobject(f.cod))
    if not K.normal:
        raise AlgebraError("kernel failed its normality certificate")
    return K


def image(f: Morphism) -> Subobject:
    return subobject(f.cod, _pack(f.cod, [frozenset(m) for m in _arrays(f)]))


# ---------------------------------------------------------------------------
# quotients


def _cosets(A: Algebra, elems) -> tuple[list[int], list[int]]:
    """Coset index of each element and one representative per coset."""
    table = _signature(A)[0][0]
    coset_of = [-1] * A.order
    reps: list[int] = []
    for x in range(A.order):
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
    levels, qmaps, legs = [], [], []
    for L, S in zip(_levels(A), _sets(N)):
        qmap, reps = _cosets(L, S)
        levels.append(_rebuild(
            (L,),
            lambda t: [[qmap[t[rx][ry]] for ry in reps] for rx in reps],
            lambda u: [qmap[u[r]] for r in reps]))
        qmaps.append(qmap)
        legs.append((reps,))
    Q = _assemble((A,), levels, legs, [q.__getitem__ for q in qmaps])
    return Q, Morphism(A, Q, _pack(A, [tuple(q) for q in qmaps]))


def cokernel(f: Morphism) -> tuple[Algebra, Morphism]:
    closed = normal_closure(f.cod, image_elements(f, full_subobject(f.dom)))
    return quotient(f.cod, closed)


# ---------------------------------------------------------------------------
# normal closure and the subobject lattice


def normal_closure(A: Algebra, seed) -> Subobject:
    """Smallest normal subobject containing ``seed``.

    Alternates closure under the operations with closure under the
    normality condition of the variety (and, for groupoids, under
    source, target and unit) until stable.
    """
    levels = _levels(A)
    sets = [set(S) | {0} for S in _split(A, seed)]
    while True:
        sets = [_close(*_signature(L), S, list(S)) for L, S in zip(levels, sets)]
        bigger = [S.union(_normal_demands(L, S)) for L, S in zip(levels, sets)]
        bigger = [S | img for S, img in zip(bigger, _structure_images(A, bigger))]
        if bigger == sets:
            sub = subobject(A, _pack(A, sets))
            if not sub.normal:
                raise AlgebraError("normal closure failed its certificate")
            return sub
        sets = bigger


def join_normal(A: Algebra, M: Subobject, N: Subobject) -> Subobject:
    """Join in the normal subobject lattice (kernel of the pushout diagonal)."""
    if not (M.normal and N.normal):
        raise AlgebraError("join is defined for normal subobjects")
    return normal_closure(A, _pack(A, [a | b for a, b in zip(_sets(M), _sets(N))]))


def meet_subobjects(A: Algebra, M: Subobject, N: Subobject) -> Subobject:
    return subobject(A, _pack(A, [a & b for a, b in zip(_sets(M), _sets(N))]))


def _sub_key(sub: Subobject):
    return tuple(tuple(sorted(S)) for S in _sets(sub))


def normal_subobjects(A: Algebra) -> list[Subobject]:
    """Every kernel of a quotient of A, smallest first.

    A normal subobject is the join of the normal closures of its own
    elements, so breadth-first joins of single-element closures reach
    all of them.
    """
    levels = _levels(A)
    atoms = [normal_closure(A, _pack(A, [{x} if j == k else () for j in range(len(levels))]))
             for k, L in enumerate(levels) for x in range(L.order)]
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
    if A.kind == GROUP:
        op, inv = A.op, A.inv
        gens = {op[op[inv[x]][inv[y]]][op[x][y]] for x in H.elements for y in K.elements}
        return subobject(A, closure_under_ops(A, gens))
    if A.kind in ("comm-ring", "rng-star"):
        prods = {A.mul[h][k] for h in H.elements for k in K.elements}
        prods |= {A.mul[k][h] for h in H.elements for k in K.elements}
        prods.add(0)
        return subobject(A, _close((A.add,), (A.neg,), prods, list(prods)))
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
    op = _signature(A)[0][0]
    powers = set()
    for x in range(A.order):
        v = 0
        for _ in range(k):
            v = op[v][x]
        powers.add(v)
    return subobject(A, closure_under_ops(A, powers))


# ---------------------------------------------------------------------------
# products, pullbacks, kernel pairs


def _pairs_algebra(A: Algebra, B: Algebra, level_pairs) -> tuple[Algebra, Morphism, Morphism]:
    """The algebra on the given sorted pairs, level by level, with its projections."""
    levels, legs, backs = [], [], []
    for LA, LB, pairs in zip(_levels(A), _levels(B), level_pairs):
        idx = {p: k for k, p in enumerate(pairs)}
        levels.append(_rebuild(
            (LA, LB),
            lambda tA, tB: [[idx[(tA[x1][y1], tB[x2][y2])] for (y1, y2) in pairs]
                            for (x1, x2) in pairs],
            lambda uA, uB: [idx[(uA[x1], uB[x2])] for (x1, x2) in pairs]))
        legs.append((tuple(a for a, _ in pairs), tuple(b for _, b in pairs)))
        backs.append(lambda a, b, idx=idx: idx[(a, b)])
    P = _assemble((A, B), levels, legs, backs)
    return (P, Morphism(P, A, _pack(A, [leg[0] for leg in legs])),
            Morphism(P, B, _pack(B, [leg[1] for leg in legs])))


def pullback(f: Morphism, g: Morphism) -> tuple[Algebra, Morphism, Morphism]:
    """The pullback of f and g over their shared codomain.

    Returns (P, to_dom_f, to_dom_g); the carrier is the set of pairs
    that the two maps identify, ordered lexicographically.
    """
    if f.cod != g.cod:
        raise AlgebraError("pullback needs a shared codomain")
    A, B = f.dom, g.dom
    return _pairs_algebra(A, B, [
        [(a, b) for a in range(LA.order) for b in range(LB.order) if fm[a] == gm[b]]
        for LA, LB, fm, gm in zip(_levels(A), _levels(B), _arrays(f), _arrays(g))])


def kernel_pair(f: Morphism) -> tuple[Algebra, Morphism, Morphism]:
    return pullback(f, f)


def into_pullback(P: Algebra, p1: Morphism, p2: Morphism,
                  u: Morphism, v: Morphism) -> Morphism:
    """The mediating map into a pullback from a cone (u, v)."""
    if u.dom != v.dom:
        raise AlgebraError("cone legs must share a domain")
    return Morphism(u.dom, P, _pack(P, [
        _mediate(*arrays) for arrays in zip(_arrays(p1), _arrays(p2), _arrays(u), _arrays(v))]))


def _mediate(p1m, p2m, um, vm) -> tuple[int, ...]:
    index = {(p1m[p], p2m[p]): p for p in range(len(p1m))}
    try:
        return tuple(index[(um[x], vm[x])] for x in range(len(um)))
    except KeyError:
        raise AlgebraError("cone does not land in the pullback") from None


def direct_product(A: Algebra, B: Algebra) -> tuple[Algebra, Morphism, Morphism]:
    if A.variety != B.variety:
        raise AlgebraError(f"cannot multiply a {A.variety} by a {B.variety}")
    return _pairs_algebra(A, B, [[(a, b) for a in range(LA.order) for b in range(LB.order)]
                                 for LA, LB in zip(_levels(A), _levels(B))])


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
    return Morphism(q.cod, f.cod, _pack(q.cod, [
        _induced_array(qm, fm, L.order) for qm, fm, L in zip(_arrays(q), _arrays(f), _levels(q.cod))]))


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
