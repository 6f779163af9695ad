"""Kernel-pair radicals for subvariety reflections, and Hopf homology.

The radical of a surjection is built from its kernel pair: restrict
the reflector's radical to the pair object, cut it down by the first
projection's kernel, push forward along the second projection and
take the normal closure.  Iterating this construction over cubes of
kernel pairs gives the higher radicals, and quotients of free-module
presentations by them give exact homology in degrees 2 and 3.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .algebra import (
    Algebra,
    AlgebraError,
    Morphism,
    Subobject,
    _derived_subobject,
    _stored,
    compose,
    generating_set,
    sub_algebra,
    subobject,
    zero_morphism,
)
from .cubes import (
    NCube,
    _kernel_pair_cube,
    _quotient_top,
    cube_of_morphism,
    is_nfold_extension,
    rib_kernel_meet,
    square,
)
from .factorisation import cube_torsion_meet, unit_square
from .families import trivial_of_variety, zmod_free
from .homs import _corpus_surjections, is_isomorphic
from .ops import (
    image_elements,
    join_normal,
    kernel,
    kernel_pair,
    meet_subobjects,
    normal_closure,
    preimage_subobject,
    pullback,
    quotient,
)
from .reflectors import (
    Reflector,
    is_free_member,
    known_protoadditive_on,
    preserves_split_sequence,
    radical,
    split_exact_sequences,
)


@dataclass(frozen=True)
class BirkhoffContext:
    """A reflector whose unit squares over the corpus are double extensions.

    The optional comparison reflector C must cut out a subcategory of
    B's and act protoadditively on it; both facts are certified over
    the corpus at construction time.

    A context remembers the radical of each 1-cube it is asked for,
    keyed by the arrow; a hit made on an arrow equal by content is
    moved, unchecked, to the caller's top vertex.  The memo lives as
    long as the context.  In the store of a sweep, contexts that differ
    only in C share it and the base certification (``_shared_context``).
    """

    B: Reflector
    corpus: tuple[Algebra, ...]
    C: Reflector | None = None

    def __post_init__(self) -> None:
        members = [A for A in self.corpus if self.B.applies_to(A.variety)]
        checked = 0
        for f in _corpus_surjections(members):
            checked += 1
            if not is_nfold_extension(unit_square(self.B, f)):
                raise AlgebraError(
                    f"unit square of a corpus surjection is not a double extension under {self.B.name}")
        object.__setattr__(self, "checked_surjections", checked)
        object.__setattr__(self, "_radicals", {})
        self._compare(members)

    def _compare(self, members) -> None:
        """Certify C over the members and count the sequences compared."""
        compared = 0
        if self.C is not None:
            # C's subcategory must sit inside B's
            for A in members:
                if self.C.applies_to(A.variety) and is_free_member(self.C, A):
                    if not is_free_member(self.B, A):
                        raise AlgebraError("comparison subcategory is not contained in the base")
            free_members = [A for A in members
                            if self.C.applies_to(A.variety) and is_free_member(self.B, A)]
            seqs = split_exact_sequences(free_members)
            for seq in seqs:
                compared += 1
                if not preserves_split_sequence(self.C, seq):
                    raise AlgebraError(
                        f"comparison reflector {self.C.name} is not protoadditive on the subcategory")
        object.__setattr__(self, "comparison_sequences", compared)


def _shared_context(B: Reflector, corpus, C: Reflector | None = None) -> BirkhoffContext:
    """The context for B over the corpus members that B applies to and
    comparison C, once per store (``algebra._store``).  One with a
    comparison is a copy of the stored base context, sharing its memo,
    that certifies only C.  A failed certification is not stored.
    """
    return _stored(_certified, B, tuple(A for A in corpus if B.applies_to(A.variety)), C)


def _certified(B: Reflector, members: tuple, C: Reflector | None) -> BirkhoffContext:
    if C is None:
        return BirkhoffContext(B, members)
    ctx = copy.copy(_shared_context(B, members))
    object.__setattr__(ctx, "C", C)
    ctx._compare(members)
    return ctx


def birkhoff_radical(ctx: BirkhoffContext, f: Morphism) -> Subobject:
    """The kernel-pair radical of a surjection, in dom(f)."""
    return radical_n(ctx, cube_of_morphism(f))


def _module_radical(B: Reflector, c: NCube) -> Subobject:
    """The radical of a module 1-cube or square under a radical acting
    by a scalar k, with no pair algebra built.

    One step of the kernel-pair recursion, on the points x of an arrow
    g: the kernel pair R of g holds the pairs (x, y) with gx = gy; its
    radical k.R cut by the first projection's kernel holds the (kx, ky)
    with kx = 0, so pushed forward along the second projection it is
    the set of ky with gy in g({x : kx = 0}).  A 1-cube takes this step
    on its arrow.  A square takes it on the kernel pair of its second
    rib a2, kept as a set of pairs, with a1 x a1 as the arrow: that is
    the radical of the smaller cube above, and its pairs with first
    component 0 give the square's radical.  Only the pairs (x, y) with
    kx = 0 take part, since they hold every pair that k kills and every
    pair whose multiple has first component 0.  Free covers in
    presentations are too large for materialised kernel pairs.

    The result is k times a submodule (the x + z with kx = 0 and
    gz = 0), hence a submodule with no span to take; ``subobject``
    checks it.
    """
    F = c.top_vertex
    k = F.sorts[0].unary[1 + (B.k or 0) % F.variety.modulus]  # unary maps: neg, then scalars
    if c.dim == 1:
        images, multiples = c.arrow.mapping[0], k
    else:
        (a1,), (a2,) = c.rib(0).mapping, c.rib(1).mapping
        n1 = c.rib(0).cod.order
        fibres: dict[int, list[int]] = {}
        for x in range(F.order):
            fibres.setdefault(a2[x], []).append(x)
        # the pair (x, y) has image a1x*n1 + a1y and, as kx = 0, multiple ky
        images, multiples = [], []
        for fibre in fibres.values():
            for x in fibre:
                if k[x] == 0:
                    ax = a1[x] * n1
                    images.extend([ax + a1[y] for y in fibre])
                    multiples.extend([k[y] for y in fibre])
    marked = {g for g, kx in zip(images, multiples) if kx == 0}
    return subobject(F, {ky for g, ky in zip(images, multiples) if g in marked})


def radical_n(ctx: BirkhoffContext, c: NCube) -> Subobject:
    """The n-th radical of an n-cube, in its top vertex.

    Take the kernel pair along the last axis: of the arrow in dimension
    one, levelwise as a cube one dimension down above that.  Its
    radical (the reflector's object radical in dimension one, this
    radical of the smaller cube above) is cut by the first projection's
    kernel, pushed forward along the second and normally closed.
    When the top vertex is a Z/m-module and the radical acts by a scalar
    k (``burnside:k``, or ``id`` as k = 0), arrows and squares run this
    recursion on the points and pairs of the top vertex and build no
    kernel-pair algebra (``_module_radical``); every homology query
    takes that route.  The radical of a 1-cube is taken once per
    context (its memo), by either route.
    """
    if c.dim == 1:
        rad = ctx._radicals.get(c.arrow)
        if rad is not None:
            if rad.parent is not c.top_vertex:
                # made on an arrow equal by content: the same sets, moved
                rad = _derived_subobject(c.top_vertex, rad.elements, rad.normal)
            return rad
    if (c.dim <= 2 and c.top_vertex.kind == "zmod-module"
            and (ctx.B.k is not None or ctx.B.name == "id")):
        rad = _module_radical(ctx.B, c)
    else:
        if c.dim == 1:
            R, p1, p2 = kernel_pair(c.arrow)
            inner = radical(ctx.B, R)
        else:
            rcube, p1, p2 = _kernel_pair_cube(c)
            R, inner = rcube.top_vertex, radical_n(ctx, rcube)
        cut = meet_subobjects(R, inner, kernel(p1))
        rad = normal_closure(c.top_vertex, *image_elements(p2, cut))
    if c.dim == 1:
        ctx._radicals[c.arrow] = rad
    return rad


def _checked_radical(ctx: BirkhoffContext, c: NCube) -> Subobject:
    """The cube's radical; when the reflector is protoadditive on the
    variety it is recomputed from the rib-kernel meet and the two must
    agree element by element."""
    rad = radical_n(ctx, c)
    if known_protoadditive_on(ctx.B, c.top_vertex.kind):
        if cube_torsion_meet(ctx.B, c).elements != rad.elements:
            raise AlgebraError("radical route and kernel-meet route disagree")
    return rad


def is_birkhoff_normal(ctx: BirkhoffContext, c: NCube) -> bool:
    """Vanishing of the cube's radical, checked against the kernel meet."""
    if not is_nfold_extension(c):
        raise AlgebraError("normality test expects an n-fold extension")
    return _checked_radical(ctx, c).is_zero()


def centralize(ctx: BirkhoffContext, c: NCube) -> NCube:
    """Quotient the top vertex by the cube's radical."""
    if not is_nfold_extension(c):
        raise AlgebraError("centralisation expects an n-fold extension")
    _, out = _quotient_top(c, radical_n(ctx, c))
    if not is_birkhoff_normal(ctx, out):
        raise AlgebraError("centralisation did not reach a normal cube")
    return out


def composite_radical(ctx: BirkhoffContext, c: NCube) -> Subobject:
    """Radical for a sharpened subcategory, as a join in the top vertex.

    The comparison reflector C names the sharpened subcategory: C itself
    when it is a composite over B, or the meet of B with a second
    subcategory.  Either way the radical is the join of the B-radical
    with the normal closure of C's radical of the rib-kernel meet; the
    ambient object is always the top vertex.
    """
    if ctx.C is None:
        raise AlgebraError("composite radicals need a comparison reflector")
    if not is_nfold_extension(c):
        raise AlgebraError("composite radical expects an n-fold extension")
    base = radical_n(ctx, c)
    extra = cube_torsion_meet(ctx.C, c)
    closed = normal_closure(c.top_vertex, *extra.elements)
    return join_normal(c.top_vertex, base, closed)


def object_cube(A: Algebra) -> NCube:
    """An algebra as the 1-cube onto the zero object of its variety."""
    Z = trivial_of_variety(A.variety)
    return cube_of_morphism(zero_morphism(A, Z))


# ---------------------------------------------------------------------------
# presentations and homology


def _is_free_module(V: Algebra) -> bool:
    """Whether V is (Z/m)^r: |V| = m^r, and for each prime p dividing m
    the scalar m/p kills exactly (m/p)^r elements, which holds exactly
    when every p-primary cyclic summand has full length."""
    m = V.variety.modulus
    rank, size = 0, 1
    while size < V.order:
        size *= m
        rank += 1
    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]
    return size == V.order and all(
        V.sorts[0].unary[1 + m // p].count(0) == (m // p) ** rank for p in primes)


@dataclass(frozen=True)
class Presentation:
    """An n-fold extension with free modules everywhere above the base."""

    cube: NCube

    def __post_init__(self) -> None:
        if not is_nfold_extension(self.cube):
            raise AlgebraError("presentation is not an n-fold extension")
        bottom = (1 << self.cube.dim) - 1
        for mask, V in self.cube.vertices.items():
            if mask != bottom and not _is_free_module(V):
                raise AlgebraError("presentation has a non-free upper vertex")


def _presentation_map(A: Algebra, variant: int) -> Morphism:
    """A free cover of A; higher variants augment the rank."""
    m = A.variety.modulus
    gens = generating_set(A)
    rank = len(gens) + variant
    targets = gens + [0] * variant
    F = zmod_free(m, rank)
    (add,), (_, *act) = A.sorts[0].binary, A.sorts[0].unary
    mapping = []
    for x in range(F.order):
        acc, rest = 0, x
        for i in range(rank):
            digit = rest % m
            rest //= m
            acc = add[acc][act[digit][targets[i]]]
        mapping.append(acc)
    return Morphism(F, A, (tuple(mapping),))


def build_presentation(A: Algebra, n: int, variant: int = 0) -> Presentation:
    if A.kind != "zmod-module":
        raise AlgebraError("presentations live in module varieties")
    if n not in (1, 2):
        raise AlgebraError("presentation dimension must be 1 or 2")
    p = _presentation_map(A, variant)
    if n == 1:
        return Presentation(cube_of_morphism(p))
    # the variant already changed the legs, hence P; a minimal cover of
    # P keeps the top vertex small
    P, pi1, pi2 = pullback(p, p)
    cover = _presentation_map(P, 0)
    a1 = compose(pi1, cover)
    a2 = compose(pi2, cover)
    return Presentation(square(a1, a2, p, p))


def _quotient_of_sub(parent: Algebra, num: Subobject, den: Subobject) -> Algebra:
    """The quotient num/den as an algebra, for den normal inside num."""
    sub, incl = sub_algebra(parent, num)
    H, _ = quotient(sub, preimage_subobject(incl, den))
    return H


def hopf_homology(ctx: BirkhoffContext, A: Algebra, degree: int,
                  presentations: list | None = None) -> Algebra:
    """Exact homology of A in degree 2 or 3.

    Computes the kernel-intersection quotient over a free presentation
    and re-runs it on an independent, rank-augmented presentation; the
    two results must be isomorphic.  Given a list, ``presentations``
    receives the two presentations in that order.
    """
    if A.kind != "zmod-module":
        raise AlgebraError("homology is computed in module varieties")
    if degree not in (2, 3):
        raise AlgebraError("degree must be 2 or 3")
    first = _hopf_once(ctx, A, degree, 0, presentations)
    second = _hopf_once(ctx, A, degree, 1, presentations)
    if not is_isomorphic(first, second):
        raise AlgebraError("presentation independence failed; this is a bug")
    return first


def _hopf_once(ctx: BirkhoffContext, A: Algebra, degree: int, variant: int,
               presentations: list | None) -> Algebra:
    pres = build_presentation(A, degree - 1, variant)
    if presentations is not None:
        presentations.append(pres)
    c = pres.cube
    top = c.top_vertex
    num = meet_subobjects(top, radical(ctx.B, top), rib_kernel_meet(c))
    den = _checked_radical(ctx, c)
    if not den <= num:
        raise AlgebraError("radical escaped the Hopf numerator")
    return _quotient_of_sub(top, num, den)
