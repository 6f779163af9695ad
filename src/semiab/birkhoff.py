"""Kernel-pair radicals for subvariety reflections, and Hopf homology.

The radical of a surjection is built from its kernel pair: restrict
the reflector's radical to the pair object, cut it down by the first
projection's kernel and push forward along the second projection,
where it is already normal.  Iterating this construction over cubes of
kernel pairs gives the higher radicals, and quotients of free-module
presentations by them give exact homology in degrees 2 and 3.  Kill
counts (``_kills``) decide freeness and the agreement of presentations.

The radicals take the reflector; a ``BirkhoffContext`` only certifies,
over a corpus, what the theory promises of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
from .homs import _corpus_surjections
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
    """A certificate that B's unit squares over the corpus are double
    extensions and, given a comparison reflector C, that C cuts out a
    subcategory of B's and acts protoadditively on it.  Each is
    certified once per store (``algebra._store``) and counted.
    """

    B: Reflector
    corpus: tuple[Algebra, ...]
    C: Reflector | None = None

    def __post_init__(self) -> None:
        members = tuple(A for A in self.corpus if self.B.applies_to(A.variety))
        object.__setattr__(self, "checked_surjections", _stored(_certify, self.B, members))
        object.__setattr__(self, "comparison_sequences", 0 if self.C is None
                           else _stored(_compare, self.B, self.C, members))


def _certify(B: Reflector, members: tuple) -> int:
    """Check B's unit square over each corpus surjection; count them."""
    checked = 0
    for f in _corpus_surjections(members):
        checked += 1
        if not is_nfold_extension(unit_square(B, f)):
            raise AlgebraError(
                f"unit square of a corpus surjection is not a double extension under {B.name}")
    return checked


def _compare(B: Reflector, C: Reflector, members: tuple) -> int:
    """Certify C against B over the members; count the sequences."""
    # C's subcategory must sit inside B's
    for A in members:
        if C.applies_to(A.variety) and is_free_member(C, A) and not is_free_member(B, A):
            raise AlgebraError("comparison subcategory is not contained in the base")
    seqs = split_exact_sequences([A for A in members
                                  if C.applies_to(A.variety) and is_free_member(B, A)])
    for seq in seqs:
        if not preserves_split_sequence(C, seq):
            raise AlgebraError(
                f"comparison reflector {C.name} is not protoadditive on the subcategory")
    return len(seqs)


def birkhoff_radical(B: Reflector, f: Morphism) -> Subobject:
    """The kernel-pair radical of a surjection, in dom(f)."""
    return radical_n(B, cube_of_morphism(f))


def _scalar(B: Reflector, F: Algebra) -> tuple | None:
    """The map x -> kx when F is a Z/m-module and B's radical acts by
    the scalar k (``burnside:k``, or ``id`` as k = 0), else None."""
    if F.kind != "zmod-module" or (B.k is None and B.name != "id"):
        return None
    return F.sorts[0].unary[1 + (B.k or 0) % F.variety.modulus]  # unary maps: neg, then scalars


def _module_radical(k: tuple, a1: Morphism, a2: Morphism | None = None) -> Subobject:
    """The radical of the module arrow a1, or of the square with ribs
    a1 and a2, under a radical acting by the scalar map k, with no pair
    algebra built.

    One step of the kernel-pair recursion, on the points x of an arrow
    g: the kernel pair R of g holds the pairs (x, y) with gx = gy; its
    radical k.R cut by the first projection's kernel holds the (kx, ky)
    with kx = 0, so pushed forward along the second projection it is
    the set of ky with gy in g({x : kx = 0}).  An arrow takes this step
    on itself.  A square takes it on the kernel pair of its second rib
    a2, kept as a set of pairs, with a1 x a1 as the arrow: that is the
    radical of the smaller cube above, and its pairs with first
    component 0 give the square's radical.  Only the pairs (x, y) with
    kx = 0 take part, since they hold every pair that k kills and every
    pair whose multiple has first component 0.  Free covers in
    presentations are too large for materialised kernel pairs.

    The result is k times a submodule (the x + z with kx = 0 and
    gz = 0), hence a submodule with no span to take; ``subobject``
    checks it.
    """
    F = a1.dom
    if a2 is None:
        images, multiples = a1.mapping[0], k
    else:
        (m1,), (m2,) = a1.mapping, a2.mapping
        n1 = a1.cod.order
        fibres: dict[int, list[int]] = {}
        for x in range(F.order):
            fibres.setdefault(m2[x], []).append(x)
        # the pair (x, y) has image a1x*n1 + a1y and, as kx = 0, multiple ky
        images, multiples = [], []
        for fibre in fibres.values():
            for x in fibre:
                if k[x] == 0:
                    ax = m1[x] * n1
                    images.extend([ax + m1[y] for y in fibre])
                    multiples.extend([k[y] for y in fibre])
    marked = {g for g, kx in zip(images, multiples) if kx == 0}
    return subobject(F, {ky for g, ky in zip(images, multiples) if g in marked})


def _pushed_forward(top: Algebra, inner: Subobject, p1: Morphism, p2: Morphism) -> Subobject:
    """``inner``, in the kernel pair (p1, p2), cut by the kernel of p1
    and pushed forward along p2 into top.

    ``inner`` is a radical, so normal, and so is its meet with a kernel.
    p2 is split by the diagonal, so a regular epi, and the image of a
    normal subobject along a regular epi is normal: the image is its own
    normal closure, which the radical is defined as.
    """
    cut = meet_subobjects(p1.dom, inner, kernel(p1))
    return _derived_subobject(top, image_elements(p2, cut), True)


def _arrow_radical(B: Reflector, f: Morphism) -> Subobject:
    """The radical of the 1-cube f, by the module route or the kernel pair."""
    k = _scalar(B, f.dom)
    if k is not None:
        return _module_radical(k, f)
    R, p1, p2 = kernel_pair(f)
    return _pushed_forward(f.dom, radical(B, R), p1, p2)


def radical_n(B: Reflector, c: NCube) -> Subobject:
    """The n-th radical of an n-cube under B, in its top vertex.

    Take the kernel pair along the last axis: of the arrow in dimension
    one, levelwise as a cube one dimension down above that.  Its
    radical (B's object radical in dimension one, this radical of the
    smaller cube above) is cut by the first projection's kernel and
    pushed forward along the second (``_pushed_forward``).
    When the top vertex is a Z/m-module and the radical acts by a scalar
    k (``burnside:k``, or ``id`` as k = 0), arrows and squares run this
    recursion on the points and pairs of the top vertex and build no
    kernel-pair algebra (``_module_radical``); every homology query
    takes that route.  A 1-cube's radical is taken once per arrow in a
    store (``algebra._store``); a hit made on an arrow equal by content
    is moved, unchecked, to the caller's top vertex.
    """
    if c.dim == 1:
        rad = _stored(_arrow_radical, B, c.arrow)
        if rad.parent is not c.top_vertex:
            # made on an arrow equal by content: the same sets, moved
            rad = _derived_subobject(c.top_vertex, rad.elements, rad.normal)
        return rad
    k = _scalar(B, c.top_vertex)
    if c.dim == 2 and k is not None:
        return _module_radical(k, c.rib(0), c.rib(1))
    rcube, p1, p2 = _kernel_pair_cube(c)
    return _pushed_forward(c.top_vertex, radical_n(B, rcube), p1, p2)


def _checked_radical(B: Reflector, c: NCube) -> Subobject:
    """The cube's radical; when the reflector is protoadditive on the
    variety it is recomputed from the rib-kernel meet and the two must
    agree element by element."""
    rad = radical_n(B, c)
    if known_protoadditive_on(B, c.top_vertex.kind):
        if cube_torsion_meet(B, c).elements != rad.elements:
            raise AlgebraError("radical route and kernel-meet route disagree")
    return rad


def is_birkhoff_normal(B: Reflector, c: NCube) -> bool:
    """Vanishing of the cube's radical, checked against the kernel meet."""
    if not is_nfold_extension(c):
        raise AlgebraError("normality test expects an n-fold extension")
    return _checked_radical(B, c).is_zero()


def centralize(B: Reflector, c: NCube) -> NCube:
    """Quotient the top vertex by the cube's radical."""
    if not is_nfold_extension(c):
        raise AlgebraError("centralisation expects an n-fold extension")
    _, out = _quotient_top(c, radical_n(B, c))
    if not is_birkhoff_normal(B, out):
        raise AlgebraError("centralisation did not reach a normal cube")
    return out


def composite_radical(B: Reflector, C: Reflector, c: NCube) -> Subobject:
    """Radical for a sharpened subcategory, as a join in the top vertex.

    The comparison reflector C names the sharpened subcategory: C itself
    when it is a composite over B, or the meet of B with a second
    subcategory.  Either way the radical is the join of the B-radical
    with the normal closure of C's radical of the rib-kernel meet; the
    ambient object is always the top vertex.
    """
    if not is_nfold_extension(c):
        raise AlgebraError("composite radical expects an n-fold extension")
    base = radical_n(B, c)
    extra = cube_torsion_meet(C, c)
    closed = normal_closure(c.top_vertex, *extra.elements)
    return join_normal(c.top_vertex, base, closed)


def object_cube(A: Algebra) -> NCube:
    """An algebra as the 1-cube onto the zero object of its variety."""
    Z = trivial_of_variety(A.variety)
    return cube_of_morphism(zero_morphism(A, Z))


# ---------------------------------------------------------------------------
# presentations and homology


def _kills(M: Algebra) -> list[int]:
    """How many elements of the Z/m-module M each scalar 0..m-1 kills.

    These counts decide M up to isomorphism.  A finite abelian group is
    determined by |{x : nx = 0}| over all n, and a checked module's
    scalars are repeated sums, so its module and group isomorphisms are
    the same maps.  The exponent of M divides m, so the counts at
    n mod m are the counts at n, and the scalars 0..m-1 cover them all.
    """
    return [u.count(0) for u in M.sorts[0].unary[1:]]  # unary maps: neg, then scalars


def _is_free_module(V: Algebra) -> bool:
    """Whether V is (Z/m)^r: |V| = m^r and s kills gcd(s, m)^r elements."""
    m = V.variety.modulus
    rank, size = 0, 1
    while size < V.order:
        size *= m
        rank += 1
    return size == V.order and _kills(V) == [gcd(s, m) ** rank for s in range(m)]


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


def hopf_homology(B: Reflector, A: Algebra, degree: int,
                  presentations: list | None = None) -> Algebra:
    """Exact homology of A in degree 2 or 3, with coefficients in B.

    Computes the kernel-intersection quotient over a free presentation
    and re-runs it on an independent, rank-augmented presentation; the
    two results must be isomorphic, which their kill counts decide
    (``_kills``).  Given a list, ``presentations``
    receives the two presentations in that order.
    """
    if A.kind != "zmod-module":
        raise AlgebraError("homology is computed in module varieties")
    if degree not in (2, 3):
        raise AlgebraError("degree must be 2 or 3")
    first = _hopf_once(B, A, degree, 0, presentations)
    second = _hopf_once(B, A, degree, 1, presentations)
    if _kills(first) != _kills(second):
        raise AlgebraError("presentation independence failed; this is a bug")
    return first


def _hopf_once(B: Reflector, A: Algebra, degree: int, variant: int,
               presentations: list | None) -> Algebra:
    pres = build_presentation(A, degree - 1, variant)
    if presentations is not None:
        presentations.append(pres)
    c = pres.cube
    top = c.top_vertex
    num = meet_subobjects(top, radical(B, top), rib_kernel_meet(c))
    den = _checked_radical(B, c)
    if not den <= num:
        raise AlgebraError("radical escaped the Hopf numerator")
    return _quotient_of_sub(top, num, den)
