"""Commutative n-cubes of morphisms and the higher-extension checks.

A cube of dimension n has vertices indexed by bitmasks 0..2^n-1 (mask 0
is the top vertex) and one edge per (mask, free axis) pair pointing in
the increasing direction.  The initial ribs are the n edges out of the
top vertex.  Every square face is checked to commute elementwise at
construction.

The two constructions that build a new cube from an old one live here
too: the cube of levelwise kernel pairs along the last axis, and the
cube with its top vertex quotiented and the initial ribs induced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import Algebra, AlgebraError, Morphism, Subobject, compose, is_surjective
from .ops import (
    induced_on_quotient,
    into_pullback,
    join_normal,
    kernel,
    kernel_pair,
    meet_subobjects,
    pullback,
    quotient,
)


@dataclass(frozen=True, eq=False)
class NCube:
    dim: int
    vertices: dict[int, Algebra] = field(repr=False)
    edges: dict[tuple[int, int], Morphism] = field(repr=False)

    def __post_init__(self) -> None:
        n = self.dim
        if n < 1:
            raise AlgebraError("cube dimension must be >= 1")
        if set(self.vertices) != set(range(1 << n)):
            raise AlgebraError("cube is missing vertices")
        variety = self.vertices[0].variety
        if any(V.variety != variety for V in self.vertices.values()):
            raise AlgebraError("cube mixes varieties")
        for mask in range(1 << n):
            for i in range(n):
                if mask & (1 << i):
                    continue
                f = self.edges.get((mask, i))
                if f is None:
                    raise AlgebraError(f"cube is missing edge ({mask}, {i})")
                if f.dom != self.vertices[mask] or f.cod != self.vertices[mask | (1 << i)]:
                    raise AlgebraError(f"edge ({mask}, {i}) has wrong endpoints")
        if len(self.edges) != n * (1 << (n - 1)):
            raise AlgebraError("cube has extra edges")
        for mask in range(1 << n):
            for i in range(n):
                if mask & (1 << i):
                    continue
                for j in range(i + 1, n):
                    if mask & (1 << j):
                        continue
                    via_i = compose(self.edges[(mask | (1 << i), j)], self.edges[(mask, i)])
                    via_j = compose(self.edges[(mask | (1 << j), i)], self.edges[(mask, j)])
                    if via_i != via_j:
                        raise AlgebraError(f"face at ({mask}; {i},{j}) does not commute")

    # -- accessors ---------------------------------------------------------

    @property
    def top_vertex(self) -> Algebra:
        return self.vertices[0]

    @property
    def bottom_vertex(self) -> Algebra:
        return self.vertices[(1 << self.dim) - 1]

    def vertex(self, mask: int) -> Algebra:
        return self.vertices[mask]

    def edge(self, mask: int, axis: int) -> Morphism:
        return self.edges[(mask, axis)]

    def rib(self, axis: int) -> Morphism:
        return self.edges[(0, axis)]

    @property
    def arrow(self) -> Morphism:
        if self.dim != 1:
            raise AlgebraError("only 1-cubes are single morphisms")
        return self.edges[(0, 0)]

    def face(self, axis: int, side: int) -> NCube:
        """The (dim-1)-cube with the given axis frozen to side 0 or 1."""
        if self.dim < 2:
            raise AlgebraError("faces need dimension >= 2")
        if axis < 0 or axis >= self.dim or side not in (0, 1):
            raise AlgebraError("bad face request")
        rest = [a for a in range(self.dim) if a != axis]
        fixed = side << axis

        def expand(small: int) -> int:
            out = fixed
            for k, a in enumerate(rest):
                if small & (1 << k):
                    out |= 1 << a
            return out

        m = self.dim - 1
        verts = {s: self.vertices[expand(s)] for s in range(1 << m)}
        edges = {}
        for s in range(1 << m):
            for k in range(m):
                if s & (1 << k):
                    continue
                edges[(s, k)] = self.edges[(expand(s), rest[k])]
        return NCube(m, verts, edges)


# ---------------------------------------------------------------------------
# constructors


def cube_of_morphism(f: Morphism) -> NCube:
    return NCube(1, {0: f.dom, 1: f.cod}, {(0, 0): f})


def square(rib1: Morphism, rib2: Morphism, bottom1: Morphism, bottom2: Morphism) -> NCube:
    """The square with ribs X -> A, X -> B over bottom1: A -> Y, bottom2: B -> Y."""
    verts = {0: rib1.dom, 1: rib1.cod, 2: rib2.cod, 3: bottom1.cod}
    edges = {(0, 0): rib1, (0, 1): rib2, (1, 1): bottom1, (2, 0): bottom2}
    return NCube(2, verts, edges)


def cube_between(dom_cube: NCube, cod_cube: NCube, components: dict[int, Morphism]) -> NCube:
    """Glue two n-cubes into an (n+1)-cube along one componentwise map."""
    if dom_cube.dim != cod_cube.dim:
        raise AlgebraError("cube dimensions differ")
    n = dom_cube.dim
    axis = n
    verts: dict[int, Algebra] = {}
    edges: dict[tuple[int, int], Morphism] = {}
    for s in range(1 << n):
        verts[s] = dom_cube.vertices[s]
        verts[s | (1 << axis)] = cod_cube.vertices[s]
        edges[(s, axis)] = components[s]
    for (s, k), f in dom_cube.edges.items():
        edges[(s, k)] = f
    for (s, k), f in cod_cube.edges.items():
        edges[(s | (1 << axis), k)] = f
    return NCube(n + 1, verts, edges)


def _kernel_pair_cube(c: NCube) -> tuple[NCube, Morphism, Morphism]:
    """Levelwise kernel pairs of the last-axis connecting maps.

    Returns the cube one dimension down together with the top-level
    projection pair.
    """
    if c.dim < 2:
        raise AlgebraError("kernel-pair cubes need dimension >= 2")
    last = c.dim - 1
    verts: dict[int, Algebra] = {}
    proj1: dict[int, Morphism] = {}
    proj2: dict[int, Morphism] = {}
    for s in range(1 << last):
        verts[s], proj1[s], proj2[s] = kernel_pair(c.edge(s, last))
    edges: dict[tuple[int, int], Morphism] = {}
    for (s, k), dmap in c.face(last, 0).edges.items():
        t = s | (1 << k)
        edges[(s, k)] = into_pullback(verts[t], proj1[t], proj2[t],
                                      compose(dmap, proj1[s]), compose(dmap, proj2[s]))
    return NCube(last, verts, edges), proj1[0], proj2[0]


def _quotient_top(c: NCube, S: Subobject) -> tuple[Morphism, NCube]:
    """The quotient map of the top vertex by S, and the cube with that
    quotient as its top vertex and the initial ribs induced on it."""
    _, q = quotient(c.top_vertex, S)
    verts = dict(c.vertices)
    verts[0] = q.cod
    edges = dict(c.edges)
    for axis in range(c.dim):
        edges[(0, axis)] = induced_on_quotient(q, c.rib(axis))
    return q, NCube(c.dim, verts, edges)


# ---------------------------------------------------------------------------
# extension checks


def square_comparison(sq: NCube) -> tuple[Morphism, Algebra, Morphism, Morphism]:
    """Comparison of a square's top vertex to the pullback of its bottom cospan."""
    if sq.dim != 2:
        raise AlgebraError("comparison is for squares")
    P, p1, p2 = pullback(sq.edge(1, 1), sq.edge(2, 0))
    cmp = into_pullback(P, p1, p2, sq.rib(0), sq.rib(1))
    return cmp, P, p1, p2


def _punctured_limit_surjective(dim: int, sizes, maps, mask: int) -> bool:
    """Is vertex(mask) -> lim of the strictly finer vertices surjective?

    The limit is cut out of the product over the atoms mask|{i} by the
    pairwise compatibility equations one level further down.
    """
    atoms = [i for i in range(dim) if not mask & (1 << i)]
    if not atoms:
        return True
    hit = set()
    for x in range(sizes[mask]):
        hit.add(tuple(maps[(mask, i)][x] for i in atoms))
    # walk the full product, counting compatible tuples not in the image
    def compatible(tup) -> bool:
        for a, i in enumerate(atoms):
            for b in range(a + 1, len(atoms)):
                j = atoms[b]
                lhs = maps[(mask | (1 << i), j)][tup[a]]
                rhs = maps[(mask | (1 << j), i)][tup[b]]
                if lhs != rhs:
                    return False
        return True

    for tup in product(*(range(sizes[mask | (1 << i)]) for i in atoms)):
        if compatible(tup) and tup not in hit:
            return False
    return True


def is_nfold_extension(cube: NCube) -> bool:
    """The inductive extension property.

    Dimension 1 is surjectivity; a square needs all four maps and the
    comparison to the pullback surjective; in general every vertex above
    the bottom must cover the limit of the vertices strictly below it.
    """
    if cube.dim == 1:
        return is_surjective(cube.arrow)
    for k in range(len(cube.top_vertex.sorts)):
        sizes = {mask: V.sorts[k].order for mask, V in cube.vertices.items()}
        maps = {key: f.mapping[k] for key, f in cube.edges.items()}
        for mask in range((1 << cube.dim) - 1):
            if not _punctured_limit_surjective(cube.dim, sizes, maps, mask):
                return False
    return True


def square_extension_explicit(sq: NCube) -> bool:
    """Direct form for squares: four surjections plus surjective comparison."""
    if not all(is_surjective(f) for f in sq.edges.values()):
        return False
    cmp, _, _, _ = square_comparison(sq)
    return is_surjective(cmp)


def is_pushout_square(sq: NCube) -> bool:
    """A square of surjections is a pushout iff the bottom-composite kernel
    is the join of the two rib kernels."""
    if sq.dim != 2:
        raise AlgebraError("pushout test is for squares")
    if not all(is_surjective(f) for f in sq.edges.values()):
        raise AlgebraError("pushout test expects surjective edges")
    diag = compose(sq.edge(1, 1), sq.rib(0))
    joined = join_normal(sq.top_vertex, kernel(sq.rib(0)), kernel(sq.rib(1)))
    return kernel(diag).elements == joined.elements


def rib_kernel_meet(cube: NCube):
    """The intersection of the kernels of all initial ribs."""
    inter = kernel(cube.rib(0))
    for i in range(1, cube.dim):
        inter = meet_subobjects(cube.top_vertex, inter, kernel(cube.rib(i)))
    return inter
