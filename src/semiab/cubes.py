"""Commutative n-cubes of morphisms and the higher-extension checks.

A cube of dimension n has vertices indexed by bitmasks 0..2^n-1 (mask 0
is the top vertex) and one edge per (mask, free axis) pair pointing in
the increasing direction.  The initial ribs are the n edges out of the
top vertex.  Every square face is checked to commute elementwise at
construction, which puts the image of each vertex inside the limit of
the vertices below it: so whether a cube is an n-fold extension, or a
square a pullback, is decided by counting on the edges' arrays, and no
pullback algebra is built.

The two constructions that build a new cube from an old one live here
too: the cube of levelwise kernel pairs along the last axis, and the
cube with its top vertex quotiented and the initial ribs induced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from .algebra import Algebra, AlgebraError, Morphism, Subobject, _composite, compose, is_surjective
from .ops import (
    induced_on_quotient,
    into_pullback,
    join_normal,
    kernel,
    kernel_pair,
    meet_subobjects,
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
                    # the endpoints match, so the two composites agree
                    # exactly when their arrays do
                    if (_composite(self.edges[(mask | (1 << i), j)], self.edges[(mask, i)])
                            != _composite(self.edges[(mask | (1 << j), i)], self.edges[(mask, j)])):
                        raise AlgebraError(f"face at ({mask}; {i},{j}) does not commute")

    # -- accessors ---------------------------------------------------------

    @property
    def top_vertex(self) -> Algebra:
        return self.vertices[0]

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


def _limit_comparison(cube: NCube, mask: int, k: int) -> tuple[bool, bool]:
    """(surjective, injective) for sort k of the map from vertex(mask)
    into the limit of the vertices strictly below it.

    ``NCube`` checks that every face commutes, so the image lies in the
    limit, and the map is onto exactly when the two have the same size.
    Over one free atom i the limit is vertex mask|{i} itself.  Over two,
    i and j, it is the pullback over mask|{i,j}, whose size is the sum,
    over the elements of mask|{i}, of the size of their fibre in
    mask|{j}: counted, with no pair built.  Over more, it is joined atom
    by atom over the vertices mask|{i}, each later atom's elements
    indexed by their image at the first atom's level and the other
    equations tested on each match; the last join only counts, and
    stops once it passes the image.
    """
    maps = {key: f.mapping[k] for key, f in cube.edges.items()}
    atoms = [i for i in range(cube.dim) if not mask & (1 << i)]
    image = set(zip(*(maps[(mask, i)] for i in atoms)))
    injective = len(image) == cube.vertices[mask].sorts[k].order
    first = mask | (1 << atoms[0])
    if len(atoms) == 1:
        return len(image) == cube.vertices[first].sorts[k].order, injective
    if len(atoms) == 2:
        j = atoms[1]
        fibres = Counter(maps[(mask | (1 << j), atoms[0])])
        size = sum(map(fibres.get, maps[(first, j)], repeat(0)))
        return size == len(image), injective
    tuples = list(zip(range(cube.vertices[first].sorts[k].order)))
    size = len(tuples)
    for b, j in enumerate(atoms[1:], 1):
        fibres: dict[int, list[int]] = {}
        for x, y in enumerate(maps[(mask | (1 << j), atoms[0])]):
            fibres.setdefault(y, []).append(x)
        key = maps[(first, j)]
        equations = [(c, maps[(mask | (1 << atoms[c]), j)], maps[(mask | (1 << j), atoms[c])])
                     for c in range(1, b)]
        last, size, joined = b == len(atoms) - 1, 0, []
        for t in tuples:
            xs = fibres.get(key[t[0]], ())
            if equations:
                xs = [x for x in xs if all(u[t[c]] == v[x] for c, u, v in equations)]
            size += len(xs)
            if not last:
                joined += [t + (x,) for x in xs]
            elif size > len(image):
                return False, injective
        tuples = joined
    return size == len(image), injective


def is_nfold_extension(cube: NCube) -> bool:
    """The inductive extension property: every vertex above the bottom
    maps onto the limit of the vertices strictly below it."""
    return all(_limit_comparison(cube, mask, k)[0]
               for k in range(len(cube.top_vertex.sorts))
               for mask in range((1 << cube.dim) - 1))


def is_pullback_square(sq: NCube) -> bool:
    """Whether the top vertex maps bijectively onto the bottom cospan's pullback."""
    if sq.dim != 2:
        raise AlgebraError("the pullback test is for squares")
    return all(_limit_comparison(sq, 0, k) == (True, True)
               for k in range(len(sq.top_vertex.sorts)))


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
