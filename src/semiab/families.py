"""Builders for the stock algebra families.

Every builder funnels through the validating constructors in
:mod:`semiab.algebra`, so a malformed table or action is rejected at
build time, except the free Z/m-modules (``zmod_free``), whose tables
are those of a product written down in closed form.  Products go
through :func:`semiab.ops.direct_product`, which builds the arrow
groups of indiscrete groupoids.
"""

from __future__ import annotations

import itertools

from .algebra import (
    Algebra,
    AlgebraError,
    COMM_RING,
    NONASSOC_RING,
    RING_KINDS,
    _free_module,
    group_algebra,
    gpd_algebra,
    module_algebra,
    ring_algebra,
)
from .ops import direct_product


def cyclic_group(n: int, name: str | None = None) -> Algebra:
    if n < 1:
        raise AlgebraError("cyclic order must be >= 1")
    op = [[(x + y) % n for y in range(n)] for x in range(n)]
    return group_algebra(op, name=name or f"c{n}")


def dihedral_group(n: int, name: str | None = None) -> Algebra:
    """Symmetries of the regular n-gon; order 2n.

    Indices 0..n-1 are rotations, n..2n-1 are reflections.
    """
    if n < 1:
        raise AlgebraError("dihedral parameter must be >= 1")
    size = 2 * n

    def mult(x: int, y: int) -> int:
        xr, xf = x % n, x >= n
        yr, yf = y % n, y >= n
        rot = (xr - yr) % n if xf else (xr + yr) % n
        return rot + n * (xf ^ yf)

    op = [[mult(x, y) for y in range(size)] for x in range(size)]
    return group_algebra(op, name=name or f"d{n}")


def symmetric_3(name: str | None = None) -> Algebra:
    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    op = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return group_algebra(op, name=name or "s3")


def quaternion_8(name: str | None = None) -> Algebra:
    """The eight quaternion units; index 2u + s encodes (+/-)1, i, j, k."""
    def mult(x: int, y: int) -> int:
        ux, sx = divmod(x, 2)
        uy, sy = divmod(y, 2)
        # unit products: table of (resulting unit, extra sign)
        prod = (
            ((0, 0), (1, 0), (2, 0), (3, 0)),
            ((1, 0), (0, 1), (3, 0), (2, 1)),
            ((2, 0), (3, 1), (0, 1), (1, 0)),
            ((3, 0), (2, 0), (1, 1), (0, 1)),
        )
        u, extra = prod[ux][uy]
        return 2 * u + (sx ^ sy ^ extra)

    op = [[mult(x, y) for y in range(8)] for x in range(8)]
    return group_algebra(op, name=name or "q8")


def zring(n: int, name: str | None = None) -> Algebra:
    if n < 1:
        raise AlgebraError("zring order must be >= 1")
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    mul = [[(x * y) % n for y in range(n)] for x in range(n)]
    return ring_algebra(COMM_RING, add, mul, name=name or f"z{n}")


def zero_multiplication_ring(n: int, kind: str = "rng-star", name: str | None = None) -> Algebra:
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    mul = [[0] * n for _ in range(n)]
    return ring_algebra(kind, add, mul, name=name or f"zero{n}")


def split_witness_ring(name: str | None = None) -> Algebra:
    """Order-4 ring on pairs (a, b) over F2 with (a,b)(c,d) = (ac, bc+bd).

    Index is 2a + b.  Idempotents do not survive the multiplication:
    (1,1)*(1,1) = (1,0), which is what makes this ring useful as a
    closure counterexample.
    """
    def mul(x: int, y: int) -> int:
        a, b = divmod(x, 2)
        c, d = divmod(y, 2)
        return 2 * ((a * c) % 2) + ((b * c + b * d) % 2)

    add = [[(x ^ y) for y in range(4)] for x in range(4)]
    table = [[mul(x, y) for y in range(4)] for x in range(4)]
    return ring_algebra(NONASSOC_RING, add, table, name=name or "example-2.8.3-ring")


def zmod_free(m: int, rank: int, name: str | None = None) -> Algebra:
    """The free Z/m-module of the given rank; little-endian digit indexing.

    The digits of label x, lowest first, are its coordinates; the tables
    are those of ``rank`` direct products with Z/m, written down in
    closed form (``algebra._free_module``).
    """
    if rank < 0:
        raise AlgebraError("rank must be >= 0")
    return _free_module(m, rank, name or f"zmod{m}^({rank})")


def zmod_cyclic(m: int, d: int, name: str | None = None) -> Algebra:
    """Z/d as a Z/m-module; requires d | m so the scalar action is well defined."""
    if d < 1 or m % d != 0:
        raise AlgebraError("need d >= 1 dividing m")
    add = [[(x + y) % d for y in range(d)] for x in range(d)]
    act = [[(s * x) % d for x in range(d)] for s in range(m)]
    return module_algebra(m, add, act, name=name or f"z{d} (mod {m})")


def gpd_discrete(G: Algebra, name: str | None = None) -> Algebra:
    ident = tuple(range(G.order))
    return gpd_algebra(G, G, ident, ident, ident, name=name or f"dis({G.name or 'G'})")


def gpd_indiscrete(G: Algebra, name: str | None = None) -> Algebra:
    """One arrow between every two objects: arrows are ordered pairs."""
    g1 = direct_product(G, G)[0]
    d = tuple(x // G.order for x in range(g1.order))
    c = tuple(x % G.order for x in range(g1.order))
    i = tuple(x * G.order + x for x in range(G.order))
    return gpd_algebra(g1, G, d, c, i, name=name or f"ind({G.name or 'G'})")


def gpd_one_object(H: Algebra, name: str | None = None) -> Algebra:
    point = group_algebra([[0]])
    zeros = (0,) * H.order
    return gpd_algebra(H, point, zeros, zeros, (0,), name=name or f"one({H.name or 'H'})")


def trivial_of_variety(v) -> Algebra:
    """The one-element algebra of the given variety."""
    if v.kind == "group":
        return cyclic_group(1)
    if v.kind in RING_KINDS:
        return ring_algebra(v.kind, [[0]], [[0]], name="0")
    if v.kind == "zmod-module":
        return zmod_free(v.modulus, 0)
    return gpd_discrete(cyclic_group(1), name="0")
