"""Finite pointed algebras presented by operation tables.

Six kinds of algebra are supported: groups, commutative rings,
nonassociative rings (distributivity only), rings satisfying the
identity xyxy = xy, modules over Z/m, and group-valued groupoids (a
pair of groups G1, G0 with source/target/unit homomorphisms).  Rings
carry no unit requirement.

Elements are dense integer indices 0..order-1 and index 0 is always
the pointed constant (neutral element or zero).  Tables are tuples of
tuples, so algebras are immutable, hashable and compare structurally;
an optional ``name`` is metadata only and never takes part in
equality.

Every constructor checks every defining identity of its kind.  The
checks are exhaustive in effect: associativity on large carriers uses
the generator-based associativity test, which is equivalent to the
full triple loop, and distributivity is checked on additive
generators, which implies it everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

GROUP = "group"
COMM_RING = "comm-ring"
NONASSOC_RING = "nonassoc-ring"
RNG_STAR = "rng-star"
ZMOD_MODULE = "zmod-module"
GPD_IN_GROUP = "gpd-in-group"

RING_KINDS = frozenset({COMM_RING, NONASSOC_RING, RNG_STAR})
ALL_KINDS = frozenset({GROUP, ZMOD_MODULE, GPD_IN_GROUP}) | RING_KINDS

# exhaustive triple loops are fine up to this carrier size
_EXHAUSTIVE_LIMIT = 64


class AlgebraError(ValueError):
    """Tables or maps violate the defining identities of their kind."""


@dataclass(frozen=True)
class Variety:
    """An equational class an algebra may belong to.

    ``modulus`` is meaningful only for ``zmod-module`` and gives the
    scalar ring Z/m.
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise AlgebraError(f"unknown variety kind {self.kind!r}")
        if (self.kind == ZMOD_MODULE) != (self.modulus is not None):
            raise AlgebraError("modulus is required for zmod-module and only there")
        if self.modulus is not None and self.modulus < 1:
            raise AlgebraError("modulus must be >= 1")

    @property
    def single_sorted(self) -> bool:
        return self.kind != GPD_IN_GROUP

    def __str__(self) -> str:
        if self.kind == ZMOD_MODULE:
            return f"zmod-module({self.modulus})"
        return self.kind


def _as_table(rows, n: int, width: int, what: str) -> tuple[tuple[int, ...], ...]:
    table = tuple(tuple(row) for row in rows)
    if len(table) != n:
        raise AlgebraError(f"{what} must have {n} rows")
    for row in table:
        if len(row) != width:
            raise AlgebraError(f"{what} rows must have length {width}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < width:
                raise AlgebraError(f"{what} entries must be indices below {width}")
    return table


def _as_map(values, n: int, cod: int, what: str) -> tuple[int, ...]:
    m = tuple(values)
    if len(m) != n:
        raise AlgebraError(f"{what} must have length {n}")
    for v in m:
        if not isinstance(v, int) or not 0 <= v < cod:
            raise AlgebraError(f"{what} entries must be indices below {cod}")
    return m


def _op_closure(table, start: frozenset[int]) -> frozenset[int]:
    closed = set(start)
    frontier = list(closed)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(closed):
                for z in (table[x][y], table[y][x]):
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(closed)


def _op_generators(table) -> list[int]:
    """A small generating set for the binary operation, 0 assumed present."""
    n = len(table)
    gens: list[int] = []
    closed = _op_closure(table, frozenset({0}))
    for x in range(n):
        if x not in closed:
            gens.append(x)
            closed = _op_closure(table, closed | {x})
    return gens


def _check_associative(table, what: str) -> None:
    n = len(table)
    if n <= _EXHAUSTIVE_LIMIT:
        for x in range(n):
            tx = table[x]
            for y in range(n):
                txy = table[tx[y]]
                ty = table[y]
                for z in range(n):
                    if txy[z] != tx[ty[z]]:
                        raise AlgebraError(f"{what} not associative at ({x},{y},{z})")
        return
    # generator-based test: (x*g)*z == x*(g*z) for generators g is equivalent
    for g in _op_generators(table):
        for x in range(n):
            xg = table[x][g]
            tg = table[g]
            txg = table[xg]
            tx = table[x]
            for z in range(n):
                if txg[z] != tx[tg[z]]:
                    raise AlgebraError(f"{what} not associative at ({x},{g},{z})")


def _check_group_tables(op, inv, what: str) -> None:
    n = len(op)
    for x in range(n):
        if op[0][x] != x or op[x][0] != x:
            raise AlgebraError(f"{what}: 0 is not neutral at {x}")
        if op[x][inv[x]] != 0 or op[inv[x]][x] != 0:
            raise AlgebraError(f"{what}: inverse fails at {x}")
    _check_associative(op, what)


def _check_abelian(op, what: str) -> None:
    n = len(op)
    for x in range(n):
        for y in range(x):
            if op[x][y] != op[y][x]:
                raise AlgebraError(f"{what} not commutative at ({x},{y})")


def _check_bilinear(add, mul, what: str) -> None:
    # additivity in each argument on additive generators implies it everywhere
    n = len(add)
    gens = _op_generators(add) if n > _EXHAUSTIVE_LIMIT else list(range(n))
    for x in range(n):
        mx = mul[x]
        for g in gens:
            mxg = mx[g]
            ag = add[g]
            for y in range(n):
                if mx[ag[y]] != add[mxg][mx[y]]:
                    raise AlgebraError(f"{what}: x(y+z) != xy+xz at ({x},{g},{y})")
    for y in range(n):
        for g in gens:
            mgy = mul[g][y]
            ag = add[g]
            for x in range(n):
                if mul[ag[x]][y] != add[mgy][mul[x][y]]:
                    raise AlgebraError(f"{what}: (x+y)z != xz+yz at ({g},{x},{y})")


def derive_inverses(op) -> tuple[int, ...]:
    n = len(op)
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if op[x][y] == 0 and op[y][x] == 0:
                inv[x] = y
                break
        if inv[x] < 0:
            raise AlgebraError(f"no two-sided inverse for element {x}")
    return tuple(inv)


@dataclass(frozen=True, eq=False)
class Algebra:
    """A finite algebra of one of the supported kinds.

    Single-sorted kinds use ``op``/``inv`` (groups) or
    ``add``/``neg``/``mul`` (rings) or ``add``/``neg``/``act``
    (modules; ``act`` has one row per scalar 0..m-1).  Groupoids carry
    two group algebras ``g1``, ``g0`` plus source ``d``, target ``c``
    and unit ``i`` maps; their composition is determined by the group
    structure and is re-derived rather than stored.
    """

    variety: Variety
    order: int
    op: tuple[tuple[int, ...], ...] | None = None
    inv: tuple[int, ...] | None = None
    add: tuple[tuple[int, ...], ...] | None = None
    neg: tuple[int, ...] | None = None
    mul: tuple[tuple[int, ...], ...] | None = None
    act: tuple[tuple[int, ...], ...] | None = None
    g1: "Algebra | None" = None
    g0: "Algebra | None" = None
    d: tuple[int, ...] | None = None
    c: tuple[int, ...] | None = None
    i: tuple[int, ...] | None = None
    name: str | None = field(default=None, compare=False)

    def _key(self):
        return (
            self.variety,
            self.order,
            self.op,
            self.inv,
            self.add,
            self.neg,
            self.mul,
            self.act,
            self.g1,
            self.g0,
            self.d,
            self.c,
            self.i,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        label = self.name or str(self.variety)
        return f"<Algebra {label} order={self.order}>"

    @property
    def kind(self) -> str:
        return self.variety.kind

    @property
    def is_gpd(self) -> bool:
        return self.kind == GPD_IN_GROUP


def group_algebra(op, inv=None, name: str | None = None) -> Algebra:
    n = len(op)
    table = _as_table(op, n, n, "op")
    inverse = _as_map(inv, n, n, "inv") if inv is not None else derive_inverses(table)
    _check_group_tables(table, inverse, name or "group")
    return Algebra(Variety(GROUP), n, op=table, inv=inverse, name=name)


def ring_algebra(kind: str, add, mul, name: str | None = None) -> Algebra:
    if kind not in RING_KINDS:
        raise AlgebraError(f"{kind!r} is not a ring kind")
    n = len(add)
    add_t = _as_table(add, n, n, "add")
    mul_t = _as_table(mul, n, n, "mul")
    what = name or kind
    _check_abelian(add_t, what)
    neg = derive_inverses(add_t)
    _check_group_tables(add_t, neg, what)
    _check_bilinear(add_t, mul_t, what)
    if kind in (COMM_RING, RNG_STAR):
        _check_associative(mul_t, f"{what} multiplication")
    if kind == COMM_RING:
        _check_abelian(mul_t, f"{what} multiplication")
    if kind == RNG_STAR:
        for x in range(n):
            for y in range(n):
                xy = mul_t[x][y]
                if mul_t[mul_t[xy][x]][y] != xy:
                    raise AlgebraError(f"{what}: xyxy != xy at ({x},{y})")
    return Algebra(Variety(kind), n, add=add_t, neg=neg, mul=mul_t, name=name)


def module_algebra(modulus: int, add, act, name: str | None = None) -> Algebra:
    n = len(add)
    add_t = _as_table(add, n, n, "add")
    act_t = _as_table(act, modulus, n, "act")
    what = name or f"zmod-module({modulus})"
    _check_abelian(add_t, what)
    neg = derive_inverses(add_t)
    _check_group_tables(add_t, neg, what)
    for x in range(n):
        if act_t[1 % modulus][x] != (x if modulus > 1 else 0):
            raise AlgebraError(f"{what}: 1*x != x at {x}")
    gens = _op_generators(add_t) if n > _EXHAUSTIVE_LIMIT else list(range(n))
    for s in range(modulus):
        row = act_t[s]
        for t in range(modulus):
            st_row = act_t[(s * t) % modulus]
            sum_row = act_t[(s + t) % modulus]
            for x in range(n):
                if st_row[x] != row[act_t[t][x]]:
                    raise AlgebraError(f"{what}: (st)x != s(tx) at ({s},{t},{x})")
                if sum_row[x] != add_t[row[x]][act_t[t][x]]:
                    raise AlgebraError(f"{what}: (s+t)x != sx+tx at ({s},{t},{x})")
        for g in gens:
            ag = add_t[g]
            rg = row[g]
            for y in range(n):
                if row[ag[y]] != add_t[rg][row[y]]:
                    raise AlgebraError(f"{what}: s(x+y) != sx+sy at ({s},{g},{y})")
    return Algebra(Variety(ZMOD_MODULE, modulus), n, add=add_t, neg=neg, act=act_t, name=name)


def gpd_compose(A: Algebra, g: int, h: int) -> int:
    """Composite of g then h, defined when c(g) = d(h)."""
    if A.c[g] != A.d[h]:
        raise AlgebraError(f"arrows {g} and {h} are not composable")
    op1, inv1 = A.g1.op, A.g1.inv
    return op1[op1[h][inv1[A.i[A.c[g]]]]][g]


def gpd_algebra(g1: Algebra, g0: Algebra, d, c, i, name: str | None = None) -> Algebra:
    if g1.kind != GROUP or g0.kind != GROUP:
        raise AlgebraError("groupoid sorts must be groups")
    d_t = _as_map(d, g1.order, g0.order, "d")
    c_t = _as_map(c, g1.order, g0.order, "c")
    i_t = _as_map(i, g0.order, g1.order, "i")
    what = name or "gpd"
    for m, dom, cod, label in (
        (d_t, g1, g0, "d"),
        (c_t, g1, g0, "c"),
        (i_t, g0, g1, "i"),
    ):
        if m[0] != 0:
            raise AlgebraError(f"{what}: {label} must preserve the constant")
        for x in range(dom.order):
            for y in range(dom.order):
                if m[dom.op[x][y]] != cod.op[m[x]][m[y]]:
                    raise AlgebraError(f"{what}: {label} is not a homomorphism")
    for x in range(g0.order):
        if d_t[i_t[x]] != x or c_t[i_t[x]] != x:
            raise AlgebraError(f"{what}: i is not a section of d and c")
    A = Algebra(
        Variety(GPD_IN_GROUP), g1.order,
        g1=g1, g0=g0, d=d_t, c=c_t, i=i_t, name=name,
    )
    # groupoid axioms for the induced composition, checked on all
    # composable pairs: sources/targets, units, and interchange
    pairs = [(g, h) for g in range(g1.order) for h in range(g1.order) if c_t[g] == d_t[h]]
    comp = {}
    for g, h in pairs:
        gh = gpd_compose(A, g, h)
        comp[(g, h)] = gh
        if d_t[gh] != d_t[g] or c_t[gh] != c_t[h]:
            raise AlgebraError(f"{what}: composite has wrong endpoints at ({g},{h})")
    for g in range(g1.order):
        if comp[(g, i_t[c_t[g]])] != g or comp[(i_t[d_t[g]], g)] != g:
            raise AlgebraError(f"{what}: units fail at {g}")
    # pointwise products of composable pairs are composable again, so
    # interchange is a total law on pairs
    op1 = g1.op
    for (g, h) in pairs:
        for (g2, h2) in pairs:
            if gpd_compose(A, op1[g][g2], op1[h][h2]) != op1[comp[(g, h)]][comp[(g2, h2)]]:
                raise AlgebraError(f"{what}: interchange fails at ({g},{h},{g2},{h2})")
    return A


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True, eq=False)
class Morphism:
    """A structure-preserving map, stored as an image array.

    For groupoids ``mapping`` is a pair (level-1 array, level-0
    array); otherwise it is a single array of length dom.order.
    """

    dom: Algebra
    cod: Algebra
    mapping: tuple

    def __post_init__(self) -> None:
        validate_morphism(self)

    def _key(self):
        return (self.dom, self.cod, self.mapping)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"<Morphism {self.dom!r} -> {self.cod!r}>"

    @property
    def map1(self) -> tuple[int, ...]:
        return self.mapping[0] if self.dom.is_gpd else self.mapping

    @property
    def map0(self) -> tuple[int, ...]:
        return self.mapping[1] if self.dom.is_gpd else self.mapping

    def __call__(self, x: int) -> int:
        if self.dom.is_gpd:
            raise AlgebraError("groupoid morphisms act levelwise; use map1/map0")
        return self.mapping[x]


def _check_map_tables(dom: Algebra, cod: Algebra, m: tuple[int, ...], what: str) -> None:
    if m[0] != 0:
        raise AlgebraError(f"{what} must send 0 to 0")
    binary = []
    if dom.kind == GROUP:
        binary.append((dom.op, cod.op, "op"))
    else:
        binary.append((dom.add, cod.add, "add"))
        if dom.mul is not None:
            binary.append((dom.mul, cod.mul, "mul"))
    for dt, ct, label in binary:
        for x in range(dom.order):
            mx = m[x]
            dx = dt[x]
            for y in range(dom.order):
                if m[dx[y]] != ct[mx][m[y]]:
                    raise AlgebraError(f"{what} does not preserve {label} at ({x},{y})")
    if dom.kind == ZMOD_MODULE:
        for s in range(dom.variety.modulus):
            da, ca = dom.act[s], cod.act[s]
            for x in range(dom.order):
                if m[da[x]] != ca[m[x]]:
                    raise AlgebraError(f"{what} does not preserve the scalar {s}")


def validate_morphism(f: Morphism) -> None:
    dom, cod = f.dom, f.cod
    if dom.kind != cod.kind or dom.variety != cod.variety:
        raise AlgebraError("morphism endpoints must share a variety")
    if dom.is_gpd:
        if len(f.mapping) != 2:
            raise AlgebraError("groupoid morphism needs a (map1, map0) pair")
        m1 = _as_map(f.mapping[0], dom.g1.order, cod.g1.order, "map1")
        m0 = _as_map(f.mapping[1], dom.g0.order, cod.g0.order, "map0")
        _check_map_tables(dom.g1, cod.g1, m1, "map1")
        _check_map_tables(dom.g0, cod.g0, m0, "map0")
        for g in range(dom.g1.order):
            if cod.d[m1[g]] != m0[dom.d[g]] or cod.c[m1[g]] != m0[dom.c[g]]:
                raise AlgebraError("map does not commute with source/target")
        for x in range(dom.g0.order):
            if m1[dom.i[x]] != cod.i[m0[x]]:
                raise AlgebraError("map does not commute with the unit")
        return
    m = _as_map(f.mapping, dom.order, cod.order, "map")
    _check_map_tables(dom, cod, m, "map")


def morphism(dom: Algebra, cod: Algebra, mapping) -> Morphism:
    if dom.is_gpd:
        return Morphism(dom, cod, (tuple(mapping[0]), tuple(mapping[1])))
    return Morphism(dom, cod, tuple(mapping))


def identity_morphism(A: Algebra) -> Morphism:
    if A.is_gpd:
        return Morphism(A, A, (tuple(range(A.g1.order)), tuple(range(A.g0.order))))
    return Morphism(A, A, tuple(range(A.order)))


def zero_morphism(A: Algebra, B: Algebra) -> Morphism:
    if A.is_gpd:
        return Morphism(A, B, ((0,) * A.g1.order, (0,) * A.g0.order))
    return Morphism(A, B, (0,) * A.order)


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner."""
    if inner.cod != outer.dom:
        raise AlgebraError("morphisms do not compose")
    if inner.dom.is_gpd:
        m1 = tuple(outer.map1[v] for v in inner.map1)
        m0 = tuple(outer.map0[v] for v in inner.map0)
        return Morphism(inner.dom, outer.cod, (m1, m0))
    return Morphism(inner.dom, outer.cod, tuple(outer.mapping[v] for v in inner.mapping))


def is_surjective(f: Morphism) -> bool:
    if f.dom.is_gpd:
        return (len(set(f.map1)) == f.cod.g1.order
                and len(set(f.map0)) == f.cod.g0.order)
    return len(set(f.mapping)) == f.cod.order


def is_injective(f: Morphism) -> bool:
    if f.dom.is_gpd:
        return (len(set(f.map1)) == f.dom.g1.order
                and len(set(f.map0)) == f.dom.g0.order)
    return len(set(f.mapping)) == f.dom.order


def is_isomorphism_map(f: Morphism) -> bool:
    if f.dom.is_gpd:
        return f.dom.g1.order == f.cod.g1.order and f.dom.g0.order == f.cod.g0.order \
            and is_injective(f)
    return f.dom.order == f.cod.order and is_injective(f)


def inverse_morphism(f: Morphism) -> Morphism:
    if not is_isomorphism_map(f):
        raise AlgebraError("not an isomorphism")
    if f.dom.is_gpd:
        inv1 = [0] * f.cod.g1.order
        inv0 = [0] * f.cod.g0.order
        for x, v in enumerate(f.map1):
            inv1[v] = x
        for x, v in enumerate(f.map0):
            inv0[v] = x
        return Morphism(f.cod, f.dom, (tuple(inv1), tuple(inv0)))
    inv = [0] * f.cod.order
    for x, v in enumerate(f.mapping):
        inv[v] = x
    return Morphism(f.cod, f.dom, tuple(inv))


# ---------------------------------------------------------------------------
# subobjects


@dataclass(frozen=True)
class Subobject:
    """A subalgebra of ``parent`` given by its element set.

    ``elements`` is a frozenset of parent indices for single-sorted
    algebras and a pair (level-1 set, level-0 set) for groupoids.
    ``normal`` certifies that the set is the kernel of some morphism
    out of the parent.
    """

    parent: Algebra
    elements: frozenset[int] | tuple[frozenset[int], frozenset[int]]
    normal: bool

    def __post_init__(self) -> None:
        if self.parent.is_gpd:
            e1, e0 = self.elements
            if 0 not in e1 or 0 not in e0:
                raise AlgebraError("subobject must contain the constant")
            if not _closed_subset(self.parent.g1, e1) or not _closed_subset(self.parent.g0, e0):
                raise AlgebraError("subobject is not closed under the operations")
            if any(self.parent.d[g] not in e0 or self.parent.c[g] not in e0 for g in e1):
                raise AlgebraError("subobject is not closed under source/target")
            if any(self.parent.i[x] not in e1 for x in e0):
                raise AlgebraError("subobject is not closed under the unit")
        else:
            if 0 not in self.elements:
                raise AlgebraError("subobject must contain the constant")
            if not _closed_subset(self.parent, self.elements):
                raise AlgebraError("subobject is not closed under the operations")

    @property
    def size(self) -> int:
        if self.parent.is_gpd:
            return len(self.elements[0])
        return len(self.elements)

    def is_zero(self) -> bool:
        if self.parent.is_gpd:
            return self.elements[0] == frozenset({0}) and self.elements[1] == frozenset({0})
        return self.elements == frozenset({0})

    def is_whole(self) -> bool:
        if self.parent.is_gpd:
            return (len(self.elements[0]) == self.parent.g1.order
                    and len(self.elements[1]) == self.parent.g0.order)
        return len(self.elements) == self.parent.order

    def __le__(self, other: "Subobject") -> bool:
        if self.parent != other.parent:
            raise AlgebraError("subobjects of different parents")
        if self.parent.is_gpd:
            return (self.elements[0] <= other.elements[0]
                    and self.elements[1] <= other.elements[1])
        return self.elements <= other.elements


def _closed_subset(A: Algebra, S) -> bool:
    tables = []
    if A.kind == GROUP:
        tables.append(A.op)
        unary = [A.inv]
    else:
        tables.append(A.add)
        unary = [A.neg]
        if A.mul is not None:
            tables.append(A.mul)
        if A.act is not None:
            unary.extend(A.act)
    for t in tables:
        for x in S:
            row = t[x]
            for y in S:
                if row[y] not in S:
                    return False
    for u in unary:
        for x in S:
            if u[x] not in S:
                return False
    return True


def is_normal_subset(A: Algebra, S) -> bool:
    """Whether a closed subset is the kernel of some quotient.

    Groups: closed under conjugation.  Rings: a two-sided ideal.
    Modules: always.  Groupoids: levelwise normal and closed under
    source, target and unit.
    """
    if A.is_gpd:
        e1, e0 = S
        if not (is_normal_subset(A.g1, e1) and is_normal_subset(A.g0, e0)):
            return False
        if any(A.d[g] not in e0 or A.c[g] not in e0 for g in e1):
            return False
        return all(A.i[x] in e1 for x in e0)
    if A.kind == GROUP:
        op, inv = A.op, A.inv
        return all(op[op[g][x]][inv[g]] in S for g in range(A.order) for x in S)
    if A.kind in RING_KINDS:
        mul = A.mul
        return all(mul[a][x] in S and mul[x][a] in S for a in range(A.order) for x in S)
    return True  # modules: every submodule is a kernel


def subobject(parent: Algebra, elements) -> Subobject:
    if parent.is_gpd:
        elems = (frozenset(elements[0]), frozenset(elements[1]))
    else:
        elems = frozenset(elements)
    return Subobject(parent, elems, is_normal_subset(parent, elems))


def zero_subobject(A: Algebra) -> Subobject:
    if A.is_gpd:
        return subobject(A, (frozenset({0}), frozenset({0})))
    return subobject(A, frozenset({0}))


def full_subobject(A: Algebra) -> Subobject:
    if A.is_gpd:
        return subobject(A, (frozenset(range(A.g1.order)), frozenset(range(A.g0.order))))
    return subobject(A, frozenset(range(A.order)))


def sub_algebra(A: Algebra, sub: Subobject) -> tuple[Algebra, Morphism]:
    """The subobject as an algebra of its own, with its inclusion."""
    if sub.parent != A:
        raise AlgebraError("subobject of a different parent")
    if A.is_gpd:
        s1, i1 = sub_algebra(A.g1, subobject(A.g1, sub.elements[0]))
        s0, i0 = sub_algebra(A.g0, subobject(A.g0, sub.elements[1]))
        back1 = {v: k for k, v in enumerate(i1.mapping)}
        back0 = {v: k for k, v in enumerate(i0.mapping)}
        d = tuple(back0[A.d[i1.mapping[g]]] for g in range(s1.order))
        c = tuple(back0[A.c[i1.mapping[g]]] for g in range(s1.order))
        unit = tuple(back1[A.i[i0.mapping[x]]] for x in range(s0.order))
        S = gpd_algebra(s1, s0, d, c, unit)
        return S, Morphism(S, A, (i1.mapping, i0.mapping))
    elems = sorted(sub.elements)
    back = {e: k for k, e in enumerate(elems)}
    n = len(elems)

    def tab(t):
        return tuple(tuple(back[t[x][y]] for y in elems) for x in elems)

    if A.kind == GROUP:
        S = group_algebra(tab(A.op), tuple(back[A.inv[x]] for x in elems))
    elif A.kind in RING_KINDS:
        S = ring_algebra(A.kind, tab(A.add), tab(A.mul))
    else:
        act = tuple(tuple(back[A.act[s][x]] for x in elems) for s in range(A.variety.modulus))
        S = module_algebra(A.variety.modulus, tab(A.add), act)
    return S, Morphism(S, A, tuple(elems))


def closure_under_ops(A: Algebra, seed) -> frozenset[int]:
    """Smallest subalgebra element set containing ``seed`` (single-sorted)."""
    if A.is_gpd:
        raise AlgebraError("use levelwise closures for groupoids")
    closed = set(seed) | {0}
    tables = [A.op] if A.kind == GROUP else [A.add] + ([A.mul] if A.mul is not None else [])
    unary = [A.inv] if A.kind == GROUP else [A.neg] + (list(A.act) if A.act is not None else [])
    frontier = list(closed)
    while frontier:
        nxt = []
        for x in frontier:
            for u in unary:
                if u[x] not in closed:
                    closed.add(u[x])
                    nxt.append(u[x])
            for t in tables:
                for y in list(closed):
                    for z in (t[x][y], t[y][x]):
                        if z not in closed:
                            closed.add(z)
                            nxt.append(z)
        frontier = nxt
    return frozenset(closed)


def element_order(A: Algebra, x: int) -> int:
    """Order of x under the group operation (additive for rings/modules)."""
    t = A.op if A.kind == GROUP else A.add
    k, y = 1, x
    while y != 0:
        y = t[y][x]
        k += 1
    return k


def order_profile(A: Algebra):
    if A.is_gpd:
        return (order_profile(A.g1), order_profile(A.g0))
    return tuple(sorted(element_order(A, x) for x in range(A.order)))


def generating_set(A: Algebra) -> list[int]:
    """Greedy small generating set under all operations (single-sorted)."""
    gens: list[int] = []
    closed = closure_under_ops(A, ())
    for x in range(A.order):
        if x not in closed:
            gens.append(x)
            closed = closure_under_ops(A, closed | {x})
    return gens
