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

Every constructor checks every defining identity of its kind exactly,
one way at every carrier size: associativity, distributivity and
s(x+y) = sx+sy on generators (the elements g at which such an identity
holds form a subalgebra), and groupoids by commuting kernels of d, c.

Each kind's operations and the levels of a groupoid are defined once,
here, and every construction in this module, ``ops`` and ``homs`` is
written against them: ``_signature`` lists a kind's tables (group
operation and inverse first) and ``_rebuild`` builds an algebra from
tables derived from them; ``_levels``, ``_arrays`` and ``_sets`` view
an algebra, a morphism and a subobject level by level, ``_pack`` joins
levels again, and ``_respects_structure``, ``_structure_images`` and
``_assemble`` hold what is groupoid-only (d, c and i).  ``_close`` is
the one closure routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GROUP = "group"
COMM_RING = "comm-ring"
NONASSOC_RING = "nonassoc-ring"
RNG_STAR = "rng-star"
ZMOD_MODULE = "zmod-module"
GPD_IN_GROUP = "gpd-in-group"

RING_KINDS = frozenset({COMM_RING, NONASSOC_RING, RNG_STAR})
ALL_KINDS = frozenset({GROUP, ZMOD_MODULE, GPD_IN_GROUP}) | RING_KINDS


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

    def __str__(self) -> str:
        if self.kind == ZMOD_MODULE:
            return f"zmod-module({self.modulus})"
        return self.kind


def _as_table(rows, n: int, width: int, what: str) -> tuple[tuple[int, ...], ...]:
    if width < 1:
        raise AlgebraError("an algebra has at least one element")
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


def _close(binary, unary, closed: set[int], frontier, steps: list | None = None) -> set[int]:
    """Close ``closed`` under the binary tables and unary maps, in place.

    ``closed`` must already be closed except for the elements in
    ``frontier``, so growing a closed set by new elements costs only
    the products that involve them.  When ``steps`` is a list, each
    new element v is recorded as (v, t, x, y): binary table t applied
    to x, y, or unary map -1-t applied to x.
    """
    while frontier:
        nxt = []
        for x in frontier:
            for k, u in enumerate(unary):
                z = u[x]
                if z not in closed:
                    closed.add(z)
                    nxt.append(z)
                    if steps is not None:
                        steps.append((z, -1 - k, x, 0))
            for k, t in enumerate(binary):
                tx = t[x]
                for y in list(closed):
                    z = tx[y]
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
                        if steps is not None:
                            steps.append((z, k, x, y))
                    z = t[y][x]
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
                        if steps is not None:
                            steps.append((z, k, y, x))
        frontier = nxt
    return closed


def _generators(binary, unary, order: int, plan: list | None = None) -> list[int]:
    """Greedy generating set in index order, 0 taken as given.

    When ``plan`` is a list, one (generator, steps) pair is appended
    per generator, deriving every element it adds (see ``_close``).
    """
    closed = _close(binary, unary, {0}, [0])
    gens: list[int] = []
    for x in range(order):
        if x not in closed:
            gens.append(x)
            closed.add(x)
            steps = None if plan is None else []
            _close(binary, unary, closed, [x], steps)
            if plan is not None:
                plan.append((x, tuple(steps)))
    return gens


def _check_associative(table, what: str) -> None:
    # the g with (x*g)*z == x*(g*z) for all x, z contain 0 and are closed
    # under the operation (given the checks before), so generators decide
    n = len(table)
    for g in _generators((table,), (), n):
        tg = table[g]
        for x in range(n):
            tx = table[x]
            txg = table[tx[g]]
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
    gens = _generators((add,), (), n)
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


class _Structural:
    """Equality and a cached hash by ``_key()``, for frozen dataclasses."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, eq=False)
class Algebra(_Structural):
    """A finite algebra of one of the supported kinds.

    Single-sorted kinds use ``op``/``inv`` (groups) or
    ``add``/``neg``/``mul`` (rings) or ``add``/``neg``/``act``
    (modules; ``act`` has one row per scalar 0..m-1).  Groupoids carry
    two group algebras ``g1``, ``g0`` plus source ``d``, target ``c``
    and unit ``i`` maps; their composition, h.i(c(g))^-1.g for g then
    h, is determined by the group structure and is not stored.
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

    def __repr__(self) -> str:
        label = self.name or str(self.variety)
        return f"<Algebra {label} order={self.order}>"

    @property
    def kind(self) -> str:
        return self.variety.kind

    @property
    def is_gpd(self) -> bool:
        return self.variety.kind == GPD_IN_GROUP


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
    variety = Variety(ZMOD_MODULE, modulus)
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
    gens = _generators((add_t,), (), n)
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
    return Algebra(variety, n, add=add_t, neg=neg, act=act_t, name=name)


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
        bad = _violation(dom, cod, m)
        if bad is not None:
            raise AlgebraError(f"{what}: {label} {bad}")
    for x in range(g0.order):
        if d_t[i_t[x]] != x or c_t[i_t[x]] != x:
            raise AlgebraError(f"{what}: i is not a section of d and c")
    # with d, c, i as above, the composite of g then h, h.i(c(g))^-1.g,
    # always has the right endpoints and units; interchange holds
    # exactly when Ker c and Ker d commute
    op1 = g1.op
    ker_d = [h for h in range(g1.order) if d_t[h] == 0]
    for g in range(g1.order):
        if c_t[g] == 0:
            row = op1[g]
            for h in ker_d:
                if row[h] != op1[h][g]:
                    raise AlgebraError(f"{what}: kernels of c and d do not commute at ({g},{h})")
    return Algebra(
        Variety(GPD_IN_GROUP), g1.order,
        g1=g1, g0=g0, d=d_t, c=c_t, i=i_t, name=name,
    )


# ---------------------------------------------------------------------------
# the signature of each kind, and groupoids level by level


def _signature(A: Algebra):
    """(binary tables, unary maps) of a single-sorted algebra.

    The group operation and its inverse come first: ``op``/``inv`` for
    groups, ``add``/``neg`` for rings and modules; rings add ``mul``
    and modules one unary map per scalar (the ``act`` rows).
    """
    if A.kind == GROUP:
        return (A.op,), (A.inv,)
    if A.kind in RING_KINDS:
        return (A.add, A.mul), (A.neg,)
    if A.kind == ZMOD_MODULE:
        return (A.add,), (A.neg, *A.act)
    raise AlgebraError("groupoids have no single signature; work level by level")


def _rebuild(parents, binary_map, unary_map) -> Algebra:
    """An algebra of the parents' variety from tables derived from theirs.

    ``binary_map`` gets the parents' matching binary tables and
    ``unary_map`` their matching unary maps (one of each per parent);
    the results go through the public constructor of the kind.
    """
    sigs = [_signature(P) for P in parents]
    binary = [binary_map(*ts) for ts in zip(*(s[0] for s in sigs))]
    unary = [unary_map(*us) for us in zip(*(s[1] for s in sigs))]
    V = parents[0].variety
    if V.kind == GROUP:
        return group_algebra(binary[0], unary[0])
    if V.kind in RING_KINDS:
        return ring_algebra(V.kind, *binary)
    return module_algebra(V.modulus, binary[0], unary[1:])


def _violation(dom: Algebra, cod: Algebra, m) -> str | None:
    """How the array m fails to be a homomorphism, or None if it is one."""
    if m[0] != 0:
        return "does not send 0 to 0"
    (db, du), (cb, cu) = _signature(dom), _signature(cod)
    n = dom.order
    for dt, ct in zip(db, cb):
        for x in range(n):
            dx = dt[x]
            cx = ct[m[x]]
            for y in range(n):
                if m[dx[y]] != cx[m[y]]:
                    return f"does not preserve an operation at ({x},{y})"
    for du_k, cu_k in zip(du, cu):
        for x in range(n):
            if m[du_k[x]] != cu_k[m[x]]:
                return f"does not preserve a unary operation at {x}"
    return None


def _levels(A: Algebra) -> tuple[Algebra, ...]:
    """A groupoid as its levels (g1, g0); any other algebra as (A,)."""
    return (A.g1, A.g0) if A.is_gpd else (A,)


def _split(A: Algebra, value) -> tuple:
    """Per-level parts of a mapping or element set whose algebra is A."""
    return tuple(value) if A.is_gpd else (value,)


def _pack(A: Algebra, parts):
    """The inverse of ``_split``."""
    return tuple(parts) if A.is_gpd else parts[0]


def _arrays(f: "Morphism") -> tuple:
    return _split(f.dom, f.mapping)


def _sets(S: "Subobject") -> tuple:
    return _split(S.parent, S.elements)


def _respects_structure(dom: Algebra, cod: Algebra, arrays) -> bool:
    """Whether level arrays (m1, m0) commute with d, c and i."""
    if not dom.is_gpd:
        return True
    m1, m0 = arrays
    return (all(cod.d[m1[g]] == m0[dom.d[g]] and cod.c[m1[g]] == m0[dom.c[g]]
                for g in range(dom.g1.order))
            and all(m1[dom.i[x]] == cod.i[m0[x]] for x in range(dom.g0.order)))


def _structure_images(A: Algebra, sets) -> tuple:
    """Per level, the elements that d, c and i send the level sets to."""
    if not A.is_gpd:
        return (frozenset(),)
    e1, e0 = sets
    return {A.i[x] for x in e0}, {A.d[g] for g in e1} | {A.c[g] for g in e1}


def _structure_closed(A: Algebra, sets) -> bool:
    return not A.is_gpd or all(img <= S for img, S in zip(_structure_images(A, sets), sets))


def _assemble(parents, levels, legs, backs) -> Algebra:
    """The algebra with these levels, derived from ``parents``.

    Element e of level k stands for the elements ``legs[k][j][e]`` of
    level k of ``parents[j]``, and ``backs[k]`` takes such elements
    back to e; a groupoid's d, c and i are carried over through them.
    """
    if len(levels) == 1:
        return levels[0]

    def carry(name, level_legs, back):
        maps = [getattr(P, name) for P in parents]
        return tuple(back(*(m[leg[e]] for m, leg in zip(maps, level_legs)))
                     for e in range(len(level_legs[0])))

    (legs1, legs0), (back1, back0) = legs, backs
    return gpd_algebra(levels[0], levels[1], carry("d", legs1, back0),
                       carry("c", legs1, back0), carry("i", legs0, back1))


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True, eq=False)
class Morphism(_Structural):
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

    def __repr__(self) -> str:
        return f"<Morphism {self.dom!r} -> {self.cod!r}>"

    @property
    def map1(self) -> tuple[int, ...]:
        return _arrays(self)[0]

    @property
    def map0(self) -> tuple[int, ...]:
        return _arrays(self)[-1]

    def __call__(self, x: int) -> int:
        if self.dom.is_gpd:
            raise AlgebraError("groupoid morphisms act levelwise; use map1/map0")
        return self.mapping[x]


def validate_morphism(f: Morphism) -> None:
    dom, cod = f.dom, f.cod
    if dom.variety != cod.variety:
        raise AlgebraError("morphism endpoints must share a variety")
    levels = _levels(dom)
    arrays = _arrays(f)
    if len(arrays) != len(levels):
        raise AlgebraError("groupoid morphism needs a (map1, map0) pair")
    names = ("map1", "map0") if len(levels) > 1 else ("map",)
    for D, C, m, what in zip(levels, _levels(cod), arrays, names):
        bad = _violation(D, C, _as_map(m, D.order, C.order, what))
        if bad is not None:
            raise AlgebraError(f"{what} {bad}")
    if not _respects_structure(dom, cod, arrays):
        raise AlgebraError("map does not commute with source, target and unit")


def morphism(dom: Algebra, cod: Algebra, mapping) -> Morphism:
    return Morphism(dom, cod, _pack(dom, [tuple(m) for m in _split(dom, mapping)]))


def identity_morphism(A: Algebra) -> Morphism:
    return Morphism(A, A, _pack(A, [tuple(range(L.order)) for L in _levels(A)]))


def zero_morphism(A: Algebra, B: Algebra) -> Morphism:
    return Morphism(A, B, _pack(A, [(0,) * L.order for L in _levels(A)]))


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner."""
    if inner.cod != outer.dom:
        raise AlgebraError("morphisms do not compose")
    return Morphism(inner.dom, outer.cod, _pack(inner.dom, [
        tuple(map(o.__getitem__, i)) for o, i in zip(_arrays(outer), _arrays(inner))]))


def is_surjective(f: Morphism) -> bool:
    return all(len(set(m)) == L.order for m, L in zip(_arrays(f), _levels(f.cod)))


def is_injective(f: Morphism) -> bool:
    return all(len(set(m)) == L.order for m, L in zip(_arrays(f), _levels(f.dom)))


def is_isomorphism_map(f: Morphism) -> bool:
    return (all(D.order == C.order for D, C in zip(_levels(f.dom), _levels(f.cod)))
            and is_injective(f))


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
        sets = _sets(self)
        for L, S in zip(_levels(self.parent), sets):
            if 0 not in S:
                raise AlgebraError("subobject must contain the constant")
            if not _closed_subset(L, S):
                raise AlgebraError("subobject is not closed under the operations")
        if not _structure_closed(self.parent, sets):
            raise AlgebraError("subobject is not closed under source, target and unit")

    @property
    def size(self) -> int:
        return len(_sets(self)[0])

    def is_zero(self) -> bool:
        return all(S == {0} for S in _sets(self))

    def is_whole(self) -> bool:
        return all(len(S) == L.order for S, L in zip(_sets(self), _levels(self.parent)))

    def __le__(self, other: "Subobject") -> bool:
        if self.parent != other.parent:
            raise AlgebraError("subobjects of different parents")
        return all(a <= b for a, b in zip(_sets(self), _sets(other)))


def _closed_subset(A: Algebra, S) -> bool:
    binary, unary = _signature(A)
    for t in binary:
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


def _normal_demands(A: Algebra, S):
    """Elements that a normal subset containing S must also contain.

    Groups: conjugates.  Rings: products with any element on either
    side.  Modules: nothing.
    """
    if A.kind == GROUP:
        op, inv = A.op, A.inv
        for g in range(A.order):
            og, ig = op[g], inv[g]
            for x in S:
                yield op[og[x]][ig]
    elif A.kind in RING_KINDS:
        mul = A.mul
        for a in range(A.order):
            ma = mul[a]
            for x in S:
                yield ma[x]
                yield mul[x][a]


def is_normal_subset(A: Algebra, S) -> bool:
    """Whether a closed subset is the kernel of some quotient.

    Groups: closed under conjugation.  Rings: a two-sided ideal.
    Modules: always.  Groupoids: levelwise normal and closed under
    source, target and unit.  S is a (frozen)set, or a pair of them.
    """
    sets = _split(A, S)
    return (all(X.issuperset(_normal_demands(L, X)) for L, X in zip(_levels(A), sets))
            and _structure_closed(A, sets))


def subobject(parent: Algebra, elements) -> Subobject:
    elems = _pack(parent, [frozenset(S) for S in _split(parent, elements)])
    return Subobject(parent, elems, is_normal_subset(parent, elems))


def zero_subobject(A: Algebra) -> Subobject:
    return subobject(A, _pack(A, [{0} for _ in _levels(A)]))


def full_subobject(A: Algebra) -> Subobject:
    return subobject(A, _pack(A, [range(L.order) for L in _levels(A)]))


def sub_algebra(A: Algebra, sub: Subobject) -> tuple[Algebra, Morphism]:
    """The subobject as an algebra of its own, with its inclusion.

    Each level's carrier is the sorted element set.
    """
    if sub.parent != A:
        raise AlgebraError("subobject of a different parent")
    levels, incls, backs = [], [], []
    for L, S in zip(_levels(A), _sets(sub)):
        elems = tuple(sorted(S))
        back = {e: k for k, e in enumerate(elems)}
        levels.append(_rebuild(
            (L,),
            lambda t: tuple(tuple(back[t[x][y]] for y in elems) for x in elems),
            lambda u: tuple(back[u[x]] for x in elems)))
        incls.append(elems)
        backs.append(back.__getitem__)
    S = _assemble((A,), levels, [(m,) for m in incls], backs)
    return S, Morphism(S, A, _pack(A, incls))


def closure_under_ops(A: Algebra, seed) -> frozenset[int]:
    """Smallest subalgebra element set containing ``seed`` (single-sorted)."""
    closed = set(seed) | {0}
    return frozenset(_close(*_signature(A), closed, list(closed)))


def element_order(A: Algebra, x: int) -> int:
    """Order of x under the group operation (additive for rings/modules)."""
    t = _signature(A)[0][0]
    k, y = 1, x
    while y != 0:
        y = t[y][x]
        k += 1
    return k


def order_profile(A: Algebra):
    return _pack(A, [tuple(sorted(element_order(L, x) for x in range(L.order)))
                     for L in _levels(A)])


def generating_set(A: Algebra) -> list[int]:
    """Greedy small generating set under all operations (single-sorted)."""
    return _generators(*_signature(A), A.order)
