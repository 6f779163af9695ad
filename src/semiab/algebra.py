"""Finite pointed algebras presented by operation tables.

Six kinds of algebra are supported: groups, commutative rings,
nonassociative rings (distributivity only), rings satisfying the
identity xyxy = xy, modules over Z/m, and group-valued groupoids (a
group of arrows and a group of objects with source/target/unit
homomorphisms).  Rings carry no unit requirement.

An algebra is a tuple of sorts plus the structure maps between them.
A ``Sort`` is a carrier 0..order-1, with 0 the pointed constant, and
its tables, group operation and inverse first: ``binary`` is (op,),
(add, mul) or (add,) and ``unary`` (inv,), (neg,) or (neg, one map
per scalar) for groups, rings and modules.  Groupoids have two sorts,
arrows then objects, and the maps d, c, i (``_MAP_ENDS``); the other
kinds have one sort and none.  Tables are tuples of tuples, so algebras
are immutable, hashable and compare structurally; names are metadata.

Tables given by a caller, to ``_algebra`` or by creating a ``Sort``
and an ``Algebra`` directly, are checked against every defining
identity of their kind exactly, one way at every carrier size:
associativity, distributivity and s(x+y) = sx+sy on generators (the
elements g at which such an identity holds form a subalgebra), and
groupoids by commuting kernels of d, c.  ``_check_sort`` takes the
greedy generating set of the group table once, coset by coset
(``_coset_generators``), and shares it among these checks; ``_sort``
stores it on the sort as ``gens``.

So every live algebra has passed its checks or was derived from
algebras that did, which are built field by field with ``_unchecked``.
Derived algebras inherit their identities.  By Birkhoff's HSP theorem a
variety is closed under products, subalgebras and homomorphic images;
a pullback is a subalgebra of a product, and a quotient by a normal
subobject is an image.  So what ``_assemble`` derives (the one path of
``sub_algebra``, ``ops.quotient`` and the pair algebras of ``ops``)
skips the shape, identity and structure-map checks: its rows are only
made tuples, once.  Its sorts are still interned, with ``gens`` from
where they are cheapest: the (g, 0) and (0, h) of the factors' ``gens``
for a product, the nonzero images of the parent's for a quotient, and
the greedy set, taken by ``_check_sort`` coset by coset, for a pullback
or a sub-algebra.  The free Z/m-modules (``_free_module``) are iterated
products whose tables are written down in closed form, with no pair
algebra; they skip the same checks and take the product's ``gens``.
Under the same rule, projections, inclusions, quotient maps,
composites, maps induced through quotients, identity and zero maps,
which are morphisms by construction, skip
``validate_morphism`` (built by ``_unchecked``), and the whole carrier
and the kernels, preimages, images, meets and normal closures of
``ops`` skip the closure tests of a subobject, and its normality test
where they guarantee normality (``_derived_subobject``).  The tests
run every skipped check directly on derived algebras, maps and
subobjects.

``_passes``, the homomorphism test, tests each binary table only at the
rows of ``gens`` and no unary map.  This is exact when both sorts
passed their identity checks.  Let D be the set of x with m(x*y) =
m(x)*m(y) for all y.  If m(0) = 0, D contains 0, and for the group
operation, if a and b are in D, associativity in both sorts gives
m((ab)y) = m(a)m(by) = m(a)m(b)m(y) = m(ab)m(y), so D is a subgroup;
it holds the generators, so it is everything.  For a ring's
multiplication, once m is additive (the group table comes first),
distributivity in both sorts makes D closed under +, which needs no
associativity of the product.  The unary maps then follow: m(x) +
m(-x) = m(0) = 0, so m(-x) = -m(x); and a module's checks give 1x = x
and (s+t)x = sx + tx, so sx is the s-fold sum of x and m(sx) = s m(x).
Groupoid sorts are groups, and their structure maps are tested by
``_respects_structure``.  ``_passes`` reads each generator row whole,
by one ``itemgetter`` a side, and names nothing, so hom search drops a
candidate at that cost; ``_scan`` adds the name of a failure, by
``_full_scan``, the plain test at every pair and every unary map, which
is also the tests' oracle.  The two rows it builds are freed at once
and cost no memory to speak of: perfbench's sweep peaks at 56.39 MB
with them, against 56.32 MB with an element-by-element comparison that
builds no row (medians of ten runs).  The identity checks compare rows
inside ``all(map(...))`` and fall back to their element loops only to
name a failure.

Each distinct content is checked once while an equal sort is alive.
Every table not derived as above is shape-checked on every build;
``_CHECKED`` then interns the sorts that passed the identity checks or
were derived, weakly, so tables equal to a live sort's return that
sort.  Homomorphism verdicts are not remembered per sort: ``_passes``
reads only the rows of ``gens``, about what hashing the array would
cost, and the hom sets of ``homs`` are cached by algebra.

Morphisms and subobjects have one part per sort: ``Morphism.mapping``
holds one image array and ``Subobject.elements`` one frozenset per
sort.  Constructions here, in ``ops`` and in ``homs`` run sort by sort;
``_rebuild`` derives a sort's tables, and ``_assemble``,
``_respects_structure`` and ``_structure_images`` carry the structure
maps.  ``_close`` is the one closure routine, with one exception: the
greedy generating set under a group table alone, whose closures are
subgroups, is built coset by coset (``_coset_generators``), for
``_check_sort`` and for ``generating_set`` on group and module sorts.
Normality is tested on ``gens`` alone (``_normal_demands``), exactly,
for the reason that makes ``_passes`` exact.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import chain
from operator import eq, getitem, itemgetter

GROUP = "group"
COMM_RING = "comm-ring"
NONASSOC_RING = "nonassoc-ring"
RNG_STAR = "rng-star"
ZMOD_MODULE = "zmod-module"
GPD_IN_GROUP = "gpd-in-group"

RING_KINDS = frozenset({COMM_RING, NONASSOC_RING, RNG_STAR})
ALL_KINDS = frozenset({GROUP, ZMOD_MODULE, GPD_IN_GROUP}) | RING_KINDS

# source and target sort of each structure map; only groupoids have
# them: d and c from arrows (sort 0) to objects (sort 1), i back
_MAP_ENDS = ((0, 1), (0, 1), (1, 0))


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


def _indices_below(rows, width: int) -> bool:
    """Fast path of the entry checks: every entry of the rows an ``int`` in range(width)."""
    return (set(map(type, chain.from_iterable(rows))) == {int}
            and min(map(min, rows)) >= 0 and max(map(max, rows)) < width)


def _check_entries(row, width: int, what: str) -> None:
    for v in row:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < width:
            raise AlgebraError(f"{what} entries must be indices below {width}")


def _as_table(rows, n: int, width: int, what: str) -> tuple[tuple[int, ...], ...]:
    if width < 1:
        raise AlgebraError("an algebra has at least one element")
    table = tuple(tuple(row) for row in rows)
    if len(table) != n:
        raise AlgebraError(f"{what} must have {n} rows")
    if set(map(len, table)) != {width} or not _indices_below(table, width):
        for row in table:
            if len(row) != width:
                raise AlgebraError(f"{what} rows must have length {width}")
            _check_entries(row, width, what)
    return table


def _as_map(values, n: int, cod: int, what: str) -> tuple[int, ...]:
    m = tuple(values)
    if len(m) != n:
        raise AlgebraError(f"{what} must have length {n}")
    if not _indices_below((m,), cod):
        _check_entries(m, cod, what)
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

    Under one group table alone, and with no ``plan``, it is taken coset
    by coset (``_coset_generators``); otherwise each generator's closure
    is taken by ``_close``.  When ``plan`` is a list, one (generator,
    steps) pair is appended per generator, deriving every element it
    adds (see ``_close``).
    """
    if plan is None and len(binary) == 1 and not unary:
        return _coset_generators(binary[0])
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


def _coset_generators(op) -> list[int]:
    """The greedy generating set of a group table, built coset by coset.

    The closed set is kept as a subgroup H (Dimino's algorithm).  When
    x is the least element outside H, the right coset H.x joins; each
    new coset representative is then multiplied by every generator so
    far, and each product outside joins with its whole coset.  The
    union is closed under right products by the generators, so it is
    the closure ``_close`` would take, and the list is the same.  Each
    element is touched once per generator, where ``_close`` multiplies
    each new element by every closed one.

    On a table that is no group, every element that joins is still a
    product of generators, and the greedy set of ``_close`` is a
    subsequence of this one whose closures hold the extra elements; so
    ``_check_associative``, which runs after the neutral check, names
    the same first failure with either set.
    """
    inside = bytearray(len(op))
    inside[0] = 1
    H: list[int] = [0]
    gens: list[int] = []
    for x in range(len(op)):
        if inside[x]:
            continue
        gens.append(x)
        grown, reps = H + _new_in_coset(op, H, x, inside), [x]
        for r in reps:  # grows while it is read
            row = op[r]
            for s in gens:
                t = row[s]
                if not inside[t]:
                    grown += _new_in_coset(op, H, t, inside)
                    reps.append(t)
        H = grown
    return gens


def _new_in_coset(op, H, t, inside) -> list[int]:
    """t and the elements of the right coset H.t not yet ``inside``, now marked.

    t is marked first, so it is never found again on a table where
    0.t is not t.
    """
    inside[t] = 1
    new = [t]
    for z in [op[h][t] for h in H]:
        if not inside[z]:
            inside[z] = 1
            new.append(z)
    return new


def _check_associative(table, what: str, gens) -> None:
    # the g with (x*g)*z == x*(g*z) for all x, z contain 0 and are closed
    # under the operations that ``gens`` generate under, so they decide
    n = len(table)
    for g in gens:
        tg = table[g]
        for x in range(n):
            tx = table[x]
            txg = table[tx[g]]
            # row (x*g)*z against row x*(g*z), without building either
            if not all(map(eq, txg, map(tx.__getitem__, tg))):
                for z in range(n):
                    if txg[z] != tx[tg[z]]:
                        raise AlgebraError(f"{what} not associative at ({x},{g},{z})")


def _check_group_tables(op, inv, what: str, gens) -> None:
    n = len(op)
    for x in range(n):
        if op[0][x] != x or op[x][0] != x:
            raise AlgebraError(f"{what}: 0 is not neutral at {x}")
        if op[x][inv[x]] != 0 or op[inv[x]][x] != 0:
            raise AlgebraError(f"{what}: inverse fails at {x}")
    _check_associative(op, what, gens)


def _check_abelian(op, what: str) -> None:
    # column y against row y, one column at a time
    if all(map(eq, zip(*op), op)):
        return
    n = len(op)
    for x in range(n):
        for y in range(x):
            if op[x][y] != op[y][x]:
                raise AlgebraError(f"{what} not commutative at ({x},{y})")


def _check_bilinear(add, mul, what: str, gens) -> None:
    # additivity in each argument on additive generators implies it everywhere;
    # row x(g+y) against row xg+xy, then row (g+x)y against row gy+xy
    n = len(add)
    at = add.__getitem__
    if (all(all(map(eq, map(mx.__getitem__, add[g]), map(add[mx[g]].__getitem__, mx)))
            for mx in mul for g in gens)
            and all(all(map(eq, mul[add[g][x]], map(getitem, map(at, mul[g]), mul[x])))
                    for g in gens for x in range(n))):
        return
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


def _check_ring(kind: str, binary, unary, what: str, gens) -> None:
    (add, mul), n = binary, len(binary[0])
    _check_bilinear(add, mul, what, gens)
    if kind in (COMM_RING, RNG_STAR):
        # once bilinearity holds, the g that associate with everything are
        # closed under +, - and the product, so ring generators decide
        _check_associative(mul, f"{what} multiplication", _generators(binary, unary, n))
    if kind == COMM_RING:
        _check_abelian(mul, f"{what} multiplication")
    if kind == RNG_STAR:
        for x in range(n):
            for y in range(n):
                xy = mul[x][y]
                if mul[mul[xy][x]][y] != xy:
                    raise AlgebraError(f"{what}: xyxy != xy at ({x},{y})")


def _check_module(add, act, modulus: int, what: str, gens) -> None:
    # once add is an abelian group, the module identities hold exactly
    # when 0x = 0 and (s+1)x = sx + x for every s: then sx is the s-fold
    # sum of x and mx = 0x = 0, which gives 1x = x, (st)x = s(tx),
    # (s+t)x = sx + tx and s(x+y) = sx + sy; conversely (s+t)x = sx + tx
    # at t = 1 is the second, and at s = t = 0 gives the first
    n = len(add)
    at = add.__getitem__
    if not any(act[0]) and all(all(map(eq, act[(s + 1) % modulus],
                                       map(getitem, map(at, act[s]), range(n))))
                               for s in range(modulus)):
        return
    for x in range(n):
        if act[1 % modulus][x] != x:
            raise AlgebraError(f"{what}: 1*x != x at {x}")
    for s in range(modulus):
        row = act[s]
        for t in range(modulus):
            st_row = act[(s * t) % modulus]
            sum_row = act[(s + t) % modulus]
            for x in range(n):
                if st_row[x] != row[act[t][x]]:
                    raise AlgebraError(f"{what}: (st)x != s(tx) at ({s},{t},{x})")
                if sum_row[x] != add[row[x]][act[t][x]]:
                    raise AlgebraError(f"{what}: (s+t)x != sx+tx at ({s},{t},{x})")
        for g in gens:
            ag = add[g]
            rg = row[g]
            for y in range(n):
                if row[ag[y]] != add[rg][row[y]]:
                    raise AlgebraError(f"{what}: s(x+y) != sx+sy at ({s},{g},{y})")


class _Structural:
    """Equality and a cached hash by ``_key()``, for frozen dataclasses."""

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # getattr, not __dict__: reading __dict__ gives each instance a dict of its own
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, eq=False)
class Sort(_Structural):
    """One carrier with its tables, in the order the module docstring gives.

    ``gens`` generates the carrier under the group table alone; like
    ``name``, it is not part of equality.  Creating one runs what
    ``_sort`` runs on tables that were not derived, and checks ``gens``.
    """

    variety: Variety
    order: int
    binary: tuple[tuple[tuple[int, ...], ...], ...]
    unary: tuple[tuple[int, ...], ...]
    gens: tuple[int, ...] = field(compare=False)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        binary, unary = _shaped(self.variety, self.binary, self.unary)
        what, n, gens = self.name or str(self.variety), len(binary[0]), tuple(self.gens)
        if self.order != n:
            raise AlgebraError(f"{what}: order must be {n}, the size of its tables")
        _check_sort(self.variety, binary, unary, what)
        _check_entries(gens, n, "gens")
        if len(_close((binary[0],), (), {0, *gens}, [0, *gens])) != n:
            raise AlgebraError(f"{what}: gens do not generate the carrier")
        for name, value in (("binary", binary), ("unary", unary), ("gens", gens)):
            object.__setattr__(self, name, value)

    def _key(self):
        return (self.variety, self.order, self.binary, self.unary)


@dataclass(frozen=True, eq=False)
class Algebra(_Structural):
    """A finite algebra: its sorts and the structure maps between them.

    A groupoid's composition, h.i(c(g))^-1.g for g then h, is
    determined by the group of arrows and is not stored.  Creating one
    checks its shape, and its maps as ``_algebra`` does.
    """

    variety: Variety
    sorts: tuple[Sort, ...]
    maps: tuple[tuple[int, ...], ...] = ()
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        V, sorts, maps = self.variety, tuple(self.sorts), tuple(self.maps)
        gpd = V.kind == GPD_IN_GROUP
        if ((len(sorts), len(maps)) != ((2, 3) if gpd else (1, 0))
                or not all(isinstance(S, Sort) and S.variety == (Variety(GROUP) if gpd else V)
                           for S in sorts)):
            raise AlgebraError(f"an algebra of {V} has " + (
                "two group sorts and three maps" if gpd else "one sort of its variety and no maps"))
        maps = tuple(_as_map(m, sorts[s].order, sorts[t].order, label)
                     for m, (s, t), label in zip(maps, _MAP_ENDS, "dci"))
        _check_structure(sorts, maps, self.name or "gpd")
        object.__setattr__(self, "sorts", sorts)
        object.__setattr__(self, "maps", maps)

    def _key(self):
        return (self.variety, self.sorts, self.maps)

    def __repr__(self) -> str:
        label = self.name or str(self.variety)
        return f"<Algebra {label} order={self.order}>"

    @property
    def order(self) -> int:
        return self.sorts[0].order

    @property
    def kind(self) -> str:
        return self.variety.kind


# every sort that passed its checks or was derived from checked sorts, by
# content, for as long as it is alive
_CHECKED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Key:
    """A ``_CHECKED`` key that hashes its tuple of items once.

    ``_sort`` looks a key up and may then store it, and the weak
    dictionary looks it up again to drop it when its sort dies; each
    hash of a plain tuple reads every entry of its tables.  The key
    hashes and compares as its plain tuple, whose hash is also the
    sort's (``Sort._key``).  Slots, not a tuple subclass: that would
    give each key a dict of its own, about 0.1 MB over a sweep.
    """

    __slots__ = ("items", "hash")

    def __init__(self, items: tuple) -> None:
        self.items, self.hash = items, hash(items)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self.items == (other.items if type(other) is _Key else other)


def _check_sort(V: Variety, binary, unary, what: str, derived: bool = False) -> tuple[int, ...]:
    """Every defining identity of V on a sort's shape-checked tables.

    Returns the greedy generating set of the group table, taken coset
    by coset, which the identity checks share and ``_passes`` tests
    homomorphisms on; a ``derived`` sort gets the set alone.
    """
    gens = tuple(_generators((binary[0],), (), len(binary[0])))
    if derived:
        return gens
    if V.kind != GROUP:
        _check_abelian(binary[0], what)
    _check_group_tables(binary[0], unary[0], what, gens)
    if V.kind in RING_KINDS:
        _check_ring(V.kind, binary, unary, what, gens)
    elif V.kind == ZMOD_MODULE:
        _check_module(binary[0], unary[1:], V.modulus, what, gens)
    return gens


def _shaped(V: Variety, binary, unary) -> tuple[tuple, tuple]:
    """A sort's raw tables as tuples, each shape-checked.

    A first unary map of ``None`` is derived: the inverse of x is where
    0 stands in its row, which the group check then confirms.
    """
    if V.kind == GPD_IN_GROUP:
        raise AlgebraError("groupoid sorts must be groups")
    counts = (2 if V.kind in RING_KINDS else 1, 1 + (V.modulus or 0))
    if (len(binary), len(unary)) != counts:
        raise AlgebraError(f"a sort of {V} has {counts[0]} binary table(s) "
                           f"and {counts[1]} unary map(s)")
    n = len(binary[0])
    op_name, inv_name = ("op", "inv") if V.kind == GROUP else ("add", "neg")
    binary = tuple(_as_table(t, n, n, w) for t, w in zip(binary, (op_name, "mul")))
    unary = tuple(u if u is None else _as_map(u, n, n, w)
                  for u, w in zip(unary, (inv_name, *["act"] * (len(unary) - 1))))
    if unary[0] is None:
        unary = (tuple(row.index(0) if 0 in row else 0 for row in binary[0]), *unary[1:])
    return binary, unary


def _sort(V: Variety, binary, unary, name: str | None, gens=None,
          derived: bool = False) -> Sort:
    """A sort of variety V from raw tables, checked against every identity.

    Tables equal to those of a live checked sort return that sort (or,
    under another name, a sort sharing its tables) without checking
    again.  A ``derived`` sort is only converted to tuples and keeps
    ``gens`` if given, else takes the greedy set; any other is
    shape-checked by ``_shaped`` and ignores ``gens``.
    """
    if derived:
        binary = tuple(tuple(map(tuple, t)) for t in binary)
        unary = tuple(map(tuple, unary))
    else:
        binary, unary = _shaped(V, binary, unary)
    n = len(binary[0])
    key = _Key((V, n, binary, unary))
    live = _CHECKED.get(key)
    if live is None:
        if gens is None or not derived:
            gens = _check_sort(V, binary, unary, name or str(V), derived)
        live = _CHECKED[key] = _unchecked(Sort, V, n, binary, unary, gens, name)
        object.__setattr__(live, "_hash", key.hash)
    return live if live.name == name else _renamed_sort(live, name)


def _renamed_sort(S: Sort, name: str | None) -> Sort:
    """S under another name, sharing its tables, ``gens`` and hash."""
    renamed = _unchecked(Sort, S.variety, S.order, S.binary, S.unary, S.gens, name)
    object.__setattr__(renamed, "_hash", hash(S))
    return renamed


def _algebra(variety: Variety, sorts, maps=(), name: str | None = None,
             derived: bool = False) -> Algebra:
    """The one constructor of every algebra, public or derived.

    ``sorts`` holds one (variety, binary, unary, name[, gens]) of raw
    tables per sort (see ``_sort``) and ``maps`` the raw structure maps,
    which ``Algebra`` shape-checks and then checks against the groupoid
    conditions.  A ``derived`` algebra skips every check (see the module
    docstring).
    """
    built = tuple(_sort(*s, derived=derived) for s in sorts)
    if derived:
        return _unchecked(Algebra, variety, built, tuple(map(tuple, maps)), name)
    return Algebra(variety, built, maps, name)


def _check_structure(built, maps, what: str) -> None:
    """The groupoid conditions on shape-checked structure maps."""
    for m, (s, t), label in zip(maps, _MAP_ENDS, "dci"):
        bad = _scan(built[s], built[t], m)
        if bad is not None:
            raise AlgebraError(f"{what}: {label} {bad}")
    if maps:
        (arrows, objects), (d, c, i) = built, maps
        if any(d[i[x]] != x or c[i[x]] != x for x in range(objects.order)):
            raise AlgebraError(f"{what}: i is not a section of d and c")
        # with d, c, i as above, the composite of g then h, h.i(c(g))^-1.g,
        # always has the right endpoints and units; interchange holds
        # exactly when Ker c and Ker d commute
        op = arrows.binary[0]
        ker_d = [h for h in range(arrows.order) if d[h] == 0]
        for g in range(arrows.order):
            if c[g] == 0:
                for h in ker_d:
                    if op[g][h] != op[h][g]:
                        raise AlgebraError(f"{what}: kernels of c and d do not commute at ({g},{h})")


def _renamed(A: Algebra, name: str, *sort_names: str) -> Algebra:
    """A under another name, and its sorts under ``sort_names`` if given."""
    sorts = tuple(map(_renamed_sort, A.sorts, sort_names)) if sort_names else A.sorts
    return _unchecked(Algebra, A.variety, sorts, A.maps, name)


def group_algebra(op, inv=None, name: str | None = None) -> Algebra:
    V = Variety(GROUP)
    return _algebra(V, [(V, (op,), (inv,), name)], name=name)


def ring_algebra(kind: str, add, mul, name: str | None = None) -> Algebra:
    if kind not in RING_KINDS:
        raise AlgebraError(f"{kind!r} is not a ring kind")
    V = Variety(kind)
    return _algebra(V, [(V, (add, mul), (None,), name)], name=name)


def module_algebra(modulus: int, add, act, name: str | None = None) -> Algebra:
    variety = Variety(ZMOD_MODULE, modulus)
    if len(act) != modulus:
        raise AlgebraError(f"act must have {modulus} rows")
    return _algebra(variety, [(variety, (add,), (None, *act), name)], name=name)


def _free_module(modulus: int, rank: int, name: str) -> Algebra:
    """(Z/m)^rank with m = ``modulus``, its tables written down, not checked.

    Label x has the base-m digits of its coordinates, lowest first, and
    the sum, the negative and each scalar act on x digit by digit, mod m.
    These are, entry by entry, the tables of the rank-fold
    ``ops.direct_product`` of Z/m with the zero module, whose pairs
    (a, b) are labelled a*m + b: the module is a derived one, a product,
    and skips its checks like every product (see the module docstring),
    with the product's ``gens`` m^(rank-1), ..., m, 1 (none when m = 1).

    The tables grow by one top digit b at a time: with n = m^k labels
    below, x = b*n + a.  Row b*n + a of the sum is row a one rank down
    shifted by ((b + d) % m) * n, for d = 0..m-1 in turn, so the m rows
    of one a are windows of one doubled run of its m shifted copies;
    sx shifts the copies of its map by (s*b % m) * n, and -x is (m-1)x.
    A shifted copy reads the labels at the row's entries with
    ``itemgetter``, so every entry is an int object of ``labels``.  Only
    the copies and the doubled run of one row are alive at a time, and
    the run is dropped before the next is made: kept until then, it left
    a hole between the rows kept, which raised the peak RSS of
    ``zmod_free(4, 6)`` from 153 to 178 MB.
    """
    V = Variety(ZMOD_MODULE, modulus)
    m, n = modulus, 1
    add, act = ((0,),), ((0,),) * m
    labels = tuple(range(m ** rank))
    for _ in range(rank if m > 1 else 0):
        N = m * n
        blocks = [labels[j * n:(j + 1) * n] for j in range(m)]  # top digit j
        rows, run = [None] * N, [None] * (2 * N - n)
        for a, row in enumerate(add):
            shifted = _shifted_copies(row, blocks)
            for j, c in enumerate(shifted + shifted[:-1]):
                run[j * n:(j + 1) * n] = c
            doubled = tuple(run)
            for b in range(m):
                rows[b * n + a] = doubled[b * n:b * n + N]
            del doubled  # before the next run is made (see above)
        act = tuple(tuple(chain.from_iterable(shifted[s * b % m] for b in range(m)))
                    for s, shifted in enumerate(_shifted_copies(u, blocks) for u in act))
        add, n = rows, N
    gens = tuple(m ** k for k in reversed(range(rank))) if m > 1 else ()
    return _algebra(V, [(V, (add,), (act[-1], *act), name, gens)], name=name, derived=True)


def _shifted_copies(row, blocks) -> list[tuple[int, ...]]:
    """``row`` read in each block of consecutive labels: the row shifted
    by each block's first label, with the blocks' int objects."""
    if len(row) == 1:  # itemgetter of one index returns the entry, not a 1-tuple
        return [(B[row[0]],) for B in blocks]
    return list(map(itemgetter(*row), blocks))


def gpd_algebra(g1: Algebra, g0: Algebra, d, c, i, name: str | None = None) -> Algebra:
    if g1.kind != GROUP or g0.kind != GROUP:
        raise AlgebraError("groupoid sorts must be groups")
    return _algebra(Variety(GPD_IN_GROUP),
                    [(S.variety, S.binary, S.unary, A.name) for A in (g1, g0) for S in A.sorts],
                    (d, c, i), name)


# ---------------------------------------------------------------------------
# sorts and structure maps


def _rebuild(parents, binary_map, unary_map, gens=None):
    """Raw tables of a sort derived from the parent sorts' tables.

    ``binary_map`` gets the parents' matching binary tables and
    ``unary_map`` their matching unary maps (one of each per parent);
    the result is a sort's (variety, binary, unary, name, gens) for
    ``_algebra``, where ``gens``, if given, generates the new group table.
    """
    return (parents[0].variety, [binary_map(*ts) for ts in zip(*(P.binary for P in parents))],
            [unary_map(*us) for us in zip(*(P.unary for P in parents))], None, gens)


def _passes(dom: Sort, cod: Sort, m: tuple[int, ...]) -> bool:
    """Whether the array m is a homomorphism: m(0) = 0, and for each
    binary table and g in ``dom.gens`` the row of m(g*y) over y equals
    that of m(g)*m(y), each read by one ``itemgetter``."""
    at = itemgetter(*m)
    return m[0] == 0 and all(itemgetter(*dt[g])(m) == at(ct[m[g]])
                             for dt, ct in zip(dom.binary, cod.binary) for g in dom.gens)


def _scan(dom: Sort, cod: Sort, m: tuple[int, ...]) -> str | None:
    """How the array m fails to be a homomorphism, or None if it is one;
    ``_passes`` decides, and ``_full_scan`` names a failure."""
    return None if _passes(dom, cod, m) else _full_scan(dom, cod, m)


def _full_scan(dom: Sort, cod: Sort, m) -> str | None:
    """The definition at every pair of elements and every unary map: the
    first failure in index order."""
    if m[0] != 0:
        return "does not send 0 to 0"
    n = dom.order
    for dt, ct in zip(dom.binary, cod.binary):
        for x in range(n):
            dx = dt[x]
            cx = ct[m[x]]
            for y in range(n):
                if m[dx[y]] != cx[m[y]]:
                    return f"does not preserve an operation at ({x},{y})"
    for du_k, cu_k in zip(dom.unary, cod.unary):
        for x in range(n):
            if m[du_k[x]] != cu_k[m[x]]:
                return f"does not preserve a unary operation at {x}"
    return None


def _one_per_sort(A: Algebra, parts, what: str) -> tuple:
    parts = tuple(parts)
    if len(parts) != len(A.sorts):
        raise AlgebraError(f"need one {what} per sort of {A!r} ({len(A.sorts)}), got {len(parts)}")
    return parts


def _respects_structure(dom: Algebra, cod: Algebra, arrays) -> bool:
    """Whether per-sort arrays commute with the structure maps."""
    return all(n[arrays[s][x]] == arrays[t][m[x]]
               for m, n, (s, t) in zip(dom.maps, cod.maps, _MAP_ENDS) for x in range(len(m)))


def _structure_images(A: Algebra, sets) -> list[set[int]]:
    """Per sort, the elements that the structure maps send the sets to."""
    images = [set() for _ in A.sorts]
    for m, (s, t) in zip(A.maps, _MAP_ENDS):
        images[t].update(map(m.__getitem__, sets[s]))
    return images


def _assemble(parents, sorts, legs, backs) -> Algebra:
    """The algebra with these sorts, derived from ``parents``.

    Element e of sort k stands for the elements ``legs[k][j][e]`` of
    sort k of ``parents[j]``, and ``backs[k]`` takes such elements
    back to e; the structure maps are carried over through them.  The
    result skips its checks (see the module docstring).
    """
    maps = [tuple(backs[t](*(P.maps[k][leg[e]] for P, leg in zip(parents, legs[s])))
                  for e in range(len(legs[s][0])))
            for k, (s, t) in enumerate(_MAP_ENDS[:len(parents[0].maps)])]
    return _algebra(parents[0].variety, sorts, maps, derived=True)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True, eq=False)
class Morphism(_Structural):
    """A structure-preserving map, stored as one image array per sort."""

    dom: Algebra
    cod: Algebra
    mapping: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", validate_morphism(self))

    def _key(self):
        return (self.dom, self.cod, self.mapping)

    def __repr__(self) -> str:
        return f"<Morphism {self.dom!r} -> {self.cod!r}>"


def validate_morphism(f: Morphism) -> tuple[tuple[int, ...], ...]:
    """The checked image arrays of f, as tuples; AlgebraError if f is no morphism."""
    dom, cod = f.dom, f.cod
    if dom.variety != cod.variety:
        raise AlgebraError("morphism endpoints must share a variety")
    parts = _one_per_sort(dom, f.mapping, "array")
    arrays = []
    for k, (D, C, m) in enumerate(zip(dom.sorts, cod.sorts, parts)):
        what = "map" if len(parts) == 1 else f"map of sort {k}"
        m = _as_map(m, D.order, C.order, what)
        bad = _scan(D, C, m)
        if bad is not None:
            raise AlgebraError(f"{what} {bad}")
        arrays.append(m)
    if not _respects_structure(dom, cod, arrays):
        raise AlgebraError("map does not commute with source, target and unit")
    return tuple(arrays)


def _derived_subobject(parent: Algebra, sets, normal: bool | None = None) -> Subobject:
    """A subobject that a construction made, with one element set per sort
    that the construction guarantees closed under the operations and
    the structure maps, and ``normal`` if it guarantees that too.

    The sets are only made frozensets, and ``normal`` is taken as
    given, or tested by ``is_normal_subset`` when it is None.
    """
    sets = tuple(map(frozenset, sets))
    if normal is None:
        normal = is_normal_subset(parent, *sets)
    return _unchecked(Subobject, parent, sets, normal)


def _unchecked(cls, *values):
    """The frozen dataclass ``cls`` with these field values as given,
    without its checks (a sort's or an algebra's ``__post_init__``, a
    map's ``validate_morphism``, a subobject's closure and normality
    tests).

    Maps built this way are morphisms by construction or already
    tested: projections, inclusions, quotient maps, composites, maps
    induced through quotients, identity and zero maps, and the maps
    that hom search found.
    """
    # field by field in order, as the dataclass does: a __dict__ update
    # would give each object its own key table instead of the class's
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


# the store of the running ``verify_all`` or ``verify_suite`` call, None outside one
_STORE: ContextVar[dict | None] = ContextVar("semiab_store", default=None)


@contextmanager
def _store():
    """Open a fresh store unless one is open; drop it on leaving.

    It holds the Birkhoff certifications, the pair algebras and
    sub-algebras and the kernel-pair route's 1-cube radicals of a sweep,
    each under the full content of its inputs, so equal inputs under
    other names share one build.  It holds no quotient, reflection,
    verdict or other radical: the routes that a cross-route check
    compares with those radicals compute their own.
    """
    store = _STORE.get()
    token = _STORE.set({} if store is None else store)
    try:
        yield
    finally:
        _STORE.reset(token)


def _stored(build, *key):
    """build(*key), once per open store; outside one, every time."""
    store = _STORE.get()
    if store is None:
        return build(*key)
    value = store.get((build, *key))
    if value is None:
        value = store[(build, *key)] = build(*key)
    return value


def morphism(dom: Algebra, cod: Algebra, *arrays) -> Morphism:
    """The morphism with one image array per sort of ``dom``."""
    return Morphism(dom, cod, tuple(tuple(m) for m in arrays))


def identity_morphism(A: Algebra) -> Morphism:
    return _unchecked(Morphism, A, A, tuple(tuple(range(S.order)) for S in A.sorts))


def zero_morphism(A: Algebra, B: Algebra) -> Morphism:
    """The map onto 0, a morphism whenever A and B share a variety."""
    if A.variety != B.variety:
        raise AlgebraError("morphism endpoints must share a variety")
    return _unchecked(Morphism, A, B, tuple((0,) * S.order for S in A.sorts))


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner."""
    if inner.cod != outer.dom:
        raise AlgebraError("morphisms do not compose")
    return _unchecked(Morphism, inner.dom, outer.cod, _composite(outer, inner))


def _composite(outer: Morphism, inner: Morphism) -> tuple[tuple[int, ...], ...]:
    """The arrays of outer after inner, which must compose."""
    return tuple(tuple(map(o.__getitem__, i)) for o, i in zip(outer.mapping, inner.mapping))


def is_surjective(f: Morphism) -> bool:
    return all(len(set(m)) == S.order for m, S in zip(f.mapping, f.cod.sorts))


def is_injective(f: Morphism) -> bool:
    return all(len(set(m)) == S.order for m, S in zip(f.mapping, f.dom.sorts))


def is_isomorphism_map(f: Morphism) -> bool:
    return (all(D.order == C.order for D, C in zip(f.dom.sorts, f.cod.sorts))
            and is_injective(f))


# ---------------------------------------------------------------------------
# subobjects


@dataclass(frozen=True)
class Subobject:
    """A subalgebra of ``parent`` given by one element set per sort.

    ``normal``, computed on construction, says whether the sets form
    the kernel of some morphism out of the parent.
    """

    parent: Algebra
    elements: tuple[frozenset[int], ...]
    normal: bool = field(init=False)

    def __post_init__(self) -> None:
        sets = tuple(map(frozenset, _one_per_sort(self.parent, self.elements, "element set")))
        for S, X in zip(self.parent.sorts, sets):
            if 0 not in X:
                raise AlgebraError("subobject must contain the constant")
            if not _indices_below((X,), S.order):
                _check_entries(X, S.order, "subobject")
            if not _closed_subset(S, X):
                raise AlgebraError("subobject is not closed under the operations")
        if not all(img <= X for img, X in zip(_structure_images(self.parent, sets), sets)):
            raise AlgebraError("subobject is not closed under source, target and unit")
        object.__setattr__(self, "elements", sets)
        object.__setattr__(self, "normal", is_normal_subset(self.parent, *sets))

    @property
    def size(self) -> int:
        return len(self.elements[0])

    def is_zero(self) -> bool:
        return all(X == {0} for X in self.elements)

    def is_whole(self) -> bool:
        return all(len(X) == S.order for X, S in zip(self.elements, self.parent.sorts))

    def __le__(self, other: "Subobject") -> bool:
        if self.parent != other.parent:
            raise AlgebraError("subobjects of different parents")
        return all(a <= b for a, b in zip(self.elements, other.elements))


def _check_parent(A: Algebra, *subs: Subobject) -> None:
    """AlgebraError unless each subobject is one of A, or of an algebra equal to A."""
    for sub in subs:
        if sub.parent is not A and sub.parent != A:
            raise AlgebraError("subobject of a different parent")


def _closed_subset(S: Sort, X) -> bool:
    for t in S.binary:
        for x in X:
            row = t[x]
            for y in X:
                if row[y] not in X:
                    return False
    for u in S.unary:
        for x in X:
            if u[x] not in X:
                return False
    return True


def _normal_demands(S: Sort, X):
    """Elements that a normal subset of the sort containing X must also contain.

    Groups: conjugates by ``S.gens``.  Rings: products with them on
    either side.  Modules: nothing.  The generators suffice: the g with
    gXg^-1 within X are closed under the product, so in a finite group
    they form a subgroup; the a with aX and Xa within a closed X
    contain 0 and, by distributivity, are closed under +.  Either set
    is the whole carrier once it holds the generators of the group
    table.
    """
    if S.variety.kind == GROUP:
        (op,), (inv,) = S.binary, S.unary
        for g in S.gens:
            og, ig = op[g], inv[g]
            for x in X:
                yield op[og[x]][ig]
    elif S.variety.kind in RING_KINDS:
        mul = S.binary[1]
        for a in S.gens:
            ma = mul[a]
            for x in X:
                yield ma[x]
                yield mul[x][a]


def is_normal_subset(A: Algebra, *sets) -> bool:
    """Whether the closed subsets, one per sort, are the kernel of a quotient.

    Each set must be normal in its sort: closed under conjugation in
    groups, a two-sided ideal in rings, anything in modules.  Closure
    under the operations and the structure maps is taken as given.
    """
    sets = _one_per_sort(A, sets, "element set")
    return all(X.issuperset(_normal_demands(S, X)) for S, X in zip(A.sorts, sets))


def subobject(parent: Algebra, *sets) -> Subobject:
    """The subobject with one element set per sort of ``parent``."""
    return Subobject(parent, sets)


def zero_subobject(A: Algebra) -> Subobject:
    return subobject(A, *({0} for _ in A.sorts))


def full_subobject(A: Algebra) -> Subobject:
    """The whole carrier, closed and normal in any algebra."""
    return _derived_subobject(A, (range(S.order) for S in A.sorts), True)


def sub_algebra(A: Algebra, sub: Subobject) -> tuple[Algebra, Morphism]:
    """The subobject as an algebra of its own, with its inclusion.

    Each sort's carrier is the sorted element set.  It is built once
    per content in a store (``_store``); the inclusion is A's own.
    """
    _check_parent(A, sub)
    B, incls = _stored(_sub_algebra, A, sub.elements)
    return B, _unchecked(Morphism, B, A, incls)


def _sub_algebra(A: Algebra, elements) -> tuple[Algebra, tuple]:
    sorts, incls, backs = [], [], []
    for S, X in zip(A.sorts, elements):
        elems = tuple(sorted(X))
        back = {e: k for k, e in enumerate(elems)}
        sorts.append(_rebuild(
            (S,),
            lambda t: tuple(tuple(back[t[x][y]] for y in elems) for x in elems),
            lambda u: tuple(back[u[x]] for x in elems)))
        incls.append(elems)
        backs.append(back.__getitem__)
    return _assemble((A,), sorts, [(m,) for m in incls], backs), tuple(incls)


def closure_under_ops(A: Algebra, seed) -> frozenset[int]:
    """Smallest subalgebra element set containing ``seed`` (first sort)."""
    S = A.sorts[0]
    closed = set(seed) | {0}
    return frozenset(_close(S.binary, S.unary, closed, list(closed)))


def _element_order(S: Sort, x: int) -> int:
    t = S.binary[0]
    k, y = 1, x
    while y != 0:
        y = t[y][x]
        k += 1
    return k


def generating_set(A: Algebra) -> list[int]:
    """Greedy small generating set under all operations (first sort).

    In a group or Z/m-module sort, the inverse and the scalars add
    nothing to closure under the group table (sx is a repeated sum, by
    the module checks), so the set is taken under that table alone,
    coset by coset.
    """
    S = A.sorts[0]
    if S.variety.kind in (GROUP, ZMOD_MODULE):
        return _generators(S.binary, (), S.order)
    return _generators(S.binary, S.unary, S.order)
