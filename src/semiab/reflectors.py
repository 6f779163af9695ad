"""Named reflections, their radicals, and the corpus sequences they act on.

Each reflector quotients by a computable radical subobject: ab by the
commutator subgroup, burnside:k by k-th powers joined with commutators,
reduced by the nilradical, zerorng by sums of products, boole by the
ideal generated by x^2 - x, pi0 by the connected-component kernel.
Composite reflectors chain two units and take the kernel of the
composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Algebra,
    AlgebraError,
    ALL_KINDS,
    Morphism,
    Subobject,
    Variety,
    _derived_subobject,
    _unchecked,
    compose,
    full_subobject,
    is_injective,
    sub_algebra,
    subobject,
    zero_subobject,
)
from .homs import _corpus_surjections, sections
from .ops import (
    ExactSequence,
    huq_commutator,
    image,
    induced_on_quotient,
    join_normal,
    kernel,
    normal_closure,
    power_subobject,
    quotient,
)


class ReflectorError(ValueError):
    """Unknown reflector id or variety mismatch."""


@dataclass(frozen=True)
class Reflector:
    name: str
    kinds: tuple[str, ...]
    torsion_theory: bool
    k: int | None = None
    outer: "Reflector | None" = None
    inner: "Reflector | None" = None

    def applies_to(self, variety: Variety) -> bool:
        return variety.kind in self.kinds

    @property
    def is_composite(self) -> bool:
        return self.outer is not None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TorsionDecomposition:
    """The canonical sequence radical -> algebra -> reflection."""

    algebra: Algebra
    radical_part: Subobject
    reflection: Algebra
    unit: Morphism

    def __post_init__(self) -> None:
        if kernel(self.unit).elements != self.radical_part.elements:
            raise AlgebraError("unit kernel disagrees with the radical")


# ---------------------------------------------------------------------------
# radical implementations


def _nilradical(A: Algebra) -> Subobject:
    # a nilpotent x has index m <= n (x, ..., x^(m-1) are distinct and
    # nonzero) and 0.0 = 0, so x is nilpotent exactly when x^(2^k) = 0
    # for 2^k > n: k squarings
    mul = A.sorts[0].binary[1]
    nils = set()
    for x in range(A.order):
        v = x
        for _ in range(A.order.bit_length()):
            v = mul[v][v]
        if v == 0:
            nils.add(x)
    return subobject(A, frozenset(nils))


def _boole_radical(A: Algebra) -> Subobject:
    (add, mul), (neg,) = A.sorts[0].binary, A.sorts[0].unary
    seeds = {add[mul[x][x]][neg[x]] for x in range(A.order)}
    return normal_closure(A, seeds)


def _pi0_radical(A: Algebra) -> Subobject:
    # the objects d(g)^-1 c(g) are c(Ker d): the image of a normal subgroup
    # under the split epi c, so already a normal subgroup of the objects
    arrows, objects = A.sorts
    d, c, _ = A.maps
    op, inv = objects.binary[0], objects.unary[0]
    N0 = {op[inv[d[g]]][c[g]] for g in range(arrows.order)}
    return subobject(A, {g for g in range(arrows.order) if d[g] in N0}, N0)


def _base_radical(R: Reflector, A: Algebra) -> Subobject:
    root = R.name.split(":", 1)[0]
    if root == "id":
        return zero_subobject(A)
    if root == "ab":
        return huq_commutator(A, full_subobject(A), full_subobject(A))
    if root == "burnside":
        powers = power_subobject(A, R.k)
        if A.kind == "group":
            return join_normal(A, powers, huq_commutator(A, full_subobject(A), full_subobject(A)))
        return powers
    if root == "reduced":
        return _nilradical(A)
    if root == "zerorng":
        return huq_commutator(A, full_subobject(A), full_subobject(A))
    if root == "boole":
        return _boole_radical(A)
    if root == "pi0":
        return _pi0_radical(A)
    raise ReflectorError(f"no radical for {R.name!r}")


def reflect(R: Reflector, A: Algebra) -> TorsionDecomposition:
    """The canonical short exact sequence T(A) -> A -> F(A).

    The cache compares algebras by content, so a hit may have been made
    for another algebra with A's tables under another name; its radical
    and unit are moved to A, unchecked, without recomputing them.
    """
    dec = _reflect(R, A)
    if dec.algebra is A:
        return dec
    T = _derived_subobject(A, dec.radical_part.elements, dec.radical_part.normal)
    return _unchecked(TorsionDecomposition, A, T, dec.reflection,
                      _unchecked(Morphism, A, dec.reflection, dec.unit.mapping))


@lru_cache(maxsize=None)
def _reflect(R: Reflector, A: Algebra) -> TorsionDecomposition:
    if not R.applies_to(A.variety):
        raise ReflectorError(f"{R.name} does not apply to {A.variety.kind}")
    if R.is_composite:
        first = reflect(R.inner, A)
        second = reflect(R.outer, first.reflection)
        unit = compose(second.unit, first.unit)
        T = kernel(unit)
        return TorsionDecomposition(A, T, second.reflection, unit)
    T = _base_radical(R, A)
    Q, unit = quotient(A, T)
    return TorsionDecomposition(A, T, Q, unit)


# the cache's hits and misses under the public name, as perfbench reads them
reflect.cache_info = _reflect.cache_info


def radical(R: Reflector, A: Algebra) -> Subobject:
    return reflect(R, A).radical_part


def radical_algebra(R: Reflector, A: Algebra) -> Algebra:
    sub, _ = sub_algebra(A, radical(R, A))
    return sub


def map_reflect(R: Reflector, f: Morphism) -> Morphism:
    """The induced morphism between the reflections."""
    eta_dom = reflect(R, f.dom).unit
    eta_cod = reflect(R, f.cod).unit
    return induced_on_quotient(eta_dom, compose(eta_cod, f))


def is_torsion_member(R: Reflector, A: Algebra) -> bool:
    return radical(R, A).is_whole()


def is_free_member(R: Reflector, A: Algebra) -> bool:
    """Member of the reflective subcategory (zero radical)."""
    return radical(R, A).is_zero()


# ---------------------------------------------------------------------------
# registry


_BASES = {
    "ab": (("group",), False),
    "reduced": (("comm-ring",), True),
    "zerorng": (("rng-star",), True),
    "boole": (("nonassoc-ring",), False),
    "pi0": (("gpd-in-group",), True),
    "id": (tuple(sorted(ALL_KINDS)), True),
}


def reflector_by_id(rid: str) -> Reflector:
    rid = rid.strip()
    if rid.startswith("composite:"):
        body = rid[len("composite:"):]
        if "∘" not in body:
            raise ReflectorError(f"composite id needs outer∘inner, got {rid!r}")
        outer_id, inner_id = body.split("∘", 1)
        outer = reflector_by_id(outer_id)
        inner = reflector_by_id(inner_id if "∘" not in inner_id
                                else f"composite:{inner_id}")
        kinds = tuple(k for k in inner.kinds if k in outer.kinds)
        if not kinds:
            raise ReflectorError(f"{outer_id} and {inner_id} share no variety")
        return Reflector(f"composite:{outer.name}∘{inner.name}", kinds, False,
                         outer=outer, inner=inner)
    if rid.startswith("burnside:"):
        raw = rid[len("burnside:"):]
        if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
            raise ReflectorError(f"burnside exponent must be a positive integer, got {raw!r}")
        return Reflector(f"burnside:{int(raw)}", ("group", "zmod-module"), False, k=int(raw))
    if rid in _BASES:
        kinds, tt = _BASES[rid]
        return Reflector(rid, kinds, tt)
    raise ReflectorError(f"unknown reflector {rid!r}")


_PROTOADDITIVE_BY_DESIGN = {
    ("reduced", "comm-ring"),
    ("zerorng", "rng-star"),
    ("pi0", "gpd-in-group"),
    ("burnside", "zmod-module"),
}


def known_protoadditive_on(R: Reflector, kind: str) -> bool:
    """Whether preservation of split short exact sequences is expected
    for this reflector on this variety (the checks still run)."""
    root = R.name.split(":", 1)[0]
    return root == "id" or (root, kind) in _PROTOADDITIVE_BY_DESIGN


# ---------------------------------------------------------------------------
# corpus sequences


def split_exact_sequences(corpus) -> list[ExactSequence]:
    """One split short exact sequence per sectioned corpus surjection."""
    out = []
    for f in _corpus_surjections(corpus):
        secs = sections(f)
        if secs:
            out.append(ExactSequence(sub_algebra(f.dom, kernel(f))[1], f, secs[0]))
    return out


def short_exact_sequences(corpus) -> list[ExactSequence]:
    return [ExactSequence(sub_algebra(f.dom, kernel(f))[1], f)
            for f in _corpus_surjections(corpus)]


def preserves_split_sequence(R: Reflector, seq: ExactSequence) -> bool:
    """Does applying the reflector keep the sequence split short exact?"""
    Fk = map_reflect(R, seq.k)
    Ff = map_reflect(R, seq.f)
    if not is_injective(Fk):
        return False
    return image(Fk).elements == kernel(Ff).elements
