"""Named corpora: the fixed families of finite algebras the sweeps scan.

A corpus is a tuple of algebras under a string id.  Every sweep verdict
is restricted to its corpus and says so; nothing here is random.  The
SEMIAB_CORPUS_DIR environment variable points at a directory of
``<corpus-id>.json`` files that override the built-in lists.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from .algebra import Algebra, AlgebraError, _renamed, ring_algebra
from .families import (
    cyclic_group,
    dihedral_group,
    gpd_discrete,
    gpd_indiscrete,
    gpd_one_object,
    quaternion_8,
    split_witness_ring,
    symmetric_3,
    zero_multiplication_ring,
    zmod_cyclic,
    zmod_free,
    zring,
)
from .ops import direct_product
from .serialize import corpus_from_doc, load_json_file

CORPUS_DIR_VAR = "SEMIAB_CORPUS_DIR"


def _product(A: Algebra, B: Algebra, name: str) -> Algebra:
    P, _, _ = direct_product(A, B)
    return _renamed(P, name)


def _groups() -> tuple[Algebra, ...]:
    out = [cyclic_group(n) for n in range(1, 17)]
    out += [dihedral_group(n) for n in range(3, 9)]
    out += [symmetric_3(), quaternion_8()]
    c2, c4 = cyclic_group(2), cyclic_group(4)
    out += [_product(c2, c2, "c2xc2"), _product(c2, c4, "c2xc4")]
    return tuple(out)


def _abelian_groups() -> tuple[Algebra, ...]:
    c2, c4 = cyclic_group(2), cyclic_group(4)
    return tuple([cyclic_group(n) for n in range(1, 17)]
                 + [_product(c2, c2, "c2xc2"), _product(c2, c4, "c2xc4")])


def _rings() -> tuple[Algebra, ...]:
    return tuple(zring(n) for n in range(1, 17))


def _boolean_c2(kind: str, name: str) -> Algebra:
    return ring_algebra(kind, [[0, 1], [1, 0]], [[0, 0], [0, 1]], name=name)


def _nonassoc_rings() -> tuple[Algebra, ...]:
    b2 = _boolean_c2("nonassoc-ring", "bool2")
    return (
        zero_multiplication_ring(1, "nonassoc-ring", name="zero1n"),
        b2,
        zero_multiplication_ring(2, "nonassoc-ring", name="zero2n"),
        _product(b2, b2, "bool2xbool2"),
        split_witness_ring(),
    )


def _rng_stars() -> tuple[Algebra, ...]:
    b2 = _boolean_c2("rng-star", "bool2s")
    zero2 = zero_multiplication_ring(2)
    return (
        zero_multiplication_ring(1),
        zero2,
        zero_multiplication_ring(3),
        zero_multiplication_ring(4),
        b2,
        _product(b2, b2, "bool2xbool2s"),
        _product(b2, zero2, "bool2xzero2"),
    )


def _modules(m: int) -> tuple[Algebra, ...]:
    # all modules over Z/m on at most two cyclic summands
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    singles = [_renamed(zmod_free(m, 0), f"m{m}-0")]
    singles += [_renamed(zmod_cyclic(m, d), f"m{m}-c{d}") for d in divisors]
    out = list(singles)
    for i, A in enumerate(singles[1:], start=1):
        for B in singles[i:]:
            out.append(_product(A, B, f"{A.name}x{B.name[len(f'm{m}-'):]}"))
    return tuple(out)


def _groupoids() -> tuple[Algebra, ...]:
    return (
        gpd_discrete(symmetric_3(), name="dis-s3"),
        gpd_discrete(cyclic_group(4), name="dis-c4"),
        gpd_indiscrete(cyclic_group(2), name="ind-c2"),
        gpd_indiscrete(cyclic_group(3), name="ind-c3"),
        gpd_one_object(cyclic_group(4), name="one-c4"),
        gpd_one_object(cyclic_group(2), name="one-c2"),
    )


_BUILDERS = {
    "groups": _groups,
    "abelian-groups": _abelian_groups,
    "rings": _rings,
    "nonassoc-rings": _nonassoc_rings,
    "rng-star": _rng_stars,
    "zmod4-modules": lambda: _modules(4),
    "zmod8-modules": lambda: _modules(8),
    "groupoids": _groupoids,
}


def corpus_ids() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def _override_path(corpus_id: str) -> Path | None:
    root = os.environ.get(CORPUS_DIR_VAR)
    if not root:
        return None
    path = Path(root) / f"{corpus_id}.json"
    return path if path.is_file() else None


@lru_cache(maxsize=None)
def _built(corpus_id: str) -> tuple[Algebra, ...]:
    return _BUILDERS[corpus_id]()


def corpus_by_id(corpus_id: str) -> tuple[Algebra, ...]:
    """The algebras of a named corpus, override file first."""
    path = _override_path(corpus_id)
    if path is not None:
        return corpus_from_doc(load_json_file(path))
    if corpus_id not in _BUILDERS:
        raise AlgebraError(f"unknown corpus {corpus_id!r}")
    return _built(corpus_id)


def named_algebra(name: str) -> Algebra | None:
    """Resolve an algebra by name across all built-in corpora."""
    for corpus_id in _BUILDERS:
        for A in _built(corpus_id):
            if A.name == name:
                return A
    return None
