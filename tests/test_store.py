"""The store of one ``verify_all`` or ``verify_suite`` call.

Within an open store (``algebra._store``) each pullback, kernel pair,
product and sub-algebra is built once per content of its inputs; a hit
hands back the stored algebra with its legs bound to the caller's own
algebras.  These tests compare every hit, on the corpus maps and on
renamed copies of them, with a fresh build made outside any store.
"""

from __future__ import annotations

from contextvars import Context

import pytest

from semiab import corpus_by_id, kernel, sub_algebra, zero_morphism
from semiab.algebra import Morphism, _renamed, _store, _unchecked
from semiab.homs import _corpus_surjections
from semiab.ops import direct_product, kernel_pair, pullback

from test_checked_once import _assert_checked_morphism

def _renamed_map(f: Morphism) -> Morphism:
    """f between renamed copies of its ends, one copy when they are one algebra."""
    def copy(A, name):
        return _renamed(A, name, *(f"{name}-{k}" for k in range(len(A.sorts))))
    dom = copy(f.dom, "dom-copy")
    cod = dom if f.cod is f.dom else copy(f.cod, "cod-copy")
    return _unchecked(Morphism, dom, cod, f.mapping)


def _builds(f: Morphism):
    """Each stored construction on f, with the algebras its legs must land in."""
    A, B = f.dom, f.cod
    return {
        "kernel-pair": (lambda: kernel_pair(f), (A, A)),
        # the zero map is not onto, so neither is the first leg
        "pullback": (lambda: pullback(f, zero_morphism(A, B)), (A, A)),
        "product": (lambda: direct_product(A, B), (A, B)),
        "sub-algebra": (lambda: sub_algebra(A, kernel(f)), (A,)),
    }


def _same_build(got, fresh) -> None:
    P, F = got[0], fresh[0]
    assert P.variety == F.variety and P.maps == F.maps
    for S, T in zip(P.sorts, F.sorts, strict=True):
        assert (S.binary, S.unary, S.gens) == (T.binary, T.unary, T.gens)
    for leg, fresh_leg in zip(got[1:], fresh[1:], strict=True):
        assert leg.mapping == fresh_leg.mapping and leg.dom is P


@pytest.mark.parametrize("cid", ["groups", "rings", "groupoids", "zmod4-modules"])
def test_a_store_hit_is_the_fresh_build_bound_to_the_caller(cid):
    checked = set()  # legs by content: the direct checks read nothing else
    with _store():
        for f in _corpus_surjections(corpus_by_id(cid)):
            for h in (f, _renamed_map(f)):
                for name, (build, ends) in _builds(h).items():
                    first = build()
                    second = build()
                    assert second[0] is first[0], name
                    fresh = Context().run(build)  # an empty context has no store
                    assert fresh[0] is not first[0]
                    for got in (first, second):
                        _same_build(got, fresh)
                        for leg, end in zip(got[1:], ends, strict=True):
                            assert leg.cod is end, name
                            if leg not in checked:
                                _assert_checked_morphism(leg)
                                checked.add(leg)
