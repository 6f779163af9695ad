"""Double extensions that thm-4.6 samples at seed 0, and the 3-fold
extensions glued from them, for tests that compare the two normality
routes beyond squares.

Each 3-cube is a square glued along q and identities (``cube_between``)
to the square with its top vertex quotiented by S (``_quotient_top``),
where S is the normal closure of one element of the square's rib-kernel
meet.  The Galois route reads a cube along its last axis, so each cube
is kept under all three rotations of its axes.
"""

from semiab import (
    NCube,
    corpus_by_id,
    cube_between,
    identity_morphism,
    is_nfold_extension,
    normal_closure,
    reflector_by_id,
    rib_kernel_meet,
)
from semiab.cubes import _quotient_top
from semiab.verification import _applicable, _derived_squares

# the reflector and corpus of each default configuration of thm-4.6
THM_4_6 = (("reduced", "rings"), ("zerorng", "rng-star"), ("pi0", "groupoids"))


def thm_4_6_squares(rid: str, cid: str):
    """The reflector and the double extensions its thm-4.6 sweep checks."""
    R = reflector_by_id(rid)
    return R, [sq for sq in _derived_squares(_applicable(R, corpus_by_id(cid)), 0, 120)
               if is_nfold_extension(sq)]


def rotated(c: NCube, r: int) -> NCube:
    """c with axis a renamed (a + r) mod dim."""
    n = c.dim

    def move(mask: int) -> int:
        return sum(1 << (a + r) % n for a in range(n) if mask >> a & 1)

    return NCube(n, {move(m): V for m, V in c.vertices.items()},
                 {(move(m), (a + r) % n): f for (m, a), f in c.edges.items()})


def glued_cubes(sq: NCube):
    """Every 3-fold extension glued from sq, under each rotation."""
    top = sq.top_vertex
    closures = {}
    for k, X in enumerate(rib_kernel_meet(sq).elements):
        for x in X:
            S = normal_closure(top, *({x} if j == k else () for j in range(len(top.sorts))))
            closures.setdefault(S.elements, S)
    for S in closures.values():
        q, bottom = _quotient_top(sq, S)
        components = {m: q if m == 0 else identity_morphism(V) for m, V in sq.vertices.items()}
        c = cube_between(sq, bottom, components)
        if is_nfold_extension(c):
            yield from (rotated(c, r) for r in range(3))
