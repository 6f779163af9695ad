"""Torsion-kernel factorisation of surjections and extension tests.

A surjection factors canonically as the quotient by the torsion part
of its kernel followed by a map with torsion-free kernel.  Trivial and
normal extensions are recognised by whether squares over the reflection
are pullbacks; the cube machinery lifts both notions to squares and
higher dimensions, where the same torsion quotient of the top vertex
splits an n-fold extension into a torsion part and a normal part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    AlgebraError,
    Morphism,
    Subobject,
    _derived_subobject,
    compose,
    identity_morphism,
    is_surjective,
    sub_algebra,
)
from .cubes import (
    NCube,
    _kernel_pair_cube,
    _quotient_top,
    cube_between,
    is_nfold_extension,
    is_pullback_square,
    rib_kernel_meet,
    square,
)
from .homs import enumerate_homs
from .ops import (
    image_elements,
    induced_on_quotient,
    kernel,
    kernel_pair,
    quotient,
)
from .reflectors import Reflector, ReflectorError, map_reflect, radical, reflect


def _radical_within(R: Reflector, A: Algebra, S: Subobject) -> Subobject:
    """The radical of the sub-algebra S, pushed forward into A: closed,
    as the image of a subobject under a morphism; normality is tested.

    When S is all of A, the sub-algebra would be a copy of A with A's
    tables, and its radical is A's own, a normal subobject: so that is
    returned, with no copy built.
    """
    if S.is_whole():
        return radical(R, A)
    sub, incl = sub_algebra(A, S)
    return _derived_subobject(A, image_elements(incl, radical(R, sub)))


def torsion_of_kernel(R: Reflector, f: Morphism) -> Subobject:
    """The radical of kernel(f), pushed forward into dom(f).

    The returned subobject's ``normal`` flag is exactly the normality
    condition the factorisation needs.
    """
    return _radical_within(R, f.dom, kernel(f))


def condition_N_check(R: Reflector, f: Morphism) -> bool:
    """Whether the torsion part of the kernel is normal in the domain."""
    return torsion_of_kernel(R, f).normal


@dataclass(frozen=True)
class EMFactorisation:
    """f = m ∘ e with e a torsion-kernel quotient and m torsion-free."""

    input: Morphism
    e: Morphism
    m: Morphism

    def __post_init__(self) -> None:
        if compose(self.m, self.e) != self.input:
            raise AlgebraError("factorisation does not compose to the input")


def em_factorize(R: Reflector, f: Morphism) -> EMFactorisation:
    T = torsion_of_kernel(R, f)
    if not T.normal:
        raise AlgebraError("torsion part of the kernel is not normal in the domain")
    _, e = quotient(f.dom, T)
    m = induced_on_quotient(e, f)
    if not torsion_of_kernel(R, m).is_zero():
        raise AlgebraError("induced map kept a torsion kernel")
    return EMFactorisation(f, e, m)


def classify_em(R: Reflector, f: Morphism) -> str:
    """Membership in the factorisation classes: e, m, both or neither.

    The e class is the surjections whose kernel is all torsion; the m
    class is the maps with torsion-free kernel.
    """
    K = kernel(f)
    sub, _ = sub_algebra(f.dom, K)
    rad = radical(R, sub)
    in_e = is_surjective(f) and rad.is_whole()
    in_m = rad.is_zero()
    if in_e and in_m:
        return "both"
    if in_e:
        return "e"
    if in_m:
        return "m"
    return "neither"


def check_orthogonal(e: Morphism, m: Morphism,
                     square_pair: tuple[Morphism, Morphism]) -> tuple[str, list[Morphism]]:
    """Diagonal fillers for a commuting square a, b from e to m.

    Returns ("unique" | "none" | "multiple", diagonals).
    """
    a, b = square_pair
    if compose(m, a) != compose(b, e):
        raise AlgebraError("square does not commute")
    diagonals = [d for d in enumerate_homs(e.cod, m.dom)
                 if compose(d, e) == a and compose(m, d) == b]
    if len(diagonals) == 1:
        return "unique", diagonals
    return ("none" if not diagonals else "multiple"), diagonals


# ---------------------------------------------------------------------------
# trivial and normal extensions


def unit_square(R: Reflector, f: Morphism) -> NCube:
    """The naturality square of the unit over f, as a 2-cube."""
    eta_dom = reflect(R, f.dom).unit
    eta_cod = reflect(R, f.cod).unit
    return square(f, eta_dom, eta_cod, map_reflect(R, f))


def is_trivial_extension(R: Reflector, f: Morphism) -> bool:
    """Whether the unit square over f is a pullback."""
    if not is_surjective(f):
        raise AlgebraError("extension tests take surjections")
    return is_pullback_square(unit_square(R, f))


def is_normal_extension(R: Reflector, f: Morphism) -> bool:
    """Pull f back along itself and test the projection for triviality."""
    if not is_surjective(f):
        raise AlgebraError("extension tests take surjections")
    _, p1, _ = kernel_pair(f)
    return is_trivial_extension(R, p1)


# ---------------------------------------------------------------------------
# higher dimensions


def cube_torsion_meet(R: Reflector, c: NCube) -> Subobject:
    """The radical of the intersection of all rib kernels, in the top vertex."""
    return _radical_within(R, c.top_vertex, rib_kernel_meet(c))


def nfold_normal_by_criterion(R: Reflector, c: NCube) -> bool:
    """Torsion-free intersection of the rib kernels."""
    return cube_torsion_meet(R, c).is_zero()


def double_normal_by_galois(R: Reflector, c: NCube) -> bool:
    """Normality of an n-fold extension, n >= 1, via the derived reflection.

    The cube is read as an arrow along its last axis between two
    (n-1)-cubes, objects when n = 1.  Its levelwise kernel pair projects
    back onto the domain face, and that projection is tested for
    triviality one dimension down, where the reflection quotients only
    the top vertex, by the torsion of the rib-kernel meet: so the top
    square, through the two torsion quotients, must be a pullback.
    """
    rcube, pt1, _ = _kernel_pair_cube(c)
    Tu = cube_torsion_meet(R, rcube)
    Tv = cube_torsion_meet(R, c.face(c.dim - 1, 0))
    if not (Tu.normal and Tv.normal):
        raise AlgebraError("torsion parts of the kernels are not normal")
    _, qu = quotient(rcube.top_vertex, Tu)
    _, qv = quotient(c.top_vertex, Tv)
    reflected = induced_on_quotient(qu, compose(qv, pt1))
    return is_pullback_square(square(qu, pt1, reflected, qv))


def _torsion_theory_only(R: Reflector) -> None:
    """The kernel criterion is the paper's for torsion theories only."""
    if not R.torsion_theory:
        raise ReflectorError(f"{R.name} is not a torsion theory, so the kernel "
                             "criterion of n-fold normality does not apply")


def is_nfold_normal(R: Reflector, c: NCube) -> bool:
    """Normality of an n-fold extension, n >= 1: torsion-free rib-kernel meet.

    The answer is recomputed along the derived-reflection route, in
    every dimension, and the two must agree.  R must be a torsion
    theory; any other reflector raises ``ReflectorError`` before either
    route runs.
    """
    _torsion_theory_only(R)
    if not is_nfold_extension(c):
        raise AlgebraError("normality test expects an n-fold extension")
    verdict = nfold_normal_by_criterion(R, c)
    if double_normal_by_galois(R, c) != verdict:
        raise AlgebraError("kernel criterion and derived-reflection route disagree")
    return verdict


def nfold_factorize(R: Reflector, c: NCube) -> tuple[NCube, NCube]:
    """Split an n-fold extension into a torsion quotient and a normal part.

    The normal part is the cube with the top vertex quotiented by the
    torsion of the rib-kernel meet; the other factor connects the
    original and quotiented domains.  R must be a torsion theory, as
    for ``is_nfold_normal``.
    """
    _torsion_theory_only(R)
    if not is_nfold_extension(c):
        raise AlgebraError("factorisation expects an n-fold extension")
    T = cube_torsion_meet(R, c)
    if not T.normal:
        raise AlgebraError("torsion part is not normal in the top vertex")
    q, m_cube = _quotient_top(c, T)
    last = c.dim - 1
    dom_face = c.face(last, 0)
    components = {mask: identity_morphism(dom_face.vertex(mask)) for mask in dom_face.vertices if mask}
    e_cube = cube_between(dom_face, m_cube.face(last, 0), components | {0: q})
    if not is_nfold_extension(e_cube) or not is_nfold_extension(m_cube):
        raise AlgebraError("factorisation lost the extension property")
    if not is_nfold_normal(R, m_cube):
        raise AlgebraError("quotiented cube is not normal")
    return e_cube, m_cube
