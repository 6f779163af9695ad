"""Named verification suites sweeping corpora for the library's claims.

Each suite certifies one equivalence or closure property over a named
corpus, or emits replayable counterexample witnesses.  A pass never
claims more than the sweep saw.  Where an instance stream is quadratic
the sweep samples it deterministically from the seed and reports the
sample size.  This module registers all 22 checks and is the one place
that turns their violations into reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .algebra import (
    Algebra,
    AlgebraError,
    Morphism,
    _store,
    compose,
    full_subobject,
    identity_morphism,
    is_injective,
    is_isomorphism_map,
    zero_morphism,
)
from .birkhoff import (
    BirkhoffContext,
    birkhoff_radical,
    composite_radical,
    object_cube,
)
from .corpus import corpus_by_id
from .cubes import NCube, cube_of_morphism, is_nfold_extension, is_pullback_square, is_pushout_square, square
from .factorisation import (
    classify_em,
    check_orthogonal,
    condition_N_check,
    double_normal_by_galois,
    em_factorize,
    is_normal_extension,
    nfold_normal_by_criterion,
    torsion_of_kernel,
)
from .families import trivial_of_variety
from .homs import _corpus_surjections, enumerate_homs, surjections
from .ops import (
    ExactSequence,
    NoFactorError,
    huq_commutator,
    image,
    image_elements,
    induced_on_quotient,
    join_normal,
    kernel,
    meet_subobjects,
    normal_closure,
    power_subobject,
    pullback,
    quotient,
)
from .reflectors import (
    Reflector,
    is_free_member,
    is_torsion_member,
    known_protoadditive_on,
    map_reflect,
    preserves_split_sequence,
    radical,
    radical_algebra,
    reflect,
    reflector_by_id,
    split_exact_sequences,
    short_exact_sequences,
)
from .report import CHECKS, CORPUS_NOTE, Check, Report, check, merge_reports
from .serialize import algebra_to_doc, subobject_to_doc


class SuiteError(ValueError):
    """Unknown suite id."""


class SuiteCompatibilityError(ValueError):
    """The reflector or corpus cannot feed this suite."""


# ---------------------------------------------------------------------------
# instance streams


def _surjections_in(corpus) -> tuple[Morphism, ...]:
    return tuple(_corpus_surjections(corpus))


def _applicable(R: Reflector, corpus) -> tuple[Algebra, ...]:
    algebras = tuple(A for A in corpus if R.applies_to(A.variety))
    if not algebras:
        raise SuiteCompatibilityError(
            f"reflector {R.name!r} applies to nothing in the corpus")
    return algebras


def _sample(items, seed: int, cap: int) -> list:
    items = list(items)
    if len(items) <= cap:
        return items
    picked = sorted(random.Random(seed).sample(range(len(items)), cap))
    return [items[i] for i in picked]


def _pushout_square(f: Morphism, g: Morphism) -> NCube:
    j = join_normal(f.dom, kernel(f), kernel(g))
    _, q = quotient(f.dom, j)
    return square(f, g, induced_on_quotient(f, q), induced_on_quotient(g, q))


def _collapsed_square(f: Morphism, g: Morphism) -> NCube:
    # collapsing the bottom vertex keeps the square commuting but spoils
    # the pushout comparison (unless the two kernels already join to the
    # whole domain)
    T = trivial_of_variety(f.dom.variety)
    return square(f, g, zero_morphism(f.cod, T), zero_morphism(g.cod, T))


def _identity_square(f: Morphism, g: Morphism) -> NCube:
    return square(f, g, identity_morphism(f.cod), identity_morphism(g.cod))


def _derived_squares(corpus, seed: int, cap: int) -> list[NCube]:
    """Double extensions (and a few non-extensions) built from corpus epis.

    The pool holds, for each pair f, g of surjections out of one domain,
    their pushout square and the square collapsed onto a trivial
    algebra, then each surjection's square with itself and identities.
    ``_sample`` draws indices into it by seed, from its length alone,
    and only the squares drawn are built.
    """
    surjs = [f for f in _surjections_in(corpus)
             if f.dom.order > 1 or f.cod.order > 1]
    by_dom: dict[int, list[Morphism]] = {}
    for f in surjs:
        by_dom.setdefault(id(f.dom), []).append(f)
    recipes = [(build, f, g) for fs in by_dom.values()
               for i, f in enumerate(fs) for g in fs[i:]
               for build in (_pushout_square, _collapsed_square)]
    recipes += [(_identity_square, f, f) for f in surjs]
    return [build(f, g) for build, f, g in _sample(recipes, seed, cap)]


# ---------------------------------------------------------------------------
# checks: each predicate is True when its instance violates the claim


_REFLECTOR = ("reflector", "reflector")
_SEQUENCE = (None, "sequence")
_EPI = ("epi", "morphism")
_MEMBERS = {"torsion": is_torsion_member, "free": is_free_member,
            "subvariety": is_free_member}


def _breaks_extension_closure(member, R: Reflector, seq: ExactSequence) -> bool:
    """Kernel and quotient satisfy ``member`` but the extension does not."""
    K, A, B = seq.k.dom, seq.f.dom, seq.f.cod
    return member(R, K) and member(R, B) and not member(R, A)


@check("split-preservation", _REFLECTOR, _SEQUENCE)
def _split_not_preserved(R: Reflector, seq: ExactSequence) -> bool:
    return not preserves_split_sequence(R, seq)


@check("idempotent-radical", _REFLECTOR, ("algebra", "algebra"))
def _radical_not_idempotent(R: Reflector, A: Algebra) -> bool:
    return not radical(R, radical_algebra(R, A)).is_whole()


@check("hom-vanishing", _REFLECTOR, ("morphism", "morphism"))
def _torsion_to_free_nonzero(R: Reflector, f: Morphism) -> bool:
    nonzero = any(v != 0 for m in f.mapping for v in m)
    return nonzero and is_torsion_member(R, f.dom) and is_free_member(R, f.cod)


@check("torsion-extension-closure", _REFLECTOR, _SEQUENCE)
def _torsion_not_extension_closed(R: Reflector, seq: ExactSequence) -> bool:
    return _breaks_extension_closure(is_torsion_member, R, seq)


@check("free-extension-closure", _REFLECTOR, _SEQUENCE)
def _free_not_extension_closed(R: Reflector, seq: ExactSequence) -> bool:
    return _breaks_extension_closure(is_free_member, R, seq)


@check("unit-pullback-not-inverted", _REFLECTOR, ("algebra", "algebra"), ("along", "morphism"))
def _unit_pullback_not_inverted(R: Reflector, A: Algebra, g: Morphism) -> bool:
    _, _, p2 = pullback(reflect(R, A).unit, g)
    return not is_isomorphism_map(map_reflect(R, p2))


@check("pullback-not-preserved", _REFLECTOR, _SEQUENCE, ("along", "morphism"))
def _pullback_not_preserved(R: Reflector, seq: ExactSequence, g: Morphism) -> bool:
    _, p1, p2 = pullback(seq.f, g)
    return not is_pullback_square(square(map_reflect(R, p1), map_reflect(R, p2),
                                         map_reflect(R, seq.f), map_reflect(R, g)))


@check("protosplit-mono-image", _REFLECTOR, _SEQUENCE)
def _mono_image_not_normal(R: Reflector, seq: ExactSequence) -> bool:
    Fk = map_reflect(R, seq.k)
    return not (is_injective(Fk) and image(Fk).normal)


@check("heredity-mismatch", _REFLECTOR, _SEQUENCE)
def _heredity_mismatch(R: Reflector, seq: ExactSequence) -> bool:
    k = seq.k
    TA_in_K = meet_subobjects(k.cod, radical(R, k.cod), image(k))
    return image_elements(k, radical(R, k.dom)) != TA_in_K.elements


@check("class-extension-closure", _REFLECTOR, _SEQUENCE, ("class", tuple(_MEMBERS)))
def _class_not_extension_closed(R: Reflector, seq: ExactSequence, label: str) -> bool:
    return _breaks_extension_closure(_MEMBERS[label], R, seq)


@check("normal-vs-kernel-mismatch", _REFLECTOR, _EPI)
def _normal_vs_kernel_mismatch(R: Reflector, f: Morphism) -> bool:
    return is_normal_extension(R, f) != torsion_of_kernel(R, f).is_zero()


@check("orthogonality-failure", _REFLECTOR, ("e", "morphism"), ("m", "morphism"),
       ("top", "morphism"), ("bottom", "morphism"))
def _orthogonality_failure(R: Reflector, e: Morphism, m: Morphism,
                           u: Morphism, v: Morphism) -> bool:
    status, _ = check_orthogonal(e, m, (u, v))
    return status != "unique"


@check("factorisation-classes", _REFLECTOR, _EPI)
def _factorisation_classes(R: Reflector, f: Morphism) -> bool:
    fac = em_factorize(R, f)
    return (classify_em(R, fac.e) not in ("e", "both")
            or classify_em(R, fac.m) not in ("m", "both"))


@check("e-class-not-stable", _REFLECTOR, ("e", "morphism"), ("along", "morphism"))
def _e_class_not_stable(R: Reflector, e: Morphism, g: Morphism) -> bool:
    _, _, p2 = pullback(e, g)
    return classify_em(R, p2) not in ("e", "both")


@check("factorisation-not-unique", _REFLECTOR, _EPI, ("alt-epi", "morphism"))
def _factorisation_not_unique(R: Reflector, f: Morphism, alt_e: Morphism) -> bool:
    return not _factorisation_unique(R, f, alt_e)


@check("pushout-vs-double-extension", ("square", "cube"))
def _pushout_vs_double_extension(sq: NCube) -> bool:
    return is_nfold_extension(sq) != is_pushout_square(sq)


@check("criterion-vs-galois", _REFLECTOR, ("square", "cube"))
def _criterion_vs_galois(R: Reflector, sq: NCube) -> bool:
    return nfold_normal_by_criterion(R, sq) != double_normal_by_galois(R, sq)


@check("radical-vs-commutator", _REFLECTOR, _EPI, certify=BirkhoffContext)
def _radical_vs_commutator(R: Reflector, f: Morphism) -> bool:
    comm = huq_commutator(f.dom, kernel(f), full_subobject(f.dom))
    return birkhoff_radical(R, f).elements != comm.elements


@check("normal-vs-kernel-membership", _REFLECTOR, _EPI, certify=BirkhoffContext)
def _normal_vs_kernel_membership(R: Reflector, f: Morphism) -> bool:
    return birkhoff_radical(R, f).is_zero() != torsion_of_kernel(R, f).is_zero()


@check("composite-normal-routes", _REFLECTOR, _EPI,
       certify=lambda R, algebras: BirkhoffContext(R.inner, algebras, C=R))
def _composite_normal_routes(R: Reflector, f: Morphism) -> bool:
    via_join = composite_radical(R.inner, R, cube_of_morphism(f)).is_zero()
    b_normal = birkhoff_radical(R.inner, f).is_zero()
    kernel_in_c = torsion_of_kernel(R, f).is_zero()
    return not (via_join == (b_normal and kernel_in_c) == is_normal_extension(R, f))


@check("join-vs-direct", _REFLECTOR, _EPI,
       certify=lambda R, algebras: (BirkhoffContext(R.inner, algebras, C=R),
                                     BirkhoffContext(R, algebras)))
def _join_vs_direct(R: Reflector, f: Morphism) -> bool:
    joined = composite_radical(R.inner, R, cube_of_morphism(f))
    direct = birkhoff_radical(R, f)
    return joined.elements != direct.elements


@check("composite-object-radical", _REFLECTOR, ("algebra", "algebra"),
       certify=lambda R, algebras: BirkhoffContext(R.inner, algebras, C=R.outer))
def _composite_object_radical(R: Reflector, A: Algebra) -> bool:
    via_cube = composite_radical(R.inner, R.outer, object_cube(A))
    oracle = join_normal(A, radical(R.inner, A),
                         normal_closure(A, *power_subobject(A, R.outer.k).elements))
    return not (radical(R, A).elements == via_cube.elements == oracle.elements)


# ---------------------------------------------------------------------------
# suites


def _suite_thm_1_6(R: Reflector, corpus, seed: int) -> Report:
    """Idempotency, hom-vanishing, closure under extensions, stable units."""
    algebras = _applicable(R, corpus)
    witnesses = []
    for A in algebras:
        if _radical_not_idempotent(R, A):
            witnesses.append(_radical_not_idempotent.witness(R, A, extra={
                "radical": subobject_to_doc(radical(R, A)),
                "radical-of-radical": subobject_to_doc(radical(R, radical_algebra(R, A)))}))
    torsion = [A for A in algebras if is_torsion_member(R, A)]
    free = [A for A in algebras if is_free_member(R, A)]
    hom_pairs = 0
    for T in torsion:
        for F in free:
            if T.variety != F.variety:
                continue
            hom_pairs += 1
            bad = next((f for f in enumerate_homs(T, F) if _torsion_to_free_nonzero(R, f)), None)
            if bad is not None:
                witnesses.append(_torsion_to_free_nonzero.witness(R, bad, extra={
                    "torsion": algebra_to_doc(T), "free": algebra_to_doc(F)}))
    seqs = short_exact_sequences(algebras)
    for seq in seqs:
        for closure in (_torsion_not_extension_closed, _free_not_extension_closed):
            if closure(R, seq):
                witnesses.append(closure.witness(R, seq))
    pullbacks = 0
    for A in algebras:
        dec = reflect(R, A)
        for Y in algebras:
            if Y.variety != A.variety:
                continue
            free_Y = is_free_member(R, Y)
            for g in _sample(enumerate_homs(Y, dec.reflection), seed, 4):
                pullbacks += 1
                if _unit_pullback_not_inverted(R, A, g):
                    witnesses.append(_unit_pullback_not_inverted.witness(
                        R, A, g, extra={"semi-left-exact-instance": free_Y}))
    return Report.scan("thm-1.6", witnesses, {"objects": len(algebras), "hom-pairs": hom_pairs,
                                              "sequences": len(seqs), "unit-pullbacks": pullbacks})


def protoadditive_by_definition(R: Reflector, corpus) -> Report:
    """Split-sequence preservation, checked sequence by sequence."""
    seqs = split_exact_sequences(_applicable(R, corpus))
    witnesses = _split_not_preserved.violations((R, seq) for seq in seqs)
    return Report.scan("protoadditive-definition", witnesses, {"split-sequences": len(seqs)})


def _suite_prop_2_2(R: Reflector, corpus, seed: int) -> Report:
    """Preservation of pullbacks along split epimorphisms."""
    algebras = _applicable(R, corpus)
    seqs = split_exact_sequences(algebras)
    witnesses = []
    checked = 0
    for seq in seqs:
        f = seq.f
        others = []
        for C in algebras:
            if C.variety == f.cod.variety:
                others.extend(enumerate_homs(C, f.cod))
        for g in _sample(others, seed, 6):
            checked += 1
            if _pullback_not_preserved(R, seq, g):
                witnesses.append(_pullback_not_preserved.witness(R, seq, g))
                break
    return Report.scan("prop-2.2", witnesses, {"split-sequences": len(seqs), "pullbacks": checked})


def _against_split_preservation(suite: str, R: Reflector, corpus, route: Check,
                                keys: tuple[str, str], note, both_fail: str) -> Report:
    """Split-sequence preservation and ``route``, an equivalent condition,
    on the same split sequences; ``keys`` name the two sample counts.

    The suite passes when both routes pass or both fail.  Witnesses come
    from ``route`` when it fails, else from split-sequence preservation.
    ``note(agree)`` words the agreement; ``both_fail`` is noted when
    both routes fail.
    """
    seqs = split_exact_sequences(_applicable(R, corpus))
    preserved = _split_not_preserved.violations((R, seq) for seq in seqs)
    other = route.violations((R, seq) for seq in seqs)
    agree = bool(preserved) == bool(other)
    notes = [CORPUS_NOTE, note(agree)] + ([both_fail] if preserved and other else [])
    return Report(suite, "pass" if agree else "fail", other or preserved,
                  dict.fromkeys(keys, len(seqs)), notes)


def _suite_prop_2_3(R: Reflector, corpus, seed: int) -> Report:
    return _against_split_preservation(
        "prop-2.3", R, corpus, _mono_image_not_normal, ("split-sequences", "protosplit-monos"),
        lambda agree: "equivalence agreement: split-sequence route "
                      + ("and" if agree else "versus") + " protosplit-mono route",
        "both routes fail together; witnesses replay the mono route")


def _suite_thm_2_4(R: Reflector, corpus, seed: int) -> Report:
    return _against_split_preservation(
        "thm-2.4", R, corpus, _heredity_mismatch, ("protosplit-monos", "split-sequences"),
        lambda agree: "equivalence agreement: protoadditivity versus radical heredity"
                      " on protosplit monos",
        "both sides fail together; witnesses replay the heredity route")


def _suite_prop_2_5_2_7(R: Reflector, corpus, seed: int) -> Report:
    algebras = _applicable(R, corpus)
    classes = ("torsion", "free") if R.torsion_theory else ("subvariety",)
    witnesses = []
    split_n = seq_n = 0
    for split, seqs in ((True, split_exact_sequences(algebras)),
                        (False, short_exact_sequences(algebras))):
        for seq in seqs:
            if split:
                split_n += 1
            else:
                seq_n += 1
            for label in classes:
                if _class_not_extension_closed(R, seq, label):
                    witnesses.append(_class_not_extension_closed.witness(
                        R, seq, label, extra={"split": split}))
    return Report.scan("prop-2.5/2.7", witnesses,
                       {"split-sequences": split_n, "sequences": seq_n})


def _suite_prop_3_1(R: Reflector, corpus, seed: int) -> Report:
    surjs = _surjections_in(_applicable(R, corpus))
    witnesses = _normal_vs_kernel_mismatch.violations((R, f) for f in surjs)
    return Report.scan("prop-3.1", witnesses, {"surjections": len(surjs)})


def _em_classes(R: Reflector, corpus):
    es, ms = [], []
    for f in _surjections_in(_applicable(R, corpus)):
        cls = classify_em(R, f)
        if cls in ("e", "both"):
            es.append(f)
        if cls in ("m", "both"):
            ms.append(f)
    return es, ms


def _orthogonality_witnesses(R: Reflector, es, ms, seed: int, cap: int):
    witnesses = []
    pairs = [(e, m) for e in es for m in ms]
    checked = 0
    for e, m in _sample(pairs, seed, cap):
        for u in _sample(enumerate_homs(e.dom, m.dom), seed, 4):
            v = _induced_on_cod(e, compose(m, u))
            if v is None:
                continue
            checked += 1
            if _orthogonality_failure(R, e, m, u, v):
                witnesses.append(_orthogonality_failure.witness(R, e, m, u, v))
    return witnesses, checked


def _induced_on_cod(e: Morphism, through: Morphism) -> Morphism | None:
    """The map on cod(e) acting like ``through`` on e-fibres, if well
    defined; any other fault of the construction propagates."""
    try:
        return induced_on_quotient(e, through)
    except NoFactorError:
        return None


def _suite_lemma_3_2(R: Reflector, corpus, seed: int) -> Report:
    es, ms = _em_classes(R, corpus)
    witnesses, checked = _orthogonality_witnesses(R, es, ms, seed, 150)
    return Report.scan("lemma-3.2", witnesses,
                       {"e-maps": len(es), "m-maps": len(ms), "squares": checked})


def _suite_prop_3_4(R: Reflector, corpus, seed: int) -> Report:
    algebras = _applicable(R, corpus)
    es, ms = _em_classes(R, corpus)
    surjs = _surjections_in(algebras)
    witnesses = _factorisation_classes.violations((R, f) for f in surjs)
    ortho_w, ortho_n = _orthogonality_witnesses(R, es, ms, seed, 60)
    witnesses.extend(ortho_w)
    stable_n = 0
    for e in _sample(es, seed, 30):
        for C in algebras:
            if C.variety != e.cod.variety:
                continue
            for g in _sample(enumerate_homs(C, e.cod), seed, 3):
                stable_n += 1
                if _e_class_not_stable(R, e, g):
                    witnesses.append(_e_class_not_stable.witness(R, e, g))
    return Report.scan("prop-3.4", witnesses, {"factorisations": len(surjs),
                                               "orthogonal-squares": ortho_n,
                                               "pullbacks": stable_n})


def _factorisation_unique(R: Reflector, f: Morphism, alt_e: Morphism) -> bool:
    """Does the alternative Ē/M̄ factorisation of f match the canonical one?"""
    fac = em_factorize(R, f)
    alt_m = _induced_on_cod(alt_e, f)
    if alt_m is None:
        return True  # not a factorisation of f at all
    if classify_em(R, alt_e) not in ("e", "both") or classify_em(R, alt_m) not in ("m", "both"):
        return True  # not an Ē/M̄ factorisation, uniqueness says nothing
    status, diagonals = check_orthogonal(alt_e, fac.m, (fac.e, alt_m))
    return status == "unique" and is_isomorphism_map(diagonals[0])


def _suite_thm_3_5(R: Reflector, corpus, seed: int) -> Report:
    algebras = _applicable(R, corpus)
    witnesses = []
    count = 0
    alternatives = 0
    surjs = _surjections_in(algebras)
    for f in surjs:
        if not condition_N_check(R, f):
            continue
        count += 1
        if _factorisation_classes(R, f):
            witnesses.append(_factorisation_classes.witness(R, f))
            continue
        # every corpus-constructible rival factorisation must agree up to
        # a unique middle isomorphism
        for M in algebras:
            if M.variety != f.dom.variety:
                continue
            for alt_e in surjections(f.dom, M):
                alternatives += 1
                if _factorisation_not_unique(R, f, alt_e):
                    witnesses.append(_factorisation_not_unique.witness(R, f, alt_e))
    return Report.scan("thm-3.5", witnesses,
                       {"factorisations": count, "alternatives": alternatives})


def _suite_remark_4_3(R: Reflector | None, corpus, seed: int) -> Report:
    squares = _derived_squares(tuple(corpus), seed, 140)
    witnesses = _pushout_vs_double_extension.violations((sq,) for sq in squares)
    return Report.scan("remark-4.3", witnesses, {"squares": len(squares)})


def _suite_thm_4_6(R: Reflector, corpus, seed: int) -> Report:
    squares = [sq for sq in _derived_squares(_applicable(R, corpus), seed, 120)
               if is_nfold_extension(sq)]
    witnesses = _criterion_vs_galois.violations((R, sq) for sq in squares)
    return Report.scan("thm-4.6", witnesses, {"double-extensions": len(squares)})


def _suite_prop_5_5(R: Reflector, corpus, seed: int) -> Report:
    algebras = _applicable(R, corpus)
    try:  # both checks below certify the same base context
        _normal_vs_kernel_membership.certify(R, algebras)
    except AlgebraError as exc:
        raise SuiteCompatibilityError(str(exc)) from None
    group_oracle = R.name == "ab"
    proto = all(known_protoadditive_on(R, A.kind) for A in algebras)
    if not group_oracle and not proto:
        raise SuiteCompatibilityError(
            "needs the commutator oracle (ab on groups) or a protoadditive reflector")
    witnesses = []
    surjs = _surjections_in(algebras)
    checks = ([_radical_vs_commutator] if group_oracle else []) + (
        [_normal_vs_kernel_membership] if proto else [])
    for f in surjs:
        for c in checks:
            if c(R, f):
                witnesses.append(c.witness(R, f))
    return Report.scan("prop-5.5", witnesses, {"surjections": len(surjs)})


def _suite_thm_6_2(R: Reflector, corpus, seed: int) -> Report:
    algebras = _applicable(R, corpus)
    _composite_normal_routes.certify(R, algebras)
    surjs = _surjections_in(algebras)
    witnesses = _composite_normal_routes.violations((R, f) for f in surjs)
    return Report.scan("thm-6.2", witnesses, {"surjections": len(surjs)})


def _suite_thm_6_5(R: Reflector, corpus, seed: int) -> Report:
    algebras = _applicable(R, corpus)
    _join_vs_direct.certify(R, algebras)
    surjs = _surjections_in(algebras)
    witnesses = _join_vs_direct.violations((R, f) for f in surjs)
    return Report.scan("thm-6.5", witnesses, {"surjections": len(surjs)})


def _suite_lemma_6_6(R: Reflector, corpus, seed: int) -> Report:
    if R.inner.name != "ab" or R.outer.k is None:
        raise SuiteCompatibilityError(
            "the join identity is stated for burnside:k over abelianisation")
    algebras = _applicable(R, corpus)
    _composite_object_radical.certify(R, algebras)
    witnesses = _composite_object_radical.violations((R, A) for A in algebras)
    return Report.scan("lemma-6.6", witnesses, {"objects": len(algebras)})


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Suite:
    name: str
    result: str  # the claim this suite's verdicts instantiate
    needs: str  # "any" | "torsion-theory" | "composite" | "none"
    defaults: tuple[tuple[str | None, str], ...]
    runner: Callable[[Reflector | None, tuple, int], Report]


_TT_TRIO = (("reduced", "rings"), ("zerorng", "rng-star"), ("pi0", "groupoids"))

SUITES: dict[str, Suite] = {s.name: s for s in [
    Suite("thm-1.6", "the induced radical is idempotent; units stable under sampled pullbacks",
          "any", _TT_TRIO, _suite_thm_1_6),
    Suite("prop-2.2", "preserves pullbacks along split epimorphisms",
          "any", _TT_TRIO, _suite_prop_2_2),
    Suite("prop-2.3", "sends protosplit monomorphisms to normal monomorphisms",
          "any", _TT_TRIO, _suite_prop_2_3),
    Suite("thm-2.4", "M-hereditary, for M the class of protosplit monomorphisms",
          "any", _TT_TRIO, _suite_thm_2_4),
    Suite("prop-2.5/2.7", "closed under split extensions; closed under extensions",
          "any", _TT_TRIO, _suite_prop_2_5_2_7),
    Suite("prop-3.1", "normal extension exactly when K[f] is torsion-free",
          "torsion-theory", _TT_TRIO, _suite_prop_3_1),
    Suite("lemma-3.2", "every Ē-map is orthogonal to every M̄-map",
          "torsion-theory", _TT_TRIO, _suite_lemma_3_2),
    Suite("prop-3.4", "(Ē, M̄) is a stable factorisation system",
          "torsion-theory", _TT_TRIO, _suite_prop_3_4),
    Suite("thm-3.5", "factors uniquely (up to isomorphism)",
          "torsion-theory", _TT_TRIO, _suite_thm_3_5),
    Suite("remark-4.3", "squares of surjections: double extension equals pushout",
          "none", ((None, "rings"), (None, "groups")), _suite_remark_4_3),
    Suite("thm-4.6", "double extension normal exactly when the rib-kernel meet is torsion-free",
          "torsion-theory", (("reduced", "rings"), ("zerorng", "rng-star")),
          _suite_thm_4_6),
    Suite("prop-5.5", "normal epimorphisms f with K[f] in the subvariety",
          "any", (("ab", "groups"), ("burnside:2", "zmod4-modules")), _suite_prop_5_5),
    Suite("thm-6.2", "K[f] in C and f a B-normal extension",
          "composite", (("composite:burnside:2∘ab", "groups"),), _suite_thm_6_2),
    Suite("thm-6.5", "composite radical is the join of the two routes",
          "composite", (("composite:burnside:2∘ab", "groups"),), _suite_thm_6_5),
    Suite("lemma-6.6", "object radical of the intersection subvariety is the join",
          "composite", (("composite:burnside:2∘ab", "groups"),
                        ("composite:burnside:3∘ab", "groups")), _suite_lemma_6_6),
]}

_ALIASES = {"prop-2.5": "prop-2.5/2.7", "prop-2.7": "prop-2.5/2.7"}


def _resolve_reflector(reflector) -> Reflector | None:
    if reflector is None or isinstance(reflector, Reflector):
        return reflector
    return reflector_by_id(reflector)


def _resolve_corpus(corpus):
    if corpus is None:
        return None
    if isinstance(corpus, str):
        return corpus_by_id(corpus)
    return tuple(corpus)


def _check_needs(suite: Suite, R: Reflector | None) -> None:
    if suite.needs == "none":
        if R is not None:
            raise SuiteCompatibilityError(f"suite {suite.name} takes no reflector")
        return
    if R is None:
        raise SuiteCompatibilityError(f"suite {suite.name} needs a reflector")
    if suite.needs == "torsion-theory" and not R.torsion_theory:
        raise SuiteCompatibilityError(
            f"suite {suite.name} needs a torsion-theory reflector, {R.name} is not one")
    if suite.needs == "composite" and not R.is_composite:
        raise SuiteCompatibilityError(
            f"suite {suite.name} needs a composite reflector, {R.name} is not one")


@_store()
def verify_suite(name: str, reflector=None, corpus=None, seed: int = 0) -> Report:
    """Run one suite; defaults cover its canonical configurations.

    Its runs share one store (``algebra._store``), their ``verify_all``'s if any.
    """
    key = _ALIASES.get(name, name)
    if key not in SUITES:
        raise SuiteError(f"unknown suite id {name!r}")
    suite = SUITES[key]
    R = _resolve_reflector(reflector)
    algebras = _resolve_corpus(corpus)
    if R is None and algebras is None:
        parts = []
        for rid, cid in suite.defaults:
            part = _run(suite, _resolve_reflector(rid), corpus_by_id(cid), seed)
            part.notes.append(f"configuration: {rid or '-'} on {cid}")
            parts.append(part)
        return merge_reports(suite.name, parts)
    if algebras is None:
        cid = next((c for _, c in suite.defaults if _default_fits(R, c)), suite.defaults[0][1])
        algebras = corpus_by_id(cid)
    part = _run(suite, R, algebras, seed)
    if R is None:
        part.notes.append("configuration: - on given corpus")
        return merge_reports(suite.name, [part])
    return part


def _run(suite: Suite, R: Reflector | None, corpus, seed: int) -> Report:
    """One configuration, behind the one gate on what the suite needs."""
    _check_needs(suite, R)
    return suite.runner(R, corpus, seed)


def _default_fits(R: Reflector, corpus_id: str) -> bool:
    try:
        _applicable(R, corpus_by_id(corpus_id))
        return True
    except SuiteCompatibilityError:
        return False


def verify_all(seed: int = 0) -> list[Report]:
    """Every suite on its canonical default configurations.

    The suites share one store (``algebra._store``), so each reflector
    and corpus is certified, each radical of a map taken and each pair
    algebra and sub-algebra built once, until the call returns.
    """
    with _store():
        return [verify_suite(name, seed=seed) for name in SUITES]


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(doc: dict) -> bool:
    """Re-run a witness; True when the violation reproduces.

    Unknown checks and non-object documents raise SuiteError; a missing
    or malformed field raises FormatError with its JSON path.
    """
    if not isinstance(doc, dict):
        raise SuiteError(f"a witness is a JSON object, got {type(doc).__name__}")
    name = doc.get("check")
    if not isinstance(name, str) or name not in CHECKS:
        raise SuiteError(f"unknown witness check {name!r}")
    return CHECKS[name].replay(doc)
