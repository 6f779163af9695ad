"""The named verification suites: verdicts, witnesses and replay."""

import gc
import json
import weakref
from dataclasses import replace

import pytest

from semiab import (
    AlgebraError,
    FormatError,
    algebra_to_doc,
    corpus_by_id,
    cyclic_group,
    enumerate_homs,
    identity_morphism,
    induced_on_quotient,
    join_normal,
    kernel,
    named_algebra,
    quotient,
    reflect,
    reflector_by_id,
    short_exact_sequences,
    split_exact_sequences,
    square,
    surjections,
    trivial_of_variety,
    zero_morphism,
)
from semiab import birkhoff, verification
from semiab.algebra import _STORE
from semiab.homs import _corpus_surjections
from semiab.ops import NoFactorError, kernel_pair
from semiab.report import CHECKS
from semiab.verification import (
    SUITES,
    SuiteCompatibilityError,
    SuiteError,
    protoadditive_by_definition,
    replay_witness,
    verify_all,
    verify_suite,
)


def test_suite_registry():
    assert len(SUITES) == 15
    for s in SUITES.values():
        assert s.result  # every suite states the claim it checks


def test_unknown_suite_and_aliases():
    with pytest.raises(SuiteError):
        verify_suite("thm-9.9")
    # the two halves of the merged suite resolve to the same runner
    a = verify_suite("prop-2.5", reflector=reflector_by_id("reduced"), corpus=corpus_by_id("rings"))
    b = verify_suite("prop-2.7", reflector=reflector_by_id("reduced"), corpus=corpus_by_id("rings"))
    assert a.suite == b.suite == "prop-2.5/2.7"


def test_default_runs_pass_for_torsion_trio_suites():
    for name in ["prop-2.2", "prop-2.3", "thm-2.4", "prop-3.1", "lemma-3.2", "prop-3.4", "thm-3.5"]:
        rep = verify_suite(name)
        assert rep.passed, rep.summary()


def test_thm_1_6_defaults_pass_but_burnside_fails():
    assert verify_suite("thm-1.6").passed
    rep = verify_suite(
        "thm-1.6",
        reflector=reflector_by_id("burnside:2"),
        corpus=corpus_by_id("abelian-groups"),
    )
    assert not rep.passed
    assert any(w["check"] == "idempotent-radical" for w in rep.witnesses)


def test_prop_2_5_fails_for_boole_on_nonassoc():
    rep = verify_suite(
        "prop-2.5/2.7",
        reflector=reflector_by_id("boole"),
        corpus=corpus_by_id("nonassoc-rings"),
    )
    assert not rep.passed


def test_prop_2_2_records_ab_failure_and_2_3_equivalence():
    groups = corpus_by_id("groups")
    ab = reflector_by_id("ab")
    rep = verify_suite("prop-2.2", reflector=ab, corpus=groups)
    assert not rep.passed
    # the equivalence suite passes because every route refuses together
    rep2 = verify_suite("prop-2.3", reflector=ab, corpus=groups)
    assert rep2.passed


def test_three_protoadditivity_routes_agree():
    for rid, cid in [("reduced", "rings"), ("ab", "groups")]:
        R = reflector_by_id(rid)
        corpus = corpus_by_id(cid)
        seqs = split_exact_sequences(A for A in corpus if R.applies_to(A.variety))
        a = protoadditive_by_definition(R, corpus).passed
        b = verify_suite("prop-2.2", reflector=R, corpus=corpus).passed
        c = not CHECKS["protosplit-mono-image"].violations((R, seq) for seq in seqs)
        assert a == b == c


def test_needs_gates():
    with pytest.raises(SuiteCompatibilityError):
        verify_suite(
            "prop-3.1",  # needs a torsion theory
            reflector=reflector_by_id("burnside:2"),
            corpus=corpus_by_id("zmod4-modules"),
        )
    with pytest.raises(SuiteCompatibilityError):
        verify_suite(
            "remark-4.3",
            reflector=reflector_by_id("reduced"),
            corpus=corpus_by_id("rings"),
        )
    with pytest.raises(SuiteCompatibilityError):
        verify_suite(
            "thm-6.5",
            reflector=reflector_by_id("reduced"),
            corpus=corpus_by_id("rings"),
        )


def test_reflector_without_corpus_needs_fit():
    # a reflector alone is applied over its default corpus when one fits
    rep = verify_suite("thm-1.6", reflector=reflector_by_id("zerorng"))
    assert rep.passed


def test_verify_all_is_complete_and_deterministic():
    reports = verify_all(seed=0)
    assert len(reports) == 15
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.passed for r in reports)
    again = verify_all(seed=0)
    assert [r.to_doc() for r in reports] == [r.to_doc() for r in again]


_CONTEXT_SUITES = ("prop-5.5", "thm-6.2", "thm-6.5", "lemma-6.6")


@pytest.fixture(scope="module")
def shared_sweep():
    """One ``verify_all(seed=0)``, with what its Birkhoff certifications
    and radicals did.

    Records the unit squares certified under ``ab`` on groups, the
    reflector and arrow of every kernel pair that ``radical_n`` takes,
    and, when the last suite returns, the certifications in the store
    (the name and reflectors of each) and a weak reference to every
    pair algebra, sub-algebra and 1-cube radical in it, by the
    function that built it.
    """
    unit_square, kernel_pair = birkhoff.unit_square, birkhoff.kernel_pair
    radical_n = birkhoff.radical_n
    suite = verification.verify_suite
    seen = {"ab-group-squares": 0, "pairs": [], "certified": [], "built": {}}
    reflectors = []

    def counted_square(R, f):
        if R.name == "ab" and f.dom.kind == "group":
            seen["ab-group-squares"] += 1
        return unit_square(R, f)

    def in_radical_n(B, c):
        reflectors.append(B)
        try:
            return radical_n(B, c)
        finally:
            reflectors.pop()

    def recorded_pair(f):
        seen["pairs"].append((reflectors[-1], f))
        return kernel_pair(f)

    def recorded_suite(*args, **kwargs):
        try:
            return suite(*args, **kwargs)
        finally:
            seen["certified"], seen["built"] = [], {}
            for key, value in _STORE.get().items():
                name = key[0].__name__
                if name in ("_certify", "_compare"):
                    seen["certified"].append((name, *(R.name for R in key[1:-1])))
                else:
                    built = value[0] if isinstance(value, tuple) else value
                    seen["built"].setdefault(name, []).append(weakref.ref(built))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(birkhoff, "unit_square", counted_square)
        mp.setattr(birkhoff, "radical_n", in_radical_n)
        mp.setattr(birkhoff, "kernel_pair", recorded_pair)
        mp.setattr(verification, "verify_suite", recorded_suite)
        reports = verify_all(seed=0)
        seen["store-after"] = _STORE.get()
    gc.collect()
    return {r.suite: r.to_doc() for r in reports}, seen


@pytest.mark.parametrize("name", _CONTEXT_SUITES)
def test_shared_contexts_leave_each_report_as_run_alone(shared_sweep, name):
    docs, _ = shared_sweep
    assert docs[name] == verify_suite(name, seed=0).to_doc()


def test_a_sweep_certifies_each_reflector_and_corpus_once(shared_sweep):
    _, seen = shared_sweep
    # five contexts over (ab, groups), differing only in the comparison
    # reflector, certify its unit squares once between them
    groups = len(list(_corpus_surjections(corpus_by_id("groups"))))
    assert seen["ab-group-squares"] == groups == 398
    # one kernel pair per reflector and 1-cube arrow, by content
    assert len(seen["pairs"]) == len(set(seen["pairs"])) > groups


def test_the_context_store_goes_with_the_sweep(shared_sweep):
    _, seen = shared_sweep
    # the seven contexts the suites build certify three reflectors and
    # three comparisons, each once
    assert sorted(seen["certified"]) == [
        ("_certify", "ab"), ("_certify", "burnside:2"), ("_certify", "composite:burnside:2∘ab"),
        ("_compare", "ab", "burnside:2"), ("_compare", "ab", "burnside:3"),
        ("_compare", "ab", "composite:burnside:2∘ab")]
    # the pair algebras, sub-algebras and radicals went with the store
    assert seen["store-after"] is None
    assert sorted(seen["built"]) == ["_arrow_radical", "_build_pairs", "_sub_algebra"]
    assert all(ref() is None for refs in seen["built"].values() for ref in refs)


def test_a_failing_suite_still_closes_the_store(monkeypatch):
    opened = []

    def failing(*args):
        opened.append(_STORE.get())
        raise RuntimeError("runner failed")

    first = next(iter(SUITES))
    monkeypatch.setitem(SUITES, first, replace(SUITES[first], runner=failing))
    for run in (verify_all, lambda: verify_suite(first)):
        with pytest.raises(RuntimeError):
            run()
        assert isinstance(opened.pop(), dict) and _STORE.get() is None


def test_outside_a_sweep_nothing_is_stored():
    (f, *_) = surjections(named_algebra("s3"), named_algebra("c2"))
    assert kernel_pair(f)[0] is not kernel_pair(f)[0]


def test_seed_changes_sample_not_soundness():
    rep0 = verify_suite("remark-4.3", seed=0)
    rep1 = verify_suite("remark-4.3", seed=1)
    assert rep0.passed and rep1.passed


def _eager_squares(corpus):
    """The reference pool: every derived square, built."""
    surjs = [f for f in verification._surjections_in(corpus)
             if f.dom.order > 1 or f.cod.order > 1]
    by_dom = {}
    for f in surjs:
        by_dom.setdefault(id(f.dom), []).append(f)
    squares = []
    for fs in by_dom.values():
        for i, f in enumerate(fs):
            for g in fs[i:]:
                j = join_normal(f.dom, kernel(f), kernel(g))
                _, q = quotient(f.dom, j)
                squares.append(square(f, g, induced_on_quotient(f, q),
                                      induced_on_quotient(g, q)))
                T = trivial_of_variety(f.dom.variety)
                squares.append(square(f, g, zero_morphism(f.cod, T),
                                      zero_morphism(g.cod, T)))
    for f in surjs:
        squares.append(square(f, f, identity_morphism(f.cod), identity_morphism(f.cod)))
    return squares


# every default configuration of the square suites, with the runner's cap
# and the seeds to draw with
_SQUARE_CONFIGS = [
    ("remark-4.3", None, "rings", 140, (0, 1)),
    ("remark-4.3", None, "groups", 140, (0,)),
    ("thm-4.6", "reduced", "rings", 120, (0, 1)),
    ("thm-4.6", "zerorng", "rng-star", 120, (0, 1)),
]


def test_square_configs_are_the_suite_defaults():
    for name in ("remark-4.3", "thm-4.6"):
        assert {(rid, cid) for n, rid, cid, _, _ in _SQUARE_CONFIGS
                if n == name} == set(SUITES[name].defaults)


@pytest.mark.parametrize("name, rid, cid, cap, seeds", _SQUARE_CONFIGS)
def test_sampled_squares_are_the_eagerly_built_ones(monkeypatch, name, rid, cid, cap, seeds):
    corpus = corpus_by_id(cid)
    if rid is not None:
        corpus = verification._applicable(reflector_by_id(rid), corpus)
    pools = []
    sample = verification._sample

    def recorded(items, seed, cap):
        pools.append(list(items))
        return sample(pools[-1], seed, cap)

    monkeypatch.setattr(verification, "_sample", recorded)
    eager = _eager_squares(corpus)
    for seed in seeds:
        pools.clear()
        drawn = verification._derived_squares(tuple(corpus), seed, cap)
        expected = sample(eager, seed, cap)
        assert [len(p) for p in pools] == [len(eager)]
        assert len(drawn) == len(expected) == min(cap, len(eager))
        for new, old in zip(drawn, expected):
            assert new.vertices == old.vertices
            assert [V.name for V in new.vertices.values()] == [
                V.name for V in old.vertices.values()]
            assert new.edges == old.edges


def test_square_suites_build_only_the_squares_they_draw(monkeypatch):
    built = []

    def counted_square(*edges):
        built.append(edges)
        return square(*edges)

    monkeypatch.setattr(verification, "square", counted_square)
    derived = verification._derived_squares
    caps = []

    def counted(corpus, seed, cap):
        built.clear()
        squares = derived(corpus, seed, cap)
        assert len(built) == len(squares) <= cap
        caps.append(cap)
        return squares

    monkeypatch.setattr(verification, "_derived_squares", counted)
    assert verify_suite("remark-4.3").passed and verify_suite("thm-4.6").passed
    assert caps == [140, 140, 120, 120]


def test_witness_replay_for_failing_reports():
    failing = [
        verify_suite(
            "thm-1.6",
            reflector=reflector_by_id("burnside:2"),
            corpus=corpus_by_id("abelian-groups"),
        ),
        verify_suite(
            "prop-2.5/2.7",
            reflector=reflector_by_id("boole"),
            corpus=corpus_by_id("nonassoc-rings"),
        ),
        verify_suite(
            "prop-2.2",
            reflector=reflector_by_id("ab"),
            corpus=corpus_by_id("groups"),
        ),
    ]
    for rep in failing:
        assert rep.witnesses
        for w in rep.witnesses:
            assert replay_witness(w), f"witness for {rep.suite} did not replay"


def test_witness_docs_are_self_contained_json():
    import json

    rep = verify_suite(
        "thm-1.6",
        reflector=reflector_by_id("burnside:2"),
        corpus=corpus_by_id("abelian-groups"),
    )
    for w in rep.witnesses:
        round_tripped = json.loads(json.dumps(w))
        assert replay_witness(round_tripped)


def test_replay_rejects_unknown_check():
    with pytest.raises(SuiteError):
        replay_witness({"check": "no-such-check"})


def test_merged_default_notes_mention_configurations():
    rep = verify_suite("thm-1.6")
    assert any("configuration" in n for n in rep.notes)


@pytest.mark.parametrize("doc, error, path", [
    ({"check": "idempotent-radical"}, FormatError, "$.reflector"),
    ({"check": "pullback-not-preserved", "reflector": "ab"}, FormatError, "$.kernel"),
    ({"check": "class-extension-closure", "reflector": "boole", "kernel": {}, "epi": {}},
     FormatError, "$.kernel.format"),
    (["x"], SuiteError, None),
])
def test_malformed_witness_is_a_clean_error(doc, error, path):
    with pytest.raises(error) as info:
        replay_witness(doc)
    assert getattr(info.value, "path", None) == path


def test_a_unicode_digit_in_a_reflector_id_is_a_format_error():
    # "²" passes str.isdigit but not int()
    with pytest.raises(FormatError) as info:
        replay_witness({"check": "idempotent-radical", "reflector": "burnside:²",
                        "algebra": algebra_to_doc(named_algebra("c4"))})
    assert info.value.path == "$.reflector"


def test_a_replay_certifies_over_the_witness_algebras():
    # c3 is abelian but not of exponent 2: it lies in ab's subcategory
    # and not in burnside:2's, so the comparison subcategory is not
    # inside the base, and the replay refuses the witness
    doc = {"check": "composite-object-radical", "reflector": "composite:ab∘burnside:2",
           "algebra": algebra_to_doc(cyclic_group(3))}
    with pytest.raises(AlgebraError, match="comparison subcategory is not contained in the base"):
        replay_witness(doc)


@pytest.mark.parametrize("suite, name, rid, cid, witness", [
    ("prop-5.5", "normal-vs-kernel-membership", "burnside:2", "zmod4-modules", ("m4-c4", "m4-c2")),
    ("thm-6.2", "composite-normal-routes", "composite:burnside:2∘ab", "groups", ("s3", "c2")),
    ("thm-6.5", "join-vs-direct", "composite:burnside:2∘ab", "groups", ("s3", "c2")),
    ("lemma-6.6", "composite-object-radical", "composite:burnside:2∘ab", "groups", ("s3",)),
])
def test_a_suite_and_a_replay_certify_through_the_checks_hook(monkeypatch, suite, name, rid,
                                                             cid, witness):
    """A suite runs its check's ``certify`` on the reflector and its
    applicable algebras; a replay runs the same hook on the witness's
    epi ends, or its algebra."""
    entry, calls = CHECKS[name], []
    recording = replace(entry, certify=lambda R, algebras: calls.append((R.name, algebras))
                        or entry.certify(R, algebras))
    attr = next(k for k, v in vars(verification).items() if v is entry)
    monkeypatch.setattr(verification, attr, recording)
    monkeypatch.setitem(CHECKS, name, recording)
    R, corpus = reflector_by_id(rid), corpus_by_id(cid)
    verify_suite(suite, reflector=R, corpus=corpus)
    assert calls == [(rid, tuple(A for A in corpus if R.applies_to(A.variety)))]
    calls.clear()
    algebras = tuple(map(named_algebra, witness))
    value = surjections(*algebras)[0] if len(algebras) == 2 else algebras[0]
    replay_witness(json.loads(json.dumps(recording.witness(R, value))))
    assert calls == [(rid, algebras)]


def test_witness_label_must_be_a_known_class():
    seq = short_exact_sequences([named_algebra("bool2")])[0]
    doc = CHECKS["class-extension-closure"].witness(reflector_by_id("boole"), seq, "free")
    doc["class"] = "other"
    with pytest.raises(FormatError) as info:
        replay_witness(doc)
    assert info.value.path == "$.class"


def _zeroed(doc: dict, key: str) -> dict:
    doc[key]["map"] = [0] * len(doc[key]["map"])
    return doc


def test_a_witness_sequence_that_is_not_exact_or_split_is_a_clean_error():
    s3, c2 = named_algebra("s3"), named_algebra("c2")
    split = next(seq for seq in split_exact_sequences([s3, c2]) if seq.f.cod == c2 != seq.f.dom)
    doc = json.loads(json.dumps(CHECKS["split-preservation"].witness(reflector_by_id("ab"), split)))
    assert replay_witness(doc)
    with pytest.raises(FormatError, match=r"^\$: splitting is not a section$"):
        replay_witness(_zeroed(json.loads(json.dumps(doc)), "section"))
    del doc["section"]
    with pytest.raises(FormatError, match=r"^\$: not a short exact sequence$"):
        replay_witness(_zeroed(doc, "kernel"))


def _check_instances():
    """One small live instance of every registered check, as its field values."""
    c2, c4, s3 = (named_algebra(n) for n in ("c2", "c4", "s3"))
    z2, z4 = named_algebra("z2"), named_algebra("z4")
    ab, reduced = reflector_by_id("ab"), reflector_by_id("reduced")
    b2, comp = reflector_by_id("burnside:2"), reflector_by_id("composite:burnside:2∘ab")
    # the split sequence c3 -> s3 -> c2, which ab does not preserve
    split = next(seq for seq in split_exact_sequences([s3, c2]) if seq.f.cod == c2 != seq.f.dom)
    ring_seq = short_exact_sequences([z4, z2])[1]
    e = surjections(z4, z2)[0]
    sq = square(e, e, identity_morphism(z2), identity_morphism(z2))
    g = enumerate_homs(c2, reflect(b2, c4).reflection)[-1]
    return {
        "split-preservation": (ab, split),
        "idempotent-radical": (b2, c4),
        "hom-vanishing": (reduced, e),
        "torsion-extension-closure": (reduced, ring_seq),
        "free-extension-closure": (reduced, ring_seq),
        "class-extension-closure": (reflector_by_id("boole"),
                                    short_exact_sequences([named_algebra("bool2")])[0], "free"),
        "unit-pullback-not-inverted": (b2, c4, g),
        "pullback-not-preserved": (ab, split, identity_morphism(c2)),
        "protosplit-mono-image": (ab, split),
        "heredity-mismatch": (ab, split),
        "normal-vs-kernel-mismatch": (reduced, e),
        "orthogonality-failure": (reduced, e, identity_morphism(z2), e, identity_morphism(z2)),
        "factorisation-classes": (reduced, e),
        "e-class-not-stable": (reduced, e, identity_morphism(z2)),
        "factorisation-not-unique": (reduced, e, e),
        "pushout-vs-double-extension": (sq,),
        "criterion-vs-galois": (reduced, sq),
        "radical-vs-commutator": (ab, surjections(s3, c2)[0]),
        "normal-vs-kernel-membership": (b2, surjections(named_algebra("m4-c4"),
                                                        named_algebra("m4-c2"))[0]),
        "composite-normal-routes": (comp, surjections(c4, c2)[0]),
        "join-vs-direct": (comp, surjections(c4, c2)[0]),
        "composite-object-radical": (comp, c4),
    }


def test_every_check_replays_its_own_predicate():
    instances = _check_instances()
    assert set(instances) == set(CHECKS)
    outcomes = set()
    for name, values in instances.items():
        entry = CHECKS[name]
        live = entry(*values)
        doc = json.loads(json.dumps(entry.witness(*values)))
        assert doc["check"] == name
        assert replay_witness(doc) == live, name
        outcomes.add(live)
    assert outcomes == {True, False}


def test_only_a_map_that_does_not_factor_is_skipped_as_no_square(monkeypatch):
    """``_induced_on_cod`` reads ``NoFactorError`` as "no such map"; any
    other fault of ``induced_on_quotient`` propagates out of the
    orthogonality scan instead of shrinking its count."""
    R = reflector_by_id("reduced")
    es, ms = verification._em_classes(R, corpus_by_id("rings"))
    outcomes = []
    real = verification.induced_on_quotient

    def recorded(q, f):
        try:
            out = real(q, f)
        except NoFactorError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return out

    monkeypatch.setattr(verification, "induced_on_quotient", recorded)
    _, checked = verification._orthogonality_witnesses(R, es, ms, 0, 60)
    assert checked == outcomes.count(True) and set(outcomes) == {True, False}

    def planted(q, f):
        raise AlgebraError("planted fault")

    monkeypatch.setattr(verification, "induced_on_quotient", planted)
    with pytest.raises(AlgebraError, match="planted fault"):
        verification._orthogonality_witnesses(R, es, ms, 0, 60)
