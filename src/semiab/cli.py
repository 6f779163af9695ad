"""Command-line surface: six subcommands over files and named registries.

Exit codes: 0 success/pass, 1 usage error, 2 property failure,
3 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import lru_cache
from math import gcd

from .algebra import Algebra, AlgebraError
from .birkhoff import BirkhoffContext, _kills, hopf_homology
from .corpus import corpus_by_id, corpus_ids, named_algebra
from .factorisation import classify_em, em_factorize, is_nfold_normal, is_normal_extension, is_trivial_extension
from .reflectors import ReflectorError, reflect, reflector_by_id
from .serialize import (
    FormatError,
    _json_text,
    algebra_from_doc,
    algebra_to_doc,
    cube_from_doc,
    load_json_file,
    morphism_from_doc,
    morphism_to_doc,
    subobject_to_doc,
)
from .verification import (
    SUITES,
    SuiteCompatibilityError,
    SuiteError,
    protoadditive_by_definition,
    verify_all,
    verify_suite,
)

JSON_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _ascii_int(text: str) -> int:
    """An integer option; int() alone would also read non-ASCII decimal digits."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The one parser of the process: ``parse_args`` fills a fresh namespace per call."""
    parser = _Parser(prog="semiab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("check-protoadditive",
                       help="scan a corpus's split short exact sequences")
    p.add_argument("--reflector", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("radical", help="torsion subobject of one algebra")
    p.add_argument("--reflector", required=True)
    p.add_argument("--algebra", required=True, metavar="NAME_OR_FILE")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("factorize",
                       help="split a surjection into its torsion-kernel and torsion-free-kernel parts")
    p.add_argument("--reflector", required=True)
    p.add_argument("--morphism", required=True, metavar="FILE")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("extension-check",
                       help="trivial/normal verdict for a surjection or square")
    p.add_argument("--reflector", required=True)
    p.add_argument("--morphism", metavar="FILE")
    p.add_argument("--cube", metavar="FILE")
    p.add_argument("--kind", choices=("trivial", "normal", "double"), default="normal")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("homology", help="exact homology of a module in degree 2 or 3")
    p.add_argument("--variety", required=True, metavar="zmod:M")
    p.add_argument("--coeff", required=True, metavar="REFLECTOR")
    p.add_argument("--object", required=True, metavar="NAME_OR_FILE")
    p.add_argument("--degree", required=True, type=_ascii_int, choices=(2, 3))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a named suite (or all of them)")
    p.add_argument("--suite", required=True)
    p.add_argument("--reflector", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# input loading


def _load_algebra(spec: str) -> Algebra:
    if os.path.exists(spec) or spec.endswith(".json"):
        return algebra_from_doc(load_json_file(spec), path=spec)
    A = named_algebra(spec)
    if A is None:
        raise UsageError(f"no file and no built-in algebra named {spec!r}")
    return A


def _corpus(cid: str):
    try:
        return corpus_by_id(cid)
    except AlgebraError:
        raise UsageError(
            f"unknown corpus {cid!r}; known: {', '.join(corpus_ids())}") from None


def _emit(doc: dict) -> None:
    print(_json_text(doc))


def _module_label(H: Algebra) -> str:
    """0, Cd, Cd1xCd2 with d1 | d2, or ``module of order N``, by kill
    counts (``birkhoff._kills``): with n = |H| and e its exponent, H is
    cyclic when e = n, and C(n/e) x Ce when n/e divides e and each
    scalar s kills gcd(s, n/e) * gcd(s, e) elements."""
    n, kills = H.order, _kills(H)
    if n == 1:
        return "0"
    m = H.variety.modulus
    e = next(s for s in range(1, m + 1) if kills[s % m] == n)
    if e == n:
        return f"C{n}"
    d = n // e
    if e % d == 0 and kills == [gcd(s, d) * gcd(s, e) for s in range(m)]:
        return f"C{d}xC{e}"
    return f"module of order {n}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_protoadditive(args) -> int:
    R = reflector_by_id(args.reflector)
    report = protoadditive_by_definition(R, _corpus(args.corpus))
    if args.json:
        _emit(report.to_doc())
    elif report.passed:
        print(f"protoadditive on {report.sample['split-sequences']} split sequences")
    else:
        print(f"not protoadditive: {len(report.witnesses)} witness(es) "
              f"over {report.sample['split-sequences']} split sequences")
        w = report.witnesses[0]
        print(f"  witness: split sequence over {w['epi']['dom'].get('name') or 'the domain'}"
              f" -> {w['epi']['cod'].get('name') or 'the quotient'}")
    return 0 if report.passed else 2


def _cmd_radical(args) -> int:
    R = reflector_by_id(args.reflector)
    A = _load_algebra(args.algebra)
    if not R.applies_to(A.variety):
        raise UsageError(f"{R.name} does not apply to {A.variety}")
    dec = reflect(R, A)
    if args.json:
        _emit({
            "format": "semiab-radical",
            "version": JSON_VERSION,
            "reflector": R.name,
            "algebra": algebra_to_doc(A),
            "radical": subobject_to_doc(dec.radical_part),
            "reflection": algebra_to_doc(dec.reflection),
        })
    else:
        name = A.name or "the algebra"
        size = dec.radical_part.size
        print(f"radical of {name} under {R.name}: order {size} "
              f"(elements {subobject_to_doc(dec.radical_part)})")
        print(f"reflection: order {dec.reflection.order}")
    return 0


def _cmd_factorize(args) -> int:
    R = reflector_by_id(args.reflector)
    f = morphism_from_doc(load_json_file(args.morphism), path=args.morphism)
    if not R.applies_to(f.dom.variety):
        raise UsageError(f"{R.name} does not apply to {f.dom.variety}")
    fac = em_factorize(R, f)
    stem, _ = os.path.splitext(os.path.basename(args.morphism))
    out_dir = args.out_dir or os.path.dirname(args.morphism) or "."
    os.makedirs(out_dir, exist_ok=True)
    paths, docs = {}, {}
    for part, g in (("e", fac.e), ("m", fac.m)):
        doc = docs[part] = morphism_to_doc(g)
        # emitted files must round-trip to equal values
        if morphism_from_doc(doc) != g:
            raise AlgebraError("serialized factor failed to round-trip")
        paths[part] = os.path.join(out_dir, f"{stem}.{part}.json")
        with open(paths[part], "w", encoding="utf-8") as fh:
            fh.write(_json_text(doc))
    if args.json:
        _emit({
            "format": "semiab-factorisation",
            "version": JSON_VERSION,
            "reflector": R.name,
            "e": docs["e"],
            "m": docs["m"],
            "middle": algebra_to_doc(fac.m.dom),
            "files": paths,
        })
    else:
        print(f"e: order {fac.e.dom.order} -> order {fac.e.cod.order} "
              f"(torsion kernel, class {classify_em(R, fac.e)})")
        print(f"m: order {fac.m.dom.order} -> order {fac.m.cod.order} "
              f"(torsion-free kernel, class {classify_em(R, fac.m)})")
        print(f"wrote {paths['e']} and {paths['m']}")
    return 0


def _cmd_extension_check(args) -> int:
    R = reflector_by_id(args.reflector)
    if args.kind == "double":
        if not args.cube:
            raise UsageError("--kind double needs --cube")
        c = cube_from_doc(load_json_file(args.cube), path=args.cube)
        if c.dim != 2:
            raise UsageError("--kind double needs a dimension-2 cube")
        verdict = is_nfold_normal(R, c)
        label = "double extension normal"
    else:
        if not args.morphism:
            raise UsageError(f"--kind {args.kind} needs --morphism")
        f = morphism_from_doc(load_json_file(args.morphism), path=args.morphism)
        if args.kind == "trivial":
            verdict = is_trivial_extension(R, f)
            label = "trivial extension"
        else:
            verdict = is_normal_extension(R, f)
            label = "normal extension"
    if args.json:
        _emit({
            "format": "semiab-extension-check",
            "version": JSON_VERSION,
            "reflector": R.name,
            "kind": args.kind,
            "verdict": "pass" if verdict else "fail",
        })
    else:
        print(f"{label} under {R.name}: {'yes' if verdict else 'no'}")
    return 0 if verdict else 2


def _cmd_homology(args) -> int:
    spec = args.variety.strip()
    if not re.fullmatch("zmod:[0-9]+", spec) or int(spec[5:]) < 2:
        raise UsageError(f"--variety must look like zmod:4, got {spec!r}")
    modulus = int(spec[5:])
    R = reflector_by_id(args.coeff)
    A = _load_algebra(args.object)
    if A.kind != "zmod-module" or A.variety.modulus != modulus:
        raise UsageError(f"object is not a zmod:{modulus} module")
    if not R.applies_to(A.variety):
        raise UsageError(f"{R.name} does not apply to {A.variety}")
    pres = []
    BirkhoffContext(R, (A,))
    H = hopf_homology(R, A, args.degree, pres)
    tops = [p.cube.top_vertex for p in pres]
    if args.json:
        _emit({
            "format": "semiab-homology",
            "version": JSON_VERSION,
            "coefficients": R.name,
            "degree": args.degree,
            "module": algebra_to_doc(H),
            "label": _module_label(H),
            "presentations": [{"rank-order": P.order} for P in tops],
        })
    else:
        name = A.name or "the module"
        print(f"H{args.degree}({name}) = {_module_label(H)}")
        print(f"presentation pair: free covers of order {tops[0].order} and {tops[1].order} agree")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        if args.reflector or args.corpus:
            raise UsageError("--suite all runs canonical configurations; "
                             "drop --reflector/--corpus")
        reports = verify_all(seed=args.seed)
    else:
        reports = [verify_suite(args.suite, reflector=args.reflector,
                                corpus=args.corpus, seed=args.seed)]
    ok = all(r.passed for r in reports)
    if args.json:
        if len(reports) == 1:
            _emit(reports[0].to_doc())
        else:
            _emit({"format": "semiab-report-list", "version": JSON_VERSION,
                   "reports": [r.to_doc() for r in reports]})
    else:
        for r in reports:
            claim = SUITES[r.suite].result if r.suite in SUITES else ""
            print(r.summary())
            if claim:
                print(f"  claim: {claim}")
    return 0 if ok else 2


_COMMANDS = {
    "check-protoadditive": _cmd_check_protoadditive,
    "radical": _cmd_radical,
    "factorize": _cmd_factorize,
    "extension-check": _cmd_extension_check,
    "homology": _cmd_homology,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, SuiteError, SuiteCompatibilityError, ReflectorError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
