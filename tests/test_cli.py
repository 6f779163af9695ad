"""End-to-end runs of the command line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semiab import (
    algebra_to_doc,
    corpus_to_doc,
    cube_to_doc,
    cyclic_group,
    dihedral_group,
    identity_morphism,
    morphism,
    morphism_to_doc,
    morphism_from_doc,
    named_algebra,
    square,
    zring,
)
from semiab import cli
from semiab.birkhoff import build_presentation
from semiab.cli import run
from semiab.corpus import CORPUS_DIR_VAR


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _ring_mod(m, n):
    return morphism(zring(m), zring(n), [x % n for x in range(m)])


def test_check_protoadditive_pass(capsys):
    assert run(["check-protoadditive", "--reflector", "reduced", "--corpus", "rings"]) == 0
    out = capsys.readouterr().out
    assert "protoadditive" in out
    assert "41" in out  # split sequences examined


def test_check_protoadditive_failure_exit_code(capsys):
    assert run(["check-protoadditive", "--reflector", "ab", "--corpus", "groups"]) == 2
    out = capsys.readouterr().out
    assert "not protoadditive" in out


def test_check_protoadditive_json(capsys):
    assert run(["check-protoadditive", "--reflector", "ab", "--corpus", "groups", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "semiab-report"
    assert doc["verdict"] == "fail"
    assert doc["witnesses"]


def test_radical_by_name(capsys):
    assert run(["radical", "--reflector", "ab", "--algebra", "s3"]) == 0
    out = capsys.readouterr().out
    assert "{0, 3, 4}" in out or "[0, 3, 4]" in out


def test_radical_json(capsys):
    assert run(["radical", "--reflector", "reduced", "--algebra", "z12", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "semiab-radical"
    assert doc["radical"] == [0, 6]
    assert doc["reflection"]["order"] == 6


def test_radical_from_file(tmp_path, capsys):
    path = _write(tmp_path / "alg.json", algebra_to_doc(zring(8)))
    assert run(["radical", "--reflector", "reduced", "--algebra", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["radical"] == [0, 2, 4, 6]


def test_radical_unknown_name_is_usage_error(capsys):
    assert run(["radical", "--reflector", "ab", "--algebra", "missing-thing"]) == 1
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["radical", "--reflector", "burnside:²", "--algebra", "c4"],
    ["homology", "--variety", "zmod:²", "--coeff", "burnside:2", "--object", "m4-c2",
     "--degree", "2"],
    ["verify", "--suite", "thm-1.6", "--seed", "٣"],
    ["homology", "--variety", "zmod:4", "--coeff", "burnside:2", "--object", "m4-c2",
     "--degree", "٢", "--json"],
])
def test_a_unicode_digit_in_an_id_is_a_usage_error(capsys, argv):
    # "²" passes str.isdigit but not int(); the Arabic-Indic "٣" and "٢"
    # pass int(), and the integer options take ASCII only
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_radical_wrong_kind_is_usage_error(capsys):
    assert run(["radical", "--reflector", "reduced", "--algebra", "s3"]) == 1


def test_malformed_json_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["radical", "--reflector", "reduced", "--algebra", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "bad.json" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "deep"])
@pytest.mark.parametrize("entry", ["algebra-file", "corpus-override"])
def test_unreadable_json_is_exit_3(tmp_path, monkeypatch, capsys, content, entry):
    if entry == "algebra-file":
        path = tmp_path / "alg.json"
        argv = ["radical", "--reflector", "ab", "--algebra", str(path)]
    else:
        path = tmp_path / "rings.json"
        monkeypatch.setenv(CORPUS_DIR_VAR, str(tmp_path))
        argv = ["check-protoadditive", "--reflector", "reduced", "--corpus", "rings"]
    path.write_bytes(content)
    assert run(argv) == 3
    assert f"error: {path}" in capsys.readouterr().err


def test_empty_algebra_is_exit_3(tmp_path, capsys):
    path = _write(tmp_path / "empty.json", {
        "format": "semiab-algebra", "version": 1, "variety": "group",
        "order": 0, "tables": {"op": [], "inv": []}})
    assert run(["radical", "--reflector", "ab", "--algebra", path]) == 3
    assert "empty.json.tables:" in capsys.readouterr().err


def test_two_element_z1_module_is_exit_3(tmp_path, capsys):
    path = _write(tmp_path / "z1.json", {
        "format": "semiab-algebra", "version": 1,
        "variety": {"kind": "zmod-module", "modulus": 1},
        "order": 2, "tables": {"add": [[0, 1], [1, 0]], "act": [[0, 0]]}})
    assert run(["radical", "--reflector", "burnside:2", "--algebra", path]) == 3
    assert "1*x != x" in capsys.readouterr().err


def test_wrong_format_doc_is_exit_3(tmp_path, capsys):
    path = _write(tmp_path / "m.json", morphism_to_doc(_ring_mod(4, 2)))
    assert run(["radical", "--reflector", "reduced", "--algebra", path]) == 3


def test_factorize_writes_both_parts(tmp_path, capsys):
    path = _write(tmp_path / "f.json", morphism_to_doc(_ring_mod(12, 2)))
    assert run(["factorize", "--reflector", "reduced", "--morphism", path]) == 0
    out = capsys.readouterr().out
    e_doc = json.loads((tmp_path / "f.e.json").read_text())
    m_doc = json.loads((tmp_path / "f.m.json").read_text())
    e = morphism_from_doc(e_doc)
    m = morphism_from_doc(m_doc)
    assert e.cod.order == 6
    from semiab import compose

    assert compose(m, e) == _ring_mod(12, 2)
    assert "e:" in out and "m:" in out


def test_factorize_json_mode(tmp_path, capsys):
    path = _write(tmp_path / "g.json", morphism_to_doc(_ring_mod(4, 2)))
    assert run(["factorize", "--reflector", "reduced", "--morphism", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "semiab-factorisation"
    assert doc["middle"]["order"] == 2
    assert doc["files"]["e"].endswith("g.e.json")
    assert morphism_from_doc(doc["m"]).dom.order == 2


def test_extension_check_trivial_and_normal(tmp_path, capsys):
    path = _write(tmp_path / "f.json", morphism_to_doc(_ring_mod(6, 2)))
    assert run(["extension-check", "--reflector", "reduced", "--morphism", path, "--kind", "trivial"]) == 0
    path2 = _write(tmp_path / "g.json", morphism_to_doc(_ring_mod(12, 2)))
    assert run(["extension-check", "--reflector", "reduced", "--morphism", path2, "--kind", "normal"]) == 2


def test_extension_check_double_needs_square(tmp_path, capsys):
    f = _ring_mod(4, 2)
    sq = square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))
    path = _write(tmp_path / "sq.json", cube_to_doc(sq))
    code = run(["extension-check", "--reflector", "reduced", "--cube", path, "--kind", "double"])
    assert code in (0, 2)
    # a morphism is not enough for the double check
    mpath = _write(tmp_path / "f.json", morphism_to_doc(f))
    assert run(["extension-check", "--reflector", "reduced", "--morphism", mpath, "--kind", "double"]) == 1


def _sign(n):
    return morphism(dihedral_group(n), cyclic_group(2), [0] * n + [1] * n)


def _module_map(dom, cod, values):
    return morphism(named_algebra(dom), named_algebra(cod), values)


def _doubled(f):
    return square(f, f, identity_morphism(f.cod), identity_morphism(f.cod))


@pytest.mark.parametrize("rid, kind, build, verdict", [
    ("reduced", "trivial", lambda: _ring_mod(12, 2), "fail"),
    ("reduced", "normal", lambda: _ring_mod(6, 2), "pass"),
    ("burnside:2", "trivial", lambda: _module_map("m4-c2xc4", "m4-c4", [0, 1, 2, 3] * 2), "pass"),
    ("burnside:2", "normal", lambda: _module_map("m4-c2xc4", "m4-c4", [0, 1, 2, 3] * 2), "pass"),
    ("burnside:2", "trivial", lambda: _module_map("m4-c4", "m4-c2", [0, 1] * 2), "fail"),
    ("burnside:2", "normal", lambda: _module_map("m4-c4", "m4-c2", [0, 1] * 2), "pass"),
    ("ab", "trivial", lambda: _sign(4), "fail"),
    ("ab", "normal", lambda: _sign(4), "fail"),
    ("ab", "trivial", lambda: _sign(3), "fail"),
    ("ab", "normal", lambda: _sign(3), "fail"),
    ("reduced", "double", lambda: _doubled(_ring_mod(4, 2)), "fail"),
    ("reduced", "double", lambda: _doubled(_ring_mod(12, 2)), "fail"),
    ("ab", "double", lambda: _doubled(_sign(4)), "pass"),
    ("burnside:2", "double", lambda: _doubled(_module_map("m4-c4", "m4-c2", [0, 1] * 2)), "pass"),
])
def test_extension_check_json_verdicts(tmp_path, capsys, rid, kind, build, verdict):
    """Ring reductions, module projections, dihedral sign maps and doubled
    squares: the JSON verdict, and exit code 0 on pass and 2 on fail."""
    arrow = build()
    flag, doc = ("--cube", cube_to_doc(arrow)) if kind == "double" else (
        "--morphism", morphism_to_doc(arrow))
    path = _write(tmp_path / "in.json", doc)
    code = run(["extension-check", "--reflector", rid, flag, path, "--kind", kind, "--json"])
    assert json.loads(capsys.readouterr().out) == {
        "format": "semiab-extension-check", "version": 1, "reflector": rid, "kind": kind,
        "verdict": verdict}
    assert code == (0 if verdict == "pass" else 2)


_MOD2 = _ring_mod(4, 2)
_TO_ZERO = morphism(zring(2), zring(1), [0, 0])


@pytest.mark.parametrize("kind, doc", [
    # the zero map Z/2 -> Z/4 is not a surjection
    ("trivial", morphism_to_doc(morphism(zring(2), zring(4), [0, 0]))),
    # Z/4 -> Z/2 x Z/2 misses (0, 1), so this square is not a double extension
    ("double", cube_to_doc(square(_MOD2, _MOD2, _TO_ZERO, _TO_ZERO))),
], ids=["trivial-not-surjective", "double-not-extension"])
def test_extension_check_algebra_errors_are_exit_1(tmp_path, capsys, kind, doc):
    flag = "--cube" if kind == "double" else "--morphism"
    path = _write(tmp_path / "in.json", doc)
    assert run(["extension-check", "--reflector", "reduced", flag, path, "--kind", kind]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_homology_command(capsys):
    assert run([
        "homology", "--variety", "zmod:4", "--coeff", "burnside:2",
        "--object", "m4-c2", "--degree", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "H2" in out and "C2" in out
    assert "presentation pair" in out


@pytest.mark.parametrize("degree, orders", [(2, [4, 16]), (3, [16, 256])],
                         ids=["degree2", "degree3"])
def test_homology_json(capsys, degree, orders):
    assert run([
        "homology", "--variety", "zmod:4", "--coeff", "burnside:2",
        "--object", "m4-c2", "--degree", str(degree), "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "semiab-homology"
    assert doc["label"] == "C2"
    assert doc["module"]["order"] == 2
    assert [p["rank-order"] for p in doc["presentations"]] == orders


def test_homology_of_a_module_whose_cover_kernel_pair_would_be_huge(capsys):
    # the rank-augmented cover is (Z/8)^3; its kernel pair would have
    # 65,536 elements, and H2 takes no kernel-pair algebra
    assert run([
        "homology", "--variety", "zmod:8", "--coeff", "burnside:2",
        "--object", "m8-c2xc2", "--degree", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "C2xC2"
    assert [p["rank-order"] for p in doc["presentations"]] == [64, 512]


def test_homology_builds_each_presentation_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_presentation(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.startswith("semiab")
                and getattr(module, "build_presentation", None) is build_presentation):
            monkeypatch.setattr(module, "build_presentation", counted)
    assert run([
        "homology", "--variety", "zmod:4", "--coeff", "burnside:2",
        "--object", "m4-c2", "--degree", "2", "--json",
    ]) == 0
    assert len(calls) == 2


def test_verify_single_suite(capsys):
    assert run(["verify", "--suite", "thm-1.6"]) == 0
    out = capsys.readouterr().out
    assert "thm-1.6" in out and "pass" in out
    assert "claim:" in out


def test_verify_failing_configuration(capsys):
    code = run([
        "verify", "--suite", "thm-1.6",
        "--reflector", "burnside:2", "--corpus", "abelian-groups",
    ])
    assert code == 2
    assert "fail" in capsys.readouterr().out


def test_verify_json_report(capsys):
    assert run(["verify", "--suite", "prop-2.2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "semiab-report"
    assert doc["suite"] == "prop-2.2"


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "thm-0.0"]) == 1


def test_verify_incompatible_pair_is_usage_error(capsys):
    code = run([
        "verify", "--suite", "prop-3.1",
        "--reflector", "burnside:2", "--corpus", "zmod4-modules",
    ])
    assert code == 1


def test_verify_all_forbids_overrides(capsys):
    assert run(["verify", "--suite", "all", "--reflector", "ab"]) == 1


def test_usage_errors_are_exit_1(capsys):
    assert run([]) == 1
    assert run(["radical"]) == 1
    assert run(["radical", "--reflector", "nope", "--algebra", "s3"]) == 1
    assert run(["no-such-command"]) == 1


def test_corpus_override_reaches_cli(tmp_path, capsys, monkeypatch):
    doc = corpus_to_doc((cyclic_group(2, name="only2"),))
    (tmp_path / "groups.json").write_text(json.dumps(doc))
    monkeypatch.setenv(CORPUS_DIR_VAR, str(tmp_path))
    assert run(["check-protoadditive", "--reflector", "ab", "--corpus", "groups"]) == 0
    out = capsys.readouterr().out
    assert "protoadditive" in out


@pytest.mark.parametrize("module", ["semiab", "semiab.cli"])
def test_python_dash_m_semiab_runs_the_cli(module):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", module, "radical", "--reflector", "burnside:2", "--algebra", "c4"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "radical of c4" in proc.stdout


def _indented(text):
    """The JSON value in ``text`` written by ``json.dumps(indent=2, ensure_ascii=False)``."""
    return json.dumps(json.loads(text), indent=2, ensure_ascii=False)


def test_json_output_is_json_dumps_with_indent_2(tmp_path, capsys, monkeypatch):
    """Every subcommand's --json stdout, and both factor files, are
    ``json.dumps(doc, indent=2, ensure_ascii=False)``, the first plus a newline."""
    mpath = _write(tmp_path / "f.json", morphism_to_doc(_ring_mod(12, 2)))
    cpath = _write(tmp_path / "sq.json", cube_to_doc(_doubled(_sign(4))))
    (tmp_path / "corpora").mkdir()
    (tmp_path / "corpora" / "groups.json").write_text(
        json.dumps(corpus_to_doc((dihedral_group(3), cyclic_group(2, name="c2·ünï\"q\"")))))
    monkeypatch.setenv(CORPUS_DIR_VAR, str(tmp_path / "corpora"))
    for argv in (
        ["check-protoadditive", "--reflector", "ab", "--corpus", "groups"],
        ["radical", "--reflector", "composite:burnside:2∘ab", "--algebra", "d4"],
        ["radical", "--reflector", "pi0", "--algebra", "ind-c3"],
        ["factorize", "--reflector", "reduced", "--morphism", mpath],
        ["extension-check", "--reflector", "ab", "--cube", cpath, "--kind", "double"],
        ["homology", "--variety", "zmod:4", "--coeff", "burnside:2", "--object", "m4-c2xc4",
         "--degree", "2"],
        ["verify", "--suite", "thm-1.6", "--reflector", "burnside:2", "--corpus", "abelian-groups"],
    ):
        assert run(argv + ["--json"]) in (0, 2)
        out = capsys.readouterr().out
        assert out == _indented(out) + "\n", argv[0]
    for part in "em":
        text = (tmp_path / f"f.{part}.json").read_text(encoding="utf-8")
        assert text == _indented(text)


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys, monkeypatch):
    progs = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            progs.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli._build_parser.cache_clear()
    try:
        assert run(["radical", "--reflector", "reduced", "--algebra", "z12", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["radical"] == [0, 6]
        assert run(["radical", "--reflector", "reduced", "--algebra", "z12"]) == 0
        assert capsys.readouterr().out.startswith("radical of z12 under reduced")
        assert run(["radical", "--reflector", "reduced"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        # one parser with one sub-parser per command, built by the first call
        assert progs.count("semiab") == 1 and len(progs) == len(set(progs)) == 7

        path = _write(tmp_path / "f.json", morphism_to_doc(_ring_mod(12, 2)))
        out_dir = tmp_path / "elsewhere"
        assert run(["factorize", "--reflector", "reduced", "--morphism", path,
                    "--out-dir", str(out_dir)]) == 0
        assert run(["factorize", "--reflector", "reduced", "--morphism", path]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["f.e.json", "f.m.json"]
        assert (tmp_path / "f.e.json").exists() and (tmp_path / "f.m.json").exists()
        assert len(progs) == 7
    finally:
        cli._build_parser.cache_clear()
