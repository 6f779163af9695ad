"""The benchmark's own pieces: spans, percentiles, the generator and the gate.

    python3 -m pytest perfbench/tests
"""

import json
import statistics
import time
import types
from pathlib import Path

import pytest

import gen
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = spans.Tracer(clock)
    outer = t.begin("outer")        # 0 .. 10
    clock.now = 1
    a = t.begin("a")                # 1 .. 4
    clock.now = 2
    inner = t.begin("a")            # 2 .. 3, recursive
    clock.now = 3
    t.finish(inner)
    clock.now = 4
    t.finish(a)
    clock.now = 5
    b = t.begin("b")                # 5 .. 6
    clock.now = 6
    t.finish(b)
    clock.now = 10
    t.finish(outer)
    s = t.summarise()
    assert s["outer"] == {"calls": 1, "self_s": 6.0}
    assert s["a"] == {"calls": 2, "self_s": 3.0}
    assert s["b"] == {"calls": 1, "self_s": 1.0}
    assert list(t.parent) == [-1, 0, 1, 0]


def _fake_package():
    lib = types.ModuleType("fakepkg.lib")
    exec(
        "import functools\n"
        "def helper(x):\n    return x + 1\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached(x):\n    return helper(x) * 2\n"
        "def _private(x):\n    return x\n",
        lib.__dict__,
    )
    for name in ("helper", "cached", "_private"):
        getattr(lib, name).__module__ = lib.__name__
    user = types.ModuleType("fakepkg.user")
    user.helper = lib.helper  # as after "from .lib import helper"
    user.cached = lib.cached
    return lib, user


def test_install_rebinds_imported_names_and_counts_cache_hits():
    lib, user = _fake_package()
    t = spans.Tracer()
    originals = spans.install(t, {"lib": lib, "user": user})
    assert set(originals) == {"lib.helper", "lib.cached"}
    assert user.helper is lib.helper and user.helper.__perfbench_original__ is originals["lib.helper"]
    assert user.cached(1) == 4
    assert user.cached(1) == 4  # a cache hit is still a call
    user.helper(5)
    s = t.summarise()
    assert s["lib.cached"]["calls"] == 2
    # helper ran once inside the first cached call and once directly; the
    # cached function's body calls the module global, which is the wrapper
    assert s["lib.helper"]["calls"] == 2
    assert originals["lib.cached"].cache_info().hits == 1


def test_collect_keeps_distinct_results():
    t = spans.Tracer()
    f = t.wrap("f", lambda x: x % 3, collect=True)
    for x in range(10):
        f(x)
    assert t.results["f"] == {0, 1, 2}


def test_percentile_matches_inclusive_quantiles():
    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    q = statistics.quantiles(xs, n=10, method="inclusive")
    assert run.percentile(xs, 50) == pytest.approx(statistics.median(xs))
    assert run.percentile(xs, 90) == pytest.approx(q[8])
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_reference_speed_scales_by_the_pass_median_calibration():
    ref = run.CALIBRATION_REF_S
    slow_pass = {"wall_s": 3.0, "calibration_s": [ref, 4 * ref, 1.5 * ref, 4 * ref, 9 * ref]}
    assert run.HOST_SENSITIVITY == 0.5
    assert run.wall_at_reference_speed(slow_pass) == pytest.approx(1.5)
    assert run.wall_at_reference_speed({"wall_s": 3.0, "calibration_s": [ref]}) == pytest.approx(3.0)


def test_generator_is_deterministic(tmp_path):
    ref = workloads.load_reference("ingest")
    a, ha = workloads.pass_tasks("ingest", 7, 0, tmp_path / "a", ref)
    b, hb = workloads.pass_tasks("ingest", 7, 0, tmp_path / "b", ref)
    c, hc = workloads.pass_tasks("ingest", 8, 0, tmp_path / "c", ref)
    assert ha == hb != hc
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    strip = [dict(t, argv=None, input=None, env=None, path=None) for t in a]
    assert strip == [dict(t, argv=None, input=None, env=None, path=None) for t in b]
    bad = [t for t in a if t["expect"] == {"rc": 3}]
    assert 0.10 < len(bad) / len(a) < 0.20


def _is_latin(table):
    n = len(table)
    return all(sorted(r) == list(range(n)) for r in table) and \
        all(sorted(table[x][y] for x in range(n)) == list(range(n)) for y in range(n))


def test_relabelling_fixes_zero_and_keeps_a_group():
    rng = gen.rng_for(0, "test")
    doc = gen.dihedral_group(6)
    new, p = gen.relabel_algebra(doc, rng)
    assert p[0] == 0 and sorted(p) == list(range(12))
    op, new_op = doc["tables"]["op"], new["tables"]["op"]
    assert all(new_op[p[x]][p[y]] == p[op[x][y]] for x in range(12) for y in range(12))
    assert _is_latin(new_op)
    assert gen.carry([0, 3], p) == sorted([0, p[3]])


@pytest.mark.parametrize("kind", gen.CORRUPTIONS)
def test_corruption_breaks_the_document(kind):
    doc = gen.zmod_module(4, (2, 4))
    bad = gen.corrupt(doc, kind, gen.rng_for(1, kind))
    assert bad != doc
    if kind == "header":
        assert bad["version"] != doc["version"]
    elif kind == "swap":
        assert not _is_latin(bad["tables"]["add"])
    else:
        assert any(v >= doc["order"] for row in bad["tables"]["add"] for v in row)


def test_gate_counts_wrong_answers_errors_and_missing_results():
    tasks = [{"id": "a", "expect": {"rc": 0, "label": "C2"}},
             {"id": "b", "expect": {"rc": 3}},
             {"id": "c", "expect": {"rc": 0}},
             {"id": "d", "expect": {"rc": 0}}]
    results = [{"id": "a", "seconds": 0.1, "answer": {"rc": 0, "label": "C2"}},
               {"id": "b", "seconds": 0.1, "answer": {"rc": 1}},
               {"id": "c", "error": "TaskTimeout"}]
    failures = run.check(tasks, results)
    assert [f.split(":")[0] for f in failures] == ["b", "c", "d"]


@pytest.mark.skipif(not (ROOT / "src" / "semiab").is_dir(), reason="needs the semiab sources")
def test_wrong_reference_answer_fails_the_real_program(tmp_path):
    ref = workloads.load_reference("ingest")
    tasks, _ = workloads.pass_tasks("ingest", 3, 0, tmp_path / "in", ref)
    picked = [t for t in tasks if t["kind"] == "cli" and t["expect"].get("rc") == 0][:2]
    wrong = json.loads(json.dumps(picked[1]))
    wrong["expect"]["rc"] = 2  # a reference that disagrees with the program
    manifest = tmp_path / "tasks.json"
    manifest.write_text(json.dumps([picked[0], wrong]))
    result = run._spawn(["--workload", "ingest", "--manifest", str(manifest)],
                        tmp_path / "out.json", deadline=time.monotonic() + 120)
    failures = run.check([picked[0], wrong], result["tasks"])
    assert len(failures) == 1 and failures[0].startswith(wrong["id"])
