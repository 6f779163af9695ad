"""The semiab benchmark: one workload, cold processes, checked answers.

    python3 perfbench/run.py --workload {sweep,homology,context,ingest} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are generated from
``--seed`` (``gen.py``, ``workloads.py``).  Each pass of the workload
runs in a fresh interpreter (``worker.py``) and passes follow one
another until the next would end after ``--seconds``; there is always
at least one.  Set-up is also timed in several interpreters that do
nothing else.  Every answer is checked against ``reference/``; any
mismatch, exception or timeout counts as a failed task and makes the
exit code 1.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics that ``BENCHMARK.json`` declares.  With ``--trace 1`` the run
makes one untraced pass and one traced pass and reports the per-layer
metrics instead.  Lines before the last one give every metric with its
unit and sample count, and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import CONSTRUCTORS, LAYERS  # noqa: E402

SETUP_PROBES = 8
# median time of worker.calibrate() on the machine the benchmark was tuned
# on (2 vCPUs of a shared host, Python 3.11), when that host was quiet
CALIBRATION_REF_S = 0.0165
# How much of the calibration loop's slowdown the program feels, as a power:
# in a busy phase of that host the loop ran 1.6x slower than quiet and the
# workloads 1.2x to 1.5x slower, i.e. the loop's slowdown to a power of 0.35
# to 0.8.
HOST_SENSITIVITY = 0.5
RUN_LIMIT_S = 170  # every child is killed by then, so the run ends inside 180 s

# per-layer metrics: these spans get .calls and .self_s
TRACED_FUNCTIONS = (
    "algebra.construct", "algebra.validate_morphism", "algebra.sub_algebra", "algebra.compose",
    "algebra.subobject",
    "homs.enumerate_homs", "homs.surjections",
    "ops.pullback", "ops.kernel_pair", "ops.quotient", "ops.kernel", "ops.normal_closure",
    "ops.join_normal", "ops.meet_subobjects", "ops.induced_on_quotient",
    "cubes.is_nfold_extension", "cubes.square", "cubes.rib_kernel_meet",
    "reflectors.reflect", "reflectors.map_reflect", "reflectors.radical",
    "factorisation.em_factorize", "factorisation.is_normal_extension",
    "factorisation.is_trivial_extension", "factorisation.double_normal_by_galois",
    "factorisation.nfold_normal_by_criterion",
    "birkhoff.BirkhoffContext", "birkhoff.birkhoff_radical", "birkhoff.radical_n",
    "birkhoff.build_presentation", "birkhoff.hopf_homology",
    "serialize.algebra_from_doc", "serialize.morphism_from_doc", "serialize.cube_from_doc",
    "serialize.algebra_to_doc", "serialize.morphism_to_doc",
    "corpus.corpus_by_id", "verification.verify_suite", "verification.replay_witness", "cli.run",
)


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check(tasks: list[dict], results: list[dict]) -> list[str]:
    """One message per failed task: missing, raised, timed out or wrong."""
    got = {}
    for r in results:
        got.setdefault(r["id"], []).append(r)
    failures = []
    for task in tasks:
        rs = got.get(task["id"])
        if not rs:
            failures.append(f"{task['id']}: no result")
            continue
        r = rs.pop(0)
        if "error" in r:
            failures.append(f"{task['id']}: {r['error']}")
            continue
        wrong = workloads.mismatch(task["expect"], r["answer"])
        if wrong:
            failures.append(f"{task['id']}: {wrong}")
    return failures


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], out: Path, deadline: float) -> dict | None:
    """Run worker.py in a fresh interpreter; its result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(out), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def metadata(seed: int, input_hashes: list[str]) -> dict:
    src_files = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"git_sha": sha, "src_sha256": h.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
            "inputs_sha256": hashlib.sha256("".join(input_hashes).encode()).hexdigest()}


def latencies(workload: str, result: dict) -> list[float]:
    """Per-query seconds of one pass: suites for the sweep, tasks otherwise."""
    if workload == "sweep":
        return [s for _, s in result["suites"]]
    return [t["seconds"] for t in result["tasks"] if "seconds" in t]


def wall_at_reference_speed(result: dict) -> float:
    """A pass's wall time, scaled back by how much the shared host slowed it.

    The pass's worker timed a fixed loop that uses no ``semiab`` code
    before, between and after the tasks; the median of those times over
    ``CALIBRATION_REF_S`` is the loop's slowdown, and the program feels
    about its square root.
    """
    slowdown = statistics.median(result["calibration_s"]) / CALIBRATION_REF_S
    return result["wall_s"] / slowdown ** HOST_SENSITIVITY


def end_to_end(workload: str, setups: list[float], passes: list[dict]) -> dict:
    """{name: (value, unit, samples)} from untraced passes."""
    lat = [s for r in passes for s in latencies(workload, r)]
    calibration = [c for r in passes for c in r["calibration_s"]]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_ref_s": (statistics.median(wall_at_reference_speed(r) for r in passes), "s", len(passes)),
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s", len(passes)),
        "calibration_p50_s": (statistics.median(calibration), "s", len(calibration)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB", len(passes)),
        "query_p50_ms": (1000 * percentile(lat, 50), "ms", len(lat)),
        "query_p90_ms": (1000 * percentile(lat, 90), "ms", len(lat)),
    }


def _ratio(hits_misses) -> float:
    hits, misses = hits_misses
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(plain: dict, traced: dict) -> dict:
    """{name: (value, unit, samples)} from one traced pass and one untraced pass."""
    spans = traced["trace"]
    rows = dict(spans)
    construct = [spans.get(c, {"calls": 0, "self_s": 0.0}) for c in CONSTRUCTORS]
    rows["algebra.construct"] = {"calls": sum(r["calls"] for r in construct),
                                 "self_s": sum(r["self_s"] for r in construct)}
    out = {}
    for fn in TRACED_FUNCTIONS:
        row = rows.get(fn, {"calls": 0, "self_s": 0.0})
        out[f"{fn}.calls"] = (row["calls"], "count", 1)
        out[f"{fn}.self_s"] = (row["self_s"], "s", row["calls"])
    for layer in LAYERS + ("bench",):
        mine = [r for name, r in spans.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = (sum(r["self_s"] for r in mine), "s", sum(r["calls"] for r in mine))
    calls = rows["algebra.construct"]["calls"]
    distinct = sum(traced["distinct"].values())
    out["algebra.construct.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio", calls)
    for name, hm in (("homs.cache_hit_ratio", traced["caches"]["homs"]),
                     ("reflectors.reflect.cache_hit_ratio", traced["caches"]["reflectors.reflect"])):
        out[name] = (_ratio(hm), "ratio", sum(hm))
    out["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio", 1)
    out["trace.spans"] = (traced["spans"], "count", 1)
    for name, seconds in traced["suites"]:
        out[f"verification.suite.{name}.s"] = (seconds, "s", 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "semiab" / "__init__.py").is_file():
        print(f"error: no semiab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    ref = workloads.load_reference(args.workload)
    work = workloads.work_root(ROOT)
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, ref, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args, ref, work: Path, deadline: float) -> int:
    w = args.workload
    setups = []

    def probe_setup(count: int) -> bool:
        for _ in range(count):
            r = _spawn(["--workload", w, "--setup-only"], work / f"setup{len(setups)}.json", deadline)
            if r is None:
                return False
            setups.append(r["setup_s"])
        return True

    # half the set-up probes before the passes and half after, so that
    # they do not all fall into one burst of a noisy machine
    if not probe_setup(SETUP_PROBES // 2):
        return 2

    plain, traced, hashes, failures = [], None, [], []
    attempted = failed = 0
    t_measure = time.monotonic()
    pass_no = 0
    while True:
        trace_this = args.trace == 1 and pass_no == 1
        tasks, digest = workloads.pass_tasks(w, args.seed, pass_no, work, ref)
        hashes.append(digest)
        manifest = work / f"tasks{pass_no}.json"
        manifest.write_text(json.dumps(tasks), encoding="utf-8")
        t0 = time.monotonic()
        r = _spawn(["--workload", w, "--manifest", str(manifest)] + (["--trace"] if trace_this else []),
                   work / f"pass{pass_no}.json", deadline)
        spent = time.monotonic() - t0
        attempted += len(tasks)
        if r is None:
            failures.append(f"pass {pass_no}: worker failed; all {len(tasks)} tasks count as failed")
            failed += len(tasks)
            break
        wrong = check(tasks, r["tasks"])
        failures.extend(wrong)
        failed += len(wrong)
        if trace_this:
            traced = r
        else:
            plain.append(r)
            setups.append(r["setup_s"])
        pass_no += 1
        if args.trace == 1:
            if pass_no == 2:
                break
        elif time.monotonic() - t_measure + spent > args.seconds:
            break

    if not probe_setup(SETUP_PROBES - SETUP_PROBES // 2):
        return 2
    meta = metadata(args.seed, hashes)
    print(f"workload {w}  seed {args.seed}  passes {pass_no}  " +
          "  ".join(f"{k} {v}" for k, v in meta.items()))
    for msg in failures[:20]:
        print(f"FAIL {msg}")
    if not plain or (args.trace == 1 and traced is None):
        print(f"fail_ratio {failed / attempted:.4f} ratio n={attempted}")
        return 1
    metrics = end_to_end(w, setups, plain) if args.trace == 0 else per_layer(plain[0], traced)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:60s} {value:>14.6g} {unit:6s} n={n}")
    print(f"{'fail_ratio':60s} {failed / attempted:>14.6g} {'ratio':6s} n={attempted}")
    declared = _declared(args.trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0 if failed == 0 else 1


def _declared(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
