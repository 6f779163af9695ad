"""One cold pass of a workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/worker.py --workload W --manifest TASKS.json --out RESULT.json [--trace]

Times set-up (importing ``semiab`` and building the built-in corpora
the workload reads), then runs each task of the manifest in order,
timing each one, and writes the answers, timings, peak RSS and cache
counters as JSON.  Before set-up, between tasks (and between the
sweep's suites) and after the tasks it times a fixed calibration loop
that does not use ``semiab``; that time is left out of the tasks'.
With ``--trace`` the public functions of every ``semiab`` module are
wrapped in spans (see ``spans.py``) before the corpora are built, and
the per-span summary is written too.  ``--setup-only`` stops after
set-up, and does not calibrate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

LAYERS = ("algebra", "families", "homs", "ops", "cubes", "reflectors", "factorisation",
          "birkhoff", "corpus", "verification", "serialize", "report", "cli")

# Called millions of times in the sweep; a span each would swamp the run.
HOT = frozenset({"algebra.gpd_compose"})

CONSTRUCTORS = ("algebra.group_algebra", "algebra.ring_algebra",
                "algebra.module_algebra", "algebra.gpd_algebra")

TASK_TIMEOUT_S = 150
CALIBRATION_SAMPLES = 5  # at each end of a pass
CALIBRATION_EVERY_S = 0.5  # one more after any task that ends this long after the last


def calibrate() -> float:
    """Seconds for a fixed pure-Python associativity check of a 36-element law.

    It is the kind of work the program's table checks do, but uses no
    ``semiab`` code, so its time follows only the speed the shared host
    gives this interpreter at the moment.
    """
    n = 36
    law = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    t = time.perf_counter()
    ok = all(law[law[a, b], c] == law[a, law[b, c]]
             for a in range(n) for b in range(n) for c in range(n))
    seconds = time.perf_counter() - t
    if not ok:
        raise AssertionError("calibration law is not associative")
    return seconds


class Calibration:
    """The samples of ``calibrate()`` taken through one pass."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = time.perf_counter()
        self.inside_task = 0.0  # seconds spent calibrating inside the running task

    def take(self, count: int = 1) -> float:
        """Take ``count`` samples; the seconds that took."""
        t = time.perf_counter()
        self.samples += [calibrate() for _ in range(count)]
        self.last = time.perf_counter()
        return self.last - t

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CALIBRATION_EVERY_S


class TaskTimeout(BaseException):
    """Raised in the main thread when a task overruns its time limit."""


def _alarm(signum, frame):
    raise TaskTimeout()


def _cache_counts(functions) -> tuple[int, int]:
    hits = misses = 0
    for fn in functions:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


@contextlib.contextmanager
def _env(overrides: dict):
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        rc = cli.run(argv)
        seconds = time.perf_counter() - t
    text = out.getvalue()
    try:
        doc = json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        doc = None
    return rc, doc, seconds


def run_task(task: dict, corpora: dict):
    """(seconds, answer) for one task; the clock covers the program's work only.

    ``corpora`` keeps the corpora loaded by earlier tasks of the pass;
    the task that first needs one pays for loading it.
    """
    import semiab
    from semiab import cli

    kind = task["kind"]
    with _env(task.get("env", {})):
        if kind in ("cli", "sweep"):
            rc, doc, seconds = _run_cli(cli, task["argv"])
            return seconds, workloads.extract(task.get("extract", kind), rc, doc, task)
        if kind == "replay":
            with open(task["path"], encoding="utf-8") as fh:
                doc = json.load(fh)
            t = time.perf_counter()
            replayed = semiab.replay_witness(doc)
            return time.perf_counter() - t, {"replayed": replayed}
        t = time.perf_counter()
        key = (task["corpus"], os.environ.get("SEMIAB_CORPUS_DIR"))
        if key not in corpora:
            corpora[key] = semiab.corpus_by_id(task["corpus"])
        corpus = corpora[key]
        if kind == "enumerate":
            counts = [[a, b, len(semiab.enumerate_homs(corpus[a], Y))]
                      for a in task["sources"]
                      for b, Y in enumerate(corpus) if corpus[a].variety == Y.variety]
            return time.perf_counter() - t, {"homs": counts}
        if kind == "context":
            ctx = semiab.BirkhoffContext(semiab.reflector_by_id(task["reflector"]), corpus)
            return time.perf_counter() - t, {"checked_surjections": ctx.checked_surjections}
    raise ValueError(f"unknown task kind {kind!r}")


def _probe_suites(verification, sink: list, calibration: Calibration) -> None:
    """Time each suite that verify_all runs, from outside, and calibrate after each."""
    inner = verification.verify_suite

    def timed(name, *args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(name, *args, **kwargs)
        finally:
            sink.append([name, time.perf_counter() - t])
            calibration.inside_task += calibration.take()

    verification.verify_suite = timed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one core for the whole pass: migrations between cores add noise
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    calibration = Calibration()
    if not args.setup_only:
        calibration.take(CALIBRATION_SAMPLES)
    t0 = time.perf_counter()
    import semiab
    tracer = None
    if args.trace:
        import importlib

        import spans as tracing

        modules = {name: importlib.import_module(f"semiab.{name}") for name in LAYERS}
        tracer = tracing.Tracer()
        tracing.install(tracer, modules, skip=HOT, collect=CONSTRUCTORS,
                        methods=[("birkhoff.BirkhoffContext", semiab.BirkhoffContext, "__post_init__")],
                        also_bind=(semiab,))
    for cid in workloads.SETUP_CORPORA[args.workload]:
        semiab.corpus_by_id(cid)
    setup_s = time.perf_counter() - t0
    result = {"workload": args.workload, "setup_s": setup_s}

    if not args.setup_only:
        from semiab import homs, reflectors, verification

        with open(args.manifest, encoding="utf-8") as fh:
            tasks = json.load(fh)
        unwrapped = [getattr(f, "__perfbench_original__", f) for f in vars(homs).values()]
        hom_caches = [f for f in unwrapped if hasattr(f, "cache_info")
                      and getattr(f, "__module__", "") == homs.__name__]
        reflect_cache = [getattr(reflectors.reflect, "__perfbench_original__", reflectors.reflect)]
        before = (_cache_counts(hom_caches), _cache_counts(reflect_cache))
        suites: list = []
        _probe_suites(verification, suites, calibration)
        signal.signal(signal.SIGALRM, _alarm)
        done, corpora = [], {}
        for task in tasks:
            span = tracer.begin("bench.task") if tracer else None
            signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
            calibration.inside_task = 0.0
            try:
                seconds, answer = run_task(task, corpora)
                done.append({"id": task["id"], "seconds": seconds - calibration.inside_task,
                             "answer": answer})
            except TaskTimeout:
                done.append({"id": task["id"], "error": f"timed out after {TASK_TIMEOUT_S} s"})
            except Exception as exc:  # a crash is a failed task, not a failed benchmark
                done.append({"id": task["id"], "error": f"{type(exc).__name__}: {exc}"[:300]})
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if span is not None:
                    tracer.finish(span)
            if calibration.due():
                calibration.take()
        # the program's time only, not the harness's parsing and comparing
        result["wall_s"] = sum(t.get("seconds", 0.0) for t in done)
        after = (_cache_counts(hom_caches), _cache_counts(reflect_cache))
        result["tasks"] = done
        result["suites"] = suites
        result["caches"] = {
            "homs": [after[0][0] - before[0][0], after[0][1] - before[0][1]],
            "reflectors.reflect": [after[1][0] - before[1][0], after[1][1] - before[1][1]],
        }
        calibration.take(CALIBRATION_SAMPLES)
    result["calibration_s"] = calibration.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = len(tracer.start)
        result["trace"] = tracer.summarise()
        result["distinct"] = {name: len(tracer.results[name]) for name in CONSTRUCTORS}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
