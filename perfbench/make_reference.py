"""Recompute the reference answers in ``reference/`` from the program.

    PYTHONPATH=src python3 perfbench/make_reference.py [sweep homology context ingest]

Run it only on a commit whose answers are trusted: the benchmark fails
every task whose answer differs from these files.  Answers that do not
depend on the labelling (homology labels, hom counts, verdicts) are
computed on two different relabellings and must agree; answers that do
(radicals, kernels) are computed on the canonical documents and carried
through each run's relabelling by ``workloads.carry_answer``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import run_task  # noqa: E402


def _any():
    """A stand-in reference: every lookup succeeds."""
    return defaultdict(_any)


def _answers(tasks) -> dict:
    out, corpora = {}, {}
    for task in tasks:
        _, answer = run_task(task, corpora)
        out[task["id"]] = answer
    return out


def _invariant(build, root: Path) -> dict:
    """Answers of a task list built at two seeds, which must agree."""
    runs = []
    for seed in (0, 1):
        inputs = workloads.Inputs(root / f"seed{seed}")
        runs.append(_answers(build(seed, inputs, _any())))
    if runs[0] != runs[1]:
        raise SystemExit(f"answers depend on the relabelling: {runs[0]} != {runs[1]}")
    return runs[0]


def sweep(root: Path) -> dict:
    task = workloads.sweep_tasks(0, None, _any())[0]
    _, answer = run_task(task, {})
    if answer["rc"] != 0:
        raise SystemExit(f"verify --suite all exited {answer['rc']}")
    return {"reports": answer["reports"]}


def homology(root: Path) -> dict:
    from semiab import algebra_to_doc, named_algebra

    for m, summands, _ in workloads.HOMOLOGY_QUERIES:
        bundled = algebra_to_doc(named_algebra(workloads.module_id(m, summands)))
        if bundled["tables"] != workloads.gen.zmod_module(m, summands)["tables"]:
            raise SystemExit(f"{workloads.module_id(m, summands)} differs from the bundled tables")
    answers = _invariant(workloads.homology_tasks, root)
    return {qid: {k: v for k, v in a.items() if k != "rc"} for qid, a in answers.items()}


def context(root: Path) -> dict:
    from semiab import corpus_by_id

    if len(corpus_by_id("groups")) != workloads.GROUPS_SIZE:
        raise SystemExit("workloads.GROUPS_SIZE is out of date")
    answers = _invariant(workloads.context_tasks, root)
    homs: dict = {}
    out = {"homs": homs}
    for qid, a in answers.items():
        if "homs" in a:
            homs.setdefault(qid[len("homs("):].rstrip(")").split("#")[0], []).extend(a["homs"])
        else:
            out.update(a)
    return out


def ingest(root: Path) -> dict:
    from semiab import verify_suite

    inputs = workloads.Inputs(root / "canonical")
    answers = {}
    for k, item in enumerate(workloads.ingest_catalogue()):
        task = workloads.file_task(inputs, f"q{k:03d}", item, item["doc"], {})
        _, answers[item["id"]] = run_task(task, {})
    witnesses = []
    for suite, rid, cid in workloads.WITNESS_SOURCES:
        report = verify_suite(suite, reflector=rid, corpus=cid)
        for k, w in enumerate(report.witnesses):
            witnesses.append({"id": f"{suite}[{rid}]({cid})#{k}", "doc": w})
    return {"answers": answers, "witnesses": witnesses}


BUILDERS = {"sweep": sweep, "homology": homology, "context": context, "ingest": ingest}


def main(argv) -> int:
    names = argv or list(BUILDERS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in names:
            ref = BUILDERS[name](Path(tmp) / name)
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
            print(f"wrote {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
