"""The four workloads: their inputs, their tasks and their expected answers.

Pure Python; nothing here imports ``semiab``.  A workload pass is a
list of tasks that one fresh interpreter runs in order (see
``worker.py``).  Each task carries the answer it must give, derived
from the stored reference answers (``reference/``) and, where the input
was relabelled, carried through the relabelling.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("sweep", "homology", "context", "ingest")

# Built-in corpora each workload reads; building them is part of set-up.
SETUP_CORPORA = {
    "sweep": ("rings", "rng-star", "groupoids", "groups", "zmod4-modules"),
    "homology": (),
    "context": ("groups",),
    "ingest": (),
}

def load_reference(name: str):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Inputs:
    """Writes generated documents under one directory and hashes them."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._docs: list = []

    def write(self, name: str, doc) -> str:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        text = gen.dumps(doc)
        path.write_text(text, encoding="utf-8")
        self._docs.append(doc)
        return str(path)

    def digest(self) -> str:
        return gen.digest(self._docs)


# ---------------------------------------------------------------------------
# sweep: a cold verify_all through the CLI


def sweep_tasks(seed: int, inputs: Inputs, ref, pass_no: int = 0) -> list[dict]:
    """``semiab verify --suite all --json``, the release gate, at its default seed.

    The seed of the benchmark is not passed on: the sweep's seed picks
    which instances the suites sample, and that changes the work by up
    to 1.6x (prop-2.2 takes 5.0 s at seed 0 and 9.9 s at seed 3).
    """
    return [{"id": "verify-all", "kind": "sweep", "argv": ["verify", "--suite", "all", "--json"],
             "expect": {"rc": 0, "reports": ref["reports"]}}]


# ---------------------------------------------------------------------------
# homology: Hopf homology of the bundled modules, through the CLI

HOMOLOGY_QUERIES = (
    [(4, (2,), 2), (4, (2,), 3), (4, (4,), 2), (4, (4,), 3),
     (4, (2, 4), 2), (4, (2, 4), 3), (4, (4, 4), 2), (4, (4, 4), 3),
     (4, (2, 2), 2),
     (8, (2,), 2), (8, (4,), 2), (8, (8,), 2)]
)


def module_id(m: int, summands) -> str:
    return f"m{m}-" + "x".join(f"c{d}" for d in summands)


def homology_id(m: int, summands, degree: int) -> str:
    return f"H{degree}({module_id(m, summands)})"


def homology_tasks(seed: int, inputs: Inputs, ref, pass_no: int = 0) -> list[dict]:
    """The same files for every seed, in the labelling of the bundled corpus.

    Not relabelled: the cost of ``hopf_homology`` depends on the
    labelling (``generating_set`` is greedy in index order, and a
    larger generating set multiplies the free cover), so a random
    relabelling turns a 0.4 s query into minutes and gigabytes.
    """
    tasks = []
    for m, summands, degree in HOMOLOGY_QUERIES:
        qid = homology_id(m, summands, degree)
        path = inputs.write(f"{module_id(m, summands)}-d{degree}.json", gen.zmod_module(m, summands))
        tasks.append({"id": qid, "kind": "cli", "extract": "homology",
                      "argv": ["homology", "--variety", f"zmod:{m}", "--coeff", "burnside:2",
                               "--object", path, "--degree", str(degree), "--json"],
                      "expect": {"rc": 0, **ref[qid]}})
    return tasks


# ---------------------------------------------------------------------------
# context: Birkhoff context and hom enumeration over a relabelled corpus

CONTEXT_MODULES = ((), (2,), (4,), (8,), (2, 2), (2, 4), (2, 8), (4, 4), (4, 8), (8, 8))
GROUPS_SIZE = 26  # algebras in the built-in "groups" corpus


def context_corpus(seed: int, pass_no: int) -> dict:
    """A relabelled ``zmod8-modules`` that keeps a random basis at labels 1, 2.

    Hom enumeration extends a greedy generating set taken in label
    order; a fully random labelling can make that set larger than a
    basis and the enumeration several times slower (48 s against 10 s
    for one seed), which would make this workload's cost a lottery.
    """
    rng = gen.rng_for(seed, f"context:{pass_no}")
    algebras = []
    for summands in CONTEXT_MODULES:
        summands = summands or (1,)
        basis = gen.module_basis(summands, rng) if summands != (1,) else []
        doc, _ = gen.relabel_algebra(gen.zmod_module(8, summands), rng, first=basis)
        algebras.append(doc)
    return gen.corpus_doc(algebras)


def context_tasks(seed: int, inputs: Inputs, ref, pass_no: int = 0) -> list[dict]:
    """Hom sets from each algebra of the copy, all hom sets of ``groups``, then the context.

    Enumeration runs first, so the context build finds the hom sets
    cached and its own time is the unit-square checks.
    """
    inputs.write("corpora/zmod8-modules.json", context_corpus(seed, pass_no))
    env = {"SEMIAB_CORPUS_DIR": str(inputs.root / "corpora")}
    rows = ref["homs"]["zmod8-modules"]
    tasks = [{"id": f"homs(zmod8-modules#{a})", "kind": "enumerate", "corpus": "zmod8-modules",
              "sources": [a], "env": env, "expect": {"homs": [r for r in rows if r[0] == a]}}
             for a in range(len(CONTEXT_MODULES))]
    tasks.append({"id": "homs(groups)", "kind": "enumerate", "corpus": "groups",
                  "sources": list(range(GROUPS_SIZE)), "env": {},
                  "expect": {"homs": ref["homs"]["groups"]}})
    tasks.append({"id": "BirkhoffContext(burnside:2, zmod8-modules)", "kind": "context",
                  "corpus": "zmod8-modules", "reflector": "burnside:2", "env": env,
                  "expect": {"checked_surjections": ref["checked_surjections"]}})
    return tasks


# ---------------------------------------------------------------------------
# ingest: one-shot CLI queries on generated files


def _algebra_catalogue() -> list[tuple[str, str, dict]]:
    """(id, reflector, canonical document) for the radical queries."""
    out = []
    for n in (12, 16, 18, 24, 27, 30, 32):
        out.append((f"z{n}", "reduced", gen.zring(n)))
    out.append(("z4xz6", "reduced", gen.ring_product(gen.zring(4), gen.zring(6))))
    out.append(("z2xz8", "reduced", gen.ring_product(gen.zring(2), gen.zring(8))))
    for n in (4, 5, 6, 8, 10, 12):
        for rid in ("ab", "burnside:2"):
            out.append((f"d{n}", rid, gen.dihedral_group(n)))
    out.append(("c4xc6", "burnside:2", gen.group_product(gen.cyclic_group(4), gen.cyclic_group(6))))
    out.append(("c2xd4", "ab", gen.group_product(gen.cyclic_group(2), gen.dihedral_group(4))))
    for m, summands in ((4, (2, 4)), (4, (4, 4)), (8, (8,)), (8, (2, 8)), (8, (4, 8)),
                        (8, (8, 8)), (16, (4, 16)), (16, (16, 16))):
        out.append((module_id(m, summands), "burnside:2", gen.zmod_module(m, summands)))
    c3, c4, c6 = gen.cyclic_group(3), gen.cyclic_group(4), gen.cyclic_group(6)
    out.append(("ind-c3", "pi0", gen.gpd_indiscrete(c3)))
    out.append(("ind-c4", "pi0", gen.gpd_indiscrete(c4)))
    out.append(("dis-c6", "pi0", gen.gpd_discrete(c6)))
    out.append(("dis-d3", "pi0", gen.gpd_discrete(gen.dihedral_group(3))))
    out.append(("one-c6", "pi0", gen.gpd_one_object(c6)))
    return out


def _ring_reduction(n: int, d: int) -> dict:
    return gen.morphism_doc(gen.zring(n), gen.zring(d), [x % d for x in range(n)])


def _module_projection(m: int, d1: int, d2: int) -> dict:
    """Z/d1 x Z/d2 -> Z/d2, as Z/m-modules."""
    return gen.morphism_doc(gen.zmod_module(m, (d1, d2)), gen.zmod_module(m, (d2,)),
                            [x % d2 for x in range(d1 * d2)])


def _module_reduction(m: int, n: int, d: int) -> dict:
    return gen.morphism_doc(gen.zmod_module(m, (n,)), gen.zmod_module(m, (d,)),
                            [x % d for x in range(n)])


def _dihedral_sign(n: int) -> dict:
    return gen.morphism_doc(gen.dihedral_group(n), gen.cyclic_group(2),
                            [int(x >= n) for x in range(2 * n)])


def _morphism_catalogue() -> list[tuple[str, str, dict]]:
    out = []
    for n, d in ((8, 4), (12, 2), (12, 4), (12, 6), (16, 8), (18, 6), (24, 12), (30, 10), (32, 8)):
        out.append((f"z{n}->z{d}", "reduced", _ring_reduction(n, d)))
    for m, d1, d2 in ((4, 2, 4), (4, 4, 4), (8, 2, 8), (8, 4, 8)):
        out.append((f"m{m}-c{d1}xc{d2}->c{d2}", "burnside:2", _module_projection(m, d1, d2)))
    for m, n, d in ((8, 8, 4), (16, 16, 4)):
        out.append((f"m{m}-c{n}->c{d}", "burnside:2", _module_reduction(m, n, d)))
    for n in (4, 6, 8):
        out.append((f"d{n}->c2", "ab", _dihedral_sign(n)))
    return out


def _ring_square(n: int, a: int, b: int, c: int) -> dict:
    """Z/n -> Z/a, Z/n -> Z/b, both -> Z/c, all reductions."""
    vs = [gen.zring(k) for k in (n, a, b, c)]
    maps = {(0, 0): [x % a for x in range(n)], (0, 1): [x % b for x in range(n)],
            (1, 1): [x % c for x in range(a)], (2, 0): [x % c for x in range(b)]}
    return gen.square_doc(vs, maps)


def _cube_catalogue() -> list[tuple[str, str, dict]]:
    return [(f"sq(z{n};z{a},z{b};z{c})", "reduced", _ring_square(n, a, b, c))
            for n, a, b, c in ((12, 4, 6, 2), (24, 8, 6, 2), (30, 6, 10, 2), (16, 8, 4, 4),
                               (18, 6, 9, 3), (32, 16, 8, 8))]


def _corpus_catalogue() -> list[tuple[str, str, str, list[dict]]]:
    """(id, reflector, corpus id, canonical algebras) for override scans."""
    return [
        ("rings{4,6,8,9,12}", "reduced", "rings", [gen.zring(n) for n in (4, 6, 8, 9, 12)]),
        ("groups{c4,c6,d3,d4}", "ab", "groups",
         [gen.cyclic_group(4), gen.cyclic_group(6), gen.dihedral_group(3), gen.dihedral_group(4)]),
        ("zmod4{c2,c4,c2xc2}", "burnside:2", "zmod4-modules",
         [gen.zmod_module(4, s) for s in ((2,), (4,), (2, 2))]),
    ]


def ingest_catalogue() -> list[dict]:
    """Every clean ingest query, on canonical (unrelabelled) inputs."""
    out = []
    for aid, rid, doc in _algebra_catalogue():
        out.append({"id": f"radical[{rid}]({aid})", "query": "radical", "reflector": rid, "doc": doc})
    for mid, rid, doc in _morphism_catalogue():
        out.append({"id": f"factorize[{rid}]({mid})", "query": "factorize", "reflector": rid, "doc": doc})
        for kind in ("trivial", "normal"):
            out.append({"id": f"{kind}[{rid}]({mid})", "query": kind, "reflector": rid, "doc": doc})
    for cid, rid, doc in _cube_catalogue():
        out.append({"id": f"double[{rid}]({cid})", "query": "double", "reflector": rid, "doc": doc})
    for sid, rid, corpus_id, algebras in _corpus_catalogue():
        out.append({"id": f"protoadditive[{rid}]({sid})", "query": "protoadditive",
                    "reflector": rid, "corpus": corpus_id, "doc": gen.corpus_doc(algebras)})
    return out


# failing configurations whose witnesses the ingest workload replays
WITNESS_SOURCES = (
    ("thm-1.6", "burnside:2", "abelian-groups"),
    ("prop-2.5/2.7", "boole", "nonassoc-rings"),
    ("prop-2.2", "ab", "groups"),
)
WITNESSES_PER_PASS = 40
CORRUPT_SHARE = 0.15


def ingest_argv(item: dict, path: str, out_dir: str) -> list[str]:
    q, rid = item["query"], item["reflector"]
    if q == "radical":
        return ["radical", "--reflector", rid, "--algebra", path, "--json"]
    if q == "factorize":
        return ["factorize", "--reflector", rid, "--morphism", path, "--out-dir", out_dir, "--json"]
    if q in ("trivial", "normal"):
        return ["extension-check", "--reflector", rid, "--morphism", path, "--kind", q, "--json"]
    if q == "double":
        return ["extension-check", "--reflector", rid, "--cube", path, "--kind", "double", "--json"]
    if q == "protoadditive":
        return ["check-protoadditive", "--reflector", rid, "--corpus", item["corpus"], "--json"]
    raise ValueError(f"unknown query {q!r}")


def _relabelled(item: dict, rng):
    """(relabelled document, the relabelling the answer is carried through)."""
    doc = item["doc"]
    if doc["format"] == "semiab-algebra":
        return gen.relabel_algebra(doc, rng)
    if doc["format"] == "semiab-morphism":
        return gen.relabel_morphism(doc, rng)
    if doc["format"] == "semiab-cube":
        return gen.relabel_square(doc, rng)
    algebras = [gen.relabel_algebra(a, rng)[0] for a in doc["algebras"]]
    return gen.corpus_doc(algebras), None


def carry_answer(query: str, canonical: dict, perm) -> dict:
    """The canonical answer of a query, carried through a relabelling."""
    out = dict(canonical)
    if query == "radical" and canonical.get("rc") == 0:
        rad = canonical["radical"]
        if isinstance(rad, dict):
            out["radical"] = {"g1": gen.carry(rad["g1"], perm[0]), "g0": gen.carry(rad["g0"], perm[1])}
        else:
            out["radical"] = gen.carry(rad, perm)
    if query == "factorize" and canonical.get("rc") == 0:
        out["e_kernel"] = gen.carry(canonical["e_kernel"], perm)
    return out


def ingest_tasks(seed: int, inputs: Inputs, ref, pass_no: int = 0) -> list[dict]:
    rng = gen.rng_for(seed, f"ingest:{pass_no}")
    catalogue = ingest_catalogue()
    tasks = []
    for k, item in enumerate(catalogue):
        doc, perm = _relabelled(item, rng)
        tasks.append(file_task(inputs, f"q{k:03d}", item, doc,
                                carry_answer(item["query"], ref["answers"][item["id"]], perm)))
    witnesses = ref["witnesses"]
    for k in sorted(rng.sample(range(len(witnesses)), WITNESSES_PER_PASS)):
        path = inputs.write(f"w{k:03d}.json", witnesses[k]["doc"])
        tasks.append({"id": f"replay({witnesses[k]['id']})", "kind": "replay", "path": path,
                      "expect": {"replayed": True}})
    n_bad = round(CORRUPT_SHARE * len(tasks) / (1 - CORRUPT_SHARE))
    corruptible = [item for item in catalogue if gen.table_owner(item["doc"])["order"] >= 3]
    for k in range(n_bad):
        item = corruptible[rng.randrange(len(corruptible))]
        how = gen.CORRUPTIONS[k % len(gen.CORRUPTIONS)]
        doc, _ = _relabelled(item, rng)
        tasks.append(file_task(inputs, f"bad{k:03d}", dict(item, id=f"{how}:{item['id']}"),
                                gen.corrupt(doc, how, rng), {"rc": 3}))
    rng.shuffle(tasks)
    return tasks


def file_task(inputs: Inputs, name: str, item: dict, doc: dict, expect: dict) -> dict:
    task = {"id": item["id"], "kind": "cli", "extract": item["query"], "expect": expect, "env": {}}
    if item["query"] == "protoadditive":
        inputs.write(f"{name}/{item['corpus']}.json", doc)
        task["env"] = {"SEMIAB_CORPUS_DIR": str(inputs.root / name)}
        path = ""
    else:
        path = inputs.write(f"{name}.json", doc)
        task["input"] = path
    task["argv"] = ingest_argv(item, path, str(inputs.root / f"{name}.out"))
    return task


PASS_BUILDERS = {
    "sweep": sweep_tasks,
    "homology": homology_tasks,
    "context": context_tasks,
    "ingest": ingest_tasks,
}


def pass_tasks(workload: str, seed: int, pass_no: int, root: Path, ref) -> tuple[list[dict], str]:
    """The tasks of one pass and the hash of the inputs written for it."""
    inputs = Inputs(Path(root) / f"{workload}-{pass_no}")
    tasks = PASS_BUILDERS[workload](seed, inputs, ref, pass_no)
    return tasks, inputs.digest()


# ---------------------------------------------------------------------------
# answers: what each task's output is reduced to before comparison


def extract(kind: str, rc: int, doc, task: dict) -> dict:
    """Reduce a CLI exit code and JSON output to the relabelling-invariant answer."""
    out = {"rc": rc}
    if rc != 0 and not (rc == 2 and kind in ("trivial", "normal", "double", "protoadditive")):
        return out
    if doc is None:
        out["output"] = "missing"
        return out
    if kind == "homology":
        out["label"] = doc["label"]
        out["presentations"] = [p["rank-order"] for p in doc["presentations"]]
    elif kind == "radical":
        out["radical"] = doc["radical"]
        out["reflection_order"] = doc["reflection"]["order"]
        out["echo"] = _read(task["input"])["tables"] == doc["algebra"]["tables"]
    elif kind == "factorize":
        e, m = doc["e"], doc["m"]
        out["e_kernel"] = [x for x, v in enumerate(e["map"]) if v == 0]
        out["middle_order"] = doc["middle"]["order"]
        out["m_kernel_size"] = sum(1 for v in m["map"] if v == 0)
        src = _read(task["input"])
        out["echo"] = (e["dom"]["tables"] == src["dom"]["tables"]
                       and m["cod"]["tables"] == src["cod"]["tables"])
    elif kind in ("trivial", "normal", "double"):
        out["verdict"] = doc["verdict"]
    elif kind == "protoadditive":
        out["verdict"] = doc["verdict"]
        out["sampleSize"] = doc["sampleSize"]
        out["witnesses"] = len(doc["witnesses"])
    elif kind == "sweep":
        out["reports"] = doc["reports"]
    return out


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(expect: dict, answer: dict) -> str | None:
    """None when ``answer`` agrees with ``expect`` on every expected key."""
    for key, want in expect.items():
        got = answer.get(key, "<missing>")
        if got != want:
            shown = json.dumps(got)[:160]
            return f"{key}: expected {json.dumps(want)[:160]}, got {shown}"
    return None


def work_root(checkout: Path) -> Path:
    return Path(checkout) / ".perfbench_work" / str(os.getpid())
