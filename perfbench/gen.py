"""Seeded input generator for the benchmark, in pure Python.

Nothing here imports ``semiab``: the documents are built from their
definitions and written in the ``semiab-*`` JSON formats of format.md,
so the program under test receives only what this module produces.

Relabelled algebras get a random permutation that fixes 0, and an
expected answer is the canonical answer carried through that
permutation.  The same seed gives byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
import random

VERSION = 1


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def dumps(doc) -> str:
    """The one byte form every generated document is written in."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(docs) -> str:
    """sha256 over the canonical bytes of a sequence of documents."""
    h = hashlib.sha256()
    for doc in docs:
        h.update(dumps(doc).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# canonical algebra documents


def _alg(variety, order: int, tables: dict) -> dict:
    return {"format": "semiab-algebra", "version": VERSION, "variety": variety,
            "order": order, "tables": tables}


def _group(op) -> dict:
    n = len(op)
    inv = [next(y for y in range(n) if op[x][y] == 0) for x in range(n)]
    return _alg("group", n, {"op": op, "inv": inv})


def cyclic_group(n: int) -> dict:
    return _group([[(x + y) % n for y in range(n)] for x in range(n)])


def dihedral_group(n: int) -> dict:
    """Order 2n: 0..n-1 rotations, n..2n-1 reflections."""
    def mult(x, y):
        xr, xf = x % n, x >= n
        yr, yf = y % n, y >= n
        return ((xr - yr) % n if xf else (xr + yr) % n) + n * (xf ^ yf)
    return _group([[mult(x, y) for y in range(2 * n)] for x in range(2 * n)])


def _pair_table(t1, t2):
    n2 = len(t2)
    size = len(t1) * n2
    return [[t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2] for y in range(size)]
            for x in range(size)]


def group_product(G: dict, H: dict) -> dict:
    return _group(_pair_table(G["tables"]["op"], H["tables"]["op"]))


def zring(n: int) -> dict:
    return _alg("comm-ring", n, {"add": [[(x + y) % n for y in range(n)] for x in range(n)],
                                 "mul": [[(x * y) % n for y in range(n)] for x in range(n)]})


def ring_product(A: dict, B: dict) -> dict:
    add = _pair_table(A["tables"]["add"], B["tables"]["add"])
    return _alg(A["variety"], len(add),
                {"add": add, "mul": _pair_table(A["tables"]["mul"], B["tables"]["mul"])})


def _radix(summands):
    """(n, split, pack) for Z/d1 x Z/d2 x ...: index <-> coordinate list, first factor major."""
    sizes = list(summands)
    n = 1
    for d in sizes:
        n *= d

    def split(x):
        out = []
        for d in reversed(sizes):
            x, r = divmod(x, d)
            out.append(r)
        return out[::-1]

    def pack(ds):
        x = 0
        for d, v in zip(sizes, ds):
            x = x * d + v % d
        return x

    return n, split, pack


def zmod_module(m: int, summands) -> dict:
    """The Z/m-module Z/d1 x Z/d2 x ..., each di dividing m."""
    n, split, pack = _radix(summands)
    parts = [split(x) for x in range(n)]
    add = [[pack([a + b for a, b in zip(parts[x], parts[y])]) for y in range(n)] for x in range(n)]
    act = [[pack([s * a for a in parts[x]]) for x in range(n)] for s in range(m)]
    return _alg({"kind": "zmod-module", "modulus": m}, n, {"add": add, "act": act})


def _gpd(g1: dict, g0: dict, d, c, i) -> dict:
    return _alg("gpd-in-group", g1["order"],
                {"g1": g1, "g0": g0, "d": list(d), "c": list(c), "i": list(i)})


def gpd_discrete(G: dict) -> dict:
    ident = list(range(G["order"]))
    return _gpd(G, G, ident, ident, ident)


def gpd_indiscrete(G: dict) -> dict:
    n = G["order"]
    g1 = group_product(G, G)
    return _gpd(g1, G, [x // n for x in range(n * n)], [x % n for x in range(n * n)],
                [x * n + x for x in range(n)])


def gpd_one_object(H: dict) -> dict:
    zeros = [0] * H["order"]
    return _gpd(H, cyclic_group(1), zeros, zeros, [0])


def morphism_doc(dom: dict, cod: dict, mapping) -> dict:
    return {"format": "semiab-morphism", "version": VERSION, "dom": dom, "cod": cod,
            "map": list(mapping)}


def square_doc(vertices, maps) -> dict:
    """A 2-cube: vertices[mask], maps[(mask, axis)] as image arrays."""
    return {"format": "semiab-cube", "version": VERSION, "dim": 2,
            "vertices": {str(k): v for k, v in enumerate(vertices)},
            "edges": [{"from": mask, "axis": axis, "map": list(maps[(mask, axis)])}
                      for mask, axis in sorted(maps)]}


def corpus_doc(algebras) -> dict:
    return {"format": "semiab-corpus", "version": VERSION, "algebras": list(algebras)}


# ---------------------------------------------------------------------------
# relabelling


def perm_fixing_zero(n: int, rng: random.Random, first=()) -> list[int]:
    """A random relabelling p (element x becomes p[x]) with p[0] = 0.

    The elements listed in ``first`` get the labels 1, 2, ... in order.
    """
    rest = [x for x in range(1, n) if x not in first]
    rng.shuffle(rest)
    p = [0] * n
    for new, old in enumerate([0, *first, *rest]):
        p[old] = new
    return p


def module_basis(summands, rng: random.Random) -> list[int]:
    """A random basis of Z/d1 x Z/d2 x ... in ``zmod_module`` labels, largest order first.

    The images of the unit vectors under a random automorphism: each
    u_i is drawn among the elements that d_i kills until the u_i span
    the whole module.
    """
    sizes = list(summands)
    n, split, pack = _radix(sizes)
    killed = [[x for x in range(n) if all((d * v) % di == 0 for v, di in zip(split(x), sizes))]
              for d in sizes]
    while True:
        basis = [rng.choice(k) for k in killed]
        span = {0}
        for b in basis:
            span = {pack([a + k * c for a, c in zip(split(s), split(b))])
                    for s in span for k in range(max(sizes))}
        if len(span) == n:
            order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
            return [basis[i] for i in order]


def _relabel_table(t, p):
    n = len(p)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        px, row = out[p[x]], t[x]
        for y in range(n):
            px[p[y]] = p[row[y]]
    return out


def _relabel_map(m, p_dom, p_cod):
    out = [0] * len(m)
    for x, v in enumerate(m):
        out[p_dom[x]] = p_cod[v]
    return out


def relabel_algebra(doc: dict, rng: random.Random, first=()):
    """A copy of ``doc`` under a random relabelling fixing 0, and that relabelling.

    The relabelling is a list for single-sorted algebras and a
    ``(level-1, level-0)`` pair for groupoids; ``first`` is passed to
    ``perm_fixing_zero``.
    """
    t = doc["tables"]
    if doc["variety"] == "gpd-in-group":
        g1, p1 = relabel_algebra(t["g1"], rng)
        g0, p0 = relabel_algebra(t["g0"], rng)
        i = [0] * len(t["i"])
        for x, v in enumerate(t["i"]):
            i[p0[x]] = p1[v]
        return _gpd(g1, g0, _relabel_map(t["d"], p1, p0), _relabel_map(t["c"], p1, p0), i), (p1, p0)
    p = perm_fixing_zero(doc["order"], rng, first)
    if "op" in t:
        tables = {"op": _relabel_table(t["op"], p), "inv": _relabel_map(t["inv"], p, p)}
    elif "mul" in t:
        tables = {"add": _relabel_table(t["add"], p), "mul": _relabel_table(t["mul"], p)}
    else:
        tables = {"add": _relabel_table(t["add"], p),
                  "act": [_relabel_map(row, p, p) for row in t["act"]]}
    return _alg(doc["variety"], doc["order"], tables), p


def relabel_morphism(doc: dict, rng: random.Random):
    dom, pd = relabel_algebra(doc["dom"], rng)
    cod, pc = relabel_algebra(doc["cod"], rng)
    return morphism_doc(dom, cod, _relabel_map(doc["map"], pd, pc)), pd


def relabel_square(doc: dict, rng: random.Random):
    vs, ps = [], []
    for k in range(4):
        v, p = relabel_algebra(doc["vertices"][str(k)], rng)
        vs.append(v)
        ps.append(p)
    maps = {(e["from"], e["axis"]): _relabel_map(e["map"], ps[e["from"]], ps[e["from"] | (1 << e["axis"])])
            for e in doc["edges"]}
    return square_doc(vs, maps), ps[0]


def carry(elements, p) -> list[int]:
    """A subset of canonical indices, carried through a relabelling."""
    return sorted(p[x] for x in elements)


# ---------------------------------------------------------------------------
# corruption: each kind breaks a document in a way a full check must catch


CORRUPTIONS = ("swap", "range", "header")


def table_owner(doc: dict) -> dict:
    """The innermost single-sorted algebra document that the group law lives in."""
    if doc["format"] == "semiab-morphism":
        return table_owner(doc["dom"])
    if doc["format"] == "semiab-cube":
        return table_owner(doc["vertices"]["0"])
    if doc["format"] == "semiab-corpus":
        return table_owner(doc["algebras"][-1])
    if doc["variety"] == "gpd-in-group":
        return table_owner(doc["tables"]["g1"])
    return doc


def corrupt(doc: dict, kind: str, rng: random.Random) -> dict:
    """A broken copy of ``doc``.

    ``swap`` exchanges two entries of one row of the group law, so the
    table is no longer a Latin square and cannot be a group; ``range``
    writes an index equal to the order; ``header`` bumps the version.
    """
    bad = json.loads(dumps(doc))
    if kind == "header":
        bad["version"] = VERSION + 1
        return bad
    owner = table_owner(bad)
    t = owner["tables"]
    law = t["op"] if "op" in t else t["add"]
    n = len(law)
    if n < 3:
        raise ValueError("corruption needs an algebra of order at least 3")
    a = rng.randrange(1, n)
    b, c = rng.sample(range(1, n), 2)
    if kind == "swap":
        law[a][b], law[a][c] = law[a][c], law[a][b]
    elif kind == "range":
        law[a][b] = n
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return bad

