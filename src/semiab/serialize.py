"""JSON documents for algebras, morphisms, cubes, and reports.

Every document carries a "format" tag and a "version" integer.  Parsing
is strict: a malformed document raises FormatError pointing at the JSON
path of the offending field, never a bare KeyError or crash.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring

from .algebra import (
    Algebra,
    AlgebraError,
    GPD_IN_GROUP,
    GROUP,
    Morphism,
    RING_KINDS,
    Sort,
    Variety,
    gpd_algebra,
    group_algebra,
    module_algebra,
    ring_algebra,
)
from .cubes import NCube

FORMAT_VERSION = 1

ALGEBRA_FORMAT = "semiab-algebra"
MORPHISM_FORMAT = "semiab-morphism"
CUBE_FORMAT = "semiab-cube"
CORPUS_FORMAT = "semiab-corpus"

# the keys of a groupoid's two sorts, arrows then objects, wherever a
# document holds one value per sort
_SORT_KEYS = ("g1", "g0")


class FormatError(ValueError):
    """A document failed validation; .path points at the bad field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def load_json_file(path) -> object:
    """The JSON value in a file; a file that cannot be read or parsed is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(str(path), f"cannot read file: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise FormatError(str(path), f"unreadable JSON: {exc}") from None


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, as the CLI writes it.

    Arrays of plain ints, the bulk of every table, are joined in one
    ``str.join``; dicts with string keys and lists recurse, each key
    quoted by ``encode_basestring`` as ``json.dumps`` quotes it; anything
    else is ``json.dumps`` re-indented, which is exact because JSON text
    holds no raw newline inside a string.
    """
    inner = indent + "  "
    if type(value) in (list, tuple) and value:
        if {int}.issuperset(map(type, value)):
            items = map(str, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if type(value) is dict and value and {str}.issuperset(map(type, value)):
        items = (encode_basestring(k) + ": " + _json_text(v, inner)
                 for k, v in value.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


def _need(doc, key: str, path: str, kind=None):
    if not isinstance(doc, dict):
        raise FormatError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise FormatError(f"{path}.{key}", "missing field")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or kind is int and isinstance(value, bool)):
        raise FormatError(f"{path}.{key}",
                          f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _int_array(value, path: str) -> tuple[int, ...]:
    if type(value) is list and {int}.issuperset(map(type, value)):  # plain ints, one type pass
        return tuple(value)
    if not isinstance(value, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise FormatError(path, "expected an array of integers")
    return tuple(value)


def _int_table(value, path: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list):
        raise FormatError(path, "expected an array of rows")
    return [_int_array(row, f"{path}[{r}]") for r, row in enumerate(value)]


def _check_header(doc, fmt: str, path: str) -> None:
    got = _need(doc, "format", path, str)
    if got != fmt:
        raise FormatError(f"{path}.format", f"expected {fmt!r}, got {got!r}")
    version = _need(doc, "version", path, int)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}.version", f"unsupported version {version}")


# ---------------------------------------------------------------------------
# varieties


def variety_to_doc(v: Variety):
    if v.kind == "zmod-module":
        return {"kind": v.kind, "modulus": v.modulus}
    return v.kind


def variety_from_doc(doc, path: str) -> Variety:
    if isinstance(doc, str):
        try:
            return Variety(doc)
        except AlgebraError as exc:
            raise FormatError(path, str(exc)) from None
    if isinstance(doc, dict):
        kind = _need(doc, "kind", path, str)
        modulus = _need(doc, "modulus", path, int)
        try:
            return Variety(kind, modulus)
        except AlgebraError as exc:
            raise FormatError(path, str(exc)) from None
    raise FormatError(path, "expected a variety name or {kind, modulus} object")


# ---------------------------------------------------------------------------
# algebras


def _per_sort_to_doc(A: Algebra, parts):
    """One value per sort of A: bare for one sort, {g1, g0} for groupoids."""
    return dict(zip(_SORT_KEYS, parts)) if A.kind == GPD_IN_GROUP else parts[0]


def algebra_to_doc(A: Algebra) -> dict:
    if A.kind == GPD_IN_GROUP:
        # each sort as a group document, then d, c and i
        docs = [_algebra_doc(S.variety, S.order, _sort_tables(S), S.name) for S in A.sorts]
        tables = {**_per_sort_to_doc(A, docs), **dict(zip("dci", map(list, A.maps)))}
    else:
        tables = _sort_tables(A.sorts[0])
    return _algebra_doc(A.variety, A.order, tables, A.name)


def _algebra_doc(variety: Variety, order: int, tables: dict, name: str | None) -> dict:
    doc = {
        "format": ALGEBRA_FORMAT,
        "version": FORMAT_VERSION,
        "variety": variety_to_doc(variety),
        "order": order,
        "tables": tables,
    }
    if name:
        doc["name"] = name
    return doc


def _sort_tables(S: Sort) -> dict:
    (op, *mul), (inv, *act) = S.binary, S.unary
    if S.variety.kind == GROUP:
        return {"op": [list(r) for r in op], "inv": list(inv)}
    if S.variety.kind in RING_KINDS:
        return {"add": [list(r) for r in op], "mul": [list(r) for r in mul[0]]}
    return {"add": [list(r) for r in op], "act": [list(r) for r in act]}


def algebra_from_doc(doc, path: str = "$") -> Algebra:
    _check_header(doc, ALGEBRA_FORMAT, path)
    variety = variety_from_doc(_need(doc, "variety", path), f"{path}.variety")
    order = _need(doc, "order", path, int)
    tables = _need(doc, "tables", path, dict)
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError(f"{path}.name", "expected a string")
    tpath = f"{path}.tables"
    try:
        A = _algebra_from_tables(variety, tables, tpath, name)
    except AlgebraError as exc:
        raise FormatError(tpath, str(exc)) from None
    if A.order != order:
        raise FormatError(f"{path}.order", f"declared {order}, tables give {A.order}")
    return A


def _algebra_from_tables(variety: Variety, tables: dict, path: str, name: str) -> Algebra:
    if variety.kind == GROUP:
        op = _int_table(_need(tables, "op", path), f"{path}.op")
        inv = _int_array(_need(tables, "inv", path), f"{path}.inv")
        return group_algebra(op, inv, name=name)
    if variety.kind in RING_KINDS:
        add = _int_table(_need(tables, "add", path), f"{path}.add")
        mul = _int_table(_need(tables, "mul", path), f"{path}.mul")
        return ring_algebra(variety.kind, add, mul, name=name)
    if variety.kind == "zmod-module":
        add = _int_table(_need(tables, "add", path), f"{path}.add")
        act = _int_table(_need(tables, "act", path), f"{path}.act")
        return module_algebra(variety.modulus, add, act, name=name)
    g1 = algebra_from_doc(_need(tables, "g1", path), f"{path}.g1")
    g0 = algebra_from_doc(_need(tables, "g0", path), f"{path}.g0")
    d = _int_array(_need(tables, "d", path), f"{path}.d")
    c = _int_array(_need(tables, "c", path), f"{path}.c")
    i = _int_array(_need(tables, "i", path), f"{path}.i")
    return gpd_algebra(g1, g0, d, c, i, name=name)


# ---------------------------------------------------------------------------
# morphisms


def _map_to_doc(f: Morphism):
    """The ``map`` field: an array, or {g1, g0} arrays for groupoids."""
    return _per_sort_to_doc(f.dom, [list(m) for m in f.mapping])


def _map_from_doc(dom: Algebra, cod: Algebra, raw, path: str) -> Morphism:
    """The morphism whose ``map`` field, at ``path``, is ``raw``."""
    if dom.kind != GPD_IN_GROUP:
        mapping = (_int_array(raw, path),)
    elif not isinstance(raw, dict):
        raise FormatError(path, "groupoid maps need {g1, g0} arrays")
    else:
        mapping = tuple(_int_array(_need(raw, key, path), f"{path}.{key}") for key in _SORT_KEYS)
    try:
        return Morphism(dom, cod, mapping)
    except AlgebraError as exc:
        raise FormatError(path, str(exc)) from None


def morphism_to_doc(f: Morphism) -> dict:
    return {
        "format": MORPHISM_FORMAT,
        "version": FORMAT_VERSION,
        "dom": algebra_to_doc(f.dom),
        "cod": algebra_to_doc(f.cod),
        "map": _map_to_doc(f),
    }


def morphism_from_doc(doc, path: str = "$") -> Morphism:
    _check_header(doc, MORPHISM_FORMAT, path)
    dom = algebra_from_doc(_need(doc, "dom", path), f"{path}.dom")
    cod = algebra_from_doc(_need(doc, "cod", path), f"{path}.cod")
    return _map_from_doc(dom, cod, _need(doc, "map", path), f"{path}.map")


# ---------------------------------------------------------------------------
# cubes


def _cube_dim(dim: int, path: str) -> int:
    """A semiab-cube's dimension: 0-cubes and cubes above 3 have none."""
    if dim < 1 or dim > 3:
        raise FormatError(f"{path}.dim", f"dimension {dim} out of range 1..3")
    return dim


def cube_to_doc(cube) -> dict:
    """The semiab-cube document of a cube the reader accepts back."""
    vertices = {str(mask): algebra_to_doc(V) for mask, V in cube.vertices.items()}
    edges = []
    for (mask, axis), f in sorted(cube.edges.items()):
        edges.append({"from": mask, "axis": axis, "map": _map_to_doc(f)})
    return {
        "format": CUBE_FORMAT,
        "version": FORMAT_VERSION,
        "dim": _cube_dim(cube.dim, "$"),
        "vertices": vertices,
        "edges": edges,
    }


def cube_from_doc(doc, path: str = "$") -> NCube:
    _check_header(doc, CUBE_FORMAT, path)
    dim = _cube_dim(_need(doc, "dim", path, int), path)
    raw_vertices = _need(doc, "vertices", path, dict)
    vertices: dict[int, Algebra] = {}
    for mask in range(1 << dim):
        key = str(mask)
        if key not in raw_vertices:
            raise FormatError(f"{path}.vertices.{key}", "missing vertex")
        vertices[mask] = algebra_from_doc(raw_vertices[key], f"{path}.vertices.{key}")
    raw_edges = _need(doc, "edges", path, list)
    edges: dict[tuple[int, int], Morphism] = {}
    for k, entry in enumerate(raw_edges):
        epath = f"{path}.edges[{k}]"
        mask = _need(entry, "from", epath, int)
        axis = _need(entry, "axis", epath, int)
        if not (0 <= axis < dim) or mask & (1 << axis) or not (0 <= mask < (1 << dim)):
            raise FormatError(epath, f"bad edge position ({mask}, {axis})")
        if (mask, axis) in edges:
            raise FormatError(epath, f"edge ({mask}, {axis}) is listed twice")
        edges[(mask, axis)] = _map_from_doc(vertices[mask], vertices[mask | (1 << axis)],
                                            _need(entry, "map", epath), f"{epath}.map")
    try:
        return NCube(dim, vertices, edges)
    except AlgebraError as exc:
        raise FormatError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# corpora and subobject helpers


def corpus_from_doc(doc, path: str = "$") -> tuple[Algebra, ...]:
    _check_header(doc, CORPUS_FORMAT, path)
    raw = _need(doc, "algebras", path, list)
    return tuple(algebra_from_doc(entry, f"{path}.algebras[{k}]")
                 for k, entry in enumerate(raw))


def corpus_to_doc(algebras) -> dict:
    return {
        "format": CORPUS_FORMAT,
        "version": FORMAT_VERSION,
        "algebras": [algebra_to_doc(A) for A in algebras],
    }


def subobject_to_doc(S):
    return _per_sort_to_doc(S.parent, [sorted(X) for X in S.elements])
