"""JSON round trips and format diagnostics."""

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from semiab import (
    FormatError,
    NCube,
    algebra_from_doc,
    algebra_to_doc,
    corpus_from_doc,
    corpus_to_doc,
    cube_between,
    cube_from_doc,
    cube_of_morphism,
    cube_to_doc,
    cyclic_group,
    dihedral_group,
    gpd_indiscrete,
    identity_morphism,
    morphism,
    morphism_from_doc,
    morphism_to_doc,
    named_algebra,
    quaternion_8,
    split_witness_ring,
    square,
    subobject,
    symmetric_3,
    zmod_cyclic,
    zmod_free,
    zring,
)
from semiab.serialize import _json_text, subobject_to_doc, variety_from_doc, variety_to_doc


SAMPLES = [
    cyclic_group(1),
    cyclic_group(6),
    dihedral_group(4),
    quaternion_8(),
    zring(4),
    split_witness_ring(),
    zmod_cyclic(8, 4),
    gpd_indiscrete(cyclic_group(2)),
]


@pytest.mark.parametrize("A", SAMPLES, ids=lambda a: a.name or a.kind)
def test_algebra_round_trip(A):
    doc = algebra_to_doc(A)
    assert doc["format"] == "semiab-algebra" and doc["version"] == 1
    back = algebra_from_doc(json.loads(json.dumps(doc)))
    assert back == A


def test_variety_round_trip():
    for A in SAMPLES:
        assert variety_from_doc(variety_to_doc(A.variety), "$") == A.variety


def test_morphism_round_trip_inline():
    c8, c2 = cyclic_group(8), cyclic_group(2)
    f = morphism(c8, c2, [x % 2 for x in range(8)])
    doc = morphism_to_doc(f)
    assert doc["format"] == "semiab-morphism"
    assert morphism_from_doc(json.loads(json.dumps(doc))) == f


def test_morphism_round_trip_named_endpoints():
    # endpoints are always inline documents; a bare name is not one
    c4 = named_algebra("c4")
    doc = morphism_to_doc(identity_morphism(c4))
    assert doc["dom"] == algebra_to_doc(c4)
    doc["dom"] = c4.name
    with pytest.raises(FormatError) as err:
        morphism_from_doc(doc)
    assert err.value.path == "$.dom"


def test_gpd_morphism_round_trip():
    G = gpd_indiscrete(cyclic_group(2))
    f = identity_morphism(G)
    doc = morphism_to_doc(f)
    assert morphism_from_doc(doc) == f


def test_cube_round_trip():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f = morphism(c4, c2, [x % 2 for x in range(4)])
    sq = square(f, f, identity_morphism(c2), identity_morphism(c2))
    doc = cube_to_doc(sq)
    assert doc["format"] == "semiab-cube" and doc["dim"] == 2
    back = cube_from_doc(json.loads(json.dumps(doc)))
    assert back.dim == 2
    assert back.edge(0, 0) == f
    assert back.vertex(3) == c2


def test_corpus_round_trip():
    algebras = (cyclic_group(3), zring(2))
    doc = corpus_to_doc(algebras)
    assert doc["format"] == "semiab-corpus"
    back = corpus_from_doc(json.loads(json.dumps(doc)))
    assert tuple(back) == algebras


def test_subobject_doc_is_sorted_elements():
    d4 = dihedral_group(4)
    s = subobject(d4, {0, 2})
    assert subobject_to_doc(s) == [0, 2]


def test_format_errors_carry_paths():
    with pytest.raises(FormatError) as exc:
        algebra_from_doc({"format": "semiab-algebra", "version": 1})
    assert "$" in str(exc.value)

    good = algebra_to_doc(cyclic_group(4))
    bad = json.loads(json.dumps(good))
    bad["tables"]["op"] = [[0, 1], [1, 0]]
    with pytest.raises(FormatError) as exc:
        algebra_from_doc(bad)
    assert "tables" in str(exc.value)

    with pytest.raises(FormatError):
        algebra_from_doc({"format": "wrong", "version": 1})
    with pytest.raises(FormatError):
        algebra_from_doc(dict(good, version=99))
    with pytest.raises(FormatError):
        algebra_from_doc([])


def test_format_error_str_shape():
    e = FormatError("$.op", "not a table")
    assert str(e) == "$.op: not a table"
    assert e.path == "$.op"


def test_invalid_table_reported_as_format_error():
    doc = json.loads(json.dumps(algebra_to_doc(cyclic_group(4))))
    doc["tables"]["op"] = [[0, 0, 0, 0]] * 4  # not a group table
    with pytest.raises(FormatError):
        algebra_from_doc(doc)


def test_morphism_doc_with_mismatched_map_length():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f = morphism(c4, c2, [x % 2 for x in range(4)])
    doc = morphism_to_doc(f)
    doc["map"] = [0, 1]
    with pytest.raises(FormatError):
        morphism_from_doc(doc)


def _with_field(doc, keys, value):
    """A copy of ``doc`` with the field at the key path set to ``value``."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


_ONE_CUBE = cube_to_doc(cube_of_morphism(identity_morphism(zring(1))))


@pytest.mark.parametrize("load, doc, keys, value, path", [
    (algebra_from_doc, algebra_to_doc(zring(1)), ["version"], True, "$.version"),
    (algebra_from_doc, algebra_to_doc(zring(1)), ["order"], True, "$.order"),
    (algebra_from_doc, algebra_to_doc(zmod_free(1, 0)), ["variety", "modulus"], True,
     "$.variety.modulus"),
    (cube_from_doc, _ONE_CUBE, ["dim"], True, "$.dim"),
    (cube_from_doc, _ONE_CUBE, ["edges", 0, "from"], False, "$.edges[0].from"),
    (cube_from_doc, _ONE_CUBE, ["edges", 0, "axis"], False, "$.edges[0].axis"),
], ids=["version", "order", "modulus", "dim", "from", "axis"])
def test_booleans_are_not_integers(load, doc, keys, value, path):
    with pytest.raises(FormatError) as exc:
        load(_with_field(doc, keys, value))
    assert exc.value.path == path


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_cyclic_round_trip_any_order(n):
    A = cyclic_group(n)
    assert algebra_from_doc(algebra_to_doc(A)) == A


_EMPTY_TABLES = {
    "group": ("group", {"op": [], "inv": []}),
    "ring": ("comm-ring", {"add": [], "mul": []}),
    "module": ({"kind": "zmod-module", "modulus": 4}, {"add": [], "act": [[], [], [], []]}),
}


def _empty_algebra_doc(which: str) -> dict:
    variety, tables = _EMPTY_TABLES[which]
    return {"format": "semiab-algebra", "version": 1, "variety": variety,
            "order": 0, "tables": tables}


@pytest.mark.parametrize("which", sorted(_EMPTY_TABLES))
def test_empty_carrier_is_rejected(which):
    with pytest.raises(FormatError) as exc:
        algebra_from_doc(_empty_algebra_doc(which))
    assert exc.value.path == "$.tables"


def _doubled(c):
    """c glued to itself along identities: one dimension up."""
    return cube_between(c, c, {m: identity_morphism(V) for m, V in c.vertices.items()})


def test_only_cubes_the_reader_accepts_are_written():
    """0-cubes exist in the library only, and the format stops at 3."""
    c2 = cyclic_group(2)
    point = NCube(0, {0: c2}, {})
    four = _doubled(_doubled(_doubled(_doubled(point))))
    assert four.dim == 4
    for cube in (point, four):
        with pytest.raises(FormatError) as exc:
            cube_to_doc(cube)
        assert exc.value.path == "$.dim"
    three = _doubled(_doubled(_doubled(point)))
    assert cube_from_doc(json.loads(json.dumps(cube_to_doc(three)))).dim == 3


def test_cube_edge_listed_twice_is_rejected():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f = morphism(c4, c2, [x % 2 for x in range(4)])
    doc = cube_to_doc(square(f, f, identity_morphism(c2), identity_morphism(c2)))
    real = next(k for k, e in enumerate(doc["edges"]) if (e["from"], e["axis"]) == (0, 0))
    doc["edges"].insert(0, {"from": 0, "axis": 0, "map": [0, 0, 0, 0]})
    with pytest.raises(FormatError) as exc:
        cube_from_doc(doc)
    assert exc.value.path == f"$.edges[{real + 1}]"


_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2**100, max_value=2**100) | st.floats() | st.text())
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(st.integers()) | st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers() | st.booleans() | st.text(), inner)),
    max_leaves=40)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


def test_json_text_of_escapes_and_nested_int_tables():
    value = {"tab\t\"q\"\\": ["ü\n∘", [], {}, (), [[0, -1, 2**70], [True, 3]], [None, 1.5]],
             "": {"k": [[1, 2], [3, 4]]}, "empty": ""}
    doc = algebra_to_doc(gpd_indiscrete(symmetric_3()))
    for v in (value, doc):
        assert _json_text(v) == json.dumps(v, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("entry", [True, 1.0, "1", [1]], ids=["bool", "float", "string", "list"])
@pytest.mark.parametrize("keys, path", [
    (["tables", "op", 1, 2], "$.tables.op[1]"),
    (["tables", "inv", 2], "$.tables.inv"),
], ids=["table-row", "array"])
def test_a_non_integer_array_entry_is_named_with_its_path(entry, keys, path):
    doc = _with_field(algebra_to_doc(cyclic_group(3)), keys, entry)
    with pytest.raises(FormatError) as exc:
        algebra_from_doc(doc)
    assert str(exc.value) == f"{path}: expected an array of integers"


class _Label(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def test_int_subclass_entries_are_integers():
    doc = algebra_to_doc(cyclic_group(3))
    doc["tables"]["op"][1] = [_Label.ONE, _Label.TWO, _Label.ZERO]
    doc["tables"]["inv"] = [_Label.ZERO, _Label.TWO, _Label.ONE]
    assert algebra_from_doc(doc) == cyclic_group(3)
    f = morphism(cyclic_group(3), cyclic_group(3), [0, 1, 2])
    assert morphism_from_doc(dict(morphism_to_doc(f), map=list(_Label))) == f
