"""The exact message of each table, map and homomorphism check.

The shape checks, the identity checks and the homomorphism test each
try a fast row-by-row path first and fall back to the element loop
that names a failure.  Every expected string below, coordinates
included, is what the element loops alone give, so a fast path cannot
change which failure is named.  The checks are called directly, with
arguments whose meaning does not depend on the fast paths.
"""

import pytest

from semiab import (
    AlgebraError,
    corpus_by_id,
    cyclic_group,
    dihedral_group,
    morphism,
    symmetric_3,
    zring,
)
from semiab.algebra import (
    _as_map,
    _as_table,
    _check_abelian,
    _check_associative,
    _check_bilinear,
    _scan,
)


def _outcome(check, *args):
    try:
        result = check(*args)
    except AlgebraError as err:
        return str(err)
    return result if result is None or isinstance(result, str) else "ok"


def _put(table, x, y, v):
    rows = [list(row) for row in table]
    rows[x][y] = v
    return tuple(map(tuple, rows))


def _cyclic(n):
    return tuple(tuple((x + y) % n for y in range(n)) for x in range(n))


class _Index(int):
    pass


ENTRIES = [("bool", True), ("minus-one", -1), ("width", 3), ("float", 1.0), ("str", "1"),
           ("int-subclass", _Index(1))]


@pytest.mark.parametrize("label,value", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_table_entry_messages(label, value):
    expected = "ok" if label == "int-subclass" else "op entries must be indices below 3"
    assert _outcome(_as_table, _put(_cyclic(3), 1, 2, value), 3, 3, "op") == expected


@pytest.mark.parametrize("rows,expected", [
    ([[0, 1, 2], [1, 2], [2, 0, 1]], "op rows must have length 3"),
    ([[0, 1, "x"], [1, 2], [2, 0, 1]], "op entries must be indices below 3"),
    ([[0, 1], [1, 2, -1], [2, 0, 1]], "op rows must have length 3"),
    ([[0, 1, 2], [1, 2, 0]], "op must have 3 rows"),
], ids=["short-row", "bad-entry-then-short-row", "short-row-then-bad-entry", "missing-row"])
def test_table_shape_messages(rows, expected):
    assert _outcome(_as_table, rows, 3, 3, "op") == expected


@pytest.mark.parametrize("label,value", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_map_entry_messages(label, value):
    expected = "ok" if label == "int-subclass" else "map entries must be indices below 3"
    assert _outcome(_as_map, [0, value, 2], 3, 3, "map") == expected


def test_short_map_message():
    assert _outcome(_as_map, [0, 1], 3, 3, "map") == "map must have length 3"


@pytest.mark.parametrize("x,y,v,expected", [
    (1, 3, 0, "add not commutative at (3,1)"),
    (3, 1, 0, "add not commutative at (3,1)"),
    (0, 4, 2, "add not commutative at (4,0)"),
    (4, 0, 2, "add not commutative at (4,0)"),
    (2, 2, 0, None),
    (4, 3, 1, "add not commutative at (4,3)"),
])
def test_commutativity_messages(x, y, v, expected):
    assert _outcome(_check_abelian, _put(_cyclic(5), x, y, v), "add") == expected


@pytest.mark.parametrize("group,gens,x,y,v,expected", [
    ("c6", (1,), 2, 3, 4, "op not associative at (1,1,3)"),
    ("c6", (1,), 0, 5, 1, "op not associative at (0,1,4)"),
    ("c6", (1,), 5, 5, 0, "op not associative at (4,1,5)"),
    ("c6", (1,), 3, 1, 3, "op not associative at (2,1,1)"),
    ("c6", (1,), 1, 0, 0, "op not associative at (1,1,0)"),
    ("s3", (1, 2), 2, 3, 4, "op not associative at (2,1,5)"),
    ("s3", (1, 2), 4, 1, 0, "op not associative at (4,1,1)"),
    ("s3", (1, 2), 5, 5, 1, "op not associative at (4,1,5)"),
])
def test_associativity_messages(group, gens, x, y, v, expected):
    table = _cyclic(6) if group == "c6" else symmetric_3().sorts[0].binary[0]
    assert _outcome(_check_associative, _put(table, x, y, v), "op", gens) == expected


Z6 = zring(6).sorts[0]
EX = next(A for A in corpus_by_id("nonassoc-rings") if A.name == "example-2.8.3-ring").sorts[0]


def _near(n, h, left):
    """h(x)y on Z/n, distributive on the left only; with x, y swapped, on the right only."""
    return tuple(tuple((h[x] * y if left else h[y] * x) % n for y in range(n)) for x in range(n))


@pytest.mark.parametrize("ring,x,y,v,expected", [
    # one entry of the product moved, in the first and in the second argument
    ("z6", 0, 0, 1, "mul: x(y+z) != xy+xz at (0,1,0)"),
    ("z6", 1, 2, 0, "mul: x(y+z) != xy+xz at (1,1,1)"),
    ("z6", 2, 1, 0, "mul: x(y+z) != xy+xz at (2,1,1)"),
    ("z6", 5, 5, 0, "mul: x(y+z) != xy+xz at (5,1,4)"),
    ("z6", 3, 4, 1, "mul: x(y+z) != xy+xz at (3,1,3)"),
    ("z6", 4, 3, 5, "mul: x(y+z) != xy+xz at (4,1,2)"),
    ("z6", 0, 5, 2, "mul: x(y+z) != xy+xz at (0,1,4)"),
    ("z6", 5, 0, 2, "mul: x(y+z) != xy+xz at (5,1,0)"),
    ("ex", 1, 2, 0, "mul: x(y+z) != xy+xz at (1,1,2)"),
    ("ex", 2, 1, 3, "mul: x(y+z) != xy+xz at (2,1,2)"),
    ("ex", 3, 3, 1, "mul: x(y+z) != xy+xz at (3,1,2)"),
    ("ex", 0, 2, 1, "mul: x(y+z) != xy+xz at (0,1,2)"),
    ("ex", 2, 0, 1, "mul: x(y+z) != xy+xz at (2,1,0)"),
])
def test_bilinearity_messages(ring, x, y, v, expected):
    S = Z6 if ring == "z6" else EX
    add, mul = S.binary
    assert _outcome(_check_bilinear, add, _put(mul, x, y, v), "mul", S.gens) == expected


@pytest.mark.parametrize("left,expected", [
    (True, "mul: (x+y)z != xz+yz at (1,1,1)"),
    (False, "mul: x(y+z) != xy+xz at (1,1,1)"),
])
def test_one_sided_bilinearity_messages(left, expected):
    # a one-entry change always breaks x(y+z) first, so (x+y)z needs a table
    # that is additive in its second argument
    add = zring(3).sorts[0].binary[0]
    assert _outcome(_check_bilinear, add, _near(3, (0, 1, 1), left), "mul", (1,)) == expected


def test_a_bilinear_product_passes():
    for S in (Z6, EX):
        assert _outcome(_check_bilinear, *S.binary, "mul", S.gens) is None


C4, C8 = cyclic_group(4).sorts[0], cyclic_group(8).sorts[0]
Z4, D4 = zring(4).sorts[0], dihedral_group(4).sorts[0]
SCANS = [
    ("c4", C4, C4, (0, 1, 2, 1), "does not preserve an operation at (1,2)"),
    ("c4", C4, C4, (0, 3, 2, 1), None),
    ("c4", C4, C4, (0, 1, 0, 3), "does not preserve an operation at (1,1)"),
    ("c4", C4, C4, (1, 1, 2, 3), "does not send 0 to 0"),
    ("c4", C4, C4, (0, 2, 0, 2), None),
    ("c4", C4, C4, (0, 0, 0, 2), "does not preserve an operation at (1,2)"),
    ("c4-c8", C4, C8, (0, 2, 4, 6), None),
    ("c4-c8", C4, C8, (0, 2, 4, 7), "does not preserve an operation at (1,2)"),
    ("c4-c8", C4, C8, (0, 1, 2, 3), "does not preserve an operation at (1,3)"),
    ("c4-c8", C4, C8, (0, 6, 4, 2), None),
    # additive, so the second table, the product, is the one that fails
    ("z4", Z4, Z4, (0, 2, 0, 2), "does not preserve an operation at (1,1)"),
    ("z4", Z4, Z4, (0, 1, 2, 3), None),
    ("z4", Z4, Z4, (0, 3, 2, 1), "does not preserve an operation at (1,1)"),
    ("z4", Z4, Z4, (0, 1, 2, 2), "does not preserve an operation at (1,2)"),
    ("d4", D4, D4, (0, 1, 2, 3, 4, 5, 6, 7), None),
    ("d4", D4, D4, (0, 1, 2, 3, 4, 5, 7, 6), "does not preserve an operation at (1,5)"),
    ("d4", D4, D4, (0, 3, 2, 1, 4, 7, 6, 5), None),
    ("d4", D4, D4, (0, 0, 0, 0, 1, 1, 1, 1), "does not preserve an operation at (4,4)"),
]


@pytest.mark.parametrize("label,dom,cod,m,expected", SCANS,
                         ids=[f"{s[0]}-{''.join(map(str, s[3]))}" for s in SCANS])
def test_homomorphism_messages(label, dom, cod, m, expected):
    assert _scan(dom, cod, m) == expected


def test_morphism_message_names_the_pair():
    with pytest.raises(AlgebraError) as err:
        morphism(dihedral_group(4), dihedral_group(4), [0, 1, 2, 3, 4, 5, 7, 6])
    assert str(err.value) == "map does not preserve an operation at (1,5)"
