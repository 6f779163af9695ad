"""Static hygiene of the package: no unused imports, no dead definitions
or unread module-level names, no imports inside functions, no groupoid
branches outside the modules that define the kinds, no use of the
internal constructor outside `algebra`, no unchecked subobject built
outside it, one store per sweep, and no unbounded cache beyond the
known ones.

The tests read the source with ``ast`` and import nothing.  A name
counts as used when it appears as a name or an attribute anywhere
else (string annotations included), and a top-level function or class
only as a name or an import, so the check is coarse: it catches
definitions that nothing mentions at all.  Being re-exported
from ``__init__.py`` does not count as a use, and neither does a
mention in a test, except for a short list of entry points.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semiab"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names mentioned inside string annotations such as ``"Algebra | None"``."""
    out: set[str] = set()
    annotations = []
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(n.returns)
            annotations.extend(a.annotation for a in ast.walk(n.args) if isinstance(a, ast.arg))
        elif isinstance(n, ast.AnnAssign):
            annotations.append(n.annotation)
    for ann in annotations:
        for c in ast.walk(ann) if ann is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                out |= _used_names(ast.parse(c.value, mode="eval"))
    return out


def _used_names(tree: ast.AST, attributes: bool = True) -> set[str]:
    """Every name, and every attribute name unless ``attributes`` is false."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif attributes and isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _imported(tree: ast.Module) -> list[str]:
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            out += [a.asname or a.name for a in n.names]
    return out


def _has_decorator(node, name: str) -> bool:
    """Whether ``@name`` or ``@name(...)`` decorates the definition."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == name:
            return True
    return False


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods and properties of
    classes, each with whether it is top-level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, True
        if isinstance(node, ast.ClassDef):
            yield from ((m, False) for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_import_in_the_package_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the re-exports
            continue
        tree = _parse(path)
        used = _used_names(tree) | _annotation_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in used]
    assert unused == []


# Definitions that nothing in the package calls and that stay: the only
# ones a reference from the tests keeps alive.
ENTRY_POINTS = (
    ("replay_witness", "public replay of a witness file"),
    ("corpus_to_doc", "writes the semiab-corpus format"),
    ("centralize", "the paper's centralisation, kept as a construction"),
    ("nfold_factorize", "the paper's derived torsion theory on n-fold extensions"),
    ("error", "_Parser.error: argparse calls it on a usage error"),
    ("morphism", "public constructor of a checked map from per-sort arrays"),
)


def test_every_definition_in_the_package_is_referenced():
    """Another part of the package mentions every definition; a test
    mentioning it counts only for the entry points above.  A top-level
    function or class is used only through its name or an import, so
    that ``args.morphism`` is no use of ``morphism``; a method or a
    property is used through an attribute too."""
    trees = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    reexports = trees[PACKAGE / "__init__.py"]
    named = {name for name, _ in ENTRY_POINTS}
    attributes = set()
    for tree in trees.values():
        named |= _used_names(tree, attributes=False) | _annotation_names(tree)
        attributes |= _used_names(tree)
        if tree is not reexports:  # a re-export alone is not a use
            named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
    dead = []
    defined = set()
    for path, tree in trees.items():
        for node, top_level in _definitions(tree):
            name = node.name
            defined.add(name)
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(node, ast.FunctionDef) and _has_decorator(node, "check"):
                continue
            if name not in (named if top_level else named | attributes):
                dead.append(f"{path.name}: {name}")
    assert dead == []
    assert {name for name, _ in ENTRY_POINTS} <= defined


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names and attributes read (loaded), not assigned, anywhere in ``tree``."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def test_every_module_level_name_is_read():
    """A constant or alias assigned at module level is read somewhere else."""
    trees = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    tests = [_parse(path) for path in sorted((ROOT / "tests").glob("*.py"))]
    read: set[str] = set()
    for tree in [*trees.values(), *tests]:
        read |= _loaded_names(tree) | _annotation_names(tree)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{path.name}: {n.id}" for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name) and not n.id.startswith("__")
                       and n.id not in read]
    assert unread == []


def test_no_function_imports():
    """Every import sits at module level, so the import graph is the
    module graph and stays acyclic."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{n.lineno}" for n in ast.walk(fn)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_every_dataclass_field_is_read():
    """A field counts as read when it is loaded as an attribute or passed as a keyword."""
    trees = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    tests = [_parse(path) for path in sorted((ROOT / "tests").glob("*.py"))]
    read: set[str] = set()
    for tree in [*trees.values(), *tests]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.keyword) and n.arg is not None:
                read.add(n.arg)
    unread = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _has_decorator(cls, "dataclass"):
                unread += [f"{path.name}: {cls.name}.{stmt.target.id}" for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                           and stmt.target.id not in read]
    assert unread == []


def test_groupoids_are_named_only_where_kinds_are_defined():
    """Groupoids are two-sorted algebras; no other module branches on them.

    Nothing reads an ``is_gpd``; only ``algebra`` (the kinds) and
    ``serialize`` (the {g1, g0} document shape) name ``GPD_IN_GROUP``;
    only ``algebra`` and ``reflectors`` (its registry data) spell out
    the string "gpd-in-group".
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(_parse(path)):
            if isinstance(n, ast.Attribute) and n.attr == "is_gpd":
                found.append(f"{path.name}: is_gpd")
            elif (isinstance(n, ast.Name) and n.id == "GPD_IN_GROUP"
                    or isinstance(n, ast.alias) and n.name == "GPD_IN_GROUP"):
                if path.name not in ("algebra.py", "serialize.py"):
                    found.append(f"{path.name}: GPD_IN_GROUP")
            elif isinstance(n, ast.Constant) and n.value == "gpd-in-group":
                if path.name not in ("algebra.py", "reflectors.py"):
                    found.append(f"{path.name}: 'gpd-in-group'")
    assert found == []


def test_only_algebra_names_the_internal_constructor():
    """``algebra._algebra`` builds and checks every algebra; other modules
    reach it through the public constructors or the derived constructions,
    never to re-check tables they only mean to read."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for n in ast.walk(_parse(path)):
            if (isinstance(n, ast.Name) and n.id == "_algebra"
                    or isinstance(n, ast.alias) and n.name == "_algebra"
                    or isinstance(n, ast.Attribute) and n.attr == "_algebra"):
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


def test_only_algebra_builds_a_subobject_unchecked():
    """Only ``algebra.py`` skips the checks of a sort, an algebra or a
    subobject: ``_sort``, ``_renamed_sort``, ``_renamed`` and the derived
    branch of ``_algebra`` for what was checked or derived from checked
    algebras, and ``_derived_subobject`` for what a construction made.
    Other modules never call ``_unchecked(Sort | Algebra | Subobject,
    ...)`` themselves; ``_unchecked(Morphism, ...)`` binds known arrays
    to equal algebras in ``homs`` and ``reflectors`` and builds the maps
    that the constructions of ``ops`` make."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for n in ast.walk(_parse(path)):
            if (isinstance(n, ast.Call) and n.args
                    and (n.func.id if isinstance(n.func, ast.Name)
                         else getattr(n.func, "attr", None)) == "_unchecked"
                    and isinstance(n.args[0], ast.Name)
                    and n.args[0].id in ("Sort", "Algebra", "Subobject")):
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


def test_one_group_generating_set_per_sort():
    """``_check_sort`` alone takes the generating set of a group table
    (``_generators`` of a one-table tuple); the identity checks and the
    homomorphism test share the one it stores on the sort."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for n in ast.walk(fn):
                    owner.setdefault(n, fn.name)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call) or not n.args:
                continue
            name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            first = n.args[0]
            if name == "_generators" and isinstance(first, ast.Tuple) and len(first.elts) == 1:
                calls.append(f"{path.name}:{owner.get(n)}")
    assert calls == ["algebra.py:_check_sort"]


def test_one_store_opened_by_the_sweep():
    """``verify_all`` and ``verify_suite`` alone open the store of a call
    (``algebra._store``), and only the constructions it holds read it
    (``_stored``); ``_STORE`` is read by these two alone, so no second
    store or module cache grows beside it."""
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for n in ast.walk(fn):
                    owner.setdefault(n, fn.name)
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if name in ("_store", "_stored", "_STORE") and isinstance(n, (ast.Name, ast.Attribute)):
                uses.append(f"{name} in {path.name}:{owner.get(n, '<module>')}")
    assert sorted(uses) == [
        "_STORE in algebra.py:<module>",
        "_STORE in algebra.py:_store",
        "_STORE in algebra.py:_store",
        "_STORE in algebra.py:_store",
        "_STORE in algebra.py:_stored",
        "_store in verification.py:verify_all",
        "_store in verification.py:verify_suite",
        "_stored in algebra.py:sub_algebra",
        "_stored in birkhoff.py:__post_init__",
        "_stored in birkhoff.py:__post_init__",
        "_stored in birkhoff.py:radical_n",
        "_stored in ops.py:_pairs_algebra",
    ]


def _unbounded_caches(tree: ast.Module) -> list[ast.AST]:
    """``lru_cache`` calls with maxsize None, wherever they are, and
    ``cache`` (plain or ``functools.cache``) used as a decorator."""
    out = [dec for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
           for dec in fn.decorator_list
           if (dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)) == "cache"]
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
        sizes = n.args[:1] + [k.value for k in n.keywords if k.arg == "maxsize"]
        if name == "lru_cache" and any(isinstance(v, ast.Constant) and v.value is None
                                       for v in sizes):
            out.append(n)
    return out


def test_the_unbounded_caches_are_the_known_ones():
    """Every cache that lives as long as the process: by module and the
    function it decorates, or by line.

    None of them can be cleared, so a new one has to be added here on
    purpose; bounding them is an open ROADMAP item, which shortens the
    list.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = {id(dec): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in fn.decorator_list}
        found += [f"{path.name}:{owner.get(id(n), n.lineno)}" for n in _unbounded_caches(tree)]
    assert sorted(found) == [
        "corpus.py:_built",
        "homs.py:_element_orders",
        "homs.py:_generation_plan",
        "homs.py:_homs",
        "homs.py:_surjections",
        "reflectors.py:_reflect",
    ]
