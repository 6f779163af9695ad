"""Outside-in tracing: spans around the public functions of each module.

The program is not edited.  ``install`` replaces each public function of
the traced modules with a wrapper that records a span, both where the
function is defined and in every traced namespace that bound it with
``from .x import f``.  Spans are kept in flat arrays until the run ends;
``summarise`` then turns them into per-name call counts and self time,
where a span's self time is its duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array


class Tracer:
    """In-memory span store: name, start, end and parent of every span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = []
        self.results: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, collect: bool = False):
        """``fn`` with a span named ``name`` around every call.

        With ``collect`` the distinct results (by equality) are kept
        under ``results[name]``.
        """
        nid = self.name_id(name)
        names, starts, ends, parents, stack, clock = (
            self.name, self.start, self.end, self.parent, self._open, self.clock)
        seen = self.results.setdefault(name, set()) if collect else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if seen is not None:
                seen.add(result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def summarise(self) -> dict[str, dict]:
        """{name: {"calls", "self_s"}} over every closed span."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out: dict[str, dict] = {}
        for k in range(n):
            row = out.setdefault(self.names[self.name[k]], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self.end[k] - self.start[k] - child[k]
        return out


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with ``_``.

    ``lru_cache`` wrappers count; generator functions do not, because a
    span around them would close before their work runs.
    """
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            continue
        if not callable(obj) or inspect.isgeneratorfunction(obj):
            continue
        out[attr] = obj
    return out


def install(tracer: Tracer, modules, skip=(), collect=(), methods=(),
            also_bind=()) -> dict[str, object]:
    """Wrap the public functions of ``modules`` in spans.

    ``modules`` maps a short layer name to a module; the span of
    ``f`` in layer ``L`` is named ``L.f``.  Names in ``skip`` stay
    unwrapped.  ``methods`` is a list of ``(span name, class, method
    name)`` wrapped on the class itself.  Every module in ``modules``
    that bound an original by ``from .x import f`` gets the wrapper
    too, as do the namespaces in ``also_bind`` (a package that
    re-exports).  Returns {span name: original}.
    """
    wrapped: dict[int, object] = {}
    originals: dict[str, object] = {}
    for layer, module in modules.items():
        for attr, fn in public_functions(module).items():
            span = f"{layer}.{attr}"
            if span in skip:
                continue
            wrapped[id(fn)] = tracer.wrap(span, fn, collect=span in collect)
            originals[span] = fn
    for module in (*modules.values(), *also_bind):
        for attr, obj in list(vars(module).items()):
            w = wrapped.get(id(obj))
            if w is not None:
                setattr(module, attr, w)
    for span, cls, meth in methods:
        fn = getattr(cls, meth)
        setattr(cls, meth, tracer.wrap(span, fn))
        originals[span] = fn
    return originals

