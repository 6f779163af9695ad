"""Sweep reports: verdict, witnesses, sample counts, and the checks behind them.

A pass never claims more than the sweep saw; summaries always state the
instance count, and a failing report carries replayable witnesses.
Every witness names a registered check, whose one predicate serves both
the sweep that finds the instance and the replay of its document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .algebra import AlgebraError
from .ops import ExactSequence
from .reflectors import ReflectorError, reflector_by_id
from .serialize import (
    FormatError,
    _need,
    algebra_from_doc,
    algebra_to_doc,
    cube_from_doc,
    cube_to_doc,
    morphism_from_doc,
    morphism_to_doc,
)

CORPUS_NOTE = "corpus-restricted verdict"


@dataclass
class Report:
    suite: str
    verdict: str  # "pass" | "fail"
    witnesses: list[dict] = field(default_factory=list)
    sample: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fail" and not self.witnesses:
            raise ValueError("a failing report needs at least one witness")

    @classmethod
    def scan(cls, suite: str, witnesses: list[dict], sample: dict[str, int]) -> "Report":
        """A corpus scan's report: it fails exactly when it found witnesses."""
        return cls(suite, "fail" if witnesses else "pass", witnesses, sample, [CORPUS_NOTE])

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def instances(self) -> int:
        return sum(self.sample.values())

    def summary(self) -> str:
        breakdown = ", ".join(f"{v} {k}" for k, v in sorted(self.sample.items()))
        if self.passed:
            head = f"{self.suite}: pass - no counterexample in {self.instances} instances"
        else:
            head = f"{self.suite}: fail - {len(self.witnesses)} witness(es)"
        return f"{head} ({breakdown})" if breakdown else head

    def to_doc(self) -> dict:
        return {
            "format": "semiab-report",
            "version": 1,
            "suite": self.suite,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "sampleSize": dict(self.sample),
            "notes": list(self.notes),
        }


def merge_reports(suite: str, parts: list[Report]) -> Report:
    """Combine per-configuration reports into one suite report."""
    witnesses = [w for p in parts for w in p.witnesses]
    sample: dict[str, int] = {}
    notes: list[str] = []
    for p in parts:
        for k, v in p.sample.items():
            sample[k] = sample.get(k, 0) + v
        for n in p.notes:
            if n not in notes:
                notes.append(n)
    verdict = "pass" if all(p.passed for p in parts) else "fail"
    return Report(suite, verdict, witnesses, sample, notes)


# ---------------------------------------------------------------------------
# checks


_DOCS = {
    "algebra": (algebra_to_doc, algebra_from_doc),
    "morphism": (morphism_to_doc, morphism_from_doc),
    "cube": (cube_to_doc, cube_from_doc),
}


def _write_field(doc: dict, key, kind, value) -> None:
    if kind == "sequence":
        doc["kernel"] = morphism_to_doc(value.k)
        doc["epi"] = morphism_to_doc(value.f)
        if value.splitting is not None:
            doc["section"] = morphism_to_doc(value.splitting)
    elif kind == "reflector":
        doc[key] = value.name
    elif kind in _DOCS:
        doc[key] = _DOCS[kind][0](value)
    else:
        doc[key] = value


def _read_field(doc: dict, key, kind):
    if kind == "sequence":
        k = morphism_from_doc(_need(doc, "kernel", "$"), "$.kernel")
        f = morphism_from_doc(_need(doc, "epi", "$"), "$.epi")
        s = morphism_from_doc(doc["section"], "$.section") if "section" in doc else None
        try:
            return ExactSequence(k, f, s)
        except AlgebraError as exc:
            raise FormatError("$", str(exc)) from None
    path = f"$.{key}"
    if kind in _DOCS:
        return _DOCS[kind][1](_need(doc, key, "$"), path)
    value = _need(doc, key, "$", str)
    if kind == "reflector":
        try:
            return reflector_by_id(value)
        except ReflectorError as exc:
            raise FormatError(path, str(exc)) from None
    if value not in kind:
        raise FormatError(path, f"expected one of {', '.join(kind)}")
    return value


@dataclass(frozen=True)
class Check:
    """A named check: the witness fields it reads and its one predicate.

    ``fields`` pairs each witness key with its kind: "reflector" (an id),
    "algebra", "morphism", "cube", "sequence" (the keys ``kernel``,
    ``epi`` and an optional ``section``; its own key is None) or a tuple
    of allowed labels.  Calling the check runs ``predicate`` on values
    in field order; True means the check is violated.  The ``certify``
    hook, if any, takes the reflector and a tuple of algebras and raises
    when they are outside the theory: a suite runs it on its corpus, a
    replay on the witness's own algebras (its epi's ends, or its algebra).
    """

    name: str
    fields: tuple
    predicate: Callable[..., bool]
    certify: Callable[..., object] | None = None

    def __call__(self, *values) -> bool:
        return self.predicate(*values)

    def witness(self, *values, extra: dict | None = None) -> dict:
        """The witness document of a violated instance."""
        doc = {"check": self.name}
        for (key, kind), value in zip(self.fields, values):
            _write_field(doc, key, kind, value)
        doc.update(extra or {})
        return doc

    def violations(self, instances) -> list[dict]:
        """The witnesses of the violated ones among ``instances`` (value tuples)."""
        return [self.witness(*values) for values in instances if self(*values)]

    def replay(self, doc: dict) -> bool:
        """Parse the declared fields of ``doc``, certify and run the predicate."""
        values = [_read_field(doc, key, kind) for key, kind in self.fields]
        if self.certify is not None:
            named = {key: value for (key, _), value in zip(self.fields, values)}
            f = named.get("epi")
            self.certify(named["reflector"], (named["algebra"],) if f is None else (f.dom, f.cod))
        return self(*values)


CHECKS: dict[str, Check] = {}


def check(name: str, *fields, certify=None):
    """Register the decorated predicate as the check ``name``."""
    def register(predicate) -> Check:
        entry = CHECKS[name] = Check(name, fields, predicate, certify)
        return entry
    return register
