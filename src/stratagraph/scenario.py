"""Scenario file loading, validation and serialization.

Scenario files are UTF-8 JSON; see docs/scenario.schema.json for the formal
schema. load_scenario checks syntax and shape only. The field tables _GRANT,
_OBJECT, _RELATIONSHIP, _ATTACK and _DEFENSE are the one statement of each
record's keys, types and defaults, and of the order its checks run; one loop
reads every record by its table. Semantic rules (dangling references,
duplicate ids, taxonomy membership, numeric ranges) live in
validate_scenario, which reports violations as data instead of raising.
A doc that parse_scenario made keeps its report, so every later
validation of the same doc object, such as require_valid's in
build_base_graph, costs one lookup.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from . import canon
from .model import (
    CATEGORIES,
    LAYERS,
    VERTICAL_KINDS,
    AttackRecord,
    DefenseRecord,
    Grant,
    InvalidScenarioError,
    ObjectRecord,
    ParseError,
    RelationshipEdge,
    ScenarioDoc,
    Violation,
    normalize_permission,
    permission_problems,
)

SCHEMA_VERSION = 1
# Every chain and plan total sums a subset of the attack costs, the attack
# severities or the defense costs, all non-negative. Keeping each whole sum
# below half the largest float leaves room for rounding in any summation
# order, so no total can overflow to infinity.
TOTAL_LIMIT = sys.float_info.max / 2


# --- parsing -----------------------------------------------------------------
#
# A field table lists (key, check, default) in the order the checks run. A
# check is a type the value must have, or a converter that checks the value
# and returns what the record holds. A default is what a record holds when
# its key is missing; _REQUIRED marks a key without one.
#
# An error names its place relative to the value being checked: "" for the
# value itself, ".key" or "[i]" below it, then ": " and the fault. Each
# caller puts the value's own place in front (_within), so a place is
# formatted only when a check fails.

_REQUIRED = object()
_MISSING = object()


def _mismatch(place: str, kind: type, value) -> ParseError:
    return ParseError(f"{place}: expected {kind.__name__}, got {type(value).__name__}")


def _within(place: str, exc: Exception) -> Exception:
    """exc again, of the same type, with place put in front of the place its message names."""
    return type(exc)(f"{place}{exc}")


def _number(value) -> float:
    if type(value) is float:  # as json.loads reads every number with a point or exponent
        return value
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f": expected number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        # Caught in parse_scenario, which names the file.
        raise OverflowError(": integer too large for a float") from None


def _grants(value) -> tuple[Grant, ...]:
    if not isinstance(value, list):
        raise _mismatch("", list, value)
    grants = []
    for i, raw in enumerate(value):
        try:
            (obj, perm), extra = _fields(raw, _GRANT)
            if extra:
                raise ParseError(f": unexpected keys {extra}")
        except ParseError as exc:
            raise _within(f"[{i}]", exc) from None
        grants.append(Grant(obj, normalize_permission(perm)))
    return tuple(grants)


def _sorted_grants(value) -> tuple[Grant, ...]:
    return tuple(sorted(_grants(value)))


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise _mismatch("", list, value)
    for i, s in enumerate(value):
        if not isinstance(s, str):
            raise _mismatch(f"[{i}]", str, s)
    return tuple(value)


_GRANT = (("object", str, _REQUIRED), ("permission", str, _REQUIRED))
_OBJECT = (("id", str, _REQUIRED), ("layer", str, _REQUIRED), ("category", str, _REQUIRED), ("label", str, ""))
_RELATIONSHIP = (("from", str, _REQUIRED), ("to", str, _REQUIRED), ("kind", str, _REQUIRED), ("directed", bool, False))
_ATTACK = (
    ("id", str, _REQUIRED),
    ("object", str, _REQUIRED),
    ("condition", _sorted_grants, ()),
    ("method", str, ""),
    ("a_results", _grants, _REQUIRED),
    ("cost", _number, 1.0),
    ("severity", _number, 1.0),
    ("detect_prob", _number, 1.0),
    ("entry_only", bool, False),
)
# d_results is checked first, so an empty {} defense reports it missing.
_DEFENSE = (
    ("d_results", _strings, _REQUIRED),
    ("id", str, _REQUIRED),
    ("cost", _number, _REQUIRED),
    ("method", str, ""),
)
_SECTIONS = frozenset(("objects", "relationships", "attacks", "defenses", "entry_grants", "targets", "extensions"))


def _fields(raw, fields) -> tuple[list, list]:
    """raw's values in table order, and the keys the table lacks, sorted."""
    if not isinstance(raw, dict):
        raise _mismatch("", dict, raw)
    values = []
    found = 0
    for key, check, default in fields:
        value = raw.get(key, _MISSING)
        if value is _MISSING:
            if default is _REQUIRED:
                raise ParseError(f": missing required key {key!r}")
            values.append(default)
            continue
        found += 1
        if type(check) is not type:
            try:
                value = check(value)
            except (ParseError, OverflowError) as exc:
                raise _within(f".{key}", exc) from None
        elif not isinstance(value, check):
            raise _mismatch(f".{key}", check, value)
        values.append(value)
    if len(raw) == found:
        return values, []
    return values, sorted(raw.keys() - {key for key, _, _ in fields})


def _section(data: dict, section: str, check):
    """check's value of one top-level section, an empty list when it is missing."""
    try:
        return check(data.get(section, []))
    except ParseError as exc:
        raise _within(section, exc) from None


def _records(data: dict, section: str, fields, make, unknown: list[str]) -> tuple:
    """The records of one section, built by make from their values; unknown gains their extra keys."""
    raws = data.get(section, [])
    if not isinstance(raws, list):
        raise _mismatch(section, list, raws)
    records = []
    for i, raw in enumerate(raws):
        try:
            values, extra = _fields(raw, fields)
        except (ParseError, OverflowError) as exc:
            raise _within(f"{section}[{i}]", exc) from None
        if extra:
            unknown += [f"{section}[{i}].{key}" for key in extra]
        records.append(make(*values))
    return tuple(records)


def parse_scenario(text: str, source: str = "<string>") -> ScenarioDoc:
    """Parse scenario JSON text into a ScenarioDoc. Syntax/shape checks only; every error names source."""
    if not text.strip():
        raise ParseError(f"{source}: file is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise ParseError(f"{source}: {exc}") from exc
    if not isinstance(data, dict):
        raise _mismatch(source, dict, data)
    try:
        doc = _parse_document(data)
    except (ParseError, OverflowError) as exc:
        raise ParseError(f"{source}: {exc}") from exc
    vars(doc)["_report"] = None  # a parsed doc, which keeps its report once validated
    return doc


def _parse_document(data: dict) -> ScenarioDoc:
    # Arguments run in the order written: sections are read, and their
    # unknown keys listed, in this order.
    unknown: list[str] = []
    return ScenarioDoc(
        objects=_records(data, "objects", _OBJECT, ObjectRecord, unknown),
        relationships=_records(data, "relationships", _RELATIONSHIP, RelationshipEdge, unknown),
        attacks=_records(data, "attacks", _ATTACK, AttackRecord, unknown),
        defenses=_records(
            data, "defenses", _DEFENSE, lambda d_results, *rest: DefenseRecord(*rest, d_results), unknown
        ),
        entry_grants=_section(data, "entry_grants", _sorted_grants),
        targets=tuple(sorted(_section(data, "targets", _strings))),
        extensions=_section(data, "extensions", _strings),
        unknown_keys=(*unknown, *sorted(data.keys() - _SECTIONS)),
    )


def load_scenario(path: str | Path) -> ScenarioDoc:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_scenario(text, source=str(path))


# --- serialization -----------------------------------------------------------

def scenario_to_dict(doc: ScenarioDoc) -> dict:
    """The scenario as data for canon.dumps. Grants stay Grants, which json.dumps would write as lists."""
    def attack(a: AttackRecord) -> dict:
        out = {
            "id": a.id,
            "object": a.object,
            "condition": list(a.condition),
            "method": a.method,
            "a_results": list(a.a_results),
            "cost": a.cost,
            "severity": a.severity,
            "detect_prob": a.detect_prob,
        }
        if a.entry_only:
            out["entry_only"] = True
        return out

    return {
        "objects": [{"id": o.id, "layer": o.layer, "category": o.category, "label": o.label} for o in doc.objects],
        "relationships": [r.as_dict() for r in doc.relationships],
        "attacks": [attack(a) for a in doc.attacks],
        "defenses": [
            {"id": d.id, "cost": d.cost, "method": d.method, "d_results": list(d.d_results)} for d in doc.defenses
        ],
        "entry_grants": list(doc.entry_grants),
        "targets": list(doc.targets),
        "extensions": list(doc.extensions),
    }


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Render a scenario back to canonical JSON text (unknown keys dropped)."""
    return canon.dumps(scenario_to_dict(doc)) + "\n"


# --- validation --------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


class _TokenProblems(dict):
    """Permission token -> permission_problems(token), each token checked on its first lookup only."""

    def __missing__(self, token):
        self[token] = problem = permission_problems(token)
        return problem


def _check_number(problems, record_class: str, record_id: str, name: str, value: float, upper: float | None = None):
    """Report a NaN or infinite value, else one below 0 (or outside [0, upper])."""
    if not math.isfinite(value):
        problems.append(Violation("error", record_class, record_id, f"{name} {value} is not a finite number"))
    elif upper is not None and not 0.0 <= value <= upper:
        problems.append(Violation("error", record_class, record_id, f"{name} {value} outside [0, {upper:g}]"))
    elif value < 0:
        problems.append(Violation("error", record_class, record_id, f"{name} {value} is negative"))


def _check_total(problems, record_id: str, what: str, values) -> None:
    """Report a scenario whose finite values sum (exactly) to TOTAL_LIMIT or more."""
    try:
        total = math.fsum(filter(math.isfinite, values))
    except OverflowError:
        total = math.inf  # the exact sum is beyond the largest float
    if total >= TOTAL_LIMIT:
        shown = f"{total:.6g}" if math.isfinite(total) else "more than the largest float"
        problems.append(
            Violation(
                "error",
                "scenario",
                record_id,
                f"{what} sum to {shown}; they must stay below {TOTAL_LIMIT:.6g}, half the largest float,"
                " so that no chain or plan total overflows",
            )
        )


def validate_scenario(doc: ScenarioDoc) -> tuple[Violation, ...]:
    """Return every invariant violation, sorted by (record class, id).

    An empty report means the scenario is fully valid. Entries with severity
    "warning" flag suspicious-but-legal constructs (unknown file keys, attack
    edges with no underlying relationship) and do not make the scenario
    invalid.

    A doc that parse_scenario made keeps its report (see ScenarioDoc): a
    second call on the same doc object, such as require_valid's in
    build_base_graph, returns the same tuple without checking again. Any
    other doc, built by hand or by _replace, is checked on every call.
    """
    report = vars(doc).get("_report")
    if report is None:
        report = _violations(doc)
        if "_report" in vars(doc):
            vars(doc)["_report"] = report
    return report


def _violations(doc: ScenarioDoc) -> tuple[Violation, ...]:
    # Each check is a plain test that passes on a valid record; a Violation
    # and its message are made only when it fails. The report is sorted on
    # every field, so the order in which violations are found is free.
    out: list[Violation] = []
    layer_of = {o.id: o.layer for o in doc.objects}
    ids = layer_of.keys()
    categories = frozenset(CATEGORIES + doc.extensions)
    token_problems = _TokenProblems()

    seen: set[str] = set()
    for o in doc.objects:
        if not o.id or o.id != o.id.strip():
            out.append(Violation("error", "object", o.id, f"object id {o.id!r} is empty or padded"))
        if o.id in seen:
            out.append(Violation("error", "object", o.id, f"duplicate object id {o.id!r}"))
        seen.add(o.id)
        if o.layer not in LAYERS:
            out.append(Violation("error", "object", o.id, f"unknown layer {o.layer!r} (expected one of {LAYERS})"))
        if o.category not in categories:
            out.append(Violation("error", "object", o.id, f"unknown category {o.category!r}"))

    # Both orientations of every relationship: a pair is in it exactly when
    # some relationship joins the two objects, directed or not.
    linked = set()
    for i, r in enumerate(doc.relationships):
        linked.add((r.from_id, r.to_id))
        linked.add((r.to_id, r.from_id))
        if r.from_id not in ids or r.to_id not in ids:
            for x in (r.from_id, r.to_id):
                if x not in ids:
                    message = f"endpoint {x!r} does not exist"
                    out.append(Violation("error", "relationship", f"relationships[{i}]", message))
        elif layer_of[r.from_id] != layer_of[r.to_id] and r.kind not in VERTICAL_KINDS:
            out.append(
                Violation(
                    "error",
                    "relationship",
                    f"relationships[{i}]",
                    f"vertical edge {r.from_id}->{r.to_id} has kind {r.kind!r}, expected one of {VERTICAL_KINDS}",
                )
            )

    attack_ids: set[str] = set()
    for a in doc.attacks:
        if a.id in attack_ids:
            out.append(Violation("error", "attack", a.id, f"duplicate attack id {a.id!r}"))
        attack_ids.add(a.id)
        attacked = a.object in ids
        if not attacked:
            out.append(Violation("error", "attack", a.id, f"attacked object {a.object!r} does not exist"))
        if not a.a_results:
            out.append(Violation("error", "attack", a.id, "a_results is empty"))
        for g in a.a_results:
            if g.object not in ids:
                out.append(Violation("error", "attack", a.id, f"a_result object {g.object!r} does not exist"))
            # Warn when an attack edge jumps between objects no relationship
            # connects; self-loop effects are always plausible.
            elif attacked and g.object != a.object and (a.object, g.object) not in linked:
                out.append(
                    Violation(
                        "warning",
                        "attack",
                        a.id,
                        f"edge {a.object}->{g.object} has no relationship counterpart in the base graph",
                    )
                )
            if problem := token_problems[g.permission]:
                out.append(Violation("error", "attack", a.id, f"a_result on {g.object!r}: {problem}"))
        for g in a.condition:
            if g.object not in ids:
                out.append(Violation("error", "attack", a.id, f"condition object {g.object!r} does not exist"))
            if problem := token_problems[g.permission]:
                out.append(Violation("error", "attack", a.id, f"condition on {g.object!r}: {problem}"))
        if not 0.0 <= a.cost <= _FLOAT_MAX:
            _check_number(out, "attack", a.id, "cost", a.cost)
        if not 0.0 <= a.severity <= _FLOAT_MAX:
            _check_number(out, "attack", a.id, "severity", a.severity)
        if not 0.0 <= a.detect_prob <= 1.0:
            _check_number(out, "attack", a.id, "detect_prob", a.detect_prob, upper=1.0)

    seen = set()
    for d in doc.defenses:
        if d.id in seen:
            out.append(Violation("error", "defense", d.id, f"duplicate defense id {d.id!r}"))
        seen.add(d.id)
        if not d.d_results:
            out.append(Violation("error", "defense", d.id, "d_results is empty"))
        for aid in d.d_results:
            if aid not in attack_ids:
                out.append(Violation("error", "defense", d.id, f"d_result attack {aid!r} does not exist"))
        if not 0.0 <= d.cost <= _FLOAT_MAX:
            _check_number(out, "defense", d.id, "cost", d.cost)

    _check_total(out, "attacks", "attack costs", (a.cost for a in doc.attacks))
    _check_total(out, "attacks", "attack severities", (a.severity for a in doc.attacks))
    _check_total(out, "defenses", "defense costs", (d.cost for d in doc.defenses))

    for g in doc.entry_grants:
        if g.object not in ids:
            out.append(Violation("error", "scenario", "entry_grants", f"entry grant object {g.object!r} does not exist"))
        if problem := token_problems[g.permission]:
            message = f"entry grant on {g.object!r}: {problem}"
            out.append(Violation("error", "scenario", "entry_grants", message))
    for t in doc.targets:
        if t not in ids:
            out.append(Violation("error", "scenario", "targets", f"target {t!r} does not exist"))
    for key in doc.unknown_keys:
        out.append(Violation("warning", "scenario", "unknown_keys", f"unknown key {key!r} ignored"))

    return tuple(sorted(out, key=Violation.sort_key))


def require_valid(doc: ScenarioDoc) -> None:
    """Raise InvalidScenarioError when the doc has error-severity violations."""
    errors = [v for v in validate_scenario(doc) if v.severity == "error"]
    if errors:
        raise InvalidScenarioError(errors)
