"""Scenario file loading, validation and serialization.

Scenario files are UTF-8 JSON; see docs/scenario.schema.json for the formal
schema. load_scenario checks syntax and shape only. The field tables _GRANT,
_OBJECT, _RELATIONSHIP, _ATTACK and _DEFENSE are the one statement of each
record's keys, types and defaults, and of the order its checks run; one loop
reads every record by its table. Semantic rules (dangling references,
duplicate ids, taxonomy membership, numeric ranges) live in
validate_scenario, which reports violations as data instead of raising.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from . import canon
from .model import (
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

_REQUIRED = object()


def _expect(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise ParseError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number(value, where: str) -> float:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        # Caught in parse_scenario, which names the file.
        raise OverflowError(f"{where}: integer too large for a float") from None


def _grants(value, where: str) -> tuple[Grant, ...]:
    _expect(value, list, where)
    grants = []
    for i, raw in enumerate(value):
        here = f"{where}[{i}]"
        (obj, perm), extra = _fields(raw, here, _GRANT)
        if extra:
            raise ParseError(f"{here}: unexpected keys {extra}")
        grants.append(Grant(obj, normalize_permission(perm)))
    return tuple(grants)


def _sorted_grants(value, where: str) -> tuple[Grant, ...]:
    return tuple(sorted(_grants(value, where)))


def _strings(value, where: str) -> tuple[str, ...]:
    _expect(value, list, where)
    return tuple(_expect(s, str, f"{where}[{i}]") for i, s in enumerate(value))


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


def _fields(raw, where: str, fields) -> tuple[list, list]:
    """raw's values in table order, and the keys the table lacks, sorted."""
    _expect(raw, dict, where)
    values = []
    found = 0
    for key, check, default in fields:
        if key not in raw:
            if default is _REQUIRED:
                raise ParseError(f"{where}: missing required key {key!r}")
            values.append(default)
            continue
        found += 1
        value = raw[key]
        if type(check) is not type:
            value = check(value, f"{where}.{key}")
        elif not isinstance(value, check):
            _expect(value, check, f"{where}.{key}")
        values.append(value)
    if len(raw) == found:
        return values, []
    return values, sorted(raw.keys() - {key for key, _, _ in fields})


def _records(data: dict, section: str, fields, make, unknown: list[str]) -> tuple:
    """The records of one section, built by make from their values; unknown gains their extra keys."""
    records = []
    for i, raw in enumerate(_expect(data.get(section, []), list, section)):
        where = f"{section}[{i}]"
        values, extra = _fields(raw, where, fields)
        unknown += [f"{where}.{key}" for key in extra]
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
    _expect(data, dict, source)
    try:
        return _parse_document(data)
    except (ParseError, OverflowError) as exc:
        raise ParseError(f"{source}: {exc}") from exc


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
        entry_grants=_sorted_grants(data.get("entry_grants", []), "entry_grants"),
        targets=tuple(sorted(_strings(data.get("targets", []), "targets"))),
        extensions=_strings(data.get("extensions", []), "extensions"),
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
    return canon.dumps(scenario_to_dict(doc), end="\n")


# --- validation --------------------------------------------------------------

def _check_token(problems, record_class: str, record_id: str, token: str, what: str):
    msg = permission_problems(token)
    if msg:
        problems.append(Violation("error", record_class, record_id, f"{what}: {msg}"))


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
        total = math.fsum(v for v in values if math.isfinite(v))
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
    """
    out: list[Violation] = []
    ids = doc.object_ids()
    by_id = doc.object_by_id()
    categories = doc.allowed_categories()

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

    for i, r in enumerate(doc.relationships):
        rid = f"relationships[{i}]"
        missing = [x for x in (r.from_id, r.to_id) if x not in ids]
        for x in missing:
            out.append(Violation("error", "relationship", rid, f"endpoint {x!r} does not exist"))
        if not missing and by_id[r.from_id].layer != by_id[r.to_id].layer and r.kind not in VERTICAL_KINDS:
            out.append(
                Violation(
                    "error",
                    "relationship",
                    rid,
                    f"vertical edge {r.from_id}->{r.to_id} has kind {r.kind!r}, expected one of {VERTICAL_KINDS}",
                )
            )

    # Both orientations of every relationship: a pair is in it exactly when
    # some relationship joins the two objects, directed or not.
    linked = set()
    for r in doc.relationships:
        linked.add((r.from_id, r.to_id))
        linked.add((r.to_id, r.from_id))

    seen = set()
    for a in doc.attacks:
        if a.id in seen:
            out.append(Violation("error", "attack", a.id, f"duplicate attack id {a.id!r}"))
        seen.add(a.id)
        if a.object not in ids:
            out.append(Violation("error", "attack", a.id, f"attacked object {a.object!r} does not exist"))
        if not a.a_results:
            out.append(Violation("error", "attack", a.id, "a_results is empty"))
        for g in a.a_results:
            if g.object not in ids:
                out.append(Violation("error", "attack", a.id, f"a_result object {g.object!r} does not exist"))
            _check_token(out, "attack", a.id, g.permission, f"a_result on {g.object!r}")
        for g in a.condition:
            if g.object not in ids:
                out.append(Violation("error", "attack", a.id, f"condition object {g.object!r} does not exist"))
            _check_token(out, "attack", a.id, g.permission, f"condition on {g.object!r}")
        _check_number(out, "attack", a.id, "cost", a.cost)
        _check_number(out, "attack", a.id, "severity", a.severity)
        _check_number(out, "attack", a.id, "detect_prob", a.detect_prob, upper=1.0)
        # Warn when an attack edge jumps between objects no relationship
        # connects; self-loop effects are always plausible.
        for g in a.a_results:
            if g.object in ids and a.object in ids and g.object != a.object:
                if (a.object, g.object) not in linked:
                    out.append(
                        Violation(
                            "warning",
                            "attack",
                            a.id,
                            f"edge {a.object}->{g.object} has no relationship counterpart in the base graph",
                        )
                    )

    attack_ids = {a.id for a in doc.attacks}
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
        _check_number(out, "defense", d.id, "cost", d.cost)

    _check_total(out, "attacks", "attack costs", (a.cost for a in doc.attacks))
    _check_total(out, "attacks", "attack severities", (a.severity for a in doc.attacks))
    _check_total(out, "defenses", "defense costs", (d.cost for d in doc.defenses))

    for g in doc.entry_grants:
        if g.object not in ids:
            out.append(Violation("error", "scenario", "entry_grants", f"entry grant object {g.object!r} does not exist"))
        _check_token(out, "scenario", "entry_grants", g.permission, f"entry grant on {g.object!r}")
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

