"""Scenario docs with known semantic faults, for the validation tests and tools/diff_ref.py.

VALIDATION_RULES maps each rule of validate_scenario to one fault in the
otherwise clean toy5g doc and the one violation that fault gives. This
module needs only the package, so tools that import it need no test
runner.
"""

from __future__ import annotations

import math

from stratagraph.model import Grant


def edit(doc, section: str, index: int, **fields):
    """doc with fields replaced in record index of section (one past the end appends a copy of the last)."""
    records = list(getattr(doc, section))
    if index == len(records):
        records.append(records[-1])
    records[index] = records[index]._replace(**fields)
    return doc._replace(**{section: tuple(records)})


BELOW_LIMIT = "they must stay below 8.98847e+307, half the largest float, so that no chain or plan total overflows"
# SL1 (objects[4]) is the one toy5g object nothing refers to; A3 (attacks[2])
# and D2 (defenses[1]) act on HV1 alone.
VALIDATION_RULES = {
    "object id empty": (
        lambda d: edit(d, "objects", 4, id=""), ("error", "object", "", "object id '' is empty or padded")
    ),
    "object id padded": (
        lambda d: edit(d, "objects", 4, id="SL1 "), ("error", "object", "SL1 ", "object id 'SL1 ' is empty or padded")
    ),
    "duplicate object id": (lambda d: edit(d, "objects", 6, id="SL1"), ("error", "object", "SL1", "duplicate object id 'SL1'")),
    "unknown layer": (
        lambda d: edit(d, "objects", 4, layer="cloud"),
        (
            "error", "object", "SL1",
            "unknown layer 'cloud' (expected one of ('physical', 'virtual', 'service', 'application'))",
        ),
    ),
    "unknown category": (
        lambda d: edit(d, "objects", 4, category="router"), ("error", "object", "SL1", "unknown category 'router'")
    ),
    "relationship endpoint": (
        lambda d: edit(d, "relationships", 5, from_id="SL1", to_id="GHOST"),
        ("error", "relationship", "relationships[5]", "endpoint 'GHOST' does not exist"),
    ),
    "vertical edge kind": (
        lambda d: edit(d, "relationships", 5, from_id="SL1", to_id="APP1", kind="connectivity"),
        (
            "error", "relationship", "relationships[5]",
            "vertical edge SL1->APP1 has kind 'connectivity', expected one of"
            " ('functional-support', 'resource-sharing', 'management', 'orchestration')",
        ),
    ),
    "duplicate attack id": (lambda d: edit(d, "attacks", 5, id="A3"), ("error", "attack", "A3", "duplicate attack id 'A3'")),
    "attacked object": (
        lambda d: edit(d, "attacks", 2, object="GHOST"), ("error", "attack", "A3", "attacked object 'GHOST' does not exist")
    ),
    "empty a_results": (lambda d: edit(d, "attacks", 2, a_results=()), ("error", "attack", "A3", "a_results is empty")),
    "a_result object": (
        lambda d: edit(d, "attacks", 2, a_results=(Grant("GHOST", "execute"),)),
        ("error", "attack", "A3", "a_result object 'GHOST' does not exist"),
    ),
    "a_result permission empty": (
        lambda d: edit(d, "attacks", 2, a_results=(Grant("HV1", ""),)),
        ("error", "attack", "A3", "a_result on 'HV1': permission is empty"),
    ),
    "a_result permission case": (
        lambda d: edit(d, "attacks", 2, a_results=(Grant("HV1", "EXECUTE"),)),
        ("error", "attack", "A3", "a_result on 'HV1': permission 'EXECUTE' is not lowercase"),
    ),
    "condition object": (
        lambda d: edit(d, "attacks", 2, condition=(Grant("GHOST", "read"),)),
        ("error", "attack", "A3", "condition object 'GHOST' does not exist"),
    ),
    "condition permission whitespace": (
        lambda d: edit(d, "attacks", 2, condition=(Grant("HV1", "re ad"),)),
        ("error", "attack", "A3", "condition on 'HV1': permission 're ad' contains whitespace"),
    ),
    "attack cost negative": (lambda d: edit(d, "attacks", 2, cost=-1.0), ("error", "attack", "A3", "cost -1.0 is negative")),
    "attack severity not finite": (
        lambda d: edit(d, "attacks", 2, severity=math.nan), ("error", "attack", "A3", "severity nan is not a finite number")
    ),
    "detect_prob range": (
        lambda d: edit(d, "attacks", 2, detect_prob=1.5), ("error", "attack", "A3", "detect_prob 1.5 outside [0, 1]")
    ),
    "no relationship counterpart": (
        lambda d: edit(d, "attacks", 2, a_results=(Grant("SL1", "read"),)),
        ("warning", "attack", "A3", "edge HV1->SL1 has no relationship counterpart in the base graph"),
    ),
    "duplicate defense id": (
        lambda d: edit(d, "defenses", 4, id="D2"), ("error", "defense", "D2", "duplicate defense id 'D2'")
    ),
    "empty d_results": (lambda d: edit(d, "defenses", 1, d_results=()), ("error", "defense", "D2", "d_results is empty")),
    "d_result attack": (
        lambda d: edit(d, "defenses", 1, d_results=("A9",)), ("error", "defense", "D2", "d_result attack 'A9' does not exist")
    ),
    "defense cost not finite": (
        lambda d: edit(d, "defenses", 1, cost=math.inf), ("error", "defense", "D2", "cost inf is not a finite number")
    ),
    "attack cost total": (
        lambda d: edit(d, "attacks", 2, cost=1e308),
        ("error", "scenario", "attacks", f"attack costs sum to 1e+308; {BELOW_LIMIT}"),
    ),
    "attack severity total beyond a float": (
        lambda d: edit(edit(d, "attacks", 2, severity=1.7e308), "attacks", 3, severity=1.7e308),
        ("error", "scenario", "attacks", f"attack severities sum to more than the largest float; {BELOW_LIMIT}"),
    ),
    "defense cost total": (
        lambda d: edit(d, "defenses", 1, cost=1e308),
        ("error", "scenario", "defenses", f"defense costs sum to 1e+308; {BELOW_LIMIT}"),
    ),
    "entry grant object": (
        lambda d: d._replace(entry_grants=(Grant("GHOST", "read"),)),
        ("error", "scenario", "entry_grants", "entry grant object 'GHOST' does not exist"),
    ),
    "entry grant permission case": (
        lambda d: d._replace(entry_grants=(Grant("CH1", "Read"),)),
        ("error", "scenario", "entry_grants", "entry grant on 'CH1': permission 'Read' is not lowercase"),
    ),
    "target": (
        lambda d: d._replace(targets=("GHOST",)), ("error", "scenario", "targets", "target 'GHOST' does not exist")
    ),
    "unknown key": (
        lambda d: d._replace(unknown_keys=("frobnicate",)),
        ("warning", "scenario", "unknown_keys", "unknown key 'frobnicate' ignored"),
    ),
}


def repeated_bad_tokens(doc):
    """toy5g's doc with the malformed tokens "Read", "ro ot" and "" in attacks A3 and A4 and in the entry grants.

    "Read" is in the entry grants twice.
    """
    doc = edit(doc, "attacks", 2, condition=(Grant("HV1", ""), Grant("HV1", "ro ot")), a_results=(Grant("HV1", "Read"),))
    doc = edit(doc, "attacks", 3, condition=(Grant("UE1", "Read"),), a_results=(Grant("APP1", ""), Grant("APP1", "ro ot")))
    return doc._replace(entry_grants=(Grant("CH1", ""), Grant("CH1", "Read"), Grant("CH1", "Read"), Grant("CH1", "ro ot")))
