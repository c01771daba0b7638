"""Domain model for layered network attack/defense scenarios.

A scenario describes a small 5G-style network as four stacked layers of
objects (devices, channels, virtual entities, OSes, controllers, apps,
protocols), the relationships between them, a catalog of attacks and
defenses, plus the attacker's entry foothold and the defender's targets.

Every record here is an immutable named tuple: a loaded scenario never
mutates, so documents and derived graphs are safe to share across
threads. Every field takes part in equality and hashing, and a record
equals any tuple of the same values.
"""

from __future__ import annotations

from typing import NamedTuple

LAYERS = ("physical", "virtual", "service", "application")

CATEGORIES = (
    "hardware-device",
    "channel",
    "virtual-entity",
    "os",
    "control-software",
    "application-software",
    "protocol",
)

# Relationship kinds allowed on edges that span two layers.
VERTICAL_KINDS = ("functional-support", "resource-sharing", "management", "orchestration")

# Adjective spellings accepted in scenario files and folded to canonical tokens.
PERMISSION_ALIASES = {
    "readable": "read",
    "writable": "write",
    "executable": "execute",
}


class ScenarioError(Exception):
    """Base class for all scenario/analysis failures."""


class ParseError(ScenarioError):
    """Scenario file is syntactically or structurally malformed."""


class InvalidScenarioError(ScenarioError):
    """Operation requires a valid scenario but validation found errors."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(v.message for v in self.violations[:5])
        super().__init__(f"scenario invalid ({len(self.violations)} violations): {lines}")


class UnknownIdError(ScenarioError):
    """A referenced object/attack/edge id does not exist."""


class EmptyEntryGrantsError(ScenarioError):
    """Chain analysis requested but the scenario declares no entry grants."""


class InfeasibleCutError(ScenarioError):
    """No defense subset can break every target-reaching chain."""

    def __init__(self, message, uncut_chains=()):
        self.uncut_chains = tuple(uncut_chains)
        super().__init__(message)


class ConfigError(ScenarioError):
    """Engine or game configuration is malformed."""


def normalize_permission(token: str) -> str:
    return PERMISSION_ALIASES.get(token, token)


def permission_problems(token: str) -> str | None:
    """Return a description of why a permission token is malformed, or None."""
    if not isinstance(token, str) or not token:
        return "permission is empty"
    if token != token.lower():
        return f"permission {token!r} is not lowercase"
    if any(c.isspace() for c in token):
        return f"permission {token!r} contains whitespace"
    return None


class Grant(NamedTuple):
    """A capability the attacker holds: one permission on one object.

    The same pair shape doubles as a condition requirement on attacks. A
    named tuple, so hashing, equality and ordering (by object, then
    permission) run at C speed in the chain search and the game. It equals
    the plain tuple of its fields, so grant sets hold only Grants. Payloads
    hand Grants to canon.dumps as they are: it renders one as its as_dict()
    form, memoised per depth within one call.
    """

    object: str
    permission: str

    def as_dict(self) -> dict:
        return {"object": self.object, "permission": self.permission}


class ObjectRecord(NamedTuple):
    id: str
    layer: str
    category: str
    label: str = ""


class RelationshipEdge(NamedTuple):
    from_id: str
    to_id: str
    kind: str
    directed: bool = False

    def as_dict(self) -> dict:
        return {"from": self.from_id, "to": self.to_id, "kind": self.kind, "directed": self.directed}


class AttackRecord(NamedTuple):
    """One attack event on one object, with a list of granted effects.

    Each a_result instantiates one directed edge in the attack graph, so a
    record with k results contributes k edges. The condition is a set of
    grants the attacker must already hold before this attack can fire;
    entry_only restricts the attack to the first step of a chain.
    """

    id: str
    object: str
    condition: tuple[Grant, ...] = ()
    method: str = ""
    a_results: tuple[Grant, ...] = ()
    cost: float = 1.0
    severity: float = 1.0
    detect_prob: float = 1.0
    entry_only: bool = False


class DefenseRecord(NamedTuple):
    """A countermeasure: applying it neutralizes every edge of the named attacks."""

    id: str
    cost: float
    method: str = ""
    d_results: tuple[str, ...] = ()


class _ScenarioFields(NamedTuple):
    objects: tuple[ObjectRecord, ...] = ()
    relationships: tuple[RelationshipEdge, ...] = ()
    attacks: tuple[AttackRecord, ...] = ()
    defenses: tuple[DefenseRecord, ...] = ()
    entry_grants: tuple[Grant, ...] = ()
    targets: tuple[str, ...] = ()
    extensions: tuple[str, ...] = ()
    # Unknown keys seen while parsing; reported as warnings, never persisted.
    unknown_keys: tuple[str, ...] = ()


class ScenarioDoc(_ScenarioFields):
    """A fully parsed scenario file. Parsing does not validate semantics;
    run validate_scenario to get the violation report.

    A named tuple subclass without __slots__, so each doc has a __dict__,
    where validate_scenario keeps the report of a doc that parse_scenario
    made, the way AttackGraph keeps its indexes: every later validation of
    the same doc object, such as the one build_base_graph runs, returns
    that report, and it dies with the doc. parse_scenario builds every
    field and record of tuples, so its doc never changes. A doc built by
    hand may hold a list anywhere, and _replace makes a new doc: both are
    checked on every call. parse_scenario makes every number a float; a
    doc built by hand may hold ints, which build_attack_graph converts, so
    every chain, risk and plan total is a float either way.

    unknown_keys takes part in equality like every other field, so a doc
    parsed with an unknown key equals its serialized round trip only after
    _replace(unknown_keys=()).
    """


class Violation(NamedTuple):
    """One invariant breach found by validate_scenario.

    severity is "error" (scenario unusable) or "warning" (suspicious but legal).
    """

    severity: str
    record_class: str
    record_id: str
    message: str

    def sort_key(self):
        return (self.record_class, self.record_id, self.severity, self.message)

    def as_dict(self) -> dict:
        return {
            "severity": self.severity,
            "record_class": self.record_class,
            "record_id": self.record_id,
            "message": self.message,
        }
