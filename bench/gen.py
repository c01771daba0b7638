"""Seeded layered 5G-style scenario generator for the benchmark.

Each workload has one fixed skeleton: four layers of objects and `fanout`
attacks per object. Nine attacks in ten run along a relationship; the rest
jump between objects no relationship links, so `validate` scans every
relationship and warns. A fifth of the relationships carry no attack, so
`potential` finds gapped paths. `defenses` records cover 3 attacks each.
Every attack has one effect and its condition on its own object, the entry
grant is `execute` on the first physical object, and the target is the
last application object. Every attack landing on the target is covered by
some defense, so `defend --mode cut` is feasible.

The seed draws an isomorphic copy of the skeleton: it renames the objects
inside each layer (entry and target keep their names) and shuffles the
order of every record list. Chain counts, and so the work of the
exponential engines, are properties of the skeleton, which keeps runs with
different seeds comparable; the recorded references in `reference/` are in
skeleton names and apply to every seed through the rename map.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

from stratagraph.model import (
    AttackRecord,
    DefenseRecord,
    Grant,
    ObjectRecord,
    RelationshipEdge,
    ScenarioDoc,
)

LAYERS = ("physical", "virtual", "service", "application")
PREFIX = {"physical": "p", "virtual": "v", "service": "s", "application": "a"}
CATEGORIES = {
    "physical": ("hardware-device", "channel"),
    "virtual": ("virtual-entity",),
    "service": ("os", "control-software"),
    "application": ("application-software", "protocol"),
}
INTRA_KINDS = ("connectivity", "management")
VERTICAL_KINDS = ("functional-support", "resource-sharing", "management", "orchestration")
PERMS = ("execute", "write", "read", "disable")
ATTACK_COSTS = (0.5, 1.0, 1.5, 2.0, 3.0)
SEVERITIES = (1.0, 2.0, 3.0, 4.0, 5.0)
SIM_RUNS = 3
MAX_TURNS = 12
TURN_BUDGET = 3.0  # simulate --budget-per-turn
POTENTIAL_MAX_LEN = 4  # potential --max-len; base paths grow as degree ** max_len
OBJECT_ID = re.compile(r"\b[pvsa]\d{3}\b")


@dataclass(frozen=True)
class Shape:
    per_layer: int  # objects per layer
    fanout: int  # attacks per object (relationship-backed or jumping)
    defenses: int
    match: float  # chance an effect grants what the next object's attacks need
    up: float  # chance an edge climbs one layer instead of staying in it
    target_feeds: int  # extra attack edges into the target
    max_len: int  # engine max_len written to the --config file
    budget: float  # defend --mode budget --budget
    detect_prob: float
    structure: str  # skeleton seed; fixed per workload
    sim_max_len: int | None = None  # simulate --max-len, where the workload's max_len would be too slow


SHAPES = {
    "topology-L": Shape(
        per_layer=100, fanout=3, defenses=60, match=0.45, up=0.5, target_feeds=3, max_len=8,
        budget=6.0, detect_prob=0.7, structure="topology-L/1",
    ),
    "chains-M": Shape(
        per_layer=12, fanout=4, defenses=20, match=0.77, up=0.4, target_feeds=1, max_len=10,
        budget=4.0, detect_prob=1.0, structure="chains-M/2",
        sim_max_len=6,
    ),
    "reactive-sim-M": Shape(
        per_layer=12, fanout=4, defenses=20, match=0.77, up=0.4, target_feeds=1, max_len=8,
        budget=4.0, detect_prob=1.0, structure="reactive-sim-M/2",
    ),
}


@dataclass(frozen=True)
class Scenario:
    workload: str
    seed: int
    shape: Shape
    doc: ScenarioDoc  # seeded names, for the oracles
    text: str  # the scenario file
    config_text: str  # the --config file
    rename: dict  # skeleton object id -> seeded object id
    potential_pair: tuple  # (from, to) in seeded names

    def commands(self, scenario_path: str, config_path: str) -> list[tuple[str, str, list[str]]]:
        """(metric, check kind, CLI argv) for every command a round runs.

        `chains` comes first: its checked output is the chain set the
        `defend` checks judge plans against.
        """
        shape = self.shape
        src, dst = self.potential_pair
        simulate = [
            "simulate", "--runs", str(SIM_RUNS), "--max-turns", str(MAX_TURNS), "--attacker", "random",
            "--defender", "reactive_cut", "--budget-per-turn", str(TURN_BUDGET), "--seed", "1",
        ]
        if shape.sim_max_len:
            simulate += ["--max-len", str(shape.sim_max_len)]
        rows = [
            ("chains_s", "chains", ["chains"]),
            ("validate_s", "validate", ["validate"]),
            ("graph_s", "graph", ["graph"]),
            ("potential_s", "potential", ["potential", "--from", src, "--to", dst, "--max-len", str(POTENTIAL_MAX_LEN)]),
            ("defend_cut_s", "cut", ["defend", "--mode", "cut"]),
            ("defend_budget_s", "budget", ["defend", "--mode", "budget", "--budget", str(shape.budget)]),
            ("risk_s", "risk", ["risk"]),
            ("simulate_s", "simulate", simulate),
        ]
        common = ["--scenario", scenario_path, "--config", config_path, "--format", "json"]
        return [(metric, kind, [argv[0], *common, *argv[1:]]) for metric, kind, argv in rows]

    def to_skeleton(self, value):
        """Map seeded object ids back to skeleton ids anywhere inside value."""
        back = {v: k for k, v in self.rename.items()}
        return _map_ids(value, back)

    def sizes(self) -> dict:
        return {
            "objects": len(self.doc.objects),
            "relationships": len(self.doc.relationships),
            "attacks": len(self.doc.attacks),
            "attack_edges": sum(len(a.a_results) for a in self.doc.attacks),
            "defenses": len(self.doc.defenses),
        }


def _map_ids(value, table):
    if isinstance(value, str):
        return OBJECT_ID.sub(lambda m: table.get(m.group(0), m.group(0)), value)
    if isinstance(value, list):
        return [_map_ids(v, table) for v in value]
    if isinstance(value, tuple):
        return tuple(_map_ids(v, table) for v in value)
    if isinstance(value, dict):
        return {_map_ids(k, table): _map_ids(v, table) for k, v in value.items()}
    return value


def _oid(layer: str, i: int) -> str:
    return f"{PREFIX[layer]}{i:03d}"


def skeleton(shape: Shape) -> tuple[ScenarioDoc, tuple]:
    """The workload's fixed scenario and its potential (from, to) pair."""
    rng = random.Random(shape.structure)
    n = shape.per_layer
    objects = [ObjectRecord(_oid(layer, i), layer, rng.choice(CATEGORIES[layer])) for layer in LAYERS for i in range(n)]
    layer_of = {o.id: o.layer for o in objects}
    entry = _oid("physical", 0)
    target = _oid("application", n - 1)
    # Each object's attacks all need one permission on it; the entry object's need the entry grant.
    needs = {o.id: ("execute" if o.id == entry else rng.choice(PERMS)) for o in objects}

    def pick_to(src: str) -> str:
        li = LAYERS.index(layer_of[src])
        if li + 1 < len(LAYERS) and rng.random() < shape.up:
            li += 1
        while True:
            dst = _oid(LAYERS[li], rng.randrange(n))
            if dst != src and dst != entry:
                return dst

    def effect_perm(dst: str) -> str:
        if rng.random() < shape.match:
            return needs[dst]
        return rng.choice([p for p in PERMS if p != needs[dst]])

    pairs: set[frozenset] = set()
    relationships: list[RelationshipEdge] = []
    attacks: list[AttackRecord] = []

    def relate(src: str, dst: str) -> None:
        pairs.add(frozenset((src, dst)))
        same = layer_of[src] == layer_of[dst]
        kind = rng.choice(INTRA_KINDS if same else VERTICAL_KINDS)
        relationships.append(RelationshipEdge(src, dst, kind))

    def attack(src: str, dst: str, perm: str | None = None) -> None:
        attacks.append(
            AttackRecord(
                id=f"atk{len(attacks):04d}",
                object=src,
                condition=(Grant(src, needs[src]),),
                method="",
                a_results=(Grant(dst, perm or effect_perm(dst)),),
                cost=rng.choice(ATTACK_COSTS),
                severity=rng.choice(SEVERITIES),
                detect_prob=shape.detect_prob,
            )
        )

    # A spine of relationship-backed attacks guarantees chains to the target.
    spine = [entry] + [_oid(layer, rng.randrange(1, n - 1)) for layer in LAYERS[1:]] + [target]
    for src, dst in zip(spine, spine[1:]):
        relate(src, dst)
        attack(src, dst, needs[dst])

    for o in objects:
        if o.id == target:
            continue
        for _ in range(shape.fanout):
            dst = pick_to(o.id)
            pair = frozenset((o.id, dst))
            # One attack in ten jumps between objects no relationship links.
            if rng.random() < 0.1:
                if pair in pairs:
                    continue
            elif pair not in pairs:
                relate(o.id, dst)
            attack(o.id, dst)
    for _ in range(shape.target_feeds):
        src = _oid("application", rng.randrange(n - 1))
        if frozenset((src, target)) not in pairs:
            relate(src, target)
        attack(src, target, needs[target])

    # Relationships with no attack along them: a fifth of all relationships.
    gapless = len(relationships)
    while len(relationships) < gapless * 5 // 4:
        src = rng.choice(objects).id
        dst = pick_to(src)
        if frozenset((src, dst)) not in pairs:
            relate(src, dst)

    to_target = [a.id for a in attacks if a.a_results[0].object == target]
    others = [a.id for a in attacks if a.id not in to_target]
    costs = rng.sample(range(100, 400), shape.defenses)
    defenses = []
    for j in range(shape.defenses):
        covered = rng.sample(others, 3)
        if j < len(to_target):
            covered[2] = to_target[j]
        defenses.append(DefenseRecord(f"def{j:02d}", costs[j] / 100, "", tuple(sorted(covered))))
    uncovered = set(to_target) - {a for d in defenses for a in d.d_results}
    if uncovered:
        raise ValueError(f"{shape.structure}: target attacks {sorted(uncovered)} have no defense")

    # The potential pair: two hops over relationships where the first hop has no attack.
    attacked = {(a.object, a.a_results[0].object) for a in attacks}
    pair = None
    for r in relationships[gapless:]:
        for r2 in relationships:
            if r2.from_id == r.to_id and (r2.from_id, r2.to_id) in attacked and r2.to_id != r.from_id:
                pair = (r.from_id, r2.to_id)
                break
        if pair:
            break
    if pair is None:
        raise ValueError(f"{shape.structure}: no relationship path with a gap for `potential`")

    doc = ScenarioDoc(
        objects=tuple(objects),
        relationships=tuple(relationships),
        attacks=tuple(attacks),
        defenses=tuple(defenses),
        entry_grants=(Grant(entry, "execute"),),
        targets=(target,),
    )
    return doc, pair


def _rename_doc(doc: ScenarioDoc, rename: dict, rng: random.Random) -> ScenarioDoc:
    def g(grant: Grant) -> Grant:
        return Grant(rename[grant.object], grant.permission)

    def shuffled(items) -> tuple:
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    return ScenarioDoc(
        objects=shuffled(ObjectRecord(rename[o.id], o.layer, o.category, o.label) for o in doc.objects),
        relationships=shuffled(
            RelationshipEdge(rename[r.from_id], rename[r.to_id], r.kind, r.directed) for r in doc.relationships
        ),
        attacks=shuffled(
            AttackRecord(
                id=a.id,
                object=rename[a.object],
                condition=tuple(sorted(g(c) for c in a.condition)),
                method=a.method,
                a_results=tuple(g(r) for r in a.a_results),
                cost=a.cost,
                severity=a.severity,
                detect_prob=a.detect_prob,
            )
            for a in doc.attacks
        ),
        defenses=shuffled(doc.defenses),
        entry_grants=tuple(sorted(g(e) for e in doc.entry_grants)),
        targets=tuple(sorted(rename[t] for t in doc.targets)),
    )


def _to_json(doc: ScenarioDoc) -> str:
    def grants(gs):
        return [{"object": g.object, "permission": g.permission} for g in gs]

    data = {
        "objects": [{"id": o.id, "layer": o.layer, "category": o.category} for o in doc.objects],
        "relationships": [{"from": r.from_id, "to": r.to_id, "kind": r.kind} for r in doc.relationships],
        "attacks": [
            {
                "id": a.id,
                "object": a.object,
                "condition": grants(a.condition),
                "a_results": grants(a.a_results),
                "cost": a.cost,
                "severity": a.severity,
                "detect_prob": a.detect_prob,
            }
            for a in doc.attacks
        ],
        "defenses": [{"id": d.id, "cost": d.cost, "d_results": list(d.d_results)} for d in doc.defenses],
        "entry_grants": grants(doc.entry_grants),
        "targets": list(doc.targets),
    }
    return json.dumps(data, indent=1) + "\n"


def generate(workload: str, seed: int) -> Scenario:
    """The workload's skeleton, renamed and reordered by seed."""
    shape = SHAPES[workload]
    base, pair = skeleton(shape)
    rng = random.Random(f"{workload}/{seed}")
    entry = base.entry_grants[0].object
    fixed = {entry, *base.targets}
    rename = {}
    for layer in LAYERS:
        ids = [o.id for o in base.objects if o.layer == layer and o.id not in fixed]
        rename.update(zip(ids, rng.sample(ids, len(ids))))
    rename.update((i, i) for i in fixed)
    doc = _rename_doc(base, rename, rng)
    config = {"max_len": shape.max_len}
    return Scenario(
        workload=workload,
        seed=seed,
        shape=shape,
        doc=doc,
        text=_to_json(doc),
        config_text=json.dumps(config) + "\n",
        rename=rename,
        potential_pair=(rename[pair[0]], rename[pair[1]]),
    )
