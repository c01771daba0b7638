"""Seeded random scenario generator for property and oracle tests.

Scenarios are built directly from the domain records with the same
normalization the parser applies (sorted conditions, entry grants, and
targets), so they round-trip through serialization unchanged. All
randomness flows from the seed; identical seeds give identical scenarios.
"""

from __future__ import annotations

import random

from stratagraph.model import (
    CATEGORIES,
    LAYERS,
    VERTICAL_KINDS,
    AttackRecord,
    DefenseRecord,
    Grant,
    ObjectRecord,
    RelationshipEdge,
    ScenarioDoc,
)

PERMS = ("read", "write", "execute", "disable")
COSTS = (0.5, 1.0, 1.5, 2.0, 3.0)
DETECTS = (0.0, 0.3, 0.7, 1.0)
INTRA_KINDS = ("connectivity", "management")


def random_scenario(seed: int, max_objects: int = 8, max_edges: int = 10, max_defenses: int = 6) -> ScenarioDoc:
    """An unconstrained small scenario: arbitrary conditions, shapes, defenses."""
    rng = random.Random(("scen", seed).__repr__())
    n_obj = rng.randint(2, max_objects)
    objects = tuple(
        ObjectRecord(id=f"o{i}", layer=rng.choice(LAYERS), category=rng.choice(CATEGORIES), label="")
        for i in range(n_obj)
    )
    layer = {o.id: o.layer for o in objects}

    relationships = []
    for a in objects:
        for b in objects:
            if a.id < b.id and rng.random() < 0.35:
                kind = rng.choice(VERTICAL_KINDS) if layer[a.id] != layer[b.id] else rng.choice(INTRA_KINDS)
                relationships.append(
                    RelationshipEdge(from_id=a.id, to_id=b.id, kind=kind, directed=rng.random() < 0.25)
                )

    entry_grants = sorted(
        {Grant(rng.choice(objects).id, rng.choice(PERMS)) for _ in range(rng.randint(1, 3))}
    )

    # Conditions are biased toward grants something can actually produce, so
    # a useful share of attacks can fire; a few dead requirements stay in.
    producible = list(entry_grants)
    attacks = []
    edges_left = rng.randint(1, max_edges)
    i = 0
    while edges_left > 0:
        n_res = rng.randint(1, min(3, edges_left))
        edges_left -= n_res
        a_results = tuple(Grant(rng.choice(objects).id, rng.choice(PERMS)) for _ in range(n_res))
        condition = set()
        for _ in range(rng.randint(0, 2)):
            if producible and rng.random() < 0.8:
                condition.add(rng.choice(producible))
            else:
                condition.add(Grant(rng.choice(objects).id, rng.choice(PERMS)))
        attacks.append(
            AttackRecord(
                id=f"atk{i}",
                object=rng.choice(objects).id,
                condition=tuple(sorted(condition)),
                method="",
                a_results=a_results,
                cost=rng.choice(COSTS),
                severity=rng.choice(COSTS),
                detect_prob=rng.choice(DETECTS),
                entry_only=rng.random() < 0.08,
            )
        )
        producible.extend(a_results)
        i += 1

    defenses = []
    for j in range(rng.randint(0, max_defenses)):
        k = rng.randint(1, min(3, len(attacks)))
        covered = sorted(rng.sample([a.id for a in attacks], k))
        defenses.append(DefenseRecord(id=f"def{j}", cost=rng.choice(COSTS), method="", d_results=tuple(covered)))

    targets = tuple(sorted(rng.sample([o.id for o in objects], rng.randint(1, min(2, n_obj)))))
    return ScenarioDoc(
        objects=objects,
        relationships=tuple(relationships),
        attacks=tuple(attacks),
        defenses=tuple(defenses),
        entry_grants=tuple(entry_grants),
        targets=targets,
    )


def coherent_scenario(seed: int, max_objects: int = 8) -> ScenarioDoc:
    """A scenario where closure reachability equals simple-chain existence.

    Constraints that make the equivalence provable: at most one attack per
    object, every condition is a single grant on the attack's own object,
    no entry-only attacks, and entry grants never touch a target.
    """
    rng = random.Random(("coherent", seed).__repr__())
    n_obj = rng.randint(3, max_objects)
    objects = tuple(
        ObjectRecord(id=f"o{i}", layer=rng.choice(LAYERS), category=rng.choice(CATEGORIES), label="")
        for i in range(n_obj)
    )
    target = objects[n_obj - 1].id

    attack_hosts = [o for o in objects if rng.random() < 0.8]
    attacks = []
    for i, host in enumerate(attack_hosts):
        need = Grant(host.id, rng.choice(PERMS))
        n_res = rng.randint(1, 2)
        a_results = tuple(Grant(rng.choice(objects).id, rng.choice(PERMS)) for _ in range(n_res))
        attacks.append(
            AttackRecord(
                id=f"atk{i}",
                object=host.id,
                condition=(need,),
                method="",
                a_results=a_results,
                cost=rng.choice(COSTS),
                severity=rng.choice(COSTS),
                detect_prob=rng.choice(DETECTS),
            )
        )

    non_targets = [o.id for o in objects if o.id != target]
    entry_grants = sorted(
        {Grant(rng.choice(non_targets), rng.choice(PERMS)) for _ in range(rng.randint(1, 3))}
    )

    defenses = []
    for j in range(rng.randint(0, 4)):
        if not attacks:
            break
        k = rng.randint(1, min(2, len(attacks)))
        covered = sorted(rng.sample([a.id for a in attacks], k))
        defenses.append(DefenseRecord(id=f"def{j}", cost=rng.choice(COSTS), method="", d_results=tuple(covered)))

    return ScenarioDoc(
        objects=objects,
        relationships=(),
        attacks=tuple(attacks),
        defenses=tuple(defenses),
        entry_grants=tuple(entry_grants),
        targets=(target,),
    )
