"""Layered base graph and directed attack graph construction.

The base graph mirrors the scenario topology: objects as nodes, with
relationship edges split into intra-layer and vertical (cross-layer) sets.
The attack graph is independent of that topology: every a_result of every
attack record becomes one directed edge from the attacked object to the
affected object, so a record with k results contributes exactly k edges.

Each attack edge also carries what a chain step reads off its attack
record and the defense index (condition, results, defense mask,
entry_only and the pair it grants), and the two bits the walk's masks are
made of: its to object's bit, objects in base.layers order, and its
attack's bit, attacks in doc.attacks order. Its cost, severity and
detect_prob are floats, as parse_scenario makes them, also when a doc
built by hand holds ints, so every total summed from them is a float.
All are filled once when the graph is built, so the chain walk reads one
edge and nothing else (see chains.py). Two indexes are built on first
use, once per graph: `needed_by` maps each grant to the ids of the
attacks whose condition holds it, and the reactive defender finds through
it the steps a newly won grant opens, while the game readies through it
the attacks a grant completes; `same_category_attacks` groups the catalog
by the category of the attacked object, and potential chains draw their
suggestions from it.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .model import AttackRecord, DefenseRecord, Grant, RelationshipEdge, ScenarioDoc, UnknownIdError
from .scenario import require_valid


class HierarchicalGraph(NamedTuple):
    """Per-layer object graphs joined by vertical relationship edges.

    doc takes part in equality like every other field: two base graphs are
    equal only when their docs are.
    """

    layers: dict[str, str]  # object id -> layer
    intra_edges: tuple[RelationshipEdge, ...]
    vertical_edges: tuple[RelationshipEdge, ...]
    # object id -> sorted ids one relationship edge away, honoring direction
    adjacency: dict[str, tuple[str, ...]]
    # The validated scenario this graph was built from, the one owner of the
    # doc: the attack graph built on this base reads it as AttackGraph.doc.
    doc: ScenarioDoc


class AttackEdge(NamedTuple):
    """One a_result of one attack record, from the attacked object; as_dict leaves out the fields after detect_prob."""

    edge_id: str
    attack_id: str
    from_id: str
    to_id: str
    permission: str
    cost: float
    severity: float
    detect_prob: float
    condition: frozenset[Grant]  # the attack's condition
    results: frozenset[Grant]  # all of the attack's a_results, granted when it fires
    defense_mask: int  # the defenses neutralizing the attack (see defense_bits)
    entry_only: bool
    grant: Grant  # Grant(to_id, permission), the pair this edge grants
    to_bit: int  # to_id's single bit: the walk's affected mask is an OR of these
    attack_bit: int  # attack_id's single bit: the walk's fired mask is an OR of these

    def as_dict(self) -> dict:
        return {
            "edge_id": self.edge_id,
            "attack_id": self.attack_id,
            "from": self.from_id,
            "to": self.to_id,
            "permission": self.permission,
            "cost": self.cost,
            "severity": self.severity,
            "detect_prob": self.detect_prob,
        }


class _AttackGraphFields(NamedTuple):
    base: HierarchicalGraph
    edges: tuple[AttackEdge, ...]  # sorted by edge_id
    by_id: dict[str, AttackEdge]
    by_from: dict[str, tuple[AttackEdge, ...]]
    by_to: dict[str, tuple[AttackEdge, ...]]  # the edges entering each object
    by_attack: dict[str, tuple[AttackEdge, ...]]
    attacks: dict[str, AttackRecord]
    sorted_attacks: tuple[AttackRecord, ...]  # by id
    defenses: dict[str, DefenseRecord]
    # Defense sets are bitmasks over sorted_defenses: bit k is sorted_defenses[k].
    sorted_defenses: tuple[DefenseRecord, ...]  # by id
    defense_bits: dict[str, int]  # defense id -> its single bit
    attack_defenses: dict[str, int]  # attack id -> mask of the defenses neutralizing it


class AttackGraph(_AttackGraphFields):
    """The attack graph and its indexes.

    A named tuple subclass without __slots__, so each instance has the
    __dict__ that the cached properties below fill once per graph.
    """

    @property
    def doc(self) -> ScenarioDoc:
        """The validated scenario both graphs were built from."""
        return self.base.doc

    @cached_property
    def needed_by(self) -> dict[Grant, tuple[str, ...]]:
        """Grant -> the ids of the attacks whose condition holds it, in id order."""
        needed: dict[Grant, list[str]] = {}
        for record in self.sorted_attacks:
            for need in frozenset(record.condition):
                needed.setdefault(need, []).append(record.id)
        return {g: tuple(ids) for g, ids in needed.items()}

    @cached_property
    def same_category_attacks(self) -> dict[str, tuple[AttackRecord, ...]]:
        """Object id -> the records attacking any object of its category, by id.

        The objects of one category share one tuple.
        """
        category = {o.id: o.category for o in self.doc.objects}
        groups: dict[str, list[AttackRecord]] = {}
        for record in self.sorted_attacks:
            groups.setdefault(category[record.object], []).append(record)
        shared = {c: tuple(records) for c, records in groups.items()}
        return {oid: shared.get(c, ()) for oid, c in category.items()}

    def edge(self, edge_id: str) -> AttackEdge:
        found = self.by_id.get(edge_id)
        if found is None:
            raise UnknownIdError(f"unknown attack edge {edge_id!r}")
        return found

    def defense_mask(self, defense_ids) -> int:
        mask = 0
        for did in defense_ids:
            mask |= self.defense_bits[did]
        return mask


def build_base_graph(doc: ScenarioDoc) -> HierarchicalGraph:
    require_valid(doc)
    layers = {o.id: o.layer for o in doc.objects}
    intra: list[RelationshipEdge] = []
    vertical: list[RelationshipEdge] = []
    adjacency: dict[str, set[str]] = {}
    for e in doc.relationships:
        (intra if layers[e.from_id] == layers[e.to_id] else vertical).append(e)
        adjacency.setdefault(e.from_id, set()).add(e.to_id)
        if not e.directed:
            adjacency.setdefault(e.to_id, set()).add(e.from_id)
    return HierarchicalGraph(
        layers=layers,
        intra_edges=tuple(intra),
        vertical_edges=tuple(vertical),
        adjacency={k: tuple(sorted(v)) for k, v in adjacency.items()},
        doc=doc,
    )


def build_attack_graph(doc: ScenarioDoc, base: HierarchicalGraph) -> AttackGraph:
    """The attack graph of doc on its base graph, which build_base_graph(doc) validated."""
    if base.doc is not doc:
        raise ValueError("the base graph was built from another scenario document")
    # Sort keys are attrgetters, which cost no Python call per record as a lambda does.
    sorted_defenses = tuple(sorted(doc.defenses, key=attrgetter("id")))
    defense_bits = {d.id: 1 << k for k, d in enumerate(sorted_defenses)}
    attack_defenses = {a.id: 0 for a in doc.attacks}
    for d in sorted_defenses:
        for aid in d.d_results:
            attack_defenses[aid] |= defense_bits[d.id]
    object_bits = {oid: 1 << k for k, oid in enumerate(base.layers)}
    edges = []
    make = AttackEdge._make
    for k, (aid, obj, condition, _, a_results, cost, severity, detect_prob, entry_only) in enumerate(doc.attacks):
        shared = (
            float(cost), float(severity), float(detect_prob),
            frozenset(condition), frozenset(a_results), attack_defenses[aid], entry_only,
        )
        attack_bit = 1 << k
        for i, result in enumerate(a_results):
            # *result is the edge's to_id and permission; result itself is its grant.
            edges.append(make((f"{aid}#{i}", aid, obj, *result, *shared, result, object_bits[result.object], attack_bit)))
    edges.sort(key=attrgetter("edge_id"))
    by_from: dict[str, list[AttackEdge]] = {}
    by_to: dict[str, list[AttackEdge]] = {}
    by_attack: dict[str, list[AttackEdge]] = {}
    for e in edges:
        by_from.setdefault(e.from_id, []).append(e)
        by_to.setdefault(e.to_id, []).append(e)
        by_attack.setdefault(e.attack_id, []).append(e)
    return AttackGraph(
        base=base,
        edges=tuple(edges),
        by_id={e.edge_id: e for e in edges},
        by_from={k: tuple(v) for k, v in by_from.items()},
        by_to={k: tuple(v) for k, v in by_to.items()},
        by_attack={k: tuple(v) for k, v in by_attack.items()},
        attacks={a.id: a for a in doc.attacks},
        sorted_attacks=tuple(sorted(doc.attacks, key=attrgetter("id"))),
        defenses={d.id: d for d in doc.defenses},
        sorted_defenses=sorted_defenses,
        defense_bits=defense_bits,
        attack_defenses=attack_defenses,
    )


# --- exports -----------------------------------------------------------------

def graphs_to_dict(graph: AttackGraph) -> dict:
    doc, base = graph.doc, graph.base

    def rel_list(edges):
        return [e.as_dict() for e in sorted(edges, key=lambda e: (e.from_id, e.to_id, e.kind))]

    return {
        "base": {
            "nodes": [
                {"id": o.id, "layer": o.layer, "category": o.category, "label": o.label}
                for o in sorted(doc.objects, key=lambda o: o.id)
            ],
            "intra_edges": rel_list(base.intra_edges),
            "vertical_edges": rel_list(base.vertical_edges),
        },
        "attack": {"edges": [e.as_dict() for e in graph.edges]},
        "object_count": len(doc.objects),
        "attack_edge_count": len(graph.edges),
    }


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def graphs_to_dot(graph: AttackGraph) -> str:
    """Render both graphs as one DOT digraph, layers drawn as clusters.

    Output is byte-stable for a fixed scenario: clusters, nodes, and edges
    are emitted in sorted order.
    """
    lines = ["digraph scenario {", "  rankdir=TB;", "  node [shape=box];"]
    layer_order = ("application", "service", "virtual", "physical")
    objects = sorted(graph.doc.objects, key=lambda o: o.id)
    for layer in layer_order:
        members = [o for o in objects if o.layer == layer]
        if not members:
            continue
        lines.append(f"  subgraph cluster_{layer} {{")
        lines.append(f"    label={_dot_quote(layer)};")
        for o in members:
            label = f"{o.id}\\n{o.label}" if o.label else o.id
            lines.append(f"    {_dot_quote(o.id)} [label={_dot_quote(label)}];")
        lines.append("  }")
    base = graph.base
    rels = sorted(base.intra_edges + base.vertical_edges, key=lambda e: (e.from_id, e.to_id, e.kind))
    for e in rels:
        attrs = [f"label={_dot_quote(e.kind)}", "color=gray50", "fontcolor=gray50"]
        if not e.directed:
            attrs.append("dir=none")
        lines.append(f"  {_dot_quote(e.from_id)} -> {_dot_quote(e.to_id)} [{', '.join(attrs)}];")
    for e in graph.edges:
        label = f"{e.edge_id} {e.permission}"
        lines.append(
            f"  {_dot_quote(e.from_id)} -> {_dot_quote(e.to_id)} "
            f"[label={_dot_quote(label)}, color=red3, fontcolor=red3, style=bold];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
