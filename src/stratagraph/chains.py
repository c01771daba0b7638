"""Attack-chain validity, enumeration, optimal search, and gap analysis.

A chain is an ordered run of attack edges in which (a) consecutive edges
are adjacent (each edge starts at the object the previous one affected),
(b) no object is affected twice (simple-path guard), and (c) every attack's
condition is satisfied at the moment its edge is traversed. Firing an
attack grants ALL of its a_results, not only the traversed edge's pair: the
edge is a view of the attack event, not the event itself.

Condition satisfaction has two modes. "accumulated" (default) checks
against every grant collected so far (an attacker keeps footholds).
"strict" checks only against the entry grants plus the pair granted by the
immediately preceding edge, the literal adjacent-edge rule. A chain's cost
and threat count each distinct attack once, even when several of its edges
appear on the chain.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EngineConfig
from .graphs import AttackEdge, AttackGraph, HierarchicalGraph
from .model import (
    AttackRecord,
    EmptyEntryGrantsError,
    Grant,
    ScenarioDoc,
    UnknownIdError,
)


@dataclass(frozen=True)
class AttackerState:
    """Snapshot of the attacker mid-chain: grants held, attacks fired."""

    grants: tuple[Grant, ...]
    fired: tuple[str, ...]

    def as_dict(self) -> dict:
        return {"grants": [g.as_dict() for g in self.grants], "fired": list(self.fired)}


@dataclass(frozen=True)
class AttackChain:
    edges: tuple[str, ...]
    total_cost: float
    total_threat: float
    final_grants: tuple[Grant, ...]

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "total_cost": self.total_cost,
            "total_threat": self.total_threat,
            "final_grants": [g.as_dict() for g in self.final_grants],
        }

    def sort_key(self):
        return (len(self.edges), self.edges)


@dataclass(frozen=True)
class ChainObjective:
    kind: str  # "min_cost" | "max_threat"
    max_len: int = 8
    target: str | None = None  # None = any scenario target

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass(frozen=True)
class ChainCheck:
    valid: bool
    states: tuple[AttackerState, ...]
    failed_index: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class PotentialChain:
    """A base-graph path the catalog cannot fully realize yet."""

    path: tuple[str, ...]
    missing_hops: tuple[tuple[str, str], ...]
    suggestions: tuple[tuple[str, ...], ...]  # attack ids, one tuple per missing hop

    def as_dict(self) -> dict:
        return {
            "path": list(self.path),
            "missing_hops": [
                {"from": f, "to": t, "suggested_attacks": list(s)}
                for (f, t), s in zip(self.missing_hops, self.suggestions)
            ],
        }


def _satisfied(condition, grants, entry, last_edge, semantics: str) -> Grant | None:
    """Return the first unsatisfied requirement, or None when all hold."""
    if semantics == "strict":
        allowed = set(entry)
        if last_edge is not None:
            allowed.add(Grant(last_edge.to_id, last_edge.permission))
        pool = allowed
    else:
        pool = grants
    for need in condition:
        if need not in pool:
            return need
    return None


def _aggregate(graph: AttackGraph, fired: tuple[str, ...], config: EngineConfig) -> tuple[float, float]:
    records = [graph.attacks[a] for a in fired]
    cost = sum(r.cost for r in records)
    if config.threat_agg == "max":
        threat = max((r.severity for r in records), default=0.0)
    else:
        threat = sum(r.severity for r in records)
    return cost, threat


def _make_chain(graph, fired, grants, edge_ids, config) -> AttackChain:
    cost, threat = _aggregate(graph, fired, config)
    return AttackChain(
        edges=tuple(edge_ids),
        total_cost=cost,
        total_threat=threat,
        final_grants=tuple(sorted(grants)),
    )


def is_valid_chain(
    doc: ScenarioDoc,
    graph: AttackGraph,
    edge_ids,
    config: EngineConfig = DEFAULT_CONFIG,
    entry_grants=None,
) -> ChainCheck:
    """Replay a candidate edge sequence and report validity.

    On failure the check carries the first failing index and a reason; on
    success it carries the full attacker-state trace (entry state first).
    entry_grants overrides the scenario's foothold (the simulation replays
    from the attacker's current grants).
    """
    entry_grants = tuple(entry_grants) if entry_grants is not None else doc.entry_grants
    if not entry_grants:
        raise EmptyEntryGrantsError("scenario declares no entry grants")
    edges = [graph.edge(eid) for eid in edge_ids]

    grants: set[Grant] = set(entry_grants)
    fired: list[str] = []
    fired_set: set[str] = set()
    affected: set[str] = set()
    states = [AttackerState(tuple(sorted(grants)), ())]
    last: AttackEdge | None = None

    def fail(i: int, reason: str) -> ChainCheck:
        return ChainCheck(False, tuple(states), failed_index=i, reason=reason)

    for i, edge in enumerate(edges):
        record: AttackRecord = graph.attacks[edge.attack_id]
        if last is not None and last.to_id != edge.from_id:
            return fail(i, f"not adjacent: previous edge ends at {last.to_id}, this one starts at {edge.from_id}")
        if edge.to_id in affected:
            return fail(i, f"object {edge.to_id} already affected (chain must stay simple)")
        if record.entry_only and i > 0:
            return fail(i, f"attack {record.id} is entry-only and cannot fire mid-chain")
        missing = _satisfied(record.condition, grants, entry_grants, last, config.semantics)
        if missing is not None:
            return fail(i, f"unsatisfied <{missing.object}, {missing.permission}>")
        if record.id not in fired_set:
            fired.append(record.id)
            fired_set.add(record.id)
        grants.update(record.a_results)
        affected.add(edge.to_id)
        last = edge
        states.append(AttackerState(tuple(sorted(grants)), tuple(fired)))

    return ChainCheck(True, tuple(states))


def chain_from_edges(
    doc: ScenarioDoc,
    graph: AttackGraph,
    edge_ids,
    config: EngineConfig = DEFAULT_CONFIG,
    entry_grants=None,
) -> AttackChain:
    """Validate an explicit edge sequence and package it as an AttackChain."""
    check = is_valid_chain(doc, graph, edge_ids, config=config, entry_grants=entry_grants)
    if not check.valid:
        raise ValueError(f"not a valid chain at index {check.failed_index}: {check.reason}")
    final = check.states[-1]
    return _make_chain(graph, final.fired, final.grants, tuple(edge_ids), config)


def _resolve_targets(doc: ScenarioDoc, target: str | None, default_to_scenario: bool) -> frozenset[str] | None:
    if target is not None:
        if target not in doc.object_ids():
            raise UnknownIdError(f"unknown target {target!r}")
        return frozenset((target,))
    if default_to_scenario:
        return frozenset(doc.targets)
    return None


def enumerate_chains(
    doc: ScenarioDoc,
    graph: AttackGraph,
    max_len: int | None = None,
    target: str | None = None,
    targets=None,
    config: EngineConfig = DEFAULT_CONFIG,
    blocked_attacks: frozenset[str] = frozenset(),
    entry_grants=None,
) -> tuple[AttackChain, ...]:
    """Every valid simple chain, depth-first, returned in canonical order.

    target picks one goal object; targets (an iterable) filters on a set;
    with neither, all valid chains are returned. blocked_attacks removes
    every edge of the named attacks before searching (used by defense
    verification and the simulation), and entry_grants overrides the
    scenario foothold. Ordering: (length, edge-id tuple).
    """
    entry_grants = tuple(entry_grants) if entry_grants is not None else doc.entry_grants
    if not entry_grants:
        raise EmptyEntryGrantsError("scenario declares no entry grants")
    if max_len is None:
        max_len = config.max_len
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    goal = _resolve_targets(doc, target, False)
    if goal is None and targets is not None:
        goal = frozenset(targets)
    semantics = config.semantics
    entry = frozenset(entry_grants)
    results: list[AttackChain] = []

    def extend(prefix, grants, fired, fired_set, affected, last):
        candidates = graph.edges if last is None else graph.by_from.get(last.to_id, ())
        for edge in candidates:
            if edge.attack_id in blocked_attacks or edge.to_id in affected:
                continue
            record = graph.attacks[edge.attack_id]
            if record.entry_only and last is not None:
                continue
            if _satisfied(record.condition, grants, entry, last, semantics) is not None:
                continue
            new_fired = fired if record.id in fired_set else fired + (record.id,)
            new_grants = grants | frozenset(record.a_results)
            edge_ids = prefix + (edge.edge_id,)
            if goal is None or edge.to_id in goal:
                results.append(_make_chain(graph, new_fired, new_grants, edge_ids, config))
            if len(edge_ids) < max_len:
                extend(edge_ids, new_grants, new_fired, fired_set | {record.id}, affected | {edge.to_id}, edge)

    extend((), entry, (), frozenset(), frozenset(), None)
    results.sort(key=AttackChain.sort_key)
    return tuple(results)


def search_chain(
    doc: ScenarioDoc,
    graph: AttackGraph,
    objective: ChainObjective,
    config: EngineConfig = DEFAULT_CONFIG,
    blocked_attacks: frozenset[str] = frozenset(),
    entry_grants=None,
) -> AttackChain | None:
    """Best chain to the objective's target, or None when no chain exists.

    min_cost runs uniform-cost search over (position, grants) states;
    grant monotonicity keeps the space finite. Prefixes pop in
    (cost, length, edge-ids) order, so the first goal hit is also the
    canonical tie-break winner. max_threat is exhaustive within max_len.
    Ties break by (length, lexicographic edge ids) in both modes.
    """
    entry_grants = tuple(entry_grants) if entry_grants is not None else doc.entry_grants
    if not entry_grants:
        raise EmptyEntryGrantsError("scenario declares no entry grants")
    goal = _resolve_targets(doc, objective.target, True)
    if not goal:
        return None
    max_len = objective.max_len

    if objective.kind == "max_threat":
        best = None
        for chain in enumerate_chains(
            doc,
            graph,
            max_len=max_len,
            targets=goal,
            config=config,
            blocked_attacks=blocked_attacks,
            entry_grants=entry_grants,
        ):
            if best is None or (-chain.total_threat, chain.sort_key()) < (-best.total_threat, best.sort_key()):
                best = chain
        return best
    if objective.kind != "min_cost":
        raise ValueError(f"unknown objective kind {objective.kind!r}")

    semantics = config.semantics
    entry = frozenset(entry_grants)
    heap: list = []

    def push(edge_ids, grants, fired, fired_set, affected, edge):
        cost, _ = _aggregate(graph, fired, config)
        heapq.heappush(heap, (cost, len(edge_ids), edge_ids, grants, fired, fired_set, affected, edge))

    def expand(edge_ids, grants, fired, fired_set, affected, last):
        candidates = graph.edges if last is None else graph.by_from.get(last.to_id, ())
        for edge in candidates:
            if edge.attack_id in blocked_attacks or edge.to_id in affected:
                continue
            record = graph.attacks[edge.attack_id]
            if record.entry_only and last is not None:
                continue
            if _satisfied(record.condition, grants, entry, last, semantics) is not None:
                continue
            new_fired = fired if record.id in fired_set else fired + (record.id,)
            push(
                edge_ids + (edge.edge_id,),
                grants | frozenset(record.a_results),
                new_fired,
                fired_set | {record.id},
                affected | {edge.to_id},
                edge,
            )

    expand((), entry, (), frozenset(), frozenset(), None)
    seen: set = set()
    while heap:
        cost, length, edge_ids, grants, fired, fired_set, affected, edge = heapq.heappop(heap)
        if edge.to_id in goal:
            return _make_chain(graph, fired, grants, edge_ids, config)
        # Two prefixes landing on the same (position, pair, fired, affected)
        # state have identical continuations; the first pop dominates in the
        # full (cost, length, lexicographic) order.
        key = (edge.to_id, edge.permission, fired_set, affected)
        if key in seen:
            continue
        seen.add(key)
        if length < max_len:
            expand(edge_ids, grants, fired, fired_set, affected, edge)
    return None


# --- potential chains --------------------------------------------------------

def _base_paths(base: HierarchicalGraph, src: str, dst: str, max_len: int):
    """Simple node paths src..dst over relationship edges, at most max_len hops."""
    out: list[tuple[str, ...]] = []

    def walk(path: tuple[str, ...]):
        here = path[-1]
        if here == dst and len(path) > 1:
            out.append(path)
            return
        if len(path) > max_len:
            return
        for nxt in base.neighbors(here):
            if nxt not in path:
                walk(path + (nxt,))

    walk((src,))
    return sorted(out, key=lambda p: (len(p), p))


def generate_potential_chains(
    doc: ScenarioDoc,
    base: HierarchicalGraph,
    graph: AttackGraph,
    from_id: str,
    to_id: str,
    max_len: int | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[PotentialChain, ...]:
    """Base-graph paths from source to destination the catalog cannot cover yet.

    A hop is covered when some attack edge runs along it. Paths with no gap
    are ordinary chain material and are excluded. For each missing hop the
    catalog is scanned for records attacking an object of the hop's
    from-category; when the following hop is covered, records must also be
    able to grant what that next attack requires on the hop's to-object.
    """
    for oid in (from_id, to_id):
        if oid not in base.layers:
            raise UnknownIdError(f"unknown object {oid!r}")
    if max_len is None:
        max_len = config.max_len
    by_id = doc.object_by_id()

    def covering_attacks(f: str, t: str) -> list[AttackRecord]:
        return [graph.attacks[e.attack_id] for e in graph.by_from.get(f, ()) if e.to_id == t]

    def suggestions_for(f: str, t: str, nxt: str | None) -> tuple[str, ...]:
        want_category = by_id[f].category
        next_needs = covering_attacks(t, nxt) if nxt is not None else []
        out = []
        for record in graph.sorted_attacks:
            if by_id[record.object].category != want_category:
                continue
            if next_needs:
                perms = {g.permission for g in record.a_results}
                if not any(
                    all(need.permission in perms for need in a.condition if need.object == t) for a in next_needs
                ):
                    continue
            out.append(record.id)
        return tuple(out)

    results = []
    for path in _base_paths(base, from_id, to_id, max_len):
        hops = list(zip(path, path[1:]))
        missing = [(i, f, t) for i, (f, t) in enumerate(hops) if not covering_attacks(f, t)]
        if not missing:
            continue
        suggestions = []
        for i, f, t in missing:
            nxt = hops[i + 1][1] if i + 1 < len(hops) else None
            suggestions.append(suggestions_for(f, t, nxt))
        results.append(PotentialChain(path, tuple((f, t) for _, f, t in missing), tuple(suggestions)))
    results.sort(key=lambda p: (len(p.missing_hops), p.path))
    return tuple(results)
