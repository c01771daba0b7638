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

Every rule lives in one successor step, `_successors`, which returns the
valid one-edge extensions of a chain prefix. One depth-first walk over it,
`_walk`, yields every chain enumeration emits as a bare prefix tuple;
min-cost search pops prefixes from a heap, and the validity check feeds
the step one candidate edge at a time, asking for rejection reasons. Each
prefix carries its cost and threat, so a finished chain is never re-summed.

The walk's readers build an AttackChain only for a chain they print:
- `enumerate_chains` packages each prefix and sorts the chains into
  canonical (length, edge ids) order; `search_chain` under `max_threat`
  packages only its winner;
- `defense.risk_assess` keeps each end object's chain count, maximum
  threat and minimum cost, resolving ties in canonical order;
- `defense._target_rows`, the row source of both planners and the
  reactive defender, keeps each chain's edge ids, signature and threat.

Enumeration restricted to goal objects prunes by backward reachability.
One reverse breadth-first search from the goals over the unblocked attack
edges gives each object the fewest edges it needs to reach a goal. A
prefix is only offered the edges that land on a goal or end within the
length left of one, and a step is only extended when its end can still
reach a goal in time. The prune is sound under both semantics: the search
ignores conditions, entry_only and the simple-path guard, and each of
these only removes chains (grants only grow along a chain, Ammann,
Wijesekera & Kaushik, CCS 2002), so the distance never exceeds what any
valid chain needs, and the prune drops no chain. Unrestricted enumeration
skips it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EngineConfig
from .graphs import AttackGraph, HierarchicalGraph
from .model import AttackRecord, EmptyEntryGrantsError, Grant, UnknownIdError


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
    target: str | None = None  # None = any scenario target


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


def _entry_grants(graph: AttackGraph, entry_grants) -> frozenset[Grant]:
    """The attacker's foothold: entry_grants when given, else the scenario's."""
    entry = tuple(entry_grants) if entry_grants is not None else graph.doc.entry_grants
    if not entry:
        raise EmptyEntryGrantsError("scenario declares no entry grants")
    return frozenset(entry)


def _root(entry: frozenset[Grant], config: EngineConfig) -> tuple:
    """The empty chain prefix.

    A prefix is a plain tuple (edges, grants, fired, affected, last, cost,
    threat): edge ids, grants held (frozenset), attack ids in firing order,
    affected object ids, the last AttackEdge (None before the first step),
    and the chain's cost and threat so far. An empty chain reports int 0
    cost and threat, or 0.0 threat under threat_agg "max".
    """
    return ((), entry, (), (), None, 0, 0.0 if config.threat_agg == "max" else 0)


def _next_edges(graph: AttackGraph, last):
    """Every edge when the chain is empty, else the edges leaving last's object."""
    return graph.edges if last is None else graph.by_from.get(last.to_id, ())


def _successors(graph: AttackGraph, prefix, candidates, entry, config: EngineConfig, blocked, why=None) -> list:
    """The valid one-edge extensions of prefix: the one place chain rules live.

    candidates=None tries every edge adjacent to the prefix's end (every
    edge for the empty prefix). When why is a list, the reason each
    rejected candidate fails is appended to it. Cost and threat grow by each
    newly fired attack in firing order, as a sum over fired attacks would
    (or a max of severities under threat_agg "max").
    """
    edges, grants, fired, affected, last, cost, threat = prefix
    if last is None:
        start = None
        pool = entry if config.semantics == "strict" else grants
    else:
        start = last.to_id
        pool = entry | {Grant(start, last.permission)} if config.semantics == "strict" else grants
    if candidates is None:
        candidates = _next_edges(graph, last)
    use_max = config.threat_agg == "max"
    attacks = graph.attacks
    out = []
    need = None
    for edge in candidates:
        record = attacks[edge.attack_id]
        if start is not None and edge.from_id != start:
            fault = "not adjacent: previous edge ends at {start}, this one starts at {edge.from_id}"
        elif edge.to_id in affected:
            fault = "object {edge.to_id} already affected (chain must stay simple)"
        elif record.entry_only and start is not None:
            fault = "attack {record.id} is entry-only and cannot fire mid-chain"
        elif record.id in blocked:
            fault = "attack {record.id} is blocked"
        else:
            for need in record.condition:
                if need not in pool:
                    fault = "unsatisfied <{need.object}, {need.permission}>"
                    break
            else:
                step = edges + (edge.edge_id,)
                if record.id in fired:
                    out.append((step, grants, fired, affected + (edge.to_id,), edge, cost, threat))
                    continue
                severity = record.severity
                if use_max:
                    new_threat = severity if not fired or severity > threat else threat
                else:
                    new_threat = threat + severity
                out.append(
                    (
                        step,
                        grants.union(record.a_results),
                        fired + (record.id,),
                        affected + (edge.to_id,),
                        edge,
                        cost + record.cost,
                        new_threat,
                    )
                )
                continue
        if why is not None:
            why.append(fault.format(start=start, edge=edge, record=record, need=need))
    return out


def _chain(prefix) -> AttackChain:
    edges, grants, _, _, _, cost, threat = prefix
    return AttackChain(edges=edges, total_cost=cost, total_threat=threat, final_grants=tuple(sorted(grants)))


def _replay(graph, edge_ids, config, entry_grants) -> tuple[ChainCheck, tuple]:
    """Feed edge_ids through the successor step one at a time: (check, last prefix)."""
    entry = _entry_grants(graph, entry_grants)
    edges = [graph.edge(eid) for eid in edge_ids]
    prefix = _root(entry, config)
    states = [AttackerState(tuple(sorted(entry)), ())]
    for i, edge in enumerate(edges):
        why: list[str] = []
        step = _successors(graph, prefix, (edge,), entry, config, frozenset(), why)
        if not step:
            return ChainCheck(False, tuple(states), failed_index=i, reason=why[0]), prefix
        prefix = step[0]
        states.append(AttackerState(tuple(sorted(prefix[1])), prefix[2]))
    return ChainCheck(True, tuple(states)), prefix


def is_valid_chain(
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
    return _replay(graph, edge_ids, config, entry_grants)[0]


def chain_from_edges(
    graph: AttackGraph,
    edge_ids,
    config: EngineConfig = DEFAULT_CONFIG,
    entry_grants=None,
) -> AttackChain:
    """Validate an explicit edge sequence and package it as an AttackChain."""
    check, prefix = _replay(graph, edge_ids, config, entry_grants)
    if not check.valid:
        raise ValueError(f"not a valid chain at index {check.failed_index}: {check.reason}")
    return _chain(prefix)


def _resolve_targets(graph: AttackGraph, targets, default_to_scenario: bool) -> frozenset[str] | None:
    """The goal set: targets checked against the graph's objects, else the scenario's or None."""
    if targets is None:
        return frozenset(graph.doc.targets) if default_to_scenario else None
    goal = frozenset(targets)
    for target in sorted(goal):
        if target not in graph.base.layers:
            raise UnknownIdError(f"unknown target {target!r}")
    return goal


def _goal_distance(graph: AttackGraph, goal: frozenset[str], blocked) -> dict[str, int]:
    """Object id -> the fewest unblocked attack edges (at least one) to any goal.

    A multi-source breadth-first search backwards from the goals over
    graph.by_to. A goal gets a distance only when it can reach a goal
    again; an object missing from the map reaches none. Conditions,
    entry_only and the simple-path guard are ignored: each only removes
    chains, so the distance never exceeds the edges a valid chain needs.
    """
    dist: dict[str, int] = {}
    frontier = list(goal)
    level = 0
    while frontier:
        level += 1
        reached = []
        for obj in frontier:
            for edge in graph.by_to.get(obj, ()):
                if edge.from_id not in dist and edge.attack_id not in blocked:
                    dist[edge.from_id] = level
                    reached.append(edge.from_id)
        frontier = reached
    return dist


def _walk(graph: AttackGraph, entry: frozenset[Grant], goal, config: EngineConfig, blocked):
    """Yield every chain prefix enumeration emits, depth first, not in canonical order.

    With goal None every valid prefix of at most config.max_len edges is
    yielded; with a goal set only the prefixes ending on a goal, and
    prefixes that cannot reach a goal within the length left are never
    expanded (see the module docstring).
    """
    max_len = config.max_len
    stack = [_root(entry, config)]
    if goal is None:
        while stack:
            prefix = stack.pop()
            for step in _successors(graph, prefix, None, entry, config, blocked):
                yield step
                if len(step[0]) < max_len:
                    stack.append(step)
        return
    # An object without a distance reaches no goal; the default max_len
    # exceeds every room, so such an end is never extended.
    dist = _goal_distance(graph, goal, blocked)
    # (object, room) -> the edges leaving object worth trying when room
    # edges are left after them; None stands for the empty chain's end.
    memo: dict = {}
    while stack:
        prefix = stack.pop()
        last = prefix[4]
        room = max_len - len(prefix[0]) - 1  # edges left after the next step
        key = (None if last is None else last.to_id, room)
        candidates = memo.get(key)
        if candidates is None:
            candidates = memo[key] = [
                e for e in _next_edges(graph, last) if e.to_id in goal or dist.get(e.to_id, max_len) <= room
            ]
        for step in _successors(graph, prefix, candidates, entry, config, blocked):
            end = step[4].to_id
            if end in goal:
                yield step
            if dist.get(end, max_len) <= room:
                stack.append(step)


def enumerate_chains(
    graph: AttackGraph,
    targets=None,
    config: EngineConfig = DEFAULT_CONFIG,
    blocked_attacks: frozenset[str] = frozenset(),
    entry_grants=None,
) -> tuple[AttackChain, ...]:
    """Every valid simple chain up to config.max_len edges, in canonical order.

    targets (object ids, each checked) picks the goal objects; without it
    all valid chains are returned. blocked_attacks removes every edge of
    the named attacks before searching, and entry_grants overrides the
    scenario foothold. With a goal set, prefixes that cannot reach a goal
    within the length left are never expanded (see the module docstring).
    Ordering: (length, edge-id tuple).
    """
    entry = _entry_grants(graph, entry_grants)
    goal = _resolve_targets(graph, targets, False)
    results = [_chain(step) for step in _walk(graph, entry, goal, config, blocked_attacks)]
    results.sort(key=AttackChain.sort_key)
    return tuple(results)


def search_chain(
    graph: AttackGraph,
    objective: ChainObjective,
    config: EngineConfig = DEFAULT_CONFIG,
    blocked_attacks: frozenset[str] = frozenset(),
    entry_grants=None,
) -> AttackChain | None:
    """Best chain of at most config.max_len edges to the objective's target.

    Returns None when no chain exists. min_cost runs uniform-cost search
    over (position, grants) states; grant monotonicity keeps the space
    finite. Prefixes pop in (cost, length, edge-ids) order, so the first
    goal hit is also the canonical tie-break winner. max_threat walks every
    chain to the target and packages only the winner. Ties break by
    (length, lexicographic edge ids) in both modes.
    """
    entry = _entry_grants(graph, entry_grants)
    target = objective.target
    goal = _resolve_targets(graph, None if target is None else (target,), True)
    if not goal:
        return None

    if objective.kind == "max_threat":
        walk = _walk(graph, entry, goal, config, blocked_attacks)
        best = min(walk, key=lambda step: (-step[6], len(step[0]), step[0]), default=None)
        return None if best is None else _chain(best)
    if objective.kind != "min_cost":
        raise ValueError(f"unknown objective kind {objective.kind!r}")

    max_len = config.max_len
    heap: list = [(0, 0, (), _root(entry, config))]
    seen: set = set()
    while heap:
        _, length, _, prefix = heapq.heappop(heap)
        last = prefix[4]
        if last is not None:
            if last.to_id in goal:
                return _chain(prefix)
            # Two prefixes landing on the same (position, pair, fired,
            # affected) state have identical continuations; the first pop
            # dominates in the full (cost, length, lexicographic) order.
            key = (last.to_id, last.permission, frozenset(prefix[2]), frozenset(prefix[3]))
            if key in seen:
                continue
            seen.add(key)
        if length < max_len:
            for step in _successors(graph, prefix, None, entry, config, blocked_attacks):
                heapq.heappush(heap, (step[5], length + 1, step[0], step))
    return None


# --- potential chains --------------------------------------------------------

def _base_paths(base: HierarchicalGraph, src: str, dst: str, max_len: int):
    """Simple node paths src..dst over relationship edges, at most max_len hops.

    Depth first with an explicit stack, so a path may be longer than the
    interpreter's recursion limit; the result is sorted, so the visiting
    order does not show.
    """
    out: list[tuple[str, ...]] = []
    stack = [(src,)]
    while stack:
        path = stack.pop()
        here = path[-1]
        if here == dst and len(path) > 1:
            out.append(path)
            continue
        if len(path) > max_len:
            continue
        stack.extend(path + (nxt,) for nxt in base.neighbors(here) if nxt not in path)
    return sorted(out, key=lambda p: (len(p), p))


def generate_potential_chains(
    graph: AttackGraph,
    from_id: str,
    to_id: str,
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[PotentialChain, ...]:
    """Base-graph paths of at most config.max_len hops the catalog cannot cover yet.

    A hop is covered when some attack edge runs along it. Paths with no gap
    are ordinary chain material and are excluded. For each missing hop the
    catalog is scanned for records attacking an object of the hop's
    from-category; when the following hop is covered, records must also be
    able to grant what that next attack requires on the hop's to-object.
    """
    base = graph.base
    for oid in (from_id, to_id):
        if oid not in base.layers:
            raise UnknownIdError(f"unknown object {oid!r}")
    by_id = graph.doc.object_by_id()

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
    for path in _base_paths(base, from_id, to_id, config.max_len):
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
