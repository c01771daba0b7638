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

The rules run over the attack edges (`AttackGraph.edges`, grouped by
from-object in `AttackGraph.by_from`), each of which carries what a step
reads: to object, condition, attack, results, cost, severity, the
attack's defense mask, entry_only, the pair the edge grants, and the bits
of its to object and its attack. `_walk`, the one depth-first walk that
yields every chain enumeration emits as a bare prefix tuple, applies the
rules in its own loop. For each (end, room) it meets, the object a
prefix ends on and the edges left after the next step, `_step_table`
settles once what depends only on that key: adjacency, blocked attacks,
entry_only and whether a step's end is a goal or can still reach one.
Its entries are plain tuples, an edge's fields followed by those flags,
which the loop unpacks in one go: CPython unpacks an exact tuple several
times faster than a named tuple.
The loop then tests only the simple-path guard and the condition, and
fires the attack. Each prefix carries its cost, threat and defense
signature (the OR of its attacks' defense masks), so a finished chain is
never re-summed. It holds its affected objects and its fired attacks as
two int masks, the OR of its edges' `to_bit`s and `attack_bit`s, so the
simple-path guard and the re-fire test are one AND each, and a step ORs
its bits in.

`_successors` applies the same rules to one prefix at a time, naming the
first rule each rejected candidate breaks: the validity check feeds it one
edge at a time for the rejection reasons, and min-cost search pops
prefixes from a heap and extends them with it. The walk does not call it,
because a call per expansion costs most of what the fused loop saves: on
the reactive-sim-M bench workload (2-vCPU host, in process), the same
step records behind a per-expansion step function took walk time from 0.43 s
to 0.39 s, the fused loop to 0.32-0.34 s. tests/test_chains.py pins the
two rule sites to each other.

The walk's readers build an AttackChain only for a chain they print:
- `enumerate_chains` packages each prefix and sorts the chains into
  canonical (length, edge ids) order; `search_chain` under `max_threat`
  packages only its winner;
- `defense.risk_assess` keeps each end object's chain count, maximum
  threat and minimum cost;
- `defense._target_rows`, the row source of both planners and the
  reactive defender, keeps each chain's edge ids, signature and threat.

Every walk goes to a goal set; unrestricted enumeration takes every
object as a goal. The walk prunes by backward reachability. A reverse
breadth-first search from the goals over the unblocked attack edges
(`_distance`) gives each object the fewest edges it needs to reach a
goal. A prefix is only offered the edges that land on a goal or end
within the length left of one, and a step is only extended when its end
can still reach a goal in time; with every object a goal, that is when
its end has an unblocked out-edge and length is left. The prune is sound
under both semantics: the search ignores conditions, entry_only and the
simple-path guard, and each of these only removes chains (grants only
grow along a chain, Ammann, Wijesekera & Kaushik, CCS 2002), so the
distance never exceeds what any valid chain needs, and the prune drops no
chain.

A walk given via grants, the grants won since an earlier walk, yields
only the chains that are new: valid now and invalid under the old
grants. The reactive defender walks so, because every other chain is one
it found before. A chain is new exactly when one of its steps has a
condition the old grants fail: the old entry plus what the chain earned
so far under accumulated semantics, plus the previous pair under strict.
So a prefix stays pending, carrying that old pool, while the old pool
satisfies each step it takes, also a via step (one whose condition holds
a via grant: an edge of an attack that `AttackGraph.needed_by` lists for
a won grant): a chain can earn a won grant itself. A pending prefix is
never emitted. The first step that only the old pool plus the won grants
satisfy is a via step, and it moves the prefix to the full walk with the
won grants added. A pending prefix is extended only while its end can
reach a goal through a via step in the length left. The same backward
search, seeded from the via edges instead of the goals, gives that
distance: each via edge joins it at one more than the edges its end
still needs by the goal search. It ignores the same rules, so it is
sound too, and it is never below the goal distance, so a pending step
table is a filter of the full one for the same (end, room)
(`_pending_table`).

The goal distances and the full step tables depend only on the goal and
the blocked attacks. A walk context (`_walk_context`) keeps them for a
caller's later walks to the same goal under the same blocked set: the
reactive defender keeps one for a game, and renews it when a new defense
grows the blocked set.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .config import DEFAULT_CONFIG, EngineConfig
from .graphs import AttackGraph, HierarchicalGraph
from .model import AttackRecord, EmptyEntryGrantsError, Grant, UnknownIdError


class AttackerState(NamedTuple):
    """Snapshot of the attacker mid-chain: grants held, attacks fired."""

    grants: tuple[Grant, ...]
    fired: tuple[str, ...]


class AttackChain(NamedTuple):
    edges: tuple[str, ...]
    total_cost: float
    total_threat: float
    final_grants: tuple[Grant, ...]

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "total_cost": self.total_cost,
            "total_threat": self.total_threat,
            "final_grants": list(self.final_grants),
        }

    def sort_key(self):
        return (len(self.edges), self.edges)


class ChainObjective(NamedTuple):
    kind: str  # "min_cost" | "max_threat"
    target: str | None = None  # None = any scenario target


class ChainCheck(NamedTuple):
    valid: bool
    states: tuple[AttackerState, ...]
    failed_index: int | None = None
    reason: str | None = None


class PotentialChain(NamedTuple):
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


def _root(entry: frozenset[Grant]) -> tuple:
    """The empty chain prefix.

    A prefix is a plain tuple (edges, grants, fired, affected, end, pair,
    cost, threat, signature): edge ids, grants held (frozenset), the fired
    attacks and the affected objects as int masks (the OR of its edges'
    attack_bit and to_bit), the object the last edge affected and the pair
    Grant it granted (both None before the first step), the chain's cost and
    threat so far, and its defense signature, the OR of the fired attacks'
    defense masks. Both masks start at 0. Cost and threat start at 0.0, and
    the attack edges hold floats, so every total is a float; since no
    severity is negative, the first fired attack's severity is also the
    maximum under threat_agg "max".
    """
    return ((), entry, 0, 0, None, None, 0.0, 0.0, 0)


def _successors(graph: AttackGraph, prefix, candidates, entry, config: EngineConfig, blocked, why=None) -> list:
    """The valid one-edge extensions of prefix, one attack edge at a time.

    candidates=None tries every edge adjacent to the prefix's end (every
    edge for the empty prefix). When why is a list, the reason each
    rejected candidate fails is appended to it, naming the first rule it
    breaks. Cost and threat grow by each newly fired attack in firing
    order, as a sum over fired attacks would (or a max of severities under
    threat_agg "max"). _walk applies the same rules inline.
    """
    edges, grants, fired, affected, end, pair, cost, threat, sig = prefix
    if config.semantics == "strict":
        pool = entry if pair is None else entry | {pair}
    else:
        pool = grants
    if candidates is None:
        candidates = graph.edges if end is None else graph.by_from.get(end, ())
    use_max = config.threat_agg == "max"
    out = []
    for edge in candidates:
        to, attack_id, to_bit, attack_bit = edge.to_id, edge.attack_id, edge.to_bit, edge.attack_bit
        if end is not None and edge.from_id != end:
            fault = "not adjacent: previous edge ends at {end}, this one starts at {edge.from_id}"
        elif to_bit & affected:
            fault = "object {to} already affected (chain must stay simple)"
        elif edge.entry_only and end is not None:
            fault = "attack {edge.attack_id} is entry-only and cannot fire mid-chain"
        elif attack_id in blocked:
            fault = "attack {edge.attack_id} is blocked"
        elif not edge.condition <= pool:
            fault = "unsatisfied <{need.object}, {need.permission}>"
        else:
            path = edges + (edge.edge_id,)
            if attack_bit & fired:
                out.append((path, grants, fired, affected | to_bit, to, edge.grant, cost, threat, sig))
                continue
            if use_max:
                new_threat = edge.severity if edge.severity > threat else threat
            else:
                new_threat = threat + edge.severity
            out.append(
                (
                    path,
                    grants | edge.results,
                    fired | attack_bit,
                    affected | to_bit,
                    to,
                    edge.grant,
                    cost + edge.cost,
                    new_threat,
                    sig | edge.defense_mask,
                )
            )
            continue
        if why is not None:
            # The first unmet grant in the attack record's condition order.
            need = next((n for n in graph.attacks[attack_id].condition if n not in pool), None)
            why.append(fault.format(end=end, to=to, edge=edge, need=need))
    return out


def _chain(prefix) -> AttackChain:
    edges, grants, _, _, _, _, cost, threat, _ = prefix
    return AttackChain(edges=edges, total_cost=cost, total_threat=threat, final_grants=tuple(sorted(grants)))


def _replay(graph, edge_ids, config, entry_grants) -> tuple[ChainCheck, tuple]:
    """Feed edge_ids through the successor step one at a time: (check, last prefix).

    The states list the fired attacks in firing order, which the prefix's
    fired mask does not keep: a step adds its attack when its bit is new.
    """
    entry = _entry_grants(graph, entry_grants)
    edges = [graph.edge(eid) for eid in edge_ids]  # raises on an unknown id before any step
    prefix = _root(entry)
    fired: tuple[str, ...] = ()
    states = [AttackerState(tuple(sorted(entry)), fired)]
    for i, edge in enumerate(edges):
        why: list[str] = []
        step = _successors(graph, prefix, (edge,), entry, config, frozenset(), why)
        if not step:
            return ChainCheck(False, tuple(states), failed_index=i, reason=why[0]), prefix
        if not prefix[2] & edge.attack_bit:
            fired += (edge.attack_id,)
        prefix = step[0]
        states.append(AttackerState(tuple(sorted(prefix[1])), fired))
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
    entry_grants overrides the scenario's foothold, so a chain can be
    checked from any set of grants an attacker holds.
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


def _resolve_targets(graph: AttackGraph, targets) -> frozenset[str]:
    """The goal set: targets checked against the graph's objects, or every object when targets is None."""
    if targets is None:
        return frozenset(graph.base.layers)
    goal = frozenset(targets)
    for target in sorted(goal):
        if target not in graph.base.layers:
            raise UnknownIdError(f"unknown target {target!r}")
    return goal


def _distance(graph: AttackGraph, blocked, frontier, joins: dict[int, list[str]], limit) -> dict[str, int]:
    """Object id -> the fewest unblocked attack edges to a seed, at most limit (None: no cap).

    A breadth-first search backwards over graph.by_to, level by level: an
    object gets level k when an unblocked edge leads from it to the level
    k - 1 frontier, or when joins[k] lists it. The frontier starts as the
    given objects at level 0, which get a level only when reached again.
    The goal search seeds the frontier with the goals, the via search
    seeds joins (see _walk). It stops when the frontier is empty and no
    join is left. Conditions, entry_only and the simple-path guard are
    ignored: each only removes chains, so the distance never exceeds the
    edges a valid chain needs.
    """
    out: dict[str, int] = {}
    last = max(joins, default=0)  # the level of the last join
    level = 0
    while (frontier or level < last) and level != limit:
        level += 1
        reached = []
        for obj in joins.get(level, ()):
            if obj not in out:
                out[obj] = level
                reached.append(obj)
        for obj in frontier:
            for edge in graph.by_to.get(obj, ()):
                if edge.from_id not in out and edge.attack_id not in blocked:
                    out[edge.from_id] = level
                    reached.append(edge.from_id)
        frontier = reached
    return out


def _walk_context(graph: AttackGraph, goal: frozenset[str], blocked, context) -> tuple[dict, dict]:
    """(goal distances, full step tables) for walks to goal under blocked.

    context is a dict a caller keeps across walks, or None for a single
    walk. It holds one entry, keyed by (goal, blocked), so a walk under
    another goal or blocked set starts it afresh and never reads a stale
    table. The tables map (end, room) to _step_table's table, which depends
    on nothing else. The goal search is not capped, since the key holds no
    length.
    """
    key = (goal, blocked)
    kept = None if context is None else context.get(key)
    if kept is None:
        kept = _distance(graph, blocked, goal, {}, None), {}
        if context is not None:
            context.clear()
            context[key] = kept
    return kept


def _step_table(graph: AttackGraph, end, room: int, goal: frozenset[str], dist, blocked) -> list[tuple]:
    """The steps worth trying from end with room edges left after them.

    One entry per step, the plain tuple of the edge's fields, its to_bit
    and attack_bit last, followed by (emit, extend, None), which _walk
    unpacks in one go. The steps are the edges _successors would try:
    every edge from end, or every edge for end None. Adjacency, blocked
    attacks, entry_only and goal reach are settled here once per (end,
    room), so the walk tests only the simple-path guard and the condition.
    end None is the empty chain's end, where every edge is adjacent and
    entry_only steps may fire. emit says whether a chain ending on the
    step's object is yielded, that is whether the object is a goal; extend
    says whether the walk pushes the step to be extended, that is whether
    its end can still reach a goal within room edges (dist). A step that
    does neither is left out. The last field is a pending table's move (see
    _pending_table); a full table has none. The table holds flags only, no
    stack, so one walk context can keep it for every walk to the same goal
    under the same blocked set.
    """
    table = []
    for edge in graph.edges if end is None else graph.by_from.get(end, ()):
        if edge.attack_id in blocked or edge.entry_only and end is not None:
            continue
        to = edge.to_id
        emit = to in goal
        extend = dist.get(to, room + 1) <= room
        if emit or extend:
            table.append(edge + (emit, extend, None))  # a plain tuple: tuple + tuple drops the named type
    return table


def _pending_table(full: list[tuple], room: int, opened, ahead) -> list[tuple]:
    """A via walk's table for a pending prefix, filtered from the full table of its (end, room).

    A pending prefix has taken no new step: its old pool met every
    condition so far. Each entry is the full entry's edge fields
    followed by (False, stay, move):
    - a step the old pool satisfies keeps the prefix pending, a via step
      too. It is never emitted, and stay says whether it is pushed back
      onto the pending stack: only when its end can still reach a goal
      through a via step within room edges (ahead, the via search);
    - move, for a via step (its edge id in opened) only, is the full
      table's (emit, extend). It applies when only the old pool plus the
      won grants satisfy the step: the prefix then moves to the full stack.
    Any other step is left out. The via distance is never below the goal
    distance, so every step kept is in the full table already, and
    one that stays is extended there too: a full entry that is not emitted
    already reads (False, True, None), and is kept as it is.
    """
    table = []
    for entry in full:  # entry[0] is the edge id, entry[3] its to object, entry[-3] its emit
        stay = ahead.get(entry[3], room + 1) <= room
        if entry[0] in opened:
            table.append(entry[:-3] + (False, stay, entry[-3:-1]))
        elif stay:
            table.append(entry[:-3] + (False, True, None) if entry[-3] else entry)
    return table


def _walk(graph: AttackGraph, entry: frozenset[Grant], goal, config: EngineConfig, blocked, via=None, context=None):
    """Yield every chain prefix enumeration emits, depth first, not in canonical order.

    The valid prefixes of at most config.max_len edges that end on a goal
    are yielded (goal holds every object for unrestricted enumeration),
    and prefixes that cannot reach a goal within the length left are never
    expanded (see the module docstring). One loop serves both semantics:
    _step_table settles what depends only on (end, room), and the loop
    applies the simple-path guard and the condition itself, as _successors
    does. context, a dict the caller keeps, lets walks to the same goal
    under the same blocked set share their goal distances and step tables
    (_walk_context).

    via, the grants won since an earlier walk from entry - via, yields only
    the chains that are new: invalid under the old grants (see the module
    docstring). A pending prefix has taken no new step, and its pool is
    the old one: the old entry plus what it earned under accumulated
    semantics, plus the previous pair under strict. A step the old pool
    satisfies keeps it pending, and a step only the old pool plus the won
    grants satisfy moves it to the full walk's stack, the won grants added
    to its grants (_pending_table). The pending stack is drained first, as
    it feeds the other. Without via there is no pending stack.
    """
    max_len = config.max_len
    strict = config.semantics == "strict"
    use_max = config.threat_agg == "max"
    dist, tables = _walk_context(graph, goal, blocked, context)

    def full_table(end, room):
        table = tables.get((end, room))
        if table is None:
            table = tables[end, room] = _step_table(graph, end, room, goal, dist, blocked)
        return table

    stack = []  # prefixes every further step may extend (a full walk's)
    push = stack.append
    if via is None:
        stack.append(_root(entry))
        phases = [(stack, tables, full_table, entry)]
    else:
        old = entry - via
        won = entry - old
        needed_by, by_attack = graph.needed_by, graph.by_attack
        via_edges = {e for g in won for aid in needed_by.get(g, ()) for e in by_attack.get(aid, ())}
        limit = max_len - 1
        joins: dict[int, list[str]] = {}  # level -> objects a via edge reaches a goal from in that many edges
        for e in via_edges:
            left = 0 if e.to_id in goal else dist.get(e.to_id, limit)
            if left < limit and e.attack_id not in blocked:
                joins.setdefault(left + 1, []).append(e.from_id)
        ahead = _distance(graph, blocked, (), joins, limit)
        opened = {e.edge_id for e in via_edges}

        def pending_table(end, room):
            return _pending_table(full_table(end, room), room, opened, ahead)

        phases = [([_root(old)], {}, pending_table, old), (stack, tables, full_table, entry)]
    for todo, own, build, base in phases:
        keep = todo.append
        pop = todo.pop
        while todo:
            edges, grants, fired, affected, end, pair, cost, threat, sig = pop()
            room = max_len - len(edges) - 1  # edges left after the next step
            table = own.get((end, room))
            if table is None:
                table = own[end, room] = build(end, room)
            if not strict:
                pool = grants
            else:
                pool = base if pair is None else base | {pair}
            if base is not entry:  # a pending prefix; a move takes the won grants too
                raised = grants | won
                wider = raised if not strict else entry if pair is None else entry | {pair}
            for (
                edge_id, _, _, to, _, step_cost, severity, _,
                condition, results, mask, _, step_pair, to_bit, attack_bit, emit, extend, move,
            ) in table:
                if to_bit & affected:
                    continue
                if condition <= pool:
                    held, into = grants, keep
                elif move is not None and condition <= wider:
                    # Only the won grants open this step: the chain is new.
                    (emit, extend), held, into = move, raised, push
                else:
                    continue
                if attack_bit & fired:
                    prefix = (edges + (edge_id,), held, fired, affected | to_bit, to, step_pair, cost, threat, sig)
                else:
                    if use_max:
                        new_threat = severity if severity > threat else threat
                    else:
                        new_threat = threat + severity
                    prefix = (
                        edges + (edge_id,),
                        held | results,
                        fired | attack_bit,
                        affected | to_bit,
                        to,
                        step_pair,
                        cost + step_cost,
                        new_threat,
                        sig | mask,
                    )
                if emit:
                    yield prefix
                if extend:
                    into(prefix)


def enumerate_chains(
    graph: AttackGraph,
    targets=None,
    config: EngineConfig = DEFAULT_CONFIG,
    blocked_attacks: frozenset[str] = frozenset(),
    entry_grants=None,
) -> tuple[AttackChain, ...]:
    """Every valid simple chain up to config.max_len edges, in canonical order.

    targets (object ids, each checked) picks the goal objects; without it
    every object is a goal, so all valid chains are returned.
    blocked_attacks removes every edge of the named attacks before
    searching, and entry_grants overrides the scenario foothold. Prefixes
    that cannot reach a goal within the length left are never expanded (see
    the module docstring).
    Ordering: (length, edge-id tuple).
    """
    entry = _entry_grants(graph, entry_grants)
    goal = _resolve_targets(graph, targets)
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
    goal = _resolve_targets(graph, graph.doc.targets if target is None else (target,))
    if not goal:
        return None

    if objective.kind == "max_threat":
        walk = _walk(graph, entry, goal, config, blocked_attacks)
        best = min(walk, key=lambda step: (-step[7], len(step[0]), step[0]), default=None)
        return None if best is None else _chain(best)
    if objective.kind != "min_cost":
        raise ValueError(f"unknown objective kind {objective.kind!r}")

    max_len = config.max_len
    heap: list = [(0, 0, (), _root(entry))]
    seen: set = set()
    while heap:
        _, length, _, prefix = heapq.heappop(heap)
        end = prefix[4]
        if end is not None:
            if end in goal:
                return _chain(prefix)
            # Two prefixes landing on the same (pair, fired, affected)
            # state have identical continuations; the first pop dominates
            # in the full (cost, length, lexicographic) order.
            key = (prefix[5], prefix[2], prefix[3])
            if key in seen:
                continue
            seen.add(key)
        if length < max_len:
            for step in _successors(graph, prefix, None, entry, config, blocked_attacks):
                heapq.heappush(heap, (step[6], length + 1, step[0], step))
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
        stack.extend(path + (nxt,) for nxt in base.adjacency.get(here, ()) if nxt not in path)
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
    suggestions are the records attacking an object of the hop's
    from-category (AttackGraph.same_category_attacks); when the following
    hop is covered, records must also be able to grant what that next
    attack requires on the hop's to-object.
    """
    base = graph.base
    for oid in (from_id, to_id):
        if oid not in base.layers:
            raise UnknownIdError(f"unknown object {oid!r}")

    def covering_attacks(f: str, t: str) -> list[AttackRecord]:
        return [graph.attacks[e.attack_id] for e in graph.by_from.get(f, ()) if e.to_id == t]

    def suggestions_for(f: str, t: str, nxt: str | None) -> tuple[str, ...]:
        next_needs = covering_attacks(t, nxt) if nxt is not None else []
        out = []
        for record in graph.same_category_attacks[f]:
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
