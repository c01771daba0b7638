"""Defense selection: per-attack coverage, budgeted blocking, chain cutting.

Defenses neutralize whole attacks (every edge of every attack named in
their d_results). A chain is broken as soon as one of its edges is
neutralized; cutting means no valid chain reaches any target afterwards.
Edge removal is monotone (removing edges never creates chains), so
hitting every currently valid chain is sound, and the cut planner verifies
itself by walking the chains again after selection.

The planners see a chain only through its signature: the bitmask of the
defenses that break it, the OR of its attacks' masks in the attack graph's
per-attack defense index (bit k is the k-th defense by id). The chain walk
carries the signature on each prefix, ORing an attack's mask in as the
attack fires. Every planner takes its chains from one row source,
_target_rows, which reads each chain's edge ids, signature and threat off
the walk in canonical order. _kernel groups them into (signature, weight)
rows, one per distinct signature, and the planners search the rows
instead of the chains (the minimum critical attack set view of Jha,
Sheyner & Wing, CSFW 2002).
plan_budgeted and the reactive defender both plan in _budget_choice:
_target_rows -> _kernel -> _choose. The reactive defender's turn is
_respond, which alone builds and reads the defender's state between turns:
the grants and the applied defenses of its last prediction as masks, that
prediction's rows and the walk context of the game. The game holds the
state and hands it back on the next turn without looking inside. The first
prediction of a game is a fresh _target_rows walk; every later one updates
the last rows: it drops the rows a new defense breaks and adds the chains
that are new under the grants won since, which a walk given those grants
yields and nothing else (chains._walk's via). plan_cut weighs each
row by its chain count and either runs _hitting_set_exact over the rows'
signatures or calls the shared _greedy with an infinite budget: hits per
cost over chains is row weight per cost. An AttackChain is built only to
be printed, replayed from its edge ids: the survivor sample of a budget
plan and the uncut chain of an infeasible cut.

risk_assess reads the chain walk too: each emitted prefix updates its end
object's count, maximum threat and minimum cost, and no chain is built.
This follows the attack-graph tools that aggregate over all paths without
listing them (Ingols, Lippmann & Piwowarski, ACSAC 2006; Ou, Boyer &
McQueary, CCS 2006).
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter
from typing import NamedTuple

from .chains import AttackChain, _canonical, _entry_grants, _foothold, _resolve_targets, _walk, chain_from_edges
from .config import DEFAULT_CONFIG, EngineConfig
from .graphs import AttackGraph
from .model import DefenseRecord, InfeasibleCutError, UnknownIdError

# Budget feasibility allows this much float slop on summed costs.
EPS = 1e-9

_weight = itemgetter(1)  # a kernel row's weight


class DefensePlan(NamedTuple):
    chosen: tuple[str, ...]
    total_cost: float
    neutralized_edges: tuple[str, ...]
    surviving_count: int
    surviving_sample: tuple[AttackChain, ...]
    optimal: bool
    uncovered_attacks: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "chosen": list(self.chosen),
            "total_cost": self.total_cost,
            "neutralized_edges": list(self.neutralized_edges),
            "surviving_chains": {
                "count": self.surviving_count,
                "sample": [c.as_dict() for c in self.surviving_sample],
            },
            "optimal": self.optimal,
            "uncovered_attacks": list(self.uncovered_attacks),
        }


def _cheapest_first(graph: AttackGraph, mask: int) -> list[int]:
    """The defense bits of a mask, cheapest first (ties by id, as bits follow ids)."""
    defenses = graph.sorted_defenses
    bits = [k for k in range(len(defenses)) if mask >> k & 1]
    bits.sort(key=lambda k: defenses[k].cost)
    return bits


def applicable_defenses(graph: AttackGraph, attack_id: str) -> tuple[DefenseRecord, ...]:
    """Defenses that neutralize the attack, cheapest first (ties by id)."""
    mask = graph.attack_defenses.get(attack_id)
    if mask is None:
        raise UnknownIdError(f"unknown attack {attack_id!r}")
    return tuple(graph.sorted_defenses[k] for k in _cheapest_first(graph, mask))


def neutralized_attacks(graph: AttackGraph, chosen) -> frozenset[str]:
    mask = graph.defense_mask(chosen)
    return frozenset(a for a, m in graph.attack_defenses.items() if m & mask)


def chain_attacks(graph: AttackGraph, chain: AttackChain) -> frozenset[str]:
    return frozenset(graph.edge(eid).attack_id for eid in chain.edges)


def _finish_plan(graph, chosen, surviving_count, sample, optimal, uncovered=()) -> DefensePlan:
    """The plan for a chosen set that leaves surviving_count chains, sample the first of them.

    The cost sums from 0.0, so it is a float like every other total; the
    neutralized edges are read off graph.edges, which is in id order.
    """
    chosen = tuple(sorted(chosen))
    mask = graph.defense_mask(chosen)
    return DefensePlan(
        chosen=chosen,
        total_cost=sum((graph.defenses[d].cost for d in chosen), 0.0),
        neutralized_edges=tuple(e.edge_id for e in graph.edges if e.defense_mask & mask),
        surviving_count=surviving_count,
        surviving_sample=tuple(sample),
        optimal=optimal,
        uncovered_attacks=tuple(sorted(uncovered)),
    )


def plan_coverage(
    graph: AttackGraph,
    chain: AttackChain,
    config: EngineConfig = DEFAULT_CONFIG,
) -> DefensePlan:
    """One defense per distinct attack on the chain, cheapest available.

    A defense shared by several of the chain's attacks is chosen (and paid
    for) once. Attacks with no applicable defense land in
    uncovered_attacks; the plan is still returned.
    """
    chosen: set[str] = set()
    uncovered: list[str] = []
    for attack_id in sorted(chain_attacks(graph, chain)):
        options = applicable_defenses(graph, attack_id)
        if options:
            chosen.add(options[0].id)
        else:
            uncovered.append(attack_id)
    # Every chosen defense neutralizes an attack on the chain.
    survivors = () if chosen else (chain,)
    return _finish_plan(graph, chosen, len(survivors), survivors[: config.survivor_sample], True, uncovered)


def _target_rows(graph: AttackGraph, entry: int, goal, blocked, config: EngineConfig, context=None) -> list[tuple]:
    """(edge ids, signature, threat) per chain from the entry grant mask to a goal object.

    In canonical (length, edge ids) order; the signature is the one the
    walk carries on each prefix. goal is a set of object ids, every object
    when plan_budgeted plans on a scenario that names no target. No walk
    prefix is kept: a row holds only the three fields the planners read.
    context is the walk context a caller keeps across walks
    (chains._walk_context).
    """
    return _canonical((p[0], p[8], p[7]) for p in _walk(graph, entry, goal, config, blocked, 0, context))


def _respond(graph: AttackGraph, last, grants: int, applied: int, goal, blocked, budget: float, config: EngineConfig):
    """The reactive defender's turn: (the defenses it picks within budget, its state for the next turn).

    grants is the mask of the attacker's grants, applied the mask of the
    defenses applied so far and blocked the attacks they neutralize. last
    is the state the previous turn of the same game returned, or None on
    its first prediction. The state (grants, applied, rows, walk context)
    holds the prediction's chain rows, the _target_rows of those grants to
    goal under blocked, and the walk context every walk of the game shares.
    The first prediction walks afresh. Later ones update the last rows,
    which is exact because grants and defenses only grow within a game:
    - an old chain survives unless a new defense breaks it, which its
      signature tells;
    - a chain under the new grants either was valid under the old grants
      and is an old chain, or it is new, and the via walk yields exactly
      the new chains.
    So the kept rows and the added rows share no chain. The merged rows
    are sorted into canonical order, so _kernel sums the same weights in
    the same order as after a fresh walk. Fewer grants or defenses than
    last time break that rule, and raise RuntimeError.
    """
    if last is None:
        context: dict = {}
        found = _target_rows(graph, grants, goal, blocked, config, context)
    else:
        held, was_applied, rows, context = last
        if held & ~grants or was_applied & ~applied:
            raise RuntimeError("chain rows can only be updated to more grants and more defenses")
        new = applied & ~was_applied
        found = [row for row in rows if not row[1] & new]
        if grants != held:
            added = [(p[0], p[8], p[7]) for p in _walk(graph, grants, goal, config, blocked, grants & ~held, context)]
            if added:
                found = _canonical(found + added)
    return _budget_choice(graph, budget, found, config)[0], (grants, applied, found, context)


def _kernel(pairs) -> list[tuple[int, float]]:
    """(signature, weight) rows: chains grouped by the defenses that break them.

    pairs holds one (signature, weight) per chain, in canonical chain order.
    A row's weight sums its chains' weights in that order; rows keep the
    order of their first chain. Chains with the empty signature are
    dropped: no plan breaks them.
    """
    rows: dict[int, float] = {}
    for sig, weight in pairs:
        if sig:
            rows[sig] = rows.get(sig, 0.0) + weight
    return list(rows.items())


def _budget_choice(graph: AttackGraph, budget: float, found, config: EngineConfig) -> tuple[tuple[str, ...], bool]:
    """plan_budgeted's and the reactive defender's pick from a _target_rows list: (chosen ids, optimal).

    A chain weighs its total threat, or 1.0 under budget_objective "count".
    """
    count = config.budget_objective == "count"
    rows = _kernel((sig, 1.0 if count else threat) for _, sig, threat in found)
    return _choose(graph, rows, budget, config)


def plan_budgeted(
    graph: AttackGraph,
    budget: float,
    targets=None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> DefensePlan:
    """Spend at most the budget to break the most threatening chains to the targets.

    targets None takes the scenario's targets, or every chain when it names
    none. Objective is the summed threat of fully broken chains (chain
    count when config.budget_objective is "count"). Exact search up to
    config.exact_defense_limit defenses, greedy by gain/cost beyond. Exact
    ties resolve toward (max value, min cost, lexicographic id tuple).

    Both searches run over the signature kernel (see _choose). Weights are
    summed in chain order within a row and in row order across rows, so
    when they are not exactly representable a tie may break differently in
    the last bit than a per-chain sum would; the broken value never differs
    by more than EPS.
    """
    entry = _entry_grants(graph, None)
    goal = _resolve_targets(graph, (graph.doc.targets or None) if targets is None else targets)
    if not math.isfinite(budget) or budget < 0:
        raise ValueError(f"budget must be a finite non-negative number, got {budget!r}")
    found = _target_rows(graph, _foothold(graph, entry)[0], goal, frozenset(), config)
    chosen, optimal = _budget_choice(graph, budget, found, config)
    mask = graph.defense_mask(chosen)
    survivors = [edges for edges, sig, _ in found if not sig & mask]
    sample = [chain_from_edges(graph, edges, config, entry) for edges in survivors[: config.survivor_sample]]
    return _finish_plan(graph, chosen, len(survivors), sample, optimal)


def _choose(graph: AttackGraph, rows, budget: float, config: EngineConfig) -> tuple[tuple[str, ...], bool]:
    """The defenses plan_budgeted picks from kernel rows: (sorted ids, optimal).

    The exact search is a depth-first loop over an explicit stack. A node
    (k, chosen, cost, value, live) has decided the defenses before index k
    (in id order): chosen are the ids taken, value the weight they break
    (each adds the rows it newly breaks, in row order), and live the
    unbroken rows that have a defense at k or later. Every node is a
    candidate with key (-value, cost, chosen), and the answer is the
    smallest key of any affordable set. A node with no live row ends its
    branch, since below it value stays and chosen only grows; so does one
    whose value plus the weight of its live rows, widened by more than
    rounding can add, cannot reach the incumbent's. Otherwise defense k
    is taken (when affordable) or skipped, the take child searched first.
    A take that breaks no live row adds cost and no value, so the same
    choices below the skip child beat it; it is searched only when its
    cost is 0 or so small (at most tiny) that rounding could absorb it in
    a later sum. Beyond config.exact_defense_limit defenses it picks with
    _greedy instead, and the choice is not optimal.
    """
    defenses = graph.sorted_defenses
    n = len(defenses)
    if n > config.exact_defense_limit:
        return _greedy(graph, rows, budget), False
    eps = sys.float_info.epsilon
    # Rounding lifts a value below a node over the node's rounded bound by
    # less than this factor: a path sums at most len(rows) + n non-negative
    # terms, each rounding within half an epsilon.
    widen = 1.0 + 4 * (len(rows) + n + 2) * eps
    # A take costing more than this still costs more after the same later
    # takes, rounded: every running cost stays below twice the budget.
    tiny = (2 * n + 2) * eps * (budget + EPS)
    best = (0.0, 0.0, ())  # the root's key: the empty plan
    stack = [(0, (), 0.0, 0.0, rows)]
    while stack:
        k, chosen, cost, value, live = stack.pop()
        key = (-value, cost, chosen)
        if key < best:
            best = key
        if not live or (value + sum(map(_weight, live))) * widen < -best[0]:
            continue
        d = defenses[k]
        after = k + 1
        if cost + d.cost <= budget + EPS:
            # One pass: the weights d breaks, the rows it keeps, and the
            # rows a later defense can still break (the skip child's).
            broken, rest, skip = [], [], []
            for row in live:
                sig = row[0]
                if sig >> k & 1:
                    broken.append(row[1])
                else:
                    rest.append(row)
                if sig >> after:
                    skip.append(row)
            stack.append((after, chosen, cost, value, skip))
            if broken or d.cost <= tiny:
                stack.append((after, chosen + (d.id,), cost + d.cost, value + sum(broken), rest))
        else:
            stack.append((after, chosen, cost, value, [row for row in live if row[0] >> after]))
    return best[2], True


def _greedy(graph: AttackGraph, rows, budget: float) -> tuple[str, ...]:
    """Greedy selection over kernel rows within the budget: sorted ids.

    Takes the best broken-value gain per unit cost, ties by (cost, id),
    until no affordable defense breaks a live row. A chosen defense breaks
    no live row again, so its gain drops to 0. The cut planner calls it
    with an infinite budget and one unit of weight per chain.
    """
    defenses = graph.sorted_defenses
    chosen: list[str] = []
    spent = 0.0
    live = rows
    while True:
        best_pick = None
        for k, d in enumerate(defenses):
            if spent + d.cost > budget + EPS:
                continue
            gain = sum(w for sig, w in live if sig >> k & 1)
            if gain <= 0:
                continue
            ratio = gain / d.cost if d.cost > 0 else float("inf")
            key = (-ratio, d.cost, d.id)
            if best_pick is None or key < best_pick[0]:
                best_pick = (key, k)
        if best_pick is None:
            break
        k = best_pick[1]
        chosen.append(defenses[k].id)
        spent += defenses[k].cost
        live = [r for r in live if not r[0] >> k & 1]
    return tuple(sorted(chosen))


def plan_cut(
    graph: AttackGraph,
    entry_grants=None,
    targets=None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> DefensePlan:
    """Cheapest defense set that severs every valid chain to the targets.

    Solved as a minimum-cost hitting set over the chains' signature rows:
    exact branch-and-bound within config limits, greedy beyond. The result
    is always re-verified by walking the chains again under the
    neutralized attacks; a chain whose attacks admit no defense at all
    makes the cut infeasible. entry_grants/targets default to the
    scenario's own; an unknown target raises UnknownIdError.
    """
    goal = _resolve_targets(graph, graph.doc.targets if targets is None else targets)
    if not goal:
        raise ValueError("plan_cut requires at least one target")
    entry = _entry_grants(graph, entry_grants)
    mask = _foothold(graph, entry)[0]
    found = _target_rows(graph, mask, goal, frozenset(), config)
    for edges, sig, _ in found:
        if not sig:
            raise InfeasibleCutError(
                f"chain {list(edges)} contains no defensible attack; cut impossible",
                uncut_chains=(chain_from_edges(graph, edges, config, entry),),
            )
    # One row per distinct signature, weighted by its chain count. No
    # chain to cut is the empty plan, optimal on either path.
    rows = _kernel((sig, 1.0) for _, sig, _ in found)
    exact = not found or (
        len(found) <= config.exact_chain_limit and len(graph.sorted_defenses) <= config.exact_defense_limit
    )
    chosen = _hitting_set_exact(graph, rows) if exact else _greedy(graph, rows, math.inf)
    # A hitting set of the chains leaves none of them, and edge removal
    # never creates chains; walking again under the neutralized attacks
    # checks both claims.
    remaining = sum(1 for _ in _walk(graph, mask, goal, config, neutralized_attacks(graph, chosen)))
    if remaining:
        raise RuntimeError(f"cut verification failed: {remaining} chains survive after neutralization")
    return _finish_plan(graph, chosen, 0, (), optimal=exact)


def _hitting_set_exact(graph: AttackGraph, rows) -> tuple[str, ...]:
    """Branch-and-bound minimum-cost hitting set over kernel rows.

    A depth-first loop over an explicit stack of (chosen, cost, unbroken)
    nodes, unbroken the indices of the rows no chosen defense breaks, in
    row order. A node with none is a cover; ties resolve toward (cost, set
    size, id tuple). Otherwise the bound adds the cheapest defense of the
    hardest unbroken row, and the node branches on the unbroken row with
    the fewest defenses (ties by row order, so the pivot is the first chain
    of that signature), its children pushed so that the cheapest pops
    first.
    """
    defenses = graph.sorted_defenses
    options = [_cheapest_first(graph, sig) for sig, _ in rows]
    sizes = [len(o) for o in options]
    best: tuple | None = None
    stack = [((), 0.0, list(range(len(rows))))]
    while stack:
        chosen, cost, unbroken = stack.pop()
        if not unbroken:
            key = (cost, len(chosen), tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
            continue
        if best is not None and cost + max(defenses[options[i][0]].cost for i in unbroken) > best[0] + EPS:
            continue
        # min keeps the first of equal sizes, and unbroken is in row order.
        pivot = min(unbroken, key=sizes.__getitem__)
        for k in reversed(options[pivot]):
            d = defenses[k]
            stack.append((chosen + (d.id,), cost + d.cost, [i for i in unbroken if not rows[i][0] >> k & 1]))
    if best is None:
        raise RuntimeError("hitting-set search found no cover although every chain has an option")
    return best[2]


# --- risk --------------------------------------------------------------------

class RiskRow(NamedTuple):
    object: str
    chain_count: int
    max_chain_threat: float
    min_chain_cost: float | None

    def as_dict(self) -> dict:
        return self._asdict()


def risk_assess(
    graph: AttackGraph,
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[RiskRow, ...]:
    """Per-object exposure: how many chains end on it, and how bad they are.

    Objects no chain reaches report zero count (a scenario with no entry
    grants trivially yields the all-zero table). Rows sort by descending
    threat, then object id.

    The chains are never built: the chain walk takes every object as a
    goal, and each prefix it emits updates its end object's count, maximum
    threat and minimum cost. Every total is a float (see
    chains._root), so tied values print alike whichever chain gave them.
    """
    stats: dict[str, list] = {}  # object id -> [count, max threat, min cost]
    doc = graph.doc
    if doc.entry_grants:
        walk = _walk(graph, _foothold(graph, doc.entry_grants)[0], _resolve_targets(graph, None), config, frozenset())
        for _, _, _, _, end, _, cost, threat, _ in walk:
            s = stats.get(end)
            if s is None:
                stats[end] = [1, threat, cost]
                continue
            s[0] += 1
            if threat > s[1]:
                s[1] = threat
            if cost < s[2]:
                s[2] = cost
    rows = []
    for o in doc.objects:
        s = stats.get(o.id)
        rows.append(RiskRow(o.id, 0, 0.0, None) if s is None else RiskRow(o.id, *s))
    rows.sort(key=lambda r: (-r.max_chain_threat, r.object))
    return tuple(rows)
