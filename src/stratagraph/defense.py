"""Defense selection: per-attack coverage, budgeted blocking, chain cutting.

Defenses neutralize whole attacks (every edge of every attack named in
their d_results). A chain is broken as soon as one of its edges is
neutralized; cutting means no valid chain reaches any target afterwards.
Edge removal is monotone (removing edges never creates chains), so
hitting every currently valid chain is sound, and the cut planner verifies
itself by re-enumerating after selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chains import AttackChain, enumerate_chains
from .config import DEFAULT_CONFIG, EngineConfig
from .graphs import AttackGraph
from .model import (
    DefenseRecord,
    InfeasibleCutError,
    ScenarioDoc,
    UnknownIdError,
)

# Budget feasibility allows this much float slop on summed costs.
EPS = 1e-9


@dataclass(frozen=True)
class DefensePlan:
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


def applicable_defenses(graph: AttackGraph, attack_id: str) -> tuple[DefenseRecord, ...]:
    """Defenses that neutralize the attack, cheapest first (ties by id)."""
    if attack_id not in graph.attacks:
        raise UnknownIdError(f"unknown attack {attack_id!r}")
    hits = [d for d in graph.defenses.values() if attack_id in d.d_results]
    hits.sort(key=lambda d: (d.cost, d.id))
    return tuple(hits)


def neutralized_attacks(graph: AttackGraph, chosen) -> frozenset[str]:
    out: set[str] = set()
    for did in chosen:
        out.update(graph.defenses[did].d_results)
    return frozenset(out)


def _neutralized_edges(graph: AttackGraph, attacks: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(e.edge_id for a in attacks for e in graph.by_attack.get(a, ())))


def chain_attacks(graph: AttackGraph, chain: AttackChain) -> frozenset[str]:
    return frozenset(graph.edge(eid).attack_id for eid in chain.edges)


def _survivors(graph, chains, blocked: frozenset[str]):
    return [c for c in chains if not (chain_attacks(graph, c) & blocked)]


def _finish_plan(graph, chosen, reference_chains, config, optimal, uncovered=()) -> DefensePlan:
    chosen = tuple(sorted(chosen))
    blocked = neutralized_attacks(graph, chosen)
    survivors = _survivors(graph, reference_chains, blocked)
    return DefensePlan(
        chosen=chosen,
        total_cost=sum(graph.defenses[d].cost for d in chosen),
        neutralized_edges=_neutralized_edges(graph, blocked),
        surviving_count=len(survivors),
        surviving_sample=tuple(survivors[: config.survivor_sample]),
        optimal=optimal,
        uncovered_attacks=tuple(sorted(uncovered)),
    )


def plan_coverage(
    doc: ScenarioDoc,
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
    return _finish_plan(graph, chosen, [chain], config, optimal=True, uncovered=uncovered)


def _break_masks(doc, graph, chains) -> list[int]:
    """For each defense (doc order), a bitmask of the chains it breaks."""
    masks = []
    chain_sets = [chain_attacks(graph, c) for c in chains]
    for d in doc.defenses:
        covered = frozenset(d.d_results)
        mask = 0
        for i, attacks in enumerate(chain_sets):
            if attacks & covered:
                mask |= 1 << i
        masks.append(mask)
    return masks


def plan_budgeted(
    doc: ScenarioDoc,
    graph: AttackGraph,
    chains,
    budget: float,
    config: EngineConfig = DEFAULT_CONFIG,
) -> DefensePlan:
    """Spend at most the budget to break the most threatening chain set.

    Objective is the summed threat of fully broken chains (chain count when
    config.budget_objective is "count"). Exact search up to
    config.exact_defense_limit defenses, greedy by gain/cost beyond. Exact
    ties resolve toward (max value, min cost, lexicographic id tuple).
    """
    if not math.isfinite(budget) or budget < 0:
        raise ValueError(f"budget must be a finite non-negative number, got {budget!r}")
    chains = list(chains)
    masks = _break_masks(doc, graph, chains)
    if config.budget_objective == "count":
        weights = [1.0 for _ in chains]
    else:
        weights = [c.total_threat for c in chains]
    defenses = list(doc.defenses)

    def broken_value(mask: int) -> float:
        return sum(w for i, w in enumerate(weights) if mask >> i & 1)

    if len(defenses) <= config.exact_defense_limit:
        order = sorted(range(len(defenses)), key=lambda i: defenses[i].id)
        suffix = [0] * (len(order) + 1)
        for k in reversed(range(len(order))):
            suffix[k] = suffix[k + 1] | masks[order[k]]
        best: tuple | None = None

        def walk(k: int, chosen: tuple[str, ...], cost: float, mask: int):
            nonlocal best
            key = (-broken_value(mask), cost, chosen)
            if best is None or key < best:
                best = key
            if k == len(order):
                return
            # Even breaking every remaining chain cannot beat the incumbent.
            if broken_value(mask | suffix[k]) < -best[0]:
                return
            d = defenses[order[k]]
            if cost + d.cost <= budget + EPS:
                walk(k + 1, chosen + (d.id,), cost + d.cost, mask | masks[order[k]])
            walk(k + 1, chosen, cost, mask)

        walk(0, (), 0.0, 0)
        return _finish_plan(graph, best[2], chains, config, optimal=True)

    # Greedy: best broken-value gain per unit cost, ties by (cost, id).
    chosen: list[str] = []
    mask = 0
    spent = 0.0
    available = {d.id: (d, m) for d, m in zip(defenses, masks)}
    while True:
        best_pick = None
        for did in sorted(available):
            d, m = available[did]
            if spent + d.cost > budget + EPS:
                continue
            gain = broken_value(mask | m) - broken_value(mask)
            if gain <= 0:
                continue
            ratio = gain / d.cost if d.cost > 0 else float("inf")
            key = (-ratio, d.cost, did)
            if best_pick is None or key < best_pick[0]:
                best_pick = (key, did)
        if best_pick is None:
            break
        did = best_pick[1]
        d, m = available.pop(did)
        chosen.append(did)
        spent += d.cost
        mask |= m
    return _finish_plan(graph, chosen, chains, config, optimal=False)


def plan_cut(
    doc: ScenarioDoc,
    graph: AttackGraph,
    entry_grants=None,
    targets=None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> DefensePlan:
    """Cheapest defense set that severs every valid chain to the targets.

    Solved as a minimum-cost hitting set over the enumerated chains: exact
    branch-and-bound within config limits, greedy beyond. The result is
    always re-verified by re-enumeration; a chain whose attacks admit no
    defense at all makes the cut infeasible. entry_grants/targets default
    to the scenario's own.
    """
    targets = tuple(targets) if targets is not None else doc.targets
    if not targets:
        raise ValueError("plan_cut requires at least one target")

    def chains_to_targets(blocked: frozenset[str]):
        return enumerate_chains(
            doc, graph, targets=targets, config=config, blocked_attacks=blocked, entry_grants=entry_grants
        )

    chains = list(chains_to_targets(frozenset()))
    if not chains:
        return _finish_plan(graph, (), chains, config, optimal=True)

    option_sets: list[frozenset[str]] = []
    for c in chains:
        attacks = chain_attacks(graph, c)
        options = frozenset(d.id for d in doc.defenses if attacks & frozenset(d.d_results))
        if not options:
            raise InfeasibleCutError(
                f"chain {list(c.edges)} contains no defensible attack; cut impossible",
                uncut_chains=(c,),
            )
        option_sets.append(options)

    exact = len(chains) <= config.exact_chain_limit and len(doc.defenses) <= config.exact_defense_limit
    if exact:
        chosen = _hitting_set_exact(option_sets, graph.defenses)
    else:
        chosen = _hitting_set_greedy(option_sets, graph.defenses)

    plan = _finish_plan(graph, chosen, chains, config, optimal=exact)
    # A hitting set of the enumerated chains leaves none of them, and edge
    # removal never creates chains; re-enumerating checks both claims.
    remaining = chains_to_targets(neutralized_attacks(graph, plan.chosen))
    if remaining:
        raise RuntimeError(f"cut verification failed: {len(remaining)} chains survive after neutralization")
    return plan


def _hitting_set_exact(option_sets, by_id) -> tuple[str, ...]:
    """Branch-and-bound minimum-cost hitting set.

    Branches on the uncovered chain with the fewest options; the bound adds
    the cheapest option of the hardest uncovered chain. Ties resolve toward
    (cost, set size, id tuple).
    """
    best: tuple | None = None

    def lower_bound(uncovered) -> float:
        return max((min(by_id[o].cost for o in option_sets[i]) for i in uncovered), default=0.0)

    def walk(chosen: tuple[str, ...], cost: float, uncovered: frozenset[int]):
        nonlocal best
        if not uncovered:
            key = (cost, len(chosen), tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
            return
        if best is not None and cost + lower_bound(uncovered) > best[0] + EPS:
            return
        pivot = min(uncovered, key=lambda i: (len(option_sets[i]), i))
        for option in sorted(option_sets[pivot], key=lambda o: (by_id[o].cost, o)):
            still = frozenset(i for i in uncovered if option not in option_sets[i])
            walk(chosen + (option,), cost + by_id[option].cost, still)

    walk((), 0.0, frozenset(range(len(option_sets))))
    if best is None:
        raise RuntimeError("hitting-set search found no cover although every chain has an option")
    return best[2]


def _hitting_set_greedy(option_sets, by_id) -> tuple[str, ...]:
    """Cover chains by repeatedly taking the best hits-per-cost defense."""
    uncovered = list(option_sets)
    picked: list[str] = []
    while uncovered:
        counts: dict[str, int] = {}
        for s in uncovered:
            for o in s:
                counts[o] = counts.get(o, 0) + 1
        best_opt = min(
            counts,
            key=lambda o: (-(counts[o] / by_id[o].cost) if by_id[o].cost > 0 else float("-inf"), by_id[o].cost, o),
        )
        picked.append(best_opt)
        uncovered = [s for s in uncovered if best_opt not in s]
    return tuple(picked)


# --- risk --------------------------------------------------------------------

@dataclass(frozen=True)
class RiskRow:
    object: str
    chain_count: int
    max_chain_threat: float
    min_chain_cost: float | None

    def as_dict(self) -> dict:
        return {
            "object": self.object,
            "chain_count": self.chain_count,
            "max_chain_threat": self.max_chain_threat,
            "min_chain_cost": self.min_chain_cost,
        }


def risk_assess(
    doc: ScenarioDoc,
    graph: AttackGraph,
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[RiskRow, ...]:
    """Per-object exposure: how many chains end on it, and how bad they are.

    Objects no chain reaches report zero count (a scenario with no entry
    grants trivially yields the all-zero table). Rows sort by descending
    threat, then object id.
    """
    chains = enumerate_chains(doc, graph, config=config) if doc.entry_grants else ()
    stats: dict[str, list[AttackChain]] = {}
    for c in chains:
        final_to = graph.edge(c.edges[-1]).to_id
        stats.setdefault(final_to, []).append(c)
    rows = []
    for o in doc.objects:
        ending = stats.get(o.id, [])
        rows.append(
            RiskRow(
                object=o.id,
                chain_count=len(ending),
                max_chain_threat=max((c.total_threat for c in ending), default=0.0),
                min_chain_cost=min((c.total_cost for c in ending), default=None) if ending else None,
            )
        )
    rows.sort(key=lambda r: (-r.max_chain_threat, r.object))
    return tuple(rows)
