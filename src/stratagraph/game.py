"""Turn-based attacker/defender game on the attack graph.

Desk-scale stand-in for a live testbed: each turn the attacker fires one
satisfiable, not-yet-fired, not-yet-neutralized attack (chosen by policy)
and a seeded coin decides whether the defender detects it. Once anything
has been detected, a reactive defender predicts the chains reachable from
the attacker's current grants and spends its per-turn budget breaking the
most threatening ones. The game ends when the attacker holds any permission
on a target, runs out of attacks, or the turn limit expires. Every run is a
pure function of (scenario, config): the RNG stream derives from the seed
alone.

Within one game the attacker's grants and the neutralized attacks only
grow. A chain is a walk, and the chains to a target only grow with the
grants and only shrink with the defenses (Ammann, Wijesekera & Kaushik,
CCS 2002). So run_game keeps the defender's last prediction, the grants,
the applied defenses' mask and the chain rows, for the length of one game,
and each later turn updates those rows (defense._next_rows) instead of
walking every chain again, as incremental attack-graph analysis updates a
graph after a change (Saha, CCS 2008): it walks only the chains the grants
won since make new. The update gives the rows a fresh walk would, in the
same order, so the plans are the same. The first prediction of a game is a
full walk.

The prediction also holds the game's walk context (chains._walk_context):
the goal distances and step tables that every walk of the game shares
while the blocked set stays the same. A turn that buys a defense grows the
blocked set, and the next walk builds them again for it.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from typing import NamedTuple

from .config import DEFAULT_CONFIG, _Checked, EngineConfig
from .defense import _budget_choice, _next_rows, _target_rows, neutralized_attacks
from .graphs import AttackGraph
from .model import AttackRecord, ConfigError, EmptyEntryGrantsError, Grant, permission_problems

ATTACKER_POLICIES = ("greedy_cheapest", "max_threat", "random")
DEFENDER_POLICIES = ("none", "reactive_cut")

OUTCOME_COMPROMISED = "target_compromised"
OUTCOME_EXHAUSTED = "attacker_exhausted"
OUTCOME_TURN_LIMIT = "turn_limit"


class _GameFields(NamedTuple):
    max_turns: int = 12
    attacker_policy: str = "greedy_cheapest"
    defender_policy: str = "none"
    defender_budget_per_turn: float = 0.0
    rng_seed: int = 1
    # None = any permission on a target ends the game.
    compromise_permissions: tuple[str, ...] | None = None


class GameConfig(_Checked, _GameFields):
    __slots__ = ()

    def check(self) -> "GameConfig":
        for name in ("max_turns", "rng_seed"):
            value = getattr(self, name)
            # bool is an int subclass; reject it explicitly.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.max_turns < 1:
            raise ConfigError(f"max_turns must be >= 1, got {self.max_turns}")
        if self.attacker_policy not in ATTACKER_POLICIES:
            raise ConfigError(f"attacker_policy must be one of {ATTACKER_POLICIES}")
        if self.defender_policy not in DEFENDER_POLICIES:
            raise ConfigError(f"defender_policy must be one of {DEFENDER_POLICIES}")
        budget = self.defender_budget_per_turn
        if (
            isinstance(budget, bool)
            or not isinstance(budget, (int, float))
            or not math.isfinite(budget)
            or budget < 0
        ):
            raise ConfigError(f"defender_budget_per_turn must be a finite non-negative number, got {budget!r}")
        perms = self.compromise_permissions
        if perms is not None and not (isinstance(perms, tuple) and all(isinstance(p, str) for p in perms)):
            raise ConfigError(f"compromise_permissions must be None or a tuple of strings, got {perms!r}")
        # A name the scenario grammar refuses is on no grant, so it could never win.
        for problem in map(permission_problems, perms or ()):
            if problem:
                raise ConfigError(f"compromise_permissions: {problem}")
        return self

    def as_dict(self) -> dict:
        return {
            "max_turns": self.max_turns,
            "attacker_policy": self.attacker_policy,
            "defender_policy": self.defender_policy,
            "defender_budget_per_turn": self.defender_budget_per_turn,
            "rng_seed": self.rng_seed,
            "compromise_permissions": list(self.compromise_permissions)
            if self.compromise_permissions is not None
            else None,
        }


class TurnRecord(NamedTuple):
    turn: int
    attack: str | None
    detected: bool
    defenses: tuple[str, ...]
    grants: tuple[Grant, ...]

    def as_dict(self) -> dict:
        return {
            "turn": self.turn,
            "attack": self.attack,
            "detected": self.detected,
            "defenses": list(self.defenses),
            "grants": list(self.grants),
        }


class GameTrace(NamedTuple):
    outcome: str
    turns: tuple[TurnRecord, ...]
    attacker_cost: float
    defender_cost: float
    turns_elapsed: int
    fired: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "turns": [t.as_dict() for t in self.turns],
            "attacker_cost": self.attacker_cost,
            "defender_cost": self.defender_cost,
            "turns_elapsed": self.turns_elapsed,
            "fired": list(self.fired),
        }


class _Frontier:
    """The attacks whose conditions the attacker's grants meet, in attack-id order.

    Each attack keeps a count of its unmet condition grants, and the
    graph's needed_by lists the attacks each grant is a condition of, so
    a new grant touches only those attacks instead of every attack in the
    catalog.
    """

    def __init__(self, graph: AttackGraph, grants):
        self.attacks = graph.attacks
        self.needed_by = graph.needed_by
        self.unmet = {record.id: len(frozenset(record.condition)) for record in graph.sorted_attacks}
        self.ready = [aid for aid, n in self.unmet.items() if not n]  # ascending
        self.held: set[Grant] = set()  # the attacker's grants
        self.grant(grants)

    def grant(self, grants) -> None:
        """Add grants to those held, readying every attack whose last unmet need they meet."""
        unmet, ready = self.unmet, self.ready
        for g in set(grants) - self.held:
            self.held.add(g)
            for aid in self.needed_by.get(g, ()):
                unmet[aid] -= 1
                if not unmet[aid]:
                    insort(ready, aid)

    def candidates(self, fired: list[str], neutralized: frozenset[str]) -> list[AttackRecord]:
        """The ready attacks neither fired nor neutralized, entry_only ones only before the first firing.

        Each exclusion is final (fired and neutralized only grow), so the
        excluded attacks leave the ready list for good.
        """
        attacks = self.attacks
        self.ready = [
            aid
            for aid in self.ready
            if aid not in fired and aid not in neutralized and not (attacks[aid].entry_only and fired)
        ]
        return [attacks[aid] for aid in self.ready]


def _compromised(grants, targets, permissions) -> bool:
    for g in grants:
        if g.object in targets and (permissions is None or g.permission in permissions):
            return True
    return False


def run_game(
    graph: AttackGraph,
    game: GameConfig,
    config: EngineConfig = DEFAULT_CONFIG,
) -> GameTrace:
    doc = graph.doc
    if not doc.entry_grants:
        raise EmptyEntryGrantsError("scenario declares no entry grants")
    if not doc.targets:
        raise ConfigError("simulation requires at least one target")
    rng = random.Random(game.rng_seed)
    targets = frozenset(doc.targets)
    permissions = frozenset(game.compromise_permissions) if game.compromise_permissions is not None else None

    frontier = _Frontier(graph, doc.entry_grants)
    grants = frontier.held
    fired: list[str] = []
    neutralized: frozenset[str] = frozenset()
    applied_defenses: set[str] = set()
    last = None  # the defender's last prediction: (grants, defense mask, rows, walk context)
    context: dict = {}  # the walk context every prediction of this game shares
    detected_any = False
    attacker_cost = 0.0
    defender_cost = 0.0
    turns: list[TurnRecord] = []

    if _compromised(grants, targets, permissions):
        return GameTrace(OUTCOME_COMPROMISED, (), 0.0, 0.0, 0, ())

    outcome = OUTCOME_TURN_LIMIT
    for turn in range(1, game.max_turns + 1):
        candidates = frontier.candidates(fired, neutralized)
        if not candidates:
            outcome = OUTCOME_EXHAUSTED
            break

        if game.attacker_policy == "greedy_cheapest":
            pick = min(candidates, key=lambda a: (a.cost, a.id))
        elif game.attacker_policy == "max_threat":
            pick = min(candidates, key=lambda a: (-a.severity, a.id))
        else:
            pick = candidates[rng.randrange(len(candidates))]

        fired.append(pick.id)
        attacker_cost += pick.cost
        frontier.grant(pick.a_results)
        detected = rng.random() < pick.detect_prob
        detected_any = detected_any or detected

        if _compromised(grants, targets, permissions):
            outcome = OUTCOME_COMPROMISED
            turns.append(TurnRecord(turn, pick.id, detected, (), tuple(sorted(grants))))
            break

        new_defenses: tuple[str, ...] = ()
        if game.defender_policy == "reactive_cut" and detected_any:
            held = frozenset(grants)
            mask = graph.defense_mask(applied_defenses)
            if last is None:
                found = _target_rows(graph, held, targets, neutralized, config, context)
            else:
                found = _next_rows(graph, last, held, mask, targets, neutralized, config)
            last = (held, mask, found, context)
            chosen, _ = _budget_choice(graph, game.defender_budget_per_turn, found, config)
            new_defenses = tuple(d for d in chosen if d not in applied_defenses)
            if new_defenses:
                applied_defenses.update(new_defenses)
                defender_cost += sum(graph.defenses[d].cost for d in new_defenses)
                neutralized = neutralized_attacks(graph, applied_defenses)

        turns.append(TurnRecord(turn, pick.id, detected, new_defenses, tuple(sorted(grants))))

    return GameTrace(
        outcome=outcome,
        turns=tuple(turns),
        attacker_cost=attacker_cost,
        defender_cost=defender_cost,
        turns_elapsed=len(turns),
        fired=tuple(fired),
    )


def run_batch(
    graph: AttackGraph,
    game: GameConfig,
    runs: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[GameTrace, ...]:
    """Execute runs games with seeds rng_seed .. rng_seed+runs-1."""
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    return tuple(
        run_game(graph, game._replace(rng_seed=game.rng_seed + i), config=config) for i in range(runs)
    )


class GameSummary(NamedTuple):
    runs: int
    outcomes: dict[str, int]
    mean_turns: float
    mean_attacker_cost: float
    mean_defender_cost: float

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "outcomes": dict(sorted(self.outcomes.items())),
            "mean_turns": self.mean_turns,
            "mean_attacker_cost": self.mean_attacker_cost,
            "mean_defender_cost": self.mean_defender_cost,
        }


def summarize(traces) -> GameSummary:
    traces = list(traces)
    if not traces:
        raise ValueError("summarize requires at least one trace")
    outcomes: dict[str, int] = {}
    for t in traces:
        outcomes[t.outcome] = outcomes.get(t.outcome, 0) + 1
    n = len(traces)
    return GameSummary(
        runs=n,
        outcomes=outcomes,
        mean_turns=sum(t.turns_elapsed for t in traces) / n,
        mean_attacker_cost=_mean([t.attacker_cost for t in traces]),
        mean_defender_cost=_mean([t.defender_cost for t in traces]),
    )


def _mean(values: list[float]) -> float:
    """sum(values) / len(values), scaled first when the plain sum overflows.

    A validated scenario keeps each run's cost below half the largest float
    (scenario.TOTAL_LIMIT), but the costs of several runs can still add up
    past it; dividing each by the run count first keeps the mean finite.
    """
    n = len(values)
    total = sum(values)
    return total / n if math.isfinite(total) else sum(v / n for v in values)
