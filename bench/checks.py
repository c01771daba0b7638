"""Meaning-level checks of `stratagraph` CLI output.

Outputs are never compared byte for byte: object names and record order
change with the seed, so each output is mapped back to skeleton names and
compared with the reference recorded in `reference/<workload>.json`, or
replayed with the independent oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import hashlib
import json

import oracles
from gen import MAX_TURNS, SIM_RUNS, TURN_BUDGET

REL_TOL = 1e-5  # canonical JSON prints floats with 6 significant digits
BUDGET_EPS = 1e-9


class CheckError(Exception):
    """An output that is wrong, or that cannot be shown right."""


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- canonical forms in skeleton names, shared with record.py ----------------

def canonical_validate(payload: dict, scenario) -> dict:
    rows = [[v["severity"], v["record_class"], v["record_id"], v["message"]] for v in payload["violations"]]
    return {"valid": payload["valid"], "violations": sorted(scenario.to_skeleton(rows))}


def canonical_graph(payload: dict, scenario) -> dict:
    payload = scenario.to_skeleton(payload)

    def rows(items):
        return sorted(json.dumps(i, sort_keys=True) for i in items)

    return {
        "nodes": rows(payload["base"]["nodes"]),
        "intra_edges": rows(payload["base"]["intra_edges"]),
        "vertical_edges": rows(payload["base"]["vertical_edges"]),
        "attack_edges": rows(payload["attack"]["edges"]),
        "object_count": payload["object_count"],
        "attack_edge_count": payload["attack_edge_count"],
    }


def canonical_potential(payload: dict, scenario) -> list:
    return sorted(json.dumps(p, sort_keys=True) for p in scenario.to_skeleton(payload["potential_chains"]))


def canonical_risk(payload: dict, scenario) -> list:
    return sorted(scenario.to_skeleton(payload["rows"]), key=lambda r: r["object"])


def chain_edge_digest(chains: list) -> str:
    return digest(sorted(chains))


# --- the checker --------------------------------------------------------------

class Checker:
    """Checks each command's exit code and JSON output for one scenario.

    The first `chains` output that passes becomes the reference chain set
    the `defend` and budget checks are judged against: it has been shown
    equal, edge for edge, to the set recorded at the reference commit.
    """

    def __init__(self, scenario, reference: dict):
        self.scenario = scenario
        self.ref = reference
        doc = scenario.doc
        self.edges = oracles.oracle_edges(doc)
        self.attacks = {a.id: a for a in doc.attacks}
        self.defenses = {d.id: d for d in doc.defenses}
        self.targets = frozenset(doc.targets)
        self.chains = None  # [(attack id frozenset, threat)] once verified

    def check(self, kind: str, code: int, text: str) -> None:
        _expect(code == 0, f"{kind}: exit code {code}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"{kind}: output is not JSON ({exc})") from exc
        try:
            getattr(self, f"_check_{kind}")(payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CheckError(f"{kind}: malformed output ({exc!r})") from exc

    def _same_digest(self, kind: str, value) -> None:
        _expect(digest(value) == self.ref[kind]["digest"], f"{kind}: output differs from the reference")

    def _check_validate(self, payload):
        _expect(payload["valid"] is True, "validate: scenario reported invalid")
        self._same_digest("validate", canonical_validate(payload, self.scenario))

    def _check_graph(self, payload):
        self._same_digest("graph", canonical_graph(payload, self.scenario))

    def _check_potential(self, payload):
        _expect(payload["count"] == len(payload["potential_chains"]), "potential: count disagrees with list")
        self._same_digest("potential", canonical_potential(payload, self.scenario))

    def _check_risk(self, payload):
        self._same_digest("risk", canonical_risk(payload, self.scenario))

    def _check_chains(self, payload):
        doc = self.scenario.doc
        chains = payload["chains"]
        _expect(payload["count"] == len(chains), "chains: count disagrees with list")
        seqs = [tuple(c["edges"]) for c in chains]
        _expect(len(set(seqs)) == len(seqs), "chains: duplicate chain")
        verified = []
        for chain, seq in zip(chains, seqs):
            _expect(0 < len(seq) <= self.scenario.shape.max_len, f"chains: {seq} exceeds max_len")
            _expect(all(e in self.edges for e in seq), f"chains: {seq} names an unknown edge")
            replayed = oracles.replay(doc, self.edges, seq)
            _expect(replayed is not None, f"chains: {list(seq)} does not replay as a valid chain")
            grants, fired = replayed
            _expect(self.edges[seq[-1]][2] in self.targets, f"chains: {list(seq)} does not end on a target")
            final = {(g["object"], g["permission"]) for g in chain["final_grants"]}
            _expect(final == {(g.object, g.permission) for g in grants}, f"chains: {list(seq)} final grants differ")
            threat = oracles.chain_threat(doc, fired)
            _expect(close(chain["total_cost"], oracles.chain_cost(doc, fired)), f"chains: {list(seq)} cost differs")
            _expect(close(chain["total_threat"], threat), f"chains: {list(seq)} threat differs")
            verified.append((frozenset(fired), threat))
        _expect(
            len(seqs) == self.ref["chains"]["count"] and chain_edge_digest(seqs) == self.ref["chains"]["digest"],
            f"chains: edge-tuple set differs from the reference ({len(seqs)} chains, "
            f"{self.ref['chains']['count']} recorded)",
        )
        if self.chains is None:
            self.chains = verified

    def _plan(self, kind: str, payload) -> tuple[frozenset, float]:
        """Validate a DefensePlan payload; return (neutralized attacks, cost)."""
        _expect(self.chains is not None, f"{kind}: no verified chain set to judge the plan against")
        chosen = payload["chosen"]
        _expect(len(set(chosen)) == len(chosen), f"{kind}: a defense is chosen twice")
        _expect(all(d in self.defenses for d in chosen), f"{kind}: unknown defense in {chosen}")
        cost = sum(self.defenses[d].cost for d in chosen)
        _expect(close(payload["total_cost"], cost), f"{kind}: total_cost {payload['total_cost']} != {cost}")
        blocked = frozenset(a for d in chosen for a in self.defenses[d].d_results)
        edges = {e for e, (record, *_rest) in self.edges.items() if record.id in blocked}
        _expect(set(payload["neutralized_edges"]) == edges, f"{kind}: neutralized_edges disagree with chosen")
        surviving = sum(1 for attacks, _ in self.chains if not attacks & blocked)
        _expect(payload["surviving_chains"]["count"] == surviving, f"{kind}: surviving count is not {surviving}")
        return blocked, cost

    def _check_cut(self, payload):
        _, cost = self._plan("cut", payload)
        _expect(payload["surviving_chains"]["count"] == 0, "cut: chains survive the cut")
        ref_cost = self.ref["cut"]["total_cost"]
        _expect(cost <= ref_cost + BUDGET_EPS or close(cost, ref_cost), f"cut: cost {cost} exceeds reference {ref_cost}")

    def _check_budget(self, payload):
        blocked, cost = self._plan("budget", payload)
        budget = self.scenario.shape.budget
        _expect(cost <= budget + BUDGET_EPS, f"budget: cost {cost} exceeds budget {budget}")
        value = sum(threat for attacks, threat in self.chains if attacks & blocked)
        ref_value = self.ref["budget"]["broken_value"]
        _expect(value >= ref_value or close(value, ref_value), f"budget: breaks {value} < reference {ref_value}")

    def _check_simulate(self, payload):
        traces = payload["traces"]
        _expect(len(traces) == payload["summary"]["runs"] == SIM_RUNS, "simulate: wrong number of runs")
        for i, trace in enumerate(traces):
            self._replay_game(i, trace)

    def _replay_game(self, run: int, trace: dict) -> None:
        """Replay one game trace turn by turn, by the rules of the game."""
        doc = self.scenario.doc
        per_turn = TURN_BUDGET
        grants = set(doc.entry_grants)
        fired: list[str] = []
        applied: set[str] = set()
        blocked: set[str] = set()
        attacker_cost = defender_cost = 0.0
        where = f"simulate run {run}"
        turns = trace["turns"]
        for k, turn in enumerate(turns):
            at = f"{where} turn {turn['turn']}"
            _expect(turn["turn"] == k + 1, f"{at}: turns out of order")
            record = self.attacks.get(turn["attack"])
            _expect(record is not None, f"{at}: unknown attack {turn['attack']!r}")
            _expect(record.id not in fired, f"{at}: {record.id} fired twice")
            _expect(record.id not in blocked, f"{at}: {record.id} was neutralized")
            _expect(not (record.entry_only and fired), f"{at}: entry-only {record.id} fired mid-game")
            _expect(all(need in grants for need in record.condition), f"{at}: {record.id} was not satisfiable")
            fired.append(record.id)
            attacker_cost += record.cost
            grants.update(record.a_results)
            held = {(g["object"], g["permission"]) for g in turn["grants"]}
            _expect(held == {(g.object, g.permission) for g in grants}, f"{at}: grants disagree with replay")
            bought = turn["defenses"]
            _expect(all(d in self.defenses and d not in applied for d in bought), f"{at}: bad defenses {bought}")
            spend = sum(self.defenses[d].cost for d in bought)
            _expect(spend <= per_turn + BUDGET_EPS, f"{at}: defender spent {spend} > {per_turn}")
            applied.update(bought)
            blocked.update(a for d in bought for a in self.defenses[d].d_results)
            defender_cost += spend
            compromised = any(g.object in self.targets for g in grants)
            _expect(not compromised or k == len(turns) - 1, f"{at}: game continued after compromise")
        compromised = any(g.object in self.targets for g in grants)
        if compromised:
            outcome = "target_compromised"
        elif len(turns) == MAX_TURNS:
            outcome = "turn_limit"
        else:
            outcome = "attacker_exhausted"
            left = [
                a for a in doc.attacks
                if a.id not in fired and a.id not in blocked and all(need in grants for need in a.condition)
            ]
            _expect(not left, f"{where}: attacker stopped with {len(left)} attacks still satisfiable")
        _expect(trace["outcome"] == outcome, f"{where}: outcome {trace['outcome']!r}, replay says {outcome!r}")
        _expect(trace["fired"] == fired and trace["turns_elapsed"] == len(turns), f"{where}: fired list disagrees")
        _expect(close(trace["attacker_cost"], attacker_cost), f"{where}: attacker cost disagrees")
        _expect(close(trace["defender_cost"], defender_cost), f"{where}: defender cost disagrees")


class Tally:
    """Commands attempted, and a message for each one that failed."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []
        self.chains_text: str | None = None

    def check(self, kind: str, code: int, text: str, stderr: str = "") -> None:
        self.attempted += 1
        if kind == "chains" and self.chains_text is None:
            self.chains_text = text
        try:
            self.checker.check(kind, code, text)
        except CheckError as exc:
            tail = stderr.strip().splitlines()[-1:] if stderr else []
            self.failures.append(" | ".join([str(exc), *tail]))

    def self_check(self) -> bool:
        """A chains output with two edges swapped must fail its check."""
        try:
            corrupted = corrupt_chains(self.chains_text)
        except (TypeError, ValueError, KeyError, StopIteration):
            return False
        try:
            self.checker.check("chains", 0, corrupted)
        except CheckError:
            return True
        return False


def corrupt_chains(text: str) -> str:
    """Swap the first two edges of the first chain that has two, in a `chains` output."""
    payload = json.loads(text)
    edges = next(c["edges"] for c in payload["chains"] if len(c["edges"]) >= 2)
    edges[0], edges[1] = edges[1], edges[0]
    return json.dumps(payload)
