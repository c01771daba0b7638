"""Spans around the public functions of each `stratagraph` layer.

A Tracer replaces every public function of the layer modules at every
module that binds it, so calls between layers (`game` -> `enumerate_chains`,
`graphs` -> `require_valid` -> `validate_scenario`) are seen as well as the
calls `cli` makes. Each span records name, start, end and parent; spans stay
in memory until the run writes them out. Layer metrics are self times: a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYER_MODULES = ("scenario", "graphs", "chains", "defense", "game", "canon", "cli")
# Leaves called once per float or per chain: wrapping them would multiply the
# overhead, and their time stays in their caller's self time.
UNWRAPPED = {"canon.format_float", "defense.chain_attacks"}
PLANNERS = {"defense.plan_cut", "defense.plan_budgeted", "defense.plan_coverage"}

# Per-layer metric -> the wrapped functions whose self time it sums.
SELF_TIMES = {
    "scenario.load_s": ("scenario.load_scenario", "scenario.parse_scenario"),
    "scenario.validate_s": ("scenario.validate_scenario", "scenario.require_valid"),
    "graphs.base_s": ("graphs.build_base_graph",),
    "graphs.attack_s": ("graphs.build_attack_graph",),
    "chains.enumerate_s": ("chains.enumerate_chains",),
    "chains.potential_s": ("chains.generate_potential_chains",),
    "defense.plan_cut_s": ("defense.plan_cut",),
    "defense.plan_budgeted_s": ("defense.plan_budgeted",),
    "defense.risk_s": ("defense.risk_assess",),
    "game.run_game_s": ("game.run_game",),
    "canon.dumps_s": ("canon.dumps",),
}
CALLS = {
    "scenario.validate_calls": "scenario.validate_scenario",
    "chains.enumerate_calls": "chains.enumerate_chains",
    "defense.plan_budgeted_calls": "defense.plan_budgeted",
}


def _work(name: str, result) -> float:
    """The work count a finished call reports: chains, bytes, turns or optimal plans."""
    if name == "chains.enumerate_chains" or name == "canon.dumps":
        return len(result)
    if name == "game.run_game":
        return result.turns_elapsed
    if name in PLANNERS:
        return 1.0 if result.optimal else 0.0
    return 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = _work(name, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        importlib.import_module("stratagraph")  # its re-exports are bindings too
        bindings = [m for n, m in sys.modules.items() if n == "stratagraph" or n.startswith("stratagraph.")]
        for short in LAYER_MODULES:
            module = importlib.import_module(f"stratagraph.{short}")
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                traced = self._wrap(name, fn)
                for holder in bindings:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
                            self._patched.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer self times, call counts and work counts of one round of spans.

    `cli.main_s` is the exception: it is the total time of the `main` calls,
    the floor the layer self times are shares of.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(names):
        return sum(own[i] for n in names for i in by_name.get(n, ()))

    def work(name):
        return sum(spans[i][4] for i in by_name.get(name, ()))

    out = {metric: total(names) for metric, names in SELF_TIMES.items()}
    out.update((metric, len(by_name.get(name, ()))) for metric, name in CALLS.items())
    plans = sum(len(by_name.get(n, ())) for n in PLANNERS)
    out["chains.emitted"] = work("chains.enumerate_chains")
    out["canon.bytes"] = work("canon.dumps")
    out["game.turns"] = work("game.run_game")
    out["defense.optimal_ratio"] = sum(work(n) for n in PLANNERS) / plans if plans else 0.0
    out["cli.main_s"] = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
    return out


def per_command(spans: list[list]) -> list[dict]:
    """For each `cli.main` span, in order: its time and the layer self times inside it."""
    own = self_times(spans)
    rows = []
    for i, s in enumerate(spans):
        if s[0] != "cli.main":
            continue
        inside = [j for j in range(i + 1, len(spans)) if spans[j][1] < s[2]]
        row = {"cli.main_s": s[2] - s[1]}
        row.update((metric, sum(own[j] for j in inside if spans[j][0] in names)) for metric, names in SELF_TIMES.items())
        row["scenario.validate_calls"] = sum(1 for j in inside if spans[j][0] == "scenario.validate_scenario")
        rows.append(row)
    return rows


def dump(spans: list[list]) -> list[dict]:
    origin = spans[0][1] if spans else 0.0
    return [{"name": n, "start": a - origin, "end": b - origin, "parent": p} for n, a, b, p, _ in spans]
