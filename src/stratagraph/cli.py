"""Command-line front end.

One binary, seven subcommands (validate, graph, chains, potential, defend,
risk, simulate). Every subcommand reads a scenario file and writes either a
human table (--format text, the default) or canonical JSON (--format json)
to stdout. JSON output has sorted keys and 6-significant-digit floats, so
identical inputs always produce identical bytes.

Exit codes: 0 success, 1 usage/flag error or unwritable stdout, 2 invalid
scenario, 3 infeasible defense plan, 4 internal error.

A process ends through run(): `python -m stratagraph.cli`, `python -m
stratagraph` and the installed `stratagraph` script all call it. run()
freezes the heap once main() returns, so the interpreter's final garbage
collection at exit skips every object the command made, memory the OS
takes back anyway; finalization still flushes stdout and stderr and runs
atexit handlers. main() never touches the collector, so the library, the
tests and in-process callers keep a normal one.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys

from . import __version__, canon
from .config import DEFAULT_CONFIG, load_config
from .model import (
    ConfigError,
    EmptyEntryGrantsError,
    InfeasibleCutError,
    InvalidScenarioError,
    ParseError,
    UnknownIdError,
)
from .scenario import SCHEMA_VERSION, load_scenario, validate_scenario

# The engine modules (graphs, chains, defense, game) are imported inside the
# commands that run them, so a command starts without loading the others.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class OutputError(Exception):
    """Writing or flushing stdout failed, for example because the reader closed the pipe."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> str:
    if isinstance(x, float):
        return canon.format_float(x)
    if x is None:
        return "-"
    return str(x)


def _table(headers, rows) -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _write(*parts: str) -> None:
    """Write the parts to stdout and flush it, so a closed stdout fails here, not at exit."""
    try:
        for part in parts:
            sys.stdout.write(part)
        sys.stdout.flush()
    except OSError as exc:
        # Drop whatever is still buffered: the interpreter's flush at exit
        # would fail again and print an "Exception ignored" line.
        sys.stdout = open(os.devnull, "w")
        raise OutputError(exc) from exc


def _emit(args, payload, text) -> None:
    """Write the output in the chosen format; only that format is built.

    payload and text are zero-argument callables returning the JSON value
    and the human text. The output is rendered completely before anything
    is written, so a failing command leaves stdout empty.
    """
    out = canon.dumps(payload()) if args.format == "json" else text()
    _write(out, "\n")


def _load(args):
    doc = load_scenario(args.scenario)
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    overrides = {}
    if getattr(args, "semantics", None):
        overrides["semantics"] = args.semantics
    if getattr(args, "max_len", None) is not None:
        overrides["max_len"] = args.max_len
    if overrides:
        config = config._replace(**overrides)
    return doc, config


def _graph(doc):
    from .graphs import build_attack_graph, build_base_graph

    return build_attack_graph(doc, build_base_graph(doc))


def _chain_rows(chains):
    return [["->".join(c.edges), c.total_cost, c.total_threat] for c in chains]


# --- subcommands ---------------------------------------------------------

def cmd_validate(args) -> int:
    doc, _ = _load(args)
    report = validate_scenario(doc)
    errors = [v for v in report if v.severity == "error"]

    def text():
        if not report:
            return "valid"
        head = "valid" if not errors else "invalid"
        lines = [f"{head} ({len(errors)} errors, {len(report) - len(errors)} warnings)"]
        lines += [f"  {v.severity.upper()} {v.record_class} {v.record_id}: {v.message}" for v in report]
        return "\n".join(lines)

    _emit(args, lambda: {"valid": not errors, "violations": [v.as_dict() for v in report]}, text)
    return EXIT_OK if not errors else EXIT_INVALID


def cmd_graph(args) -> int:
    from .graphs import graphs_to_dict, graphs_to_dot

    if args.dot and args.format == "json":
        raise ConfigError("--dot writes DOT text; it cannot be combined with --format json")
    doc, _ = _load(args)
    graph = _graph(doc)
    if args.dot:
        _write(graphs_to_dot(graph))
        return EXIT_OK

    def text():
        return "\n".join(
            [
                f"objects: {len(doc.objects)}",
                f"intra edges: {len(graph.base.intra_edges)}",
                f"vertical edges: {len(graph.base.vertical_edges)}",
                f"attack edges: {len(graph.edges)}",
                "",
                _table(
                    ["edge", "from", "to", "permission", "cost", "severity"],
                    [[e.edge_id, e.from_id, e.to_id, e.permission, e.cost, e.severity] for e in graph.edges],
                ),
            ]
        )

    _emit(args, lambda: graphs_to_dict(graph), text)
    return EXIT_OK


def cmd_chains(args) -> int:
    from .chains import ChainObjective, enumerate_chains, search_chain

    if args.unrestricted and args.target is not None:
        raise ConfigError("--unrestricted lists chains to every object; it cannot be combined with --target")
    if args.unrestricted and args.objective != "enumerate":
        raise ConfigError(f"--unrestricted applies only to --objective enumerate, not {args.objective}")
    doc, config = _load(args)
    graph = _graph(doc)
    target = args.target
    if args.objective == "enumerate":
        if args.unrestricted:
            targets = None
        elif target is not None:
            targets = (target,)
        else:
            targets = doc.targets or None
        found = enumerate_chains(graph, targets=targets, config=config)
    else:
        objective = ChainObjective(kind=args.objective, target=target)
        best = search_chain(graph, objective, config=config)
        found = (best,) if best else ()
    _emit(
        args,
        lambda: {"count": len(found), "chains": [c.as_dict() for c in found]},
        lambda: _table(["edges", "cost", "threat"], _chain_rows(found)) if found else "no chains",
    )
    return EXIT_OK


def cmd_potential(args) -> int:
    from .chains import generate_potential_chains

    doc, config = _load(args)
    found = generate_potential_chains(_graph(doc), args.from_id, args.to_id, config=config)

    def text():
        if not found:
            return "no potential chains"
        rows = []
        for p in found:
            gaps = "; ".join(f"{f}->{t}" for f, t in p.missing_hops)
            sugg = "; ".join(",".join(s) if s else "-" for s in p.suggestions)
            rows.append(["->".join(p.path), gaps, sugg])
        return _table(["path", "missing hops", "suggestions"], rows)

    _emit(args, lambda: {"count": len(found), "potential_chains": [p.as_dict() for p in found]}, text)
    return EXIT_OK


def cmd_defend(args) -> int:
    from .chains import ChainObjective, chain_from_edges, search_chain
    from .defense import plan_budgeted, plan_coverage, plan_cut

    if args.chain is not None and args.mode != "coverage":
        raise ConfigError(f"--chain applies only to --mode coverage, not {args.mode}")
    if args.budget is not None and args.mode != "budget":
        raise ConfigError(f"--budget applies only to --mode budget, not {args.mode}")
    doc, config = _load(args)
    graph = _graph(doc)
    if args.mode == "coverage":
        if args.chain is not None:
            chain = chain_from_edges(graph, tuple(args.chain.split(",")), config=config)
        else:
            chain = search_chain(graph, ChainObjective("min_cost"), config=config)
            if chain is None:
                raise ValueError("no valid chain reaches the targets; pass --chain to cover an explicit chain")
        plan = plan_coverage(graph, chain, config=config)
    elif args.mode == "budget":
        if args.budget is None:
            raise ConfigError("--mode budget requires --budget")
        plan = plan_budgeted(graph, args.budget, config=config)
    else:
        plan = plan_cut(graph, config=config)

    def text():
        lines = [
            f"chosen: {', '.join(plan.chosen) if plan.chosen else '(none)'}",
            f"total cost: {canon.format_float(plan.total_cost)}",
            f"neutralized edges: {len(plan.neutralized_edges)}",
            f"surviving chains: {plan.surviving_count}",
            f"optimal: {'yes' if plan.optimal else 'no'}",
        ]
        if plan.uncovered_attacks:
            lines.append(f"uncovered attacks: {', '.join(plan.uncovered_attacks)}")
        return "\n".join(lines)

    _emit(args, plan.as_dict, text)
    return EXIT_OK


def cmd_risk(args) -> int:
    from .defense import risk_assess

    doc, config = _load(args)
    rows = risk_assess(_graph(doc), config=config)
    _emit(
        args,
        lambda: {"rows": [r.as_dict() for r in rows]},
        lambda: _table(
            ["object", "chains", "max threat", "min cost"],
            [[r.object, r.chain_count, r.max_chain_threat, r.min_chain_cost] for r in rows],
        ),
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .game import GameConfig, run_batch, summarize

    if args.budget_per_turn is not None and args.defender == "none":
        raise ConfigError("--budget-per-turn applies only to --defender reactive_cut, not none")
    doc, config = _load(args)
    graph = _graph(doc)
    game = GameConfig(
        max_turns=args.max_turns,
        attacker_policy=args.attacker,
        defender_policy=args.defender,
        defender_budget_per_turn=args.budget_per_turn if args.budget_per_turn is not None else 0.0,
        rng_seed=args.seed,
        compromise_permissions=tuple(args.compromise_permission) if args.compromise_permission else None,
    )
    traces = run_batch(graph, game, args.runs, config=config)
    summary = summarize(traces)

    def payload():
        return {
            "config": {**game.as_dict(), "semantics": config.semantics},
            "summary": summary.as_dict(),
            "traces": [t.as_dict() for t in traces],
        }

    def text():
        rows = [
            [game.rng_seed + i, t.outcome, t.turns_elapsed, t.attacker_cost, t.defender_cost]
            for i, t in enumerate(traces)
        ]
        return "\n".join(
            [
                _table(["seed", "outcome", "turns", "attacker cost", "defender cost"], rows),
                "",
                "outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.outcomes.items())),
                f"mean turns: {canon.format_float(summary.mean_turns)}",
                f"mean attacker cost: {canon.format_float(summary.mean_attacker_cost)}",
                f"mean defender cost: {canon.format_float(summary.mean_defender_cost)}",
            ]
        )

    _emit(args, payload, text)
    return EXIT_OK


# --- wiring ---------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="stratagraph", description="Layered attack-graph modeling and defense planning.")
    parser.add_argument(
        "--version", action="version", version=f"stratagraph {__version__} (scenario schema {SCHEMA_VERSION})"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p):
        p.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--config", default=None, help="engine config JSON (file values override defaults)")

    p = sub.add_parser("validate", help="check a scenario against the schema invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("graph", help="export the layered base graph and attack graph")
    common(p)
    p.add_argument("--dot", action="store_true", help="emit DOT text instead of json/text")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("chains", help="enumerate or search valid attack chains")
    common(p)
    p.add_argument("--target", default=None, help="goal object (default: scenario targets)")
    p.add_argument("--unrestricted", action="store_true", help="list chains to any object, not only targets")
    p.add_argument("--objective", choices=("enumerate", "min_cost", "max_threat"), default="enumerate")
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--semantics", choices=("accumulated", "strict"), default=None)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("potential", help="find base-graph paths the attack catalog cannot cover yet")
    common(p)
    p.add_argument("--from", dest="from_id", required=True, help="path start object")
    p.add_argument("--to", dest="to_id", required=True, help="path end object")
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("defend", help="plan defenses (coverage | budget | cut)")
    common(p)
    p.add_argument("--mode", choices=("coverage", "budget", "cut"), default="cut")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--chain", default=None, help="comma-separated edge ids (coverage mode)")
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--semantics", choices=("accumulated", "strict"), default=None)
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("risk", help="per-object risk table from chain exposure")
    common(p)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--semantics", choices=("accumulated", "strict"), default=None)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("simulate", help="run the turn-based attacker/defender game")
    common(p)
    p.add_argument("--max-turns", dest="max_turns", type=int, default=12)
    p.add_argument("--attacker", choices=("greedy_cheapest", "max_threat", "random"), default="greedy_cheapest")
    p.add_argument("--defender", choices=("none", "reactive_cut"), default="none")
    p.add_argument("--budget-per-turn", dest="budget_per_turn", type=float, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--semantics", choices=("accumulated", "strict"), default=None)
    p.add_argument(
        "--compromise-permission",
        action="append",
        default=None,
        help="restrict the win condition to these permissions (repeatable)",
    )
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse prints --help and --version itself and ignores a failed
    # write, so it prints into a buffer here, which _write then copies to
    # stdout under the same check as every command's output.
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        args, code = None, exc.code if isinstance(exc.code, int) else EXIT_USAGE
    finally:
        printed, sys.stdout = sys.stdout.getvalue(), stdout
    try:
        if args is None:
            _write(printed)
            return code
        return args.func(args)
    except (ParseError, InvalidScenarioError, EmptyEntryGrantsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, UnknownIdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> int:
    """Run one command as a whole process and return its exit code.

    The frozen heap is left out of the collection the interpreter runs at
    exit, which after a large command takes several milliseconds.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
