"""Differential check of the `stratagraph` CLI against another git revision.

Run from anywhere inside a checkout:

    python3 tools/diff_ref.py --ref HEAD~1

REF's `src/` is exported with `git archive` into a temporary directory (no
worktree, no network). One list of CLI commands then runs twice, mostly as
`python -m stratagraph.cli` subprocesses: once on this checkout's `src/`
(uncommitted edits included) and once on REF's. Both runs read the same
scenario files from the same directory, so paths in messages match. For
each command the tool compares stdout, stderr and the exit code.

Every command runs. Each one that differs is named on a `DIFFERS:` line,
the first of them with both sides of its first differing lines, and a
count closes the report; the tool then exits 1. Exit 0 means every command
agreed byte for byte.

Inputs, all generated from this checkout:
- the three bench workloads (`bench/gen.py`) at seeds 1 and 2: the eight
  bench commands in JSON and in text, plus `graph --dot`, `min_cost`,
  `max_threat`, `--unrestricted`, strict, coverage and `threat_agg max`
  variants, among them the bench's reactive `simulate` under strict
  semantics, under `threat_agg max`, under `budget_objective count`,
  under the `greedy_cheapest` and `max_threat` attackers, with a zero
  budget per turn and as one game of up to 40 turns, and a strict
  `defend --mode cut`; both chain searches (`min_cost` and `max_threat`)
  under strict semantics, with `--target` an object the cheapest chain
  passes on its way to a target, and at a `--max-len` one below the
  cheapest chain's length; at seed 1 also `potential --max-len 6`, where
  base paths are many;
- `tests/genscen.py` scenarios, random and coherent, under both semantics,
  each with a random attacker's reactive `simulate` of 3 runs of up to
  20 turns, and one with its targets removed: there `defend --mode budget`
  plans over every chain and `defend --mode cut` exits 1;
- the same scenarios with every cost and severity one or two million,
  written as a JSON int or float at random (`large_number_commands`).
  canon prints an int and an equal float alike below 1e6 (`5` and `5.0`
  both as `5`) but not from there up (`1000000` against `1e+06`), so
  only numbers this large show a drift in a printed value's type;
- the same scenarios with every cost and severity zero, written as `0`,
  `0.0` or `-0.0` at random (`signed_zero_commands`): `graph`, `chains`
  and `risk` in JSON. canon prints both float zeros as `0`, and a memo
  keyed by value (`0.0 == -0.0`) must keep doing so;
- the serializer (`serializer_commands`): `serialize_scenario(load_scenario(
  path))` of every scenario above. Each scenario is written by this
  checkout's serializer, so a serializer drift would change both sides'
  inputs alike and show nowhere else;
- the fixtures toy5g, strictmode and minichain (`fixture_commands`), under
  both semantics and both threat aggregations: `chains --unrestricted`,
  `min_cost`, `max_threat` and `risk`. Some toy5g chains fire A1 twice,
  through both of its edges, and the second firing adds nothing to the
  chain's fired attacks, cost or threat; the other two fixtures hold a
  multi-result attack and the strict-semantics case;
- a length limit of 100,000 (`long_limit_commands`): `chains
  --unrestricted`, `risk` and a reactive `simulate` of 3 runs on toy5g
  and on one `tests/genscen.py` scenario, far beyond their longest chain;
- two scenarios written here (`grant_bit_commands`), under both
  semantics: one whose entry grants include a grant no condition or result
  names, and one whose records name the grants on one object out of
  `Grant` order. The attack graph gives grant bits in `Grant` order, so
  record order sets no bit, and the second checks only that record order
  never reaches the output. Each runs `chains` (to the targets,
  `--unrestricted`, `min_cost` and `max_threat`), `risk`, `defend` (cut,
  budget, and coverage of a given chain) and a reactive `simulate`;
- reactive games on one scenario written here (`compromise_commands`),
  under both semantics, in JSON and in text: its entry grants already hold
  a permission on its target, so the game ends before turn 1, and under
  `--compromise-permission write` the winning attack grants again a grant
  held on the target together with the one that wins;
- explicit chains (`coverage_commands`): `defend --mode coverage --chain`
  on toy5g and on the reactive-sim-M bench workload at seed 1, with a
  valid chain, the same chain without its second edge (its replay stops
  there), a chain whose first edge's condition the entry grants do not
  hold, an unknown edge id, and on toy5g a chain that affects an object
  twice. A failing chain prints the reason its replay stops;
- entry-only attacks (`entry_only_commands`): one scenario written here,
  under both semantics: `chains` (to the target, `--unrestricted`,
  `min_cost` and `max_threat`) and coverage of a chain that fires an
  entry-only attack first and of one that fires one mid-chain;
- output branches the lists above miss (`branch_commands`), in JSON and
  in text: `potential` between two objects no gap separates, coverage of
  toy5g at `--max-len 1`, where no chain reaches a target (exit 1),
  coverage of the `undefendable_feasible` fixture, whose plan leaves an
  attack uncovered, and `simulate --compromise-permission root`;
- shape faults (`shape_commands`): `validate --scenario` of toy5g with one
  fault each: a missing required key in each record kind, an empty `{}`
  record in each section, a wrong type for each kind of check, `true` as a
  cost, `2**2000` as a severity, a grant with an extra key, a record that
  is not an object, a section that is not a list, a target that is not a
  string, and an unknown nested key, which warns and exits 0;
- semantic faults (`semantic_commands`): `validate` in JSON and in text,
  and `chains`, of toy5g with each fault of the validation tests'
  `VALIDATION_RULES` (`tests/faults.py`), and of one doc whose attacks and entry grants repeat
  the same malformed permission tokens and whose numbers are negative,
  NaN, infinite, just above 1 or -0.0. The invalid ones exit 2, `chains`
  with the report's errors on stderr;
- error paths (`error_commands`): `--version`, `--help` of the tool and of
  each subcommand, an unknown or missing subcommand, a missing or malformed
  scenario file, a missing `--config`, an infeasible cut, unknown ids,
  out-of-range flag values and refused flag pairs;
- the package entry (`package_commands`): `python -m stratagraph` with
  `--version` and with one command for each exit code 0-3.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("topology-L", "chains-M", "reactive-sim-M")
BENCH_SEEDS = (1, 2)
GENSCEN_SEEDS = 8  # per family (random, coherent), each run under both semantics
TARGETLESS_SEED = 3  # a random scenario with 22 chains of at most 4 edges once its targets are gone
LARGE_SEEDS = 4  # per family, each run under both threat aggregations
ZERO_SEEDS = 4  # per family
JOBS = 2  # commands run at once; each waits on a subprocess
UNRESTRICTED_MAX_LEN = 6  # chains to every object at a workload's own max_len run to tens of MB
LONG_MAX_LEN = 100_000  # far beyond any chain of the small scenarios, and still quick for a search capped by it
COMMAND_TIMEOUT_S = 600
CONTEXT_LINES = 3


def export_ref(ref: str, dest: Path) -> Path:
    """Unpack REF's src/ under dest and return that src directory."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"], capture_output=True, check=True
        )
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"error: git archive {ref}: {exc.stderr.decode(errors='replace').strip()}") from None
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        for member in archive.getmembers():
            parts = Path(member.name).parts
            if parts[:1] != ("src",) or ".." in parts:
                raise SystemExit(f"error: unexpected path {member.name!r} in the archive of {ref}")
            if member.isfile() or member.isdir():
                archive.extract(member, dest)
    src = dest / "src"
    if not (src / "stratagraph" / "cli.py").exists():
        raise SystemExit(f"error: {ref} has no src/stratagraph/cli.py")
    return src


def bench_commands(inputs: Path) -> list[list[str]]:
    import gen

    from stratagraph import ChainObjective, build_attack_graph, build_base_graph, search_chain

    commands = []
    for workload in WORKLOADS:
        for seed in BENCH_SEEDS:
            scenario = gen.generate(workload, seed)
            stem = inputs / f"{workload}-seed{seed}"
            path, config, agg_max, count = (
                Path(f"{stem}{suffix}") for suffix in (".scenario", ".config", ".max.config", ".count.config")
            )
            path.write_text(scenario.text, encoding="utf-8")
            config.write_text(scenario.config_text, encoding="utf-8")
            for variant, key, value in ((agg_max, "threat_agg", "max"), (count, "budget_objective", "count")):
                text = json.dumps({**json.loads(scenario.config_text), key: value}) + "\n"
                variant.write_text(text, encoding="utf-8")
            simulate, simulate_max, simulate_count = (
                next(argv for metric, _, argv in scenario.commands(str(path), str(c)) if metric == "simulate_s")
                for c in (config, agg_max, count)
            )
            bench = [argv for _, _, argv in scenario.commands(str(path), str(config))]
            commands += bench
            if seed == 1:
                # Base paths grow as degree ** max_len: at 6 hops a walk
                # that does not prune toward --to pops about 270k partial
                # paths on topology-L, and each output runs to 7-13 MB.
                potential = next(argv for argv in bench if argv[0] == "potential")
                commands.append([*potential, "--max-len", "6"])  # the last --max-len wins
            commands += [[*argv, "--format", "text"] for argv in bench]  # the last --format wins
            common = ["--scenario", str(path), "--config", str(config), "--format", "json"]
            commands += [
                ["graph", "--scenario", str(path), "--config", str(config), "--dot"],
                ["chains", *common, "--objective", "min_cost"],
                ["chains", *common, "--objective", "max_threat"],
                ["chains", *common, "--unrestricted", "--max-len", str(UNRESTRICTED_MAX_LEN)],
                ["chains", *common, "--semantics", "strict"],
                ["defend", *common, "--mode", "budget", "--budget", str(scenario.shape.budget), "--semantics", "strict"],
                ["risk", *common, "--semantics", "strict"],
                ["defend", *common, "--mode", "coverage"],
                ["defend", *common, "--mode", "cut", "--semantics", "strict"],
                [*simulate, "--semantics", "strict"],
                simulate_max,
                simulate_count,
                [*simulate, "--attacker", "greedy_cheapest"],  # the last --attacker wins
                [*simulate, "--attacker", "max_threat"],
                # The defender's walk context: kept for every turn when no
                # defense is ever bought, and renewed many times in long games.
                [*simulate, "--budget-per-turn", "0"],
                [*simulate, "--runs", "1", "--max-turns", "40"],
            ]
            # Both searches under strict semantics, to an object on the way
            # to the targets, and at a length limit below the cheapest chain.
            graph = build_attack_graph(scenario.doc, build_base_graph(scenario.doc))
            cheapest = search_chain(graph, ChainObjective("min_cost")).edges
            # No target: a prefix that ends on one would be the cheaper chain.
            passed = [graph.edge(eid).to_id for eid in cheapest[:-1]]
            others = (o.id for o in scenario.doc.objects if o.id not in scenario.doc.targets)
            waypoint = passed[len(passed) // 2] if passed else next(others)
            for objective in ("min_cost", "max_threat"):
                search = ["chains", *common, "--objective", objective]
                commands += [
                    [*search, "--semantics", "strict"],
                    [*search, "--target", waypoint],
                    [*search, "--max-len", str(max(1, len(cheapest) - 1))],
                ]
            agg = ["--scenario", str(path), "--config", str(agg_max), "--format", "json"]
            commands += [
                ["chains", *agg],
                ["chains", *agg, "--objective", "max_threat"],
                ["risk", *agg],
            ]
    return commands


def genscen_commands(inputs: Path) -> list[list[str]]:
    from genscen import coherent_scenario, random_scenario

    from stratagraph.scenario import serialize_scenario

    targetless = inputs / "genscen-targetless.scenario"
    targetless.write_text(serialize_scenario(random_scenario(TARGETLESS_SEED)._replace(targets=())), encoding="utf-8")
    commands = []
    for semantics in ("accumulated", "strict"):
        config = inputs / f"genscen-{semantics}.config"
        config.write_text(json.dumps({"semantics": semantics, "max_len": 4}) + "\n", encoding="utf-8")
        common = ["--scenario", str(targetless), "--config", str(config), "--format", "json"]
        commands += [["defend", *common, "--mode", "budget", "--budget", "3"], ["defend", *common, "--mode", "cut"]]
        for family, make in (("random", random_scenario), ("coherent", coherent_scenario)):
            for seed in range(GENSCEN_SEEDS):
                doc = make(seed)
                path = inputs / f"genscen-{family}-{seed}.scenario"
                if not path.exists():
                    path.write_text(serialize_scenario(doc), encoding="utf-8")
                first, last = doc.objects[0].id, doc.objects[-1].id
                common = ["--scenario", str(path), "--config", str(config), "--format", "json"]
                commands += [
                    ["validate", "--scenario", str(path), "--format", "json"],
                    ["graph", *common],
                    ["chains", *common],
                    ["chains", *common, "--format", "text"],
                    ["chains", *common, "--objective", "min_cost"],
                    ["chains", *common, "--objective", "max_threat"],
                    ["chains", *common, "--unrestricted"],
                    ["potential", *common, "--from", first, "--to", last],
                    ["defend", *common, "--mode", "cut"],
                    ["defend", *common, "--mode", "budget", "--budget", "3"],
                    ["defend", *common, "--mode", "coverage"],
                    ["risk", *common],
                    ["simulate", *common, "--defender", "reactive_cut", "--budget-per-turn", "2", "--runs", "2"],
                    [
                        "simulate", *common, "--defender", "reactive_cut", "--budget-per-turn", "1",
                        "--runs", "3", "--max-turns", "20", "--attacker", "random",
                    ],
                ]
    return commands


def _rewrite_numbers(path: Path, doc, pick) -> None:
    """Write doc to path with every cost and severity replaced by pick()."""
    from stratagraph.scenario import serialize_scenario

    data = json.loads(serialize_scenario(doc))
    for record, keys in [(a, ("cost", "severity")) for a in data["attacks"]] + [(d, ("cost",)) for d in data["defenses"]]:
        for key in keys:
            record[key] = pick()
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def large_number_commands(inputs: Path) -> list[list[str]]:
    from genscen import coherent_scenario, random_scenario

    commands = []
    for agg in ("sum", "max"):
        config = inputs / f"large-{agg}.config"
        config.write_text(json.dumps({"max_len": 4, "threat_agg": agg}) + "\n", encoding="utf-8")
        for family, make in (("random", random_scenario), ("coherent", coherent_scenario)):
            for seed in range(LARGE_SEEDS):
                path = inputs / f"large-{family}-{seed}.scenario"
                if not path.exists():
                    rng = random.Random(f"large-{family}-{seed}")

                    def pick():
                        whole = rng.choice((1, 2)) * 10**6
                        return whole if rng.random() < 0.5 else float(whole)

                    _rewrite_numbers(path, make(seed), pick)
                common = ["--scenario", str(path), "--config", str(config), "--format", "json"]
                commands += [
                    ["chains", *common],
                    ["chains", *common, "--unrestricted"],
                    ["chains", *common, "--objective", "min_cost"],
                    ["chains", *common, "--objective", "max_threat"],
                    ["risk", *common],
                    ["risk", *common, "--format", "text"],
                    ["defend", *common, "--mode", "budget", "--budget", "3000000"],
                    ["simulate", *common, "--defender", "reactive_cut", "--budget-per-turn", "2000000", "--runs", "2"],
                ]
    return commands


def signed_zero_commands(inputs: Path) -> list[list[str]]:
    """Scenarios whose every cost and severity is written as 0, 0.0 or -0.0 at random."""
    from genscen import coherent_scenario, random_scenario

    commands = []
    for family, make in (("random", random_scenario), ("coherent", coherent_scenario)):
        for seed in range(ZERO_SEEDS):
            path = inputs / f"zero-{family}-{seed}.scenario"
            rng = random.Random(f"zero-{family}-{seed}")
            _rewrite_numbers(path, make(seed), lambda: rng.choice((0, 0.0, -0.0)))
            common = ["--scenario", str(path), "--format", "json"]
            commands += [["graph", *common], ["chains", *common], ["risk", *common]]
    return commands


def fixture_commands(inputs: Path) -> list[list[str]]:
    """Small fixtures, among them chains that re-fire an attack, under each semantics and threat aggregation."""
    commands = []
    for semantics in ("accumulated", "strict"):
        for agg in ("sum", "max"):
            config = inputs / f"fixture-{semantics}-{agg}.config"
            config.write_text(json.dumps({"semantics": semantics, "threat_agg": agg}) + "\n", encoding="utf-8")
            for name in ("toy5g", "strictmode", "minichain"):
                path = ROOT / "tests" / "fixtures" / f"{name}.scenario"
                common = ["--scenario", str(path), "--config", str(config), "--format", "json"]
                commands += [
                    ["chains", *common, "--unrestricted"],
                    ["chains", *common, "--objective", "min_cost"],
                    ["chains", *common, "--objective", "max_threat"],
                    ["risk", *common],
                ]
    return commands


def long_limit_commands(inputs: Path) -> list[list[str]]:
    """Walks to every object and reactive games with a length limit far beyond the longest chain."""
    genscen = inputs / "genscen-random-0.scenario"  # written by genscen_commands
    commands = []
    for path in (ROOT / "tests" / "fixtures" / "toy5g.scenario", genscen):
        common = ["--scenario", str(path), "--format", "json", "--max-len", str(LONG_MAX_LEN)]
        commands += [
            ["chains", *common, "--unrestricted"],
            ["risk", *common],
            ["simulate", *common, "--defender", "reactive_cut", "--budget-per-turn", "1", "--runs", "3"],
        ]
    return commands


def _grant_bit_docs() -> dict:
    """name -> (scenario doc, chains to its target) for grant_bit_commands.

    The first chain of each is valid under both semantics, the second only
    under accumulated semantics.
    """
    from stratagraph.model import AttackRecord, DefenseRecord, Grant, ObjectRecord, RelationshipEdge, ScenarioDoc

    def attack(aid, obj, condition, results, cost, severity, detect_prob=1.0):
        need, got = (tuple(Grant(*g) for g in grants) for grants in (condition, results))
        return AttackRecord(aid, obj, need, "", got, float(cost), float(severity), detect_prob)

    layers = (("physical", "hardware-device"), ("virtual", "virtual-entity"), ("service", "os"))
    layers += (("application", "application-software"), ("application", "protocol"))

    def objects(prefix):
        return tuple(ObjectRecord(f"{prefix}{k}", layer, category) for k, (layer, category) in enumerate(layers))

    def links(prefix, pairs):
        return tuple(RelationshipEdge(f"{prefix}{a}", f"{prefix}{b}", "management") for a, b in pairs)

    # n0's read and n3's disable are entry grants that no condition or result names.
    unnamed = ScenarioDoc(
        objects=objects("n"),
        relationships=links("n", ((0, 1), (1, 2), (2, 3), (2, 4), (4, 3))),
        attacks=(
            attack("x1", "n0", [("n0", "execute")], [("n1", "read"), ("n1", "write")], 1, 2),
            attack("x2", "n1", [("n1", "read")], [("n2", "execute")], 2, 3, 0.5),
            attack("x3", "n1", [("n1", "write")], [("n2", "read")], 1, 1),
            attack("x4", "n2", [("n2", "execute")], [("n3", "read")], 3, 5),
            attack("x5", "n2", [("n2", "read"), ("n1", "write")], [("n4", "execute")], 1, 2),
            attack("x6", "n4", [("n4", "execute")], [("n3", "write")], 2, 4, 0.5),
            attack("x7", "n0", [("n0", "execute")], [("n2", "read")], 4, 1),
        ),
        defenses=(
            DefenseRecord("d1", 3.0, "", ("x1",)),
            DefenseRecord("d2", 1.0, "", ("x2", "x3")),
            DefenseRecord("d3", 2.0, "", ("x4", "x6")),
            DefenseRecord("d4", 1.0, "", ("x7",)),
        ),
        entry_grants=(Grant("n0", "execute"), Grant("n3", "disable"), Grant("n0", "read")),
        targets=("n3",),
    )
    # m1's write is met before its read and execute, and m3's read before
    # its execute and write: the records name these grants out of Grant
    # order, which must not reach the output.
    reordered = ScenarioDoc(
        objects=objects("m"),
        relationships=links("m", ((0, 1), (1, 2), (2, 3), (2, 4), (4, 3))),
        attacks=(
            attack("y1", "m0", [("m0", "write")], [("m1", "write")], 1, 1),
            attack("y2", "m0", [("m0", "write")], [("m1", "read"), ("m1", "write")], 2, 2),
            attack("y3", "m0", [("m0", "write")], [("m1", "execute")], 1, 3, 0.5),
            attack("y4", "m1", [("m1", "read"), ("m1", "write")], [("m2", "disable")], 1, 2),
            attack("y5", "m1", [("m1", "execute")], [("m2", "write")], 2, 2),
            attack("y6", "m2", [("m2", "write")], [("m3", "read"), ("m4", "execute")], 1, 4),
            attack("y7", "m2", [("m2", "disable")], [("m3", "write")], 3, 3, 0.5),
            attack("y8", "m4", [("m4", "execute"), ("m1", "execute")], [("m3", "execute")], 1, 5),
        ),
        defenses=(
            DefenseRecord("e1", 2.0, "", ("y1", "y2")),
            DefenseRecord("e2", 1.0, "", ("y3",)),
            DefenseRecord("e3", 2.0, "", ("y6", "y7")),
            DefenseRecord("e4", 1.0, "", ("y8", "y4")),
        ),
        entry_grants=(Grant("m0", "write"),),
        targets=("m3",),
    )
    return {
        "unnamed-entry": (unnamed, (("x1#0", "x2#0", "x4#0"), ("x1#1", "x3#0", "x5#0", "x6#0"))),
        "bit-order": (reordered, (("y3#0", "y5#0", "y6#0"), ("y3#0", "y5#0", "y6#1", "y8#0"))),
    }


def grant_bit_commands(inputs: Path) -> list[list[str]]:
    """Scenarios with an entry grant that has no bit, or with records naming grants out of Grant order, under both semantics."""
    from stratagraph.scenario import serialize_scenario

    commands = []
    for name, (doc, chains) in _grant_bit_docs().items():
        path = inputs / f"grant-bits-{name}.scenario"
        path.write_text(serialize_scenario(doc), encoding="utf-8")
        for semantics in ("accumulated", "strict"):
            common = ["--scenario", str(path), "--semantics", semantics, "--format", "json"]
            commands += [
                ["chains", *common],
                ["chains", *common, "--unrestricted"],
                ["chains", *common, "--objective", "min_cost"],
                ["chains", *common, "--objective", "max_threat"],
                ["risk", *common],
                ["defend", *common, "--mode", "cut"],
                ["defend", *common, "--mode", "budget", "--budget", "3"],
                *(["defend", *common, "--mode", "coverage", "--chain", ",".join(chain)] for chain in chains),
                [
                    "simulate", *common, "--defender", "reactive_cut", "--budget-per-turn", "1",
                    "--runs", "3", "--attacker", "random",
                ],
            ]
    return commands


def compromise_commands(inputs: Path) -> list[list[str]]:
    """Reactive games that end on an entry grant, or on a pick that grants again a grant held on the target.

    The doc's entry grants hold `n2`'s read and `n2` is its target, so any
    permission ends the game before its first turn. Under
    `--compromise-permission write` the game is played: `z2` grants `n2`'s
    read, held since the entry, together with its write, which wins.
    """
    from stratagraph.model import AttackRecord, DefenseRecord, Grant, ObjectRecord, RelationshipEdge, ScenarioDoc
    from stratagraph.scenario import serialize_scenario

    def attack(aid, obj, condition, results, cost, detect_prob):
        need, got = (tuple(Grant(*g) for g in grants) for grants in (condition, results))
        return AttackRecord(aid, obj, need, "", got, float(cost), 2.0, detect_prob)

    doc = ScenarioDoc(
        objects=tuple(ObjectRecord(f"n{k}", "service", "os") for k in range(4)),
        relationships=tuple(RelationshipEdge(f"n{a}", f"n{b}", "peer") for a, b in ((0, 1), (1, 2), (0, 3), (3, 2))),
        attacks=(
            attack("z1", "n0", [("n0", "execute")], [("n1", "read")], 1, 0.5),
            attack("z2", "n1", [("n1", "read")], [("n2", "read"), ("n2", "write")], 2, 0.5),
            attack("z3", "n0", [("n0", "execute")], [("n3", "execute")], 1, 0.9),
            attack("z4", "n3", [("n3", "execute")], [("n2", "write")], 3, 0.9),
        ),
        defenses=(DefenseRecord("d1", 1.0, "", ("z3",)), DefenseRecord("d2", 3.0, "", ("z2", "z4"))),
        entry_grants=(Grant("n0", "execute"), Grant("n2", "read")),
        targets=("n2",),
    )
    path = inputs / "compromise.scenario"
    path.write_text(serialize_scenario(doc), encoding="utf-8")
    commands = []
    for semantics in ("accumulated", "strict"):
        game = [
            "simulate", "--scenario", str(path), "--semantics", semantics, "--defender", "reactive_cut",
            "--budget-per-turn", "1", "--runs", "4", "--attacker", "random",
        ]
        for fmt in ("json", "text"):
            commands += [[*game, "--format", fmt], [*game, "--compromise-permission", "write", "--format", fmt]]
    return commands


def coverage_commands(inputs: Path) -> list[list[str]]:
    """`defend --mode coverage --chain` runs: each chain is replayed edge by edge, then covered."""
    from stratagraph import ChainObjective, build_attack_graph, build_base_graph, load_scenario, search_chain

    toy = ROOT / "tests" / "fixtures" / "toy5g.scenario"
    bench = inputs / "reactive-sim-M-seed1.scenario"  # written by bench_commands
    doc = load_scenario(bench)
    bench_chain = search_chain(build_attack_graph(doc, build_base_graph(doc)), ChainObjective("min_cost")).edges
    commands = []
    for path, chain in ((toy, ("A1#0", "A2#1", "A4#0")), (bench, bench_chain)):
        coverage = ["defend", "--scenario", str(path), "--mode", "coverage", "--chain"]
        commands += [[*coverage, ",".join(chain), "--format", fmt] for fmt in ("json", "text")]
        commands += [
            [*coverage, ",".join(chain[:1] + chain[2:])],
            [*coverage, ",".join(chain[1:])],
            [*coverage, f"{chain[0]},NOPE#0"],
        ]
    # A2#0 affects HV1, and A3#0 leads from HV1 back to HV1.
    commands.append(["defend", "--scenario", str(toy), "--mode", "coverage", "--chain", "A1#0,A2#0,A3#0"])
    return commands


def entry_only_commands(inputs: Path) -> list[list[str]]:
    """A scenario with entry-only attacks, one of which a chain fires mid-chain, under both semantics.

    x1 and x3 are entry-only. x1 opens the chain x1, x2, x4; x3 can open a
    chain of its own, since the entry grants hold n2's read, but not follow
    x2, so the replay of x1, x2, x3 stops at its last edge.
    """
    from stratagraph.model import AttackRecord, DefenseRecord, Grant, ObjectRecord, RelationshipEdge, ScenarioDoc
    from stratagraph.scenario import serialize_scenario

    def attack(aid, obj, need, result, cost, entry_only=False):
        return AttackRecord(aid, obj, (Grant(*need),), "", (Grant(*result),), float(cost), 2.0, 0.5, entry_only)

    doc = ScenarioDoc(
        objects=tuple(ObjectRecord(f"n{k}", "service", "os") for k in range(4)),
        relationships=tuple(RelationshipEdge(f"n{a}", f"n{b}", "peer") for a, b in ((0, 1), (1, 2), (2, 3))),
        attacks=(
            attack("x1", "n0", ("n0", "execute"), ("n1", "read"), 1, True),
            attack("x2", "n1", ("n1", "read"), ("n2", "read"), 1),
            attack("x3", "n2", ("n2", "read"), ("n3", "write"), 3, True),
            attack("x4", "n2", ("n2", "read"), ("n3", "read"), 1),
        ),
        defenses=(DefenseRecord("d1", 1.0, "", ("x3",)), DefenseRecord("d2", 2.0, "", ("x2", "x4"))),
        entry_grants=(Grant("n0", "execute"), Grant("n2", "read")),
        targets=("n3",),
    )
    path = inputs / "entry-only.scenario"
    path.write_text(serialize_scenario(doc), encoding="utf-8")
    commands = []
    for semantics in ("accumulated", "strict"):
        common = ["--scenario", str(path), "--semantics", semantics, "--format", "json"]
        coverage = ["defend", *common, "--mode", "coverage", "--chain"]
        commands += [
            ["chains", *common],
            ["chains", *common, "--unrestricted"],
            ["chains", *common, "--objective", "min_cost"],
            ["chains", *common, "--objective", "max_threat"],
            [*coverage, "x1#0,x2#0,x4#0"],
            [*coverage, "x1#0,x2#0,x3#0"],
        ]
    return commands


def branch_commands(inputs: Path) -> list[list[str]]:
    """Output branches no other list reaches, each in JSON and in text."""
    fixtures = ROOT / "tests" / "fixtures"
    toy, undefendable = (str(fixtures / f"{name}.scenario") for name in ("toy5g", "undefendable_feasible"))
    runs = [
        ["potential", "--scenario", toy, "--from", "UE1", "--to", "UE1"],
        ["defend", "--scenario", toy, "--mode", "coverage", "--max-len", "1"],
        ["defend", "--scenario", undefendable, "--mode", "coverage"],
        ["simulate", "--scenario", toy, "--compromise-permission", "root"],
    ]
    return [[*argv, "--format", fmt] for argv in runs for fmt in ("json", "text")]


SERIALIZE = (
    "import sys; from stratagraph.scenario import load_scenario, serialize_scenario;"
    " sys.stdout.write(serialize_scenario(load_scenario(sys.argv[1])))"
)


def serializer_commands(inputs: Path) -> list[list[str]]:
    """Each scenario written so far, loaded and serialized back, as `python -c` argv."""
    return [["-c", SERIALIZE, str(path)] for path in sorted(inputs.glob("*.scenario"))]


def describe(argv: list[str]) -> str:
    if argv[:1] == ["-c"]:
        return f"serialize_scenario(load_scenario({argv[2]!r}))"
    if argv[:1] == ["-m"]:
        return f"python {' '.join(argv)}"
    return f"stratagraph {' '.join(argv)}"


DELETE = object()
# name -> (path into toy5g's JSON, the value put there, or DELETE to remove the key)
SHAPE_FAULTS = {
    "grant-missing-permission": (("attacks", 0, "a_results", 0, "permission"), DELETE),
    "object-missing-layer": (("objects", 0, "layer"), DELETE),
    "relationship-missing-kind": (("relationships", 0, "kind"), DELETE),
    "attack-missing-a_results": (("attacks", 0, "a_results"), DELETE),
    "defense-missing-cost": (("defenses", 0, "cost"), DELETE),
    "objects-empty-record": (("objects", 0), {}),
    "relationships-empty-record": (("relationships", 0), {}),
    "attacks-empty-record": (("attacks", 0), {}),
    "defenses-empty-record": (("defenses", 0), {}),
    "entry_grants-empty-record": (("entry_grants", 0), {}),
    "str-check": (("objects", 0, "category"), 7),
    "bool-check": (("relationships", 0, "directed"), "yes"),
    "number-check": (("attacks", 0, "detect_prob"), "high"),
    "grant-list-check": (("attacks", 0, "a_results"), {}),
    "sorted-grant-list-check": (("attacks", 0, "condition"), "A"),
    "string-list-check": (("defenses", 0, "d_results"), "A1"),
    "bool-cost": (("attacks", 0, "cost"), True),
    "huge-severity": (("attacks", 0, "severity"), 2**2000),
    "grant-extra-key": (("entry_grants", 0, "note"), "x"),
    "record-not-dict": (("defenses", 0), "D1"),
    "section-not-list": (("relationships",), {}),
    "target-not-str": (("targets", 0), 1),
    "unknown-nested-key": (("objects", 0, "color"), "red"),
}


def shape_commands(inputs: Path) -> list[list[str]]:
    """`validate` of toy5g with one shape fault each; all but the unknown key exit 2."""
    original = (ROOT / "tests" / "fixtures" / "toy5g.scenario").read_text(encoding="utf-8")
    commands = []
    for name, (path, value) in SHAPE_FAULTS.items():
        data = json.loads(original)
        node = data
        for step in path[:-1]:
            node = node[step]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        scenario = inputs / f"shape-{name}.scenario"
        scenario.write_text(json.dumps(data) + "\n", encoding="utf-8")
        commands += [["validate", "--scenario", str(scenario), "--format", fmt] for fmt in ("json", "text")]
    return commands


def _plain(value):
    """value with every Grant written as its dict, as a scenario file holds it."""
    from stratagraph import Grant

    if isinstance(value, Grant):
        return value.as_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def scenario_text(doc) -> str:
    """doc as json.dumps writes it, unknown keys included, so that parse_scenario reads doc back."""
    from stratagraph.scenario import scenario_to_dict

    return json.dumps({**_plain(scenario_to_dict(doc)), **dict.fromkeys(doc.unknown_keys, 1)}, indent=1) + "\n"


def semantic_commands(inputs: Path) -> list[list[str]]:
    """`validate` and `chains` of toy5g with one semantic fault each, and with many at once.

    The faults are those of the validation tests (`tests/faults.py`). Each
    doc is written with json.dumps, which keeps every float exact and
    writes NaN and the infinities as JSON's parser reads them back.
    """
    from faults import VALIDATION_RULES, edit, repeated_bad_tokens

    from stratagraph import load_scenario

    toy = load_scenario(ROOT / "tests" / "fixtures" / "toy5g.scenario")
    docs = {name.replace(" ", "-"): mutate(toy) for name, (mutate, _) in VALIDATION_RULES.items()}
    # Shared malformed tokens, and numbers out of range, just above 1 or -0.0.
    doc = repeated_bad_tokens(toy)
    doc = edit(doc, "attacks", 2, cost=-1.0, severity=math.nan, detect_prob=1.0000001)
    doc = edit(doc, "attacks", 3, cost=math.inf, severity=-0.0, detect_prob=-math.inf)
    docs["repeated-tokens-and-numbers"] = edit(edit(doc, "defenses", 1, cost=-math.inf), "defenses", 2, cost=-0.0)
    commands = []
    for name, doc in docs.items():
        path = str(inputs / f"semantic-{name}.scenario")
        Path(path).write_text(scenario_text(doc), encoding="utf-8")
        commands += [["validate", "--scenario", path, "--format", fmt] for fmt in ("json", "text")]
        commands.append(["chains", "--scenario", path])
    return commands


def error_commands(inputs: Path) -> list[list[str]]:
    """Help, usage and error paths: moving an import can change these and no success output."""
    fixtures = ROOT / "tests" / "fixtures"
    toy = str(fixtures / "toy5g.scenario")
    missing = str(inputs / "missing.scenario")
    malformed = inputs / "malformed.scenario"
    malformed.write_text("{not json\n", encoding="utf-8")
    no_config = ["--config", str(inputs / "missing.config")]
    analysis = [
        ["graph"],
        ["chains"],
        ["potential", "--from", "BS1", "--to", "APP1"],
        ["defend", "--mode", "cut"],
        ["defend", "--mode", "budget", "--budget", "3"],
        ["defend", "--mode", "coverage"],
        ["risk"],
        ["simulate"],
    ]
    commands = [["--version"], ["--help"], ["frobnicate"], []]
    commands += [[name, "--help"] for name in ("validate", "graph", "chains", "potential", "defend", "risk", "simulate")]
    for argv in [["validate"], *analysis]:
        commands += [[*argv, "--scenario", missing], [*argv, "--scenario", str(malformed)]]
    commands += [[*argv, "--scenario", toy, *no_config] for argv in analysis]
    commands += [
        ["validate"],
        ["defend", "--mode", "cut", "--scenario", str(fixtures / "infeasible.scenario")],
        ["chains", "--scenario", toy, "--target", "NOPE"],
        ["potential", "--scenario", toy, "--from", "NOPE", "--to", "APP1"],
        ["chains", "--scenario", toy, "--max-len", "0"],
        ["defend", "--scenario", toy, "--mode", "budget", "--budget", "nan"],
        ["defend", "--scenario", toy, "--mode", "budget"],
        ["simulate", "--scenario", toy, "--runs", "0"],
        ["graph", "--scenario", toy, "--dot", "--format", "json"],
    ]
    return commands


def package_commands(inputs: Path) -> list[list[str]]:
    """`python -m stratagraph` runs, as interpreter argv: the version and one command per exit code 0-3."""
    fixtures = ROOT / "tests" / "fixtures"
    invalid = inputs / "package-invalid.scenario"
    invalid.write_text('{"objects": [{"id": "x", "layer": "nowhere", "category": "os"}]}\n', encoding="utf-8")
    runs = [
        ["--version"],
        ["validate", "--scenario", str(fixtures / "toy5g.scenario")],
        ["validate"],
        ["validate", "--scenario", str(invalid)],
        ["defend", "--mode", "cut", "--scenario", str(fixtures / "infeasible.scenario")],
    ]
    return [["-m", "stratagraph", *argv] for argv in runs]


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, *(argv if argv[:1] in (["-c"], ["-m"]) else ["-m", "stratagraph.cli", *argv])],
        cwd=cwd, env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S,
    )
    return done.returncode, done.stdout.decode("utf-8", "replace"), done.stderr.decode("utf-8", "replace")


def first_difference(name: str, ours: str, theirs: str, ref: str) -> str:
    """Both sides of the first differing line of an output, with a little context."""
    a, b = ours.splitlines(), theirs.splitlines()
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, i - CONTEXT_LINES)

    def window(lines):
        return "\n".join(f"    {k + 1:>7} | {line}" for k, line in enumerate(lines[lo : i + CONTEXT_LINES + 1], lo))

    return (
        f"  {name} first differs at line {i + 1}"
        f" (this tree: {len(ours)} chars, {len(a)} lines; {ref}: {len(theirs)} chars, {len(b)} lines)\n"
        f"  this tree:\n{window(a)}\n  {ref}:\n{window(b)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True, help="git revision to compare against, such as HEAD~1")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

    with tempfile.TemporaryDirectory(prefix="diff_ref-") as tmp:
        tmp = Path(tmp)
        ref_src = export_ref(args.ref, tmp / "ref")
        inputs = tmp / "inputs"
        inputs.mkdir()
        commands = bench_commands(inputs) + genscen_commands(inputs) + large_number_commands(inputs)
        commands += signed_zero_commands(inputs) + fixture_commands(inputs)
        commands += long_limit_commands(inputs) + grant_bit_commands(inputs) + compromise_commands(inputs)
        commands += coverage_commands(inputs) + entry_only_commands(inputs)
        commands += branch_commands(inputs)
        commands += serializer_commands(inputs) + shape_commands(inputs) + semantic_commands(inputs)
        commands += error_commands(inputs) + package_commands(inputs)

        def both(argv):
            return run(ROOT / "src", argv, inputs), run(ref_src, argv, inputs)

        exits = Counter()
        differ = 0
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for argv, (ours, theirs) in zip(commands, pool.map(both, commands)):
                if ours == theirs:
                    exits[ours[0]] += 1
                    continue
                differ += 1
                print(f"DIFFERS: {describe(argv)}", flush=True)
                if differ == 1:
                    print(f"  exit code: this tree {ours[0]}, {args.ref} {theirs[0]}")
                    for name, k in (("stderr", 2), ("stdout", 1)):
                        if ours[k] != theirs[k]:
                            print(first_difference(name, ours[k], theirs[k], args.ref), flush=True)
    codes = ", ".join(f"{n} exit {code}" for code, n in sorted(exits.items()))
    if differ:
        print(f"differ: {differ} of {len(commands)} commands; the other {len(commands) - differ} are identical ({codes})")
        return 1
    print(f"identical: {len(commands)} commands ({codes}), same stdout, stderr and exit code as {args.ref}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
