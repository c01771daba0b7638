"""Record the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose answers become the
reference:

    python3 bench/record.py [WORKLOAD ...]

For each workload, generates the scenario for seed 0, runs each benchmark
command once through `stratagraph.cli.main`, and writes
`bench/reference/<workload>.json`: digests of the outputs in skeleton
names, the cut's cost and the value the budget plan breaks. Before writing,
the outputs must pass every check against the new reference, including the
oracle replay of each chain and each game turn.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import gen  # noqa: E402
from checks import (  # noqa: E402
    Checker,
    canonical_graph,
    canonical_potential,
    canonical_risk,
    canonical_validate,
    chain_edge_digest,
    digest,
)
from run import run_in_process  # noqa: E402
from stratagraph.cli import main as cli_main  # noqa: E402


def run(argv: list[str]) -> dict:
    _, code, text = run_in_process(cli_main, argv)
    if code != 0:
        raise SystemExit(f"error: {argv[0]} exited {code}")
    return json.loads(text)


def record(workload: str, workdir: Path) -> dict:
    scenario = gen.generate(workload, 0)
    workdir.mkdir(parents=True, exist_ok=True)
    scenario_path, config_path = workdir / "scenario.json", workdir / "config.json"
    scenario_path.write_text(scenario.text, encoding="utf-8")
    config_path.write_text(scenario.config_text, encoding="utf-8")
    outputs = {kind: run(argv) for _, kind, argv in scenario.commands(str(scenario_path), str(config_path))}

    seqs = [tuple(c["edges"]) for c in outputs["chains"]["chains"]]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    ref = {
        "workload": workload,
        "structure": scenario.shape.structure,
        "commit": commit or None,
        "sizes": {
            "chains_to_targets": len(seqs),
            "chains_unrestricted": sum(r["chain_count"] for r in outputs["risk"]["rows"]),
            "potential_chains": outputs["potential"]["count"],
            "validate_warnings": len(outputs["validate"]["violations"]),
        },
        "validate": {"digest": digest(canonical_validate(outputs["validate"], scenario))},
        "graph": {"digest": digest(canonical_graph(outputs["graph"], scenario))},
        "chains": {"count": len(seqs), "digest": chain_edge_digest(seqs)},
        "potential": {"digest": digest(canonical_potential(outputs["potential"], scenario))},
        "risk": {"digest": digest(canonical_risk(outputs["risk"], scenario))},
        "cut": {"total_cost": outputs["cut"]["total_cost"], "chosen": outputs["cut"]["chosen"]},
        "budget": {"broken_value": None, "chosen": outputs["budget"]["chosen"]},
    }
    checker = Checker(scenario, ref)
    checker.check("chains", 0, json.dumps(outputs["chains"]))
    blocked = {a for d in scenario.doc.defenses if d.id in ref["budget"]["chosen"] for a in d.d_results}
    ref["budget"]["broken_value"] = sum(threat for attacks, threat in checker.chains if attacks & blocked)
    for kind, payload in outputs.items():
        checker.check(kind, 0, json.dumps(payload))
    return ref


def main() -> int:
    workloads = sys.argv[1:] or sorted(gen.SHAPES)
    for workload in workloads:
        ref = record(workload, ROOT / "bench" / "out" / f"record-{workload}")
        path = ROOT / "bench" / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {json.dumps(ref['sizes'])} -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
