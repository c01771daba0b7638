"""Summarize benchmark results across seeds, and optionally store them as the baseline.

Run from the repository root after several `bench/run.py` runs of a workload:

    python3 bench/summarize.py WORKLOAD [--trace 0|1] [--baseline]

Reads every `bench/out/result-WORKLOAD-seed*-traceT.json` and prints, for
each metric, the median and quartiles over the runs and the spread: the
distance between the quartiles as a share of the median, the figure each
end-to-end metric's bound in BENCHMARK.json is compared with. With
`--baseline` it writes `bench/baseline/WORKLOAD.json`, the figures a later
change is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    paths = sorted((ROOT / "bench" / "out").glob(f"result-{args.workload}-seed*-trace{args.trace}.json"))
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if len(runs) < 2:
        raise SystemExit(f"error: need at least two results for {args.workload}, found {len(runs)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    print(f"{args.workload}: {len(runs)} runs, seeds {[r['provenance']['seed'] for r in runs]}")
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name] for r in runs]
        median, q1, q3, share = spread(values)
        bound = metric.get("bound")
        summary[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": share, "values": values}
        flag = "" if bound is None else f"  bound {bound:.3g} ({'ok' if share < bound / 3 else 'WIDE'})"
        print(f"  {name:<28} median {median:.6g} {metric['unit']:<6} q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f}{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"  commands: {sum(r['attempted'] for r in runs)} attempted, {failed} failed")

    if args.baseline:
        baseline = {
            "workload": args.workload,
            "trace": args.trace,
            "provenance": [r["provenance"] for r in runs],
            "sizes": runs[0]["sizes"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": failed,
            "metrics": summary,
        }
        path = ROOT / "bench" / "baseline" / f"{args.workload}-trace{args.trace}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
