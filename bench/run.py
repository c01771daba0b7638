"""Benchmark of the `stratagraph` CLI on seeded layered scenarios.

Run from the repository root:

    python3 bench/run.py --workload chains-M --seed 1 --seconds 40 --trace 0

Each workload (see `gen.SHAPES` and BENCHMARK.json) generates one scenario
from the seed and runs a round of eight CLI commands on it, one after
another, as `python -m stratagraph.cli` subprocesses with `PYTHONPATH=src`,
repeating rounds until `--seconds` have passed. Every output is checked
(`checks.py`); a command that exits non-zero or fails its check counts as
failed.

`--trace 0` reports the end-to-end metrics: the median paced time (wall
time corrected for the host's speed during the sample, see `pace.py`) of
each command and of the in-process set-up, the largest child peak RSS, and
the share of commands that passed. `--trace 1` runs the same rounds in
process through `stratagraph.cli.main`, alternating untraced rounds with
rounds traced by `tracing.Tracer`, and reports the per-layer metrics.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The full
result, with provenance and every sample, is written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
STARTUP_REPEATS = 5
# Within a round, set-up and each command repeat until they have run this
# long, so quick ones collect as many samples as slow ones collect seconds.
ROUND_SHARE_S = 0.5
CHILD_CPU_LIMIT_S = 150  # a runaway command is killed well inside the run's time limit
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def provenance(args, structure: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stratagraph").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "structure": structure,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@contextmanager
def fresh_heap():
    """Hide the harness's own objects from the garbage collector while timing.

    A CLI command starts with a near-empty heap; without this, collections
    triggered inside an in-process call would also scan the outputs and
    checker state the harness keeps, and time that instead.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def time_setup(scenario_path: Path) -> tuple[float, float, float]:
    """In-process parse, validation and both graph builds: what every command pays first.

    Returns (paced seconds, wall seconds, mean probe seconds). The host is
    probed between the four steps, and the probes are left out of the wall
    time.
    """
    from stratagraph import build_attack_graph, build_base_graph, load_scenario, validate_scenario

    wall = 0.0

    def step(fn, *args):
        nonlocal wall
        start = time.perf_counter()
        value = fn(*args)
        wall += time.perf_counter() - start
        return value

    with fresh_heap(), pace.pinned() as probes:
        doc = step(load_scenario, scenario_path)
        probes.append(pace.probe())
        step(validate_scenario, doc)
        probes.append(pace.probe())
        base = step(build_base_graph, doc)
        probes.append(pace.probe())
        step(build_attack_graph, doc, base)
    return pace.paced(wall, probes), wall, statistics.fmean(probes)


def run_cli(argv: list[str], workdir: Path):
    """One CLI subprocess, pinned and paced (see `pace`).

    Returns (paced seconds, wall seconds, mean probe seconds, exit code,
    stdout, stderr, peak RSS in KiB). stdout is read from a pipe until the
    command closes it, then the process is reaped with `os.wait4` for its
    resource usage.
    """
    err_path = workdir / "stderr"
    with open(err_path, "wb") as err, pace.pinned() as probes:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "stratagraph.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=CHILD_ENV, preexec_fn=_limit_child,
        )
        try:
            with proc.stdout:
                out = pace.read_probing(proc.stdout, probes)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out.decode("utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return pace.paced(wall, probes), wall, statistics.fmean(probes), proc.returncode, text, stderr, usage.ru_maxrss


def run_in_process(main, argv: list[str]) -> tuple[float, int, str]:
    buf = io.StringIO()
    with fresh_heap(), redirect_stdout(buf):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return wall, code, buf.getvalue()


def keep_going(start: float, seconds: float, rounds: int) -> bool:
    """Start another traced round unless it would probably end past the deadline."""
    if rounds == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def measure_cli(commands, tally, seconds: float, workdir: Path, scenario_path: Path) -> dict:
    """Rounds of set-up timings and CLI commands until the window closes.

    Every round samples each metric, so each one's samples spread over the
    whole window. After the first full round, a sample is only started if
    its metric's last sample would still have ended inside the window, and
    the run ends when no metric fits.
    """
    peak_kib = 0

    def command(kind: str, argv: list[str]):
        def sample() -> tuple[float, float, float]:
            nonlocal peak_kib
            paced, wall, probe, code, text, err, rss = run_cli(argv, workdir)
            peak_kib = max(peak_kib, rss)
            tally.check(kind, code, text, err)
            return paced, wall, probe

        return sample

    samplers = [("setup_s", lambda: time_setup(scenario_path))]
    samplers += [(metric, command(kind, argv)) for metric, kind, argv in commands]
    samples: dict[str, list[float]] = {metric: [] for metric, _ in samplers}
    walls: dict[str, list[float]] = {metric: [] for metric, _ in samplers}
    probes: dict[str, list[float]] = {metric: [] for metric, _ in samplers}
    deadline = time.perf_counter() + seconds

    def fits(metric: str) -> bool:
        return not walls[metric] or time.perf_counter() + walls[metric][-1] <= deadline

    sampled = True
    while sampled:
        sampled = False
        for metric, sample in samplers:
            spent = 0.0
            while spent < ROUND_SHARE_S and fits(metric):
                paced, wall, probe = sample()
                samples[metric].append(paced)
                walls[metric].append(wall)
                probes[metric].append(probe)
                spent += wall
                sampled = True
    return {"samples": samples, "wall_samples": walls, "probe_samples": probes, "peak_rss_mb": peak_kib / 1024}


def time_startup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stratagraph.cli"], env=CHILD_ENV, check=True, preexec_fn=_limit_child)
    return time.perf_counter() - start


def measure_traced(commands, tally, seconds: float) -> dict:
    """Pairs of untraced and traced in-process rounds, alternating which goes first."""
    import stratagraph.cli as cli
    import tracing

    startup = [time_startup() for _ in range(STARTUP_REPEATS)]
    tracer = tracing.Tracer()
    untraced_totals, traced_totals, rounds = [], [], []
    spans: list = []

    def round_time() -> float:
        total = 0.0
        for _, kind, argv in commands:
            wall, code, text = run_in_process(cli.main, argv)
            total += wall
            tally.check(kind, code, text)
        return total

    def traced_round() -> float:
        tracer.install()
        try:
            return round_time()
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while keep_going(start, seconds, len(rounds)):
        if len(rounds) % 2:
            traced_totals.append(traced_round())
            untraced_totals.append(round_time())
        else:
            untraced_totals.append(round_time())
            traced_totals.append(traced_round())
        spans = tracer.take()
        rounds.append(tracing.layer_metrics(spans))
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = statistics.median(traced_totals) - statistics.median(untraced_totals)
    return {
        "metrics": metrics,
        "rounds": rounds,
        "startup_samples": startup,
        "untraced_round_s": untraced_totals,
        "traced_round_s": traced_totals,
        "per_command": [
            {"command": metric, **row} for (metric, _, _), row in zip(commands, tracing.per_command(spans))
        ],
        "spans": tracing.dump(spans),
    }


def declared_metrics(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "stratagraph", ROOT / "tests" / "oracles.py") if not p.exists()]
    if missing:
        print(f"error: run from a stratagraph checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import gen
    from checks import Checker, Tally

    if args.workload not in gen.SHAPES:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(gen.SHAPES)}", file=sys.stderr)
        return 1
    reference = json.loads((BENCH / "reference" / f"{args.workload}.json").read_text(encoding="utf-8"))
    scenario = gen.generate(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    scenario_path, config_path = workdir / "scenario.json", workdir / "config.json"
    scenario_path.write_text(scenario.text, encoding="utf-8")
    config_path.write_text(scenario.config_text, encoding="utf-8")
    commands = scenario.commands(str(scenario_path), str(config_path))
    tally = Tally(Checker(scenario, reference))

    result = {
        "provenance": provenance(args, scenario.shape.structure),
        "sizes": {**scenario.sizes(), **reference["sizes"]},
    }
    if args.trace:
        traced = measure_traced(commands, tally, args.seconds)
        metrics = traced.pop("metrics")
        result["trace"] = traced
        declared = declared_metrics("per_layer")
    else:
        measured = measure_cli(commands, tally, args.seconds, workdir, scenario_path)
        samples = measured.pop("samples")
        metrics = {m: statistics.median(v) for m, v in samples.items()}
        metrics["peak_rss_mb"] = measured.pop("peak_rss_mb")
        metrics["ok_ratio"] = (tally.attempted - len(tally.failures)) / tally.attempted
        result.update(samples=samples, **measured)
        declared = declared_metrics("end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(declared)}")

    self_check = tally.self_check()
    failed = len(tally.failures)
    result.update(
        metrics=metrics,
        attempted=tally.attempted,
        failed=failed,
        failures=tally.failures[:20],
        self_check_rejects_corruption=self_check,
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )

    print(f"provenance: {json.dumps(result['provenance'])}")
    print(f"sizes: {json.dumps(result['sizes'])}")
    for row in result.get("trace", {}).get("per_command", []):
        print(
            f"  traced {row['command']:<15} main {row['cli.main_s']:.4f} s: validate {row['scenario.validate_s']:.4f} s"
            f" in {row['scenario.validate_calls']} calls, enumerate {row['chains.enumerate_s']:.4f} s,"
            f" plan_budgeted {row['defense.plan_budgeted_s']:.4f} s"
        )
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {declared[name]}")
    print(f"commands: {tally.attempted} attempted, {failed} failed (failed_ratio {failed / tally.attempted:.6g})")
    print(f"self-check: corrupted chains output {'rejected' if self_check else 'NOT rejected'}")
    for message in tally.failures[:5]:
        print(f"  failure: {message}")
    summary = {
        "correct": failed == 0 and self_check,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
