import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratagraph.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scen(fixtures_dir, name):
    return str(fixtures_dir / f"{name}.scenario")


def test_validate_toy5g(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "validate", "--scenario", scen(fixtures_dir, "toy5g"))
    assert code == 0
    assert out.strip() == "valid"


def test_validate_invalid_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text('{"objects": [{"id": "x", "layer": "nowhere", "category": "os"}]}')
    code, out, _ = run_cli(capsys, "validate", "--scenario", str(bad), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"]


def test_validate_warnings_only_exits_0(capsys, tmp_path):
    warny = tmp_path / "warny.scenario"
    warny.write_text('{"objects": [], "surprise": true}')
    code, out, _ = run_cli(capsys, "validate", "--scenario", str(warny))
    assert code == 0
    assert out.splitlines()[0] == "valid (0 errors, 1 warnings)"
    assert "surprise" in out


def test_parse_error_exits_2(capsys, tmp_path):
    broken = tmp_path / "broken.scenario"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--scenario", str(broken))
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", "--scenario", str(tmp_path / "ghost.scenario"))
    assert code == 2


def test_unreadable_scenario_keeps_exit_2_and_its_message(capsys, tmp_path):
    # A failed read is an invalid scenario, not a failed write of the output.
    ghost = tmp_path / "ghost.scenario"
    for argv in [("validate",), ("chains",), ("graph", "--dot")]:
        assert run_cli(capsys, argv[0], "--scenario", str(ghost), *argv[1:]) == (
            2,
            "",
            f"error: [Errno 2] No such file or directory: '{ghost}'\n",
        ), argv


def test_usage_error_exits_1(capsys, fixtures_dir):
    code, _, _ = run_cli(capsys, "validate")
    assert code == 1
    code, _, _ = run_cli(capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--objective", "psychic")
    assert code == 1
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "stratagraph" in out and "schema" in out


def test_chains_json_is_byte_stable(capsys, fixtures_dir):
    args = ("chains", "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 4
    assert payload["chains"][0]["edges"] == ["A1#0", "A2#1", "A4#0"]


def test_chains_objective_and_target_flags(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--objective", "min_cost", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["chains"][0]["total_cost"] == 6.5
    code, out, _ = run_cli(
        capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--target", "HV1", "--format", "json"
    )
    assert json.loads(out)["count"] == 2
    code, out, _ = run_cli(
        capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--unrestricted", "--format", "json"
    )
    assert json.loads(out)["count"] == 11
    code, _, _ = run_cli(capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--target", "NOPE")
    assert code == 1


def test_chains_strict_semantics_flag(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "chains", "--scenario", scen(fixtures_dir, "strictmode"), "--format", "json"
    )
    accumulated = json.loads(out)["count"]
    code, out, _ = run_cli(
        capsys, "chains", "--scenario", scen(fixtures_dir, "strictmode"), "--semantics", "strict", "--format", "json"
    )
    strict = json.loads(out)["count"]
    assert accumulated == 2 and strict == 1


def test_defend_cut_infeasible_exits_3(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "defend", "--mode", "cut", "--scenario", scen(fixtures_dir, "infeasible"))
    assert code == 3
    assert "cut" in err


def test_defend_modes(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "defend", "--mode", "cut", "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["chosen"] == ["D1"]
    code, out, _ = run_cli(
        capsys, "defend", "--mode", "coverage", "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json"
    )
    assert json.loads(out)["chosen"] == ["D1", "D3"]
    code, out, _ = run_cli(
        capsys,
        "defend", "--mode", "coverage", "--chain", "A1#0,A2#1,A5#0",
        "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json",
    )
    assert json.loads(out)["chosen"] == ["D1", "D4"]
    code, out, _ = run_cli(
        capsys,
        "defend", "--mode", "budget", "--budget", "3.0",
        "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json",
    )
    assert json.loads(out)["chosen"] == ["D4"]
    code, _, _ = run_cli(capsys, "defend", "--mode", "budget", "--scenario", scen(fixtures_dir, "toy5g"))
    assert code == 1  # --budget required
    # Coverage of the cheapest chain needs a chain: none reaches APP1 in one edge.
    code, out, err = run_cli(
        capsys, "defend", "--mode", "coverage", "--max-len", "1", "--scenario", scen(fixtures_dir, "toy5g")
    )
    assert (code, out) == (1, "")
    assert err == "error: no valid chain reaches the targets; pass --chain to cover an explicit chain\n"
    # U1 has no defense, so the text plan names it after the plan itself.
    code, out, _ = run_cli(
        capsys, "defend", "--mode", "coverage", "--scenario", scen(fixtures_dir, "undefendable_feasible")
    )
    assert code == 0
    assert out.splitlines()[0] == "chosen: DU2"
    assert out.splitlines()[-1] == "uncovered attacks: U1"


def test_risk_output(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "risk", "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0] == {"object": "APP1", "chain_count": 4, "max_chain_threat": 11.0, "min_chain_cost": 6.5}
    assert rows[-1]["min_chain_cost"] is None


def test_potential_output(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys,
        "potential", "--scenario", scen(fixtures_dir, "potential_gap"),
        "--from", "PB", "--to", "PV", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["potential_chains"][0]["missing_hops"] == [
        {"from": "PH", "to": "PV", "suggested_attacks": ["G9"]}
    ]
    code, out, _ = run_cli(
        capsys, "potential", "--scenario", scen(fixtures_dir, "toy5g"), "--from", "UE1", "--to", "UE1"
    )
    assert (code, out) == (0, "no potential chains\n")


def test_graph_json_and_dot(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "graph", "--scenario", scen(fixtures_dir, "toy5g"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["attack_edge_count"] == 7
    code, dot1, _ = run_cli(capsys, "graph", "--scenario", scen(fixtures_dir, "toy5g"), "--dot")
    code, dot2, _ = run_cli(capsys, "graph", "--scenario", scen(fixtures_dir, "toy5g"), "--dot")
    assert dot1 == dot2
    assert dot1.startswith("digraph scenario {")


def test_simulate_runs(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--scenario", scen(fixtures_dir, "minichain"),
        "--runs", "3", "--seed", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["runs"] == 3
    assert len(payload["traces"]) == 3
    assert payload["summary"]["outcomes"] == {"target_compromised": 3}
    code, out, _ = run_cli(
        capsys,
        "simulate", "--scenario", scen(fixtures_dir, "toy5g"), "--compromise-permission", "root", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["config"]["compromise_permissions"] == ["root"]


def test_config_file_overrides(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "engine.json"
    cfg.write_text('{"semantics": "strict"}')
    code, out, _ = run_cli(
        capsys,
        "chains", "--scenario", scen(fixtures_dir, "strictmode"),
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"semantics": "psychic"}')
    code, _, _ = run_cli(capsys, "chains", "--scenario", scen(fixtures_dir, "strictmode"), "--config", str(bad))
    assert code == 1
    typo = tmp_path / "typo.json"
    typo.write_text('{"max_length": 4}')
    code, _, _ = run_cli(capsys, "chains", "--scenario", scen(fixtures_dir, "strictmode"), "--config", str(typo))
    assert code == 1


def test_text_tables_render(capsys, fixtures_dir):
    toy = scen(fixtures_dir, "toy5g")
    code, out, _ = run_cli(capsys, "chains", "--scenario", toy)
    assert code == 0 and "A1#0->A2#1->A4#0" in out and "6.5" in out
    code, out, _ = run_cli(capsys, "risk", "--scenario", toy)
    assert "APP1" in out and out.splitlines()[0].startswith("object")
    code, out, _ = run_cli(capsys, "defend", "--mode", "cut", "--scenario", toy)
    assert "chosen: D1" in out and "total cost: 5" in out
    code, out, _ = run_cli(capsys, "graph", "--scenario", toy)
    assert "attack edges: 7" in out
    code, out, _ = run_cli(capsys, "simulate", "--scenario", toy, "--runs", "2")
    assert "outcomes:" in out and "mean turns:" in out
    code, out, _ = run_cli(
        capsys, "potential", "--scenario", scen(fixtures_dir, "potential_gap"), "--from", "PB", "--to", "PV"
    )
    assert "PB->PH->PV" in out and "G9" in out
    code, out, _ = run_cli(capsys, "chains", "--scenario", toy, "--target", "SL1")
    assert out.strip() == "no chains"


def console_script():
    """The `[project.scripts]` target of pyproject.toml, read without tomllib (Python 3.10 has none)."""
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    start = lines.index("[project.scripts]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    (entry,) = [line for line in lines[start:end] if line.strip()]
    name, target = (part.strip() for part in entry.split("="))
    return name, target.strip('"')


def test_console_script_entry_point():
    # The installed script imports the target and exits with its return
    # value, as the wrapper pip writes does; run() freezes the heap first.
    assert console_script() == ("stratagraph", "stratagraph.cli:run")
    proc = run_entry(ENTRY_POINTS["console script"], ["--version"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("stratagraph ")
    assert proc.stderr == ""


ANALYSIS_COMMANDS = [
    ("graph",),
    ("graph", "--dot"),
    ("chains",),
    ("chains", "--objective", "min_cost"),
    ("potential", "--from", "BS1", "--to", "APP1"),
    ("defend", "--mode", "cut"),
    ("defend", "--mode", "budget", "--budget", "3"),
    ("defend", "--mode", "coverage"),
    ("risk",),
    ("simulate", "--defender", "reactive_cut", "--budget-per-turn", "2.5", "--runs", "2"),
]
# graph --dot writes DOT text, so it refuses --format json.
JSON_COMMANDS = [argv for argv in ANALYSIS_COMMANDS if "--dot" not in argv]


@pytest.mark.parametrize("argv", [("validate",), *ANALYSIS_COMMANDS], ids=" ".join)
def test_each_command_validates_once(capsys, monkeypatch, fixtures_dir, argv):
    import stratagraph.cli
    import stratagraph.scenario

    calls = []
    real = stratagraph.scenario.validate_scenario

    def counting(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(stratagraph.scenario, "validate_scenario", counting)
    monkeypatch.setattr(stratagraph.cli, "validate_scenario", counting)
    code, _, _ = run_cli(capsys, argv[0], "--scenario", scen(fixtures_dir, "toy5g"), *argv[1:])
    assert code == 0
    assert len(calls) == 1


def test_json_output_never_builds_a_text_table(capsys, monkeypatch, fixtures_dir):
    import stratagraph.cli

    tables = []
    real = stratagraph.cli._table

    def spy(headers, rows):
        tables.append(headers)
        return real(headers, rows)

    monkeypatch.setattr(stratagraph.cli, "_table", spy)
    toy = scen(fixtures_dir, "toy5g")
    for argv in [("validate",), *JSON_COMMANDS]:
        code, out, _ = run_cli(capsys, argv[0], "--scenario", toy, "--format", "json", *argv[1:])
        assert code == 0 and out, argv
    assert tables == []
    run_cli(capsys, "chains", "--scenario", toy, "--format", "text")
    assert tables == [["edges", "cost", "threat"]]  # the spy does see text mode


@pytest.mark.parametrize(
    "section, key",
    [
        ("attacks", "cost"),
        ("attacks", "severity"),
        ("attacks", "detect_prob"),
        ("defenses", "cost"),
    ],
)
def test_non_finite_scenario_number_exits_2_everywhere(capsys, fixtures_dir, tmp_path, section, key):
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    data[section][0][key] = float("nan")
    path = tmp_path / "nan.scenario"
    path.write_text(json.dumps(data))
    for argv in [("validate",), *ANALYSIS_COMMANDS]:
        code, _, err = run_cli(capsys, argv[0], "--scenario", str(path), *argv[1:])
        assert code == 2, argv
        if argv[0] != "validate":
            assert "not a finite number" in err


@pytest.mark.parametrize(
    "section, values",
    [
        ("attacks", {"cost": 1.5e308, "severity": 1.7e308}),
        ("attacks", {"cost": 1e308}),
        ("attacks", {"severity": 1e308}),
        ("defenses", {"cost": 1e308}),
    ],
)
def test_overflowing_totals_exit_2_everywhere(capsys, fixtures_dir, tmp_path, section, values):
    # Finite numbers whose sum could overflow a chain or plan total to
    # infinity are rejected at validation, before any total is computed.
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    for record in data[section]:
        record.update(values)
    path = tmp_path / "huge.scenario"
    path.write_text(json.dumps(data))
    commands = [("validate",), *ANALYSIS_COMMANDS, ("defend", "--mode", "budget", "--budget", "1e308")]
    for argv in commands:
        for fmt in ("text",) if "--dot" in argv else ("json", "text"):
            code, _, err = run_cli(capsys, argv[0], "--scenario", str(path), "--format", fmt, *argv[1:])
            assert code == 2, (argv, fmt)
            if argv[0] != "validate":
                assert "so that no chain or plan total overflows" in err


def test_costs_just_below_the_total_limit_still_simulate(capsys, fixtures_dir, tmp_path):
    # Each run's attacker cost stays finite, and so must the mean over runs
    # whose plain sum would overflow.
    from stratagraph.scenario import TOTAL_LIMIT

    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    share = TOTAL_LIMIT * 0.99 / len(data["attacks"])
    for record in data["attacks"]:
        record.update(cost=share, severity=share)
    path = tmp_path / "big.scenario"
    path.write_text(json.dumps(data))
    for argv in [("validate",), *ANALYSIS_COMMANDS, ("simulate", "--runs", "5")]:
        fmt = "text" if "--dot" in argv else "json"
        code, out, err = run_cli(capsys, argv[0], "--scenario", str(path), "--format", fmt, *argv[1:])
        assert code == 0, (argv, err)
    summary = json.loads(out)["summary"]
    assert 0 < summary["mean_attacker_cost"] < TOTAL_LIMIT


def _toy_with(fixtures_dir, section, key, literal):
    """The toy5g scenario text with one number of its first section record written as literal."""
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    data[section][0][key] = "NUMBER"
    return json.dumps(data).replace('"NUMBER"', literal)


DEEP = "[" * 200_000 + "]" * 200_000
MALFORMED_INPUTS = {
    # name: (file, exit code, bytes of the file, given the fixtures directory)
    "scenario-not-utf8": ("scenario", 2, lambda f: b'{"objects": [], "label": "\xff"}'),
    "scenario-nested-deep": ("scenario", 2, lambda f: DEEP.encode()),
    "scenario-5000-digit-int": ("scenario", 2, lambda f: _toy_with(f, "attacks", "cost", "9" * 5000).encode()),
    "scenario-attack-cost-1e400": ("scenario", 2, lambda f: _toy_with(f, "attacks", "cost", str(10**400)).encode()),
    "scenario-defense-cost-1e400": ("scenario", 2, lambda f: _toy_with(f, "defenses", "cost", str(10**400)).encode()),
    "scenario-attack-cost-string": ("scenario", 2, lambda f: _toy_with(f, "attacks", "cost", '"free"').encode()),
    "scenario-nested-extension": ("scenario", 2, lambda f: b'{"objects": [], "extensions": [["x"]]}'),
    "scenario-grant-extra-key": (
        "scenario", 2, lambda f: b'{"entry_grants": [{"object": "a", "permission": "read", "via": "b"}]}'
    ),
    "config-not-utf8": ("config", 1, lambda f: b'{"semantics": "\xff"}'),
    "config-nested-deep": ("config", 1, lambda f: DEEP.encode()),
    "config-5000-digit-int": ("config", 1, lambda f: b'{"max_len": ' + b"9" * 5000 + b"}"),
    "config-unknown-key": ("config", 1, lambda f: b'{"derived_detect_prob": 1.0}'),
    "config-bad-semantics": ("config", 1, lambda f: b'{"semantics": "lenient"}'),
    "config-max-len-string": ("config", 1, lambda f: b'{"max_len": "8"}'),
    "config-not-an-object": ("config", 1, lambda f: b"[8]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_files_get_their_exit_code_and_name_the_file(capsys, fixtures_dir, tmp_path, case):
    # A scenario that cannot be read as JSON numbers, or whose records have
    # the wrong shape, is an invalid scenario (exit 2), a config one or one
    # with a bad key or value a usage error (exit 1), never an internal
    # error (exit 4), and the message says which file is at fault.
    kind, want, content = MALFORMED_INPUTS[case]
    path = tmp_path / f"{case}.{kind}"
    path.write_bytes(content(fixtures_dir))
    if kind == "scenario":
        argv = ("validate", "--scenario", str(path))
    else:
        argv = ("chains", "--scenario", scen(fixtures_dir, "toy5g"), "--config", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (want, "")
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "config",
    [
        '{"exact_defense_limit": "x"}',
        '{"max_len": true}',
        '{"max_len": 2.5}',
        '{"exact_chain_limit": false}',
        '{"survivor_sample": "3"}',
    ],
)
def test_config_types_checked(capsys, fixtures_dir, tmp_path, config):
    cfg = tmp_path / "engine.json"
    cfg.write_text(config)
    code, _, err = run_cli(capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--config", str(cfg))
    assert code == 1
    assert err.startswith("error:")


def test_unknown_config_key_exits_1(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "engine.json"
    cfg.write_text('{"derived_detect_prob": 1.0}')
    argv = ("chains", "--scenario", scen(fixtures_dir, "toy5g"), "--config", str(cfg))
    assert run_cli(capsys, *argv) == (1, "", f"error: {cfg}: unknown config keys: derived_detect_prob\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity", "lots"])
def test_non_finite_budget_flags_rejected(capsys, fixtures_dir, value):
    toy = scen(fixtures_dir, "toy5g")
    code, out, _ = run_cli(capsys, "defend", "--scenario", toy, "--mode", "budget", f"--budget={value}")
    assert code == 1 and out == ""
    code, out, _ = run_cli(capsys, "simulate", "--scenario", toy, f"--budget-per-turn={value}")
    assert code == 1 and out == ""


def test_non_finite_budgets_rejected_by_library(toy5g):
    from stratagraph import GameConfig, plan_budgeted
    from stratagraph.model import ConfigError

    _, _, graph = toy5g
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            plan_budgeted(graph, value)
        with pytest.raises(ConfigError):
            GameConfig(defender_budget_per_turn=value).check()


def test_max_len_zero_flag_rejected(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "chains", "--scenario", scen(fixtures_dir, "toy5g"), "--max-len", "0")
    assert code == 1 and out == ""


@pytest.mark.parametrize("config", [None, '{"max_len": "x"}', "{not json"], ids=["missing", "bad type", "not json"])
def test_validate_reads_config_like_every_command(capsys, fixtures_dir, tmp_path, config):
    path = tmp_path / "engine.json"
    if config is not None:
        path.write_text(config)
    toy = scen(fixtures_dir, "toy5g")
    validate = run_cli(capsys, "validate", "--scenario", toy, "--config", str(path))
    assert validate == run_cli(capsys, "graph", "--scenario", toy, "--config", str(path))
    code, out, err = validate
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("chains", "--unrestricted", "--target", "ran1"),
        ("chains", "--unrestricted", "--target", "HV1"),
        ("chains", "--unrestricted", "--target", ""),
        ("chains", "--objective", "min_cost", "--unrestricted"),
        ("chains", "--objective", "max_threat", "--unrestricted"),
        ("defend", "--mode", "cut", "--chain", "NOPE#9"),
        ("defend", "--mode", "budget", "--budget", "3", "--chain", "A1#0,A2#1,A5#0"),
        ("defend", "--mode", "cut", "--chain", ""),
        ("defend", "--mode", "cut", "--budget", "3"),
        ("defend", "--mode", "coverage", "--budget", "3"),
        ("simulate", "--budget-per-turn", "2"),
        ("simulate", "--defender", "none", "--budget-per-turn", "0"),
        ("graph", "--dot", "--format", "json"),
    ],
    ids=lambda argv: " ".join(a or '""' for a in argv),
)
def test_flags_a_command_would_ignore_are_rejected(capsys, fixtures_dir, argv):
    code, out, err = run_cli(capsys, argv[0], "--scenario", scen(fixtures_dir, "toy5g"), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: --")


def test_empty_chain_is_an_unknown_edge_not_a_missing_chain(capsys, fixtures_dir):
    argv = ("defend", "--scenario", scen(fixtures_dir, "toy5g"), "--mode", "coverage", "--chain", "")
    assert run_cli(capsys, *argv) == (1, "", "error: unknown attack edge ''\n")


def test_empty_target_is_an_unknown_target_not_a_missing_one(capsys, fixtures_dir):
    argv = ("chains", "--scenario", scen(fixtures_dir, "toy5g"), "--target", "")
    assert run_cli(capsys, *argv) == (1, "", "error: unknown target ''\n")


@pytest.mark.parametrize("perm", ["", "READ", "re ad"], ids=repr)
def test_simulate_rejects_a_compromise_permission_no_grant_can_carry(capsys, fixtures_dir, perm):
    argv = ("simulate", "--scenario", scen(fixtures_dir, "toy5g"), "--compromise-permission", perm)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: compromise_permissions: permission ")


def test_potential_walks_a_path_longer_than_the_recursion_limit(capsys, tmp_path):
    # A line of 1,500 objects: its one base path is deeper than Python's
    # default recursion limit of 1,000 frames.
    ids = [f"o{i:04d}" for i in range(1500)]
    doc = {
        "objects": [{"id": o, "layer": "virtual", "category": "virtual-entity", "label": ""} for o in ids],
        "relationships": [{"from": a, "to": b, "kind": "management"} for a, b in zip(ids, ids[1:])],
        "attacks": [],
        "defenses": [],
        "entry_grants": [],
        "targets": [],
    }
    path = tmp_path / "line.scenario"
    path.write_text(json.dumps(doc))
    argv = ("potential", "--scenario", str(path), "--from", ids[0], "--to", ids[-1], "--max-len", "2000")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["potential_chains"][0]["path"] == ids
    assert len(payload["potential_chains"][0]["missing_hops"]) == 1499


def _one_hop_scenario(tmp_path, attacks: int, d_results) -> str:
    """Attacks A0000... each give one edge O1 -> T; defense D<i> costs 1 and neutralizes d_results[i]."""
    grant = [{"object": "O1", "permission": "read"}]
    doc = {
        "objects": [
            {"id": "O1", "layer": "physical", "category": "channel", "label": ""},
            {"id": "T", "layer": "physical", "category": "hardware-device", "label": ""},
        ],
        "relationships": [{"from": "O1", "to": "T", "kind": "connectivity"}],
        "attacks": [
            {
                "id": f"A{i:04d}", "object": "O1", "condition": grant, "method": "m",
                "a_results": [{"object": "T", "permission": "read"}], "cost": 1.0, "severity": 1.0,
            }
            for i in range(attacks)
        ],
        "defenses": [
            {"id": f"D{i:04d}", "cost": 1.0, "method": "m", "d_results": ids} for i, ids in enumerate(d_results)
        ],
        "entry_grants": grant,
        "targets": ["T"],
    }
    path = tmp_path / "wide.scenario"
    path.write_text(json.dumps(doc))
    return str(path)


def test_budget_plan_over_more_defenses_than_the_recursion_limit(capsys, tmp_path):
    # 1,200 defenses that each break the one chain: the exact search goes
    # one level per defense, deeper than Python's default recursion limit.
    path = _one_hop_scenario(tmp_path, 1, [["A0000"]] * 1200)
    config = tmp_path / "engine.json"
    config.write_text('{"exact_defense_limit": 5000}')
    argv = ("defend", "--mode", "budget", "--budget", "3", "--scenario", path, "--config", str(config))
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    plan = json.loads(out)
    assert (plan["chosen"], plan["total_cost"], plan["optimal"]) == (["D0000"], 1.0, True)
    assert plan["surviving_chains"]["count"] == 0


def test_cut_over_more_chains_than_the_recursion_limit(capsys, tmp_path):
    # 1,100 one-edge chains, each broken only by its own defense: the exact
    # cut takes one defense per level, deeper than the recursion limit.
    path = _one_hop_scenario(tmp_path, 1100, [[f"A{i:04d}"] for i in range(1100)])
    config = tmp_path / "engine.json"
    config.write_text('{"exact_defense_limit": 5000, "exact_chain_limit": 100000}')
    argv = ("defend", "--mode", "cut", "--scenario", path, "--config", str(config))
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    plan = json.loads(out)
    assert plan["chosen"] == [f"D{i:04d}" for i in range(1100)]
    assert (plan["total_cost"], plan["optimal"]) == (1100.0, True)


def test_simulate_without_budget_per_turn_gives_the_game_zero(capsys, fixtures_dir):
    toy = scen(fixtures_dir, "toy5g")
    code, out, _ = run_cli(capsys, "simulate", "--scenario", toy, "--defender", "reactive_cut", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["defender_budget_per_turn"] == 0.0
    explicit = run_cli(
        capsys, "simulate", "--scenario", toy, "--defender", "reactive_cut", "--budget-per-turn", "0", "--format", "json"
    )
    assert explicit == (0, out, "")


def catalog_copy(fixtures_dir, tmp_path):
    """toy5g with its old vulnerability catalog put back, written to tmp_path."""
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    data["vulnerabilities"] = [
        {"id": "V1", "affects_category": "virtual-entity", "yields_permission": "execute",
         "exploit_cost": 2.0, "severity": 4.5}
    ]
    path = tmp_path / "catalog.scenario"
    path.write_text(json.dumps(data))
    return str(path)


def test_leftover_vulnerability_catalog_is_warned_about_and_ignored(capsys, fixtures_dir, tmp_path):
    # A vulnerability catalog is an unknown key: one warning, and no answer changes.
    toy = scen(fixtures_dir, "toy5g")
    path = catalog_copy(fixtures_dir, tmp_path)
    code, out, err = run_cli(capsys, "validate", "--scenario", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "valid": True,
        "violations": [
            {
                "severity": "warning",
                "record_class": "scenario",
                "record_id": "unknown_keys",
                "message": "unknown key 'vulnerabilities' ignored",
            }
        ],
    }
    for argv in [("chains",), ("defend", "--mode", "cut"), ("risk",)]:
        assert run_cli(capsys, argv[0], "--scenario", path, *argv[1:]) == run_cli(
            capsys, argv[0], "--scenario", toy, *argv[1:]
        ), argv


@pytest.mark.parametrize(
    "argv",
    [argv for argv in ANALYSIS_COMMANDS if argv not in [("chains",), ("defend", "--mode", "cut"), ("risk",)]],
    ids=" ".join,
)
def test_leftover_vulnerability_catalog_changes_no_answer(capsys, fixtures_dir, tmp_path, argv):
    path = catalog_copy(fixtures_dir, tmp_path)
    toy = scen(fixtures_dir, "toy5g")
    for fmt in ("text",) if "--dot" in argv else ("text", "json"):
        with_catalog = run_cli(capsys, argv[0], "--scenario", path, "--format", fmt, *argv[1:])
        assert with_catalog[0] == 0 and with_catalog[1], (argv, fmt)
        assert with_catalog == run_cli(capsys, argv[0], "--scenario", toy, "--format", fmt, *argv[1:]), (argv, fmt)


class ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [("validate",), *ANALYSIS_COMMANDS], ids=" ".join)
def test_closed_stdout_exits_1_not_2(capsys, monkeypatch, fixtures_dir, argv):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main([argv[0], "--scenario", scen(fixtures_dir, "toy5g"), *argv[1:]])
    # The rest of the output goes to devnull, so the exit flush cannot fail.
    assert not isinstance(sys.stdout, ClosedPipe)
    sys.stdout.close()
    assert code == 1
    assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"


def cli_env():
    """The environment for a CLI subprocess: this one, with the package's directory first on PYTHONPATH."""
    import stratagraph

    env = dict(os.environ)
    src = str(Path(stratagraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return env


# Each way a process runs the CLI: the last is what the installed
# `stratagraph` script does with its `[project.scripts]` target.
ENTRY_POINTS = {
    "module": ("-m", "stratagraph.cli"),
    "package": ("-m", "stratagraph"),
    "console script": ("-c", "import sys; from stratagraph.cli import run; sys.exit(run())"),
}


def run_entry(entry, argv, stdout=subprocess.PIPE, env=None):
    """Run the CLI in a fresh interpreter through one of ENTRY_POINTS."""
    return subprocess.run(
        [sys.executable, *entry, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env or cli_env(),
        text=True,
        timeout=60,
    )


def run_into_closed_pipe(argv, unbuffered, entry=ENTRY_POINTS["module"]):
    """Run the CLI with a stdout pipe whose read end is closed before it writes."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_entry(entry, argv, stdout=write_end, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_1_without_an_exit_flush_error(fixtures_dir, unbuffered):
    # The write fails with EPIPE, and the interpreter's own flush at exit
    # must not fail again with an "Exception ignored" line, whichever way
    # the process was started.
    for name, entry in ENTRY_POINTS.items():
        proc = run_into_closed_pipe(["chains", "--scenario", scen(fixtures_dir, "toy5g")], unbuffered, entry)
        assert (proc.returncode, proc.stderr) == (1, "error: cannot write output: [Errno 32] Broken pipe\n"), name


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("simulate", "--help")], ids=" ".join)
def test_help_and_version_into_a_closed_pipe_exit_1(argv, unbuffered):
    # argparse prints these itself and ignores a failed write; they must
    # fail like any command's output, not exit 0 having printed nothing
    # or 120 after an "Exception ignored" line at exit.
    proc = run_into_closed_pipe(argv, unbuffered)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("validate", "--scenario", "toy5g"), 0),
        (("validate",), 1),
        (("validate", "--scenario", "invalid"), 2),
        (("defend", "--mode", "cut", "--scenario", "infeasible"), 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"exit {v}",
)
def test_every_entry_point_ends_a_process_alike(fixtures_dir, tmp_path, argv, code):
    invalid = tmp_path / "invalid.scenario"
    invalid.write_text('{"objects": [{"id": "x", "layer": "nowhere", "category": "os"}]}')
    paths = {"invalid": str(invalid), **{name: scen(fixtures_dir, name) for name in ("toy5g", "infeasible")}}
    argv = [paths.get(arg, arg) for arg in argv]
    results = {name: run_entry(entry, argv) for name, entry in ENTRY_POINTS.items()}
    outcomes = {(proc.returncode, proc.stdout, proc.stderr) for proc in results.values()}
    assert len(outcomes) == 1, results
    ((returncode, out, err),) = outcomes
    assert returncode == code
    assert out or err


def test_main_leaves_the_collector_alone(capsys, fixtures_dir):
    # Only run(), the process entry, freezes the heap; a library caller of
    # main() keeps a normal collector whatever the command's exit code.
    before = (gc.isenabled(), gc.get_freeze_count())
    for argv in (["validate", "--scenario", scen(fixtures_dir, "toy5g")], ["validate"], ["--version"]):
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv
    capsys.readouterr()


def test_run_freezes_the_heap_once_the_command_is_done(capsys, monkeypatch, fixtures_dir):
    from stratagraph.cli import run

    frozen = []
    monkeypatch.setattr(sys, "argv", ["stratagraph", "validate", "--scenario", scen(fixtures_dir, "toy5g")])
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr().out))
    assert run() == 0
    assert frozen == ["valid\n"]


def test_dot_with_explicit_text_format_still_prints_dot(capsys, fixtures_dir):
    toy = scen(fixtures_dir, "toy5g")
    code, out, err = run_cli(capsys, "graph", "--scenario", toy, "--dot", "--format", "text")
    assert (code, err) == (0, "")
    assert out.startswith("digraph")
    assert (code, out, err) == run_cli(capsys, "graph", "--scenario", toy, "--dot")


def test_huge_max_len_simulates_like_a_small_one(fixtures_dir):
    # The backward searches of the reactive defender's walks stop once no
    # object is left to reach, so a --max-len far beyond the longest chain
    # costs what a small one does and gives the same games. The timeout
    # fails a search whose work grows with the length limit itself.
    def simulate(max_len):
        argv = ["simulate", "--scenario", scen(fixtures_dir, "toy5g"), "--defender", "reactive_cut"]
        argv += ["--budget-per-turn", "1", "--runs", "3", "--max-len", str(max_len)]
        done = subprocess.run(
            [sys.executable, "-m", "stratagraph.cli", *argv], env=cli_env(), capture_output=True, text=True, timeout=60
        )
        return done.returncode, done.stdout, done.stderr

    small = simulate(64)
    assert small[0] == 0 and small[1], small
    assert simulate(10**9) == small


def test_an_error_no_clause_names_exits_4(capsys, monkeypatch, fixtures_dir):
    # Each error the package raises on purpose has its own exit code; any
    # other, a bare ScenarioError too, is an internal error.
    import stratagraph.cli as cli
    from stratagraph.model import ScenarioError

    def fail(args):
        raise ScenarioError("no command raises this")

    monkeypatch.setattr(cli, "cmd_risk", fail)
    argv = ("risk", "--scenario", scen(fixtures_dir, "toy5g"))
    assert run_cli(capsys, *argv) == (4, "", "internal error: no command raises this\n")
