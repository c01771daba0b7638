"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success (see the terminal summary hook in
conftest.py for the per-criterion report). Derived expectations come from
the brute-force oracles in oracles.py, never from the engines themselves.
"""

import time

from stratagraph import (
    ChainObjective,
    GameConfig,
    InfeasibleCutError,
    build_attack_graph,
    build_base_graph,
    enumerate_chains,
    is_valid_chain,
    plan_budgeted,
    plan_cut,
    run_game,
    search_chain,
)
from stratagraph import canon
from stratagraph.cli import main
from stratagraph.config import EngineConfig
from stratagraph.defense import chain_attacks, neutralized_attacks
from stratagraph.graphs import graphs_to_dict

import oracles
from genscen import coherent_scenario, random_scenario

EPS = 1e-9

# Exact-mode config with a brute-force-affordable horizon: the unpruned
# oracle walks every k-permutation of up to 10 edges, so the shared batch
# compares at max_len 4, and a second smaller batch covers max_len 8.
CFG4 = EngineConfig(max_len=4, exact_chain_limit=100000, exact_defense_limit=20)
CFG8 = EngineConfig(max_len=8, exact_chain_limit=100000, exact_defense_limit=20)

BIG_SEEDS = list(range(40))  # <= 8 objects, <= 10 attack edges
SMALL_SEEDS = list(range(100, 120))  # <= 6 edges, affordable at max_len 8

_brute_cache: dict = {}
_graph_cache: dict = {}


def bundle(seed, max_edges=10):
    key = (seed, max_edges)
    if key not in _graph_cache:
        doc = random_scenario(seed, max_edges=max_edges)
        graph = build_attack_graph(doc, build_base_graph(doc))
        _graph_cache[key] = (doc, graph)
    return _graph_cache[key]


def brute(seed, max_edges, max_len, semantics, agg="sum"):
    key = (seed, max_edges, max_len, semantics, agg)
    if key not in _brute_cache:
        doc, _ = bundle(seed, max_edges)
        _brute_cache[key] = oracles.brute_chains(doc, max_len, semantics, agg=agg)
    return _brute_cache[key]


def batches():
    yield from ((seed, 10, 4, CFG4) for seed in BIG_SEEDS)
    yield from ((seed, 6, 8, CFG8) for seed in SMALL_SEEDS)


def test_criterion_1_worked_example_two_edges(multiedge, golden_check):
    _, _, graph = multiedge
    edges = [(e.from_id, e.to_id, e.permission) for e in graph.edges]
    assert edges == [("O1", "O2", "read"), ("O1", "O3", "execute")]
    assert len(graph.edges) == 2
    golden_check("multiedge_graph.json", canon.dumps(graphs_to_dict(graph)) + "\n")
    print("criterion 1 PASS: worked example yields exactly the two expected edges, golden stable")


def test_criterion_2_enumeration_matches_brute_force():
    scenarios = 0
    for seed, max_edges, max_len, cfg in batches():
        doc, graph = bundle(seed, max_edges)
        scenarios += 1
        for semantics in ("accumulated", "strict"):
            config = cfg._replace(semantics=semantics)
            got = [
                (c.edges, c.total_cost, c.total_threat)
                for c in enumerate_chains(graph, config=config)
            ]
            want = [(seq, cost, threat) for seq, cost, threat, _ in brute(seed, max_edges, max_len, semantics)]
            assert got == want, f"mismatch seed={seed} semantics={semantics}"
            to_targets = [
                (c.edges, c.total_cost, c.total_threat)
                for c in enumerate_chains(graph, targets=doc.targets, config=config)
            ]
            ends = oracles.oracle_edges(doc)
            assert to_targets == [w for w in want if ends[w[0][-1]][2] in doc.targets], f"seed={seed} {semantics}"
    assert scenarios >= 50
    print(f"criterion 2 PASS: enumeration equals brute force on {scenarios} scenarios x 2 semantics")


def test_criterion_3_search_optimality():
    scenarios = 0
    for seed, max_edges, max_len, cfg in batches():
        doc, graph = bundle(seed, max_edges)
        scenarios += 1
        for semantics in ("accumulated", "strict"):
            config = cfg._replace(semantics=semantics)
            chains = brute(seed, max_edges, max_len, semantics)
            reachable = [c for c in chains if oracles.oracle_edges(doc)[c[0][-1]][2] in doc.targets]
            cheapest = search_chain(graph, ChainObjective("min_cost"), config=config)
            if not reachable:
                assert cheapest is None
            else:
                want_cost = min(c[1] for c in reachable)
                assert abs(cheapest.total_cost - want_cost) < EPS, f"seed={seed} {semantics}"
            for agg in ("sum", "max"):
                chains = brute(seed, max_edges, max_len, semantics, agg)
                reachable = [c for c in chains if oracles.oracle_edges(doc)[c[0][-1]][2] in doc.targets]
                nastiest = search_chain(
                    graph, ChainObjective("max_threat"), config=config._replace(threat_agg=agg)
                )
                if not reachable:
                    assert nastiest is None
                    continue
                want_threat = max(c[2] for c in reachable)
                assert abs(nastiest.total_threat - want_threat) < EPS, f"seed={seed} {semantics} {agg}"
    assert scenarios >= 50
    print(
        f"criterion 3 PASS: min-cost and max-threat (sum and max) search optimal "
        f"on {scenarios} scenarios x 2 semantics"
    )


def test_criterion_4_cut_soundness_and_optimality(hitting_trio):
    doc, _, graph = hitting_trio
    plan = plan_cut(graph)
    assert plan.total_cost == 2.0

    scenarios = 0
    cut_count = 0
    for seed, max_edges, max_len, cfg in batches():
        doc, graph = bundle(seed, max_edges)
        scenarios += 1
        chains = brute(seed, max_edges, max_len, "accumulated")
        reachable = [c for c in chains if oracles.oracle_edges(doc)[c[0][-1]][2] in doc.targets]
        want = oracles.brute_cut(doc, reachable)
        if want is None:
            try:
                plan_cut(graph, config=cfg)
            except InfeasibleCutError:
                continue
            raise AssertionError(f"seed={seed}: engine cut a scenario brute force says is uncuttable")
        plan = plan_cut(graph, config=cfg)
        assert abs(plan.total_cost - want[0]) < EPS, f"seed={seed}"
        assert plan.chosen == want[1], f"seed={seed}"
        survivors = enumerate_chains(
            graph, targets=doc.targets, config=cfg, blocked_attacks=neutralized_attacks(graph, plan.chosen)
        )
        assert survivors == (), f"seed={seed}: chains survive the cut"
        cut_count += 1
    assert scenarios >= 50
    print(f"criterion 4 PASS: cut sound and cost-optimal ({cut_count} cuttable of {scenarios} scenarios)")


def test_criterion_5_budget_optimality():
    scenarios = 0
    for seed, max_edges, max_len, cfg in batches():
        doc, graph = bundle(seed, max_edges)
        if not doc.defenses:
            continue
        scenarios += 1
        oracle_chains = brute(seed, max_edges, max_len, "accumulated")
        reachable = [c for c in oracle_chains if oracles.oracle_edges(doc)[c[0][-1]][2] in doc.targets]
        engine_chains = enumerate_chains(graph, targets=doc.targets, config=cfg)
        total = sum(d.cost for d in doc.defenses)
        for budget in (0.0, 1.5, total):
            plan = plan_budgeted(graph, budget, targets=doc.targets, config=cfg)
            value, cost, ids = oracles.brute_budget(doc, reachable, budget)
            assert plan.chosen == ids, f"seed={seed} budget={budget}"
            broken = sum(
                c.total_threat
                for c in engine_chains
                if chain_attacks(graph, c) & neutralized_attacks(graph, plan.chosen)
            )
            assert abs(broken - value) < EPS, f"seed={seed} budget={budget}"
        zero = plan_budgeted(graph, 0.0, targets=doc.targets, config=cfg)
        assert zero.chosen == ()
        full = plan_budgeted(graph, total, targets=doc.targets, config=cfg)
        breakable = [c for c in engine_chains if any(set(d.d_results) & chain_attacks(graph, c) for d in doc.defenses)]
        blocked = neutralized_attacks(graph, full.chosen)
        assert all(chain_attacks(graph, c) & blocked for c in breakable), f"seed={seed}: unlimited budget left breakable chains"
    assert scenarios >= 30
    print(f"criterion 5 PASS: budget plans match brute force on {scenarios} scenarios x 3 budgets")


def test_criterion_6_monotonicity_suite():
    grants_cases = prefix_cases = removal_cases = defense_cases = 0

    for seed in range(90):
        doc, graph = bundle(seed, 10)
        chains = enumerate_chains(graph, config=CFG4)
        for chain in chains:
            states = is_valid_chain(graph, chain.edges, config=CFG4).states
            for a, b in zip(states, states[1:]):
                assert set(a.grants) <= set(b.grants)
            grants_cases += 1
            for k in range(1, len(chain.edges) + 1):
                assert is_valid_chain(graph, chain.edges[:k], config=CFG4).valid
            prefix_cases += 1

        full_set = {c.edges for c in chains}
        for drop in doc.attacks:
            kept = tuple(a for a in doc.attacks if a.id != drop.id)
            defenses = tuple(
                d._replace(d_results=tuple(x for x in d.d_results if x != drop.id))
                for d in doc.defenses
                if tuple(x for x in d.d_results if x != drop.id)
            )
            smaller = doc._replace(attacks=kept, defenses=defenses)
            g2 = build_attack_graph(smaller, build_base_graph(smaller))
            for c in enumerate_chains(g2, config=CFG4):
                assert c.edges in full_set, f"seed={seed}: removing {drop.id} created chain {c.edges}"
            removal_cases += 1

        if doc.defenses and doc.targets:
            target_chains = enumerate_chains(graph, targets=doc.targets, config=CFG4)
            plan = plan_budgeted(graph, 1.0, config=CFG4)
            blocked = neutralized_attacks(graph, plan.chosen)
            before = sum(1 for c in target_chains if not (chain_attacks(graph, c) & blocked))
            for extra in doc.defenses:
                with_extra = neutralized_attacks(graph, tuple(plan.chosen) + (extra.id,))
                after = sum(1 for c in target_chains if not (chain_attacks(graph, c) & with_extra))
                assert after <= before
                defense_cases += 1

    assert grants_cases >= 200, grants_cases
    assert prefix_cases >= 200, prefix_cases
    assert removal_cases >= 200, removal_cases
    assert defense_cases >= 200, defense_cases
    print(
        "criterion 6 PASS: monotone grants "
        f"({grants_cases}), prefix closure ({prefix_cases}), attack removal ({removal_cases}), "
        f"defense addition ({defense_cases}) cases"
    )


def test_criterion_7_simulation_determinism_and_consistency(toy5g):
    # Determinism on unconstrained scenarios.
    for seed in range(30):
        doc, graph = bundle(seed, 10)
        cfg = GameConfig(max_turns=10, attacker_policy="random", rng_seed=seed * 7 + 1,
                         defender_policy="reactive_cut", defender_budget_per_turn=2.0)
        if not doc.targets:
            continue
        one = run_game(graph, cfg)
        two = run_game(graph, cfg)
        assert canon.dumps(one.as_dict()) == canon.dumps(two.as_dict())

    # Reachability equivalence needs scenarios where closure reachability
    # coincides with simple-chain existence: one attack per object, single
    # own-object conditions, entry grants off-target (see genscen).
    checked = compromised = 0
    for seed in range(60):
        doc = coherent_scenario(seed)
        if not doc.attacks:
            continue
        graph = build_attack_graph(doc, build_base_graph(doc))
        turns = len(doc.attacks) + 1
        trace = run_game(graph, GameConfig(max_turns=turns, rng_seed=1))
        chains = enumerate_chains(graph, targets=doc.targets, config=EngineConfig(max_len=len(doc.objects)))
        assert (trace.outcome == "target_compromised") == bool(chains), f"seed={seed}"
        checked += 1
        compromised += trace.outcome == "target_compromised"

    # Full detection plus a full-cut budget starves the attacker.
    doc, _, graph = toy5g
    assert all(a.detect_prob == 1.0 for a in doc.attacks)
    cut_cost = plan_cut(graph).total_cost
    trace = run_game(
        graph, GameConfig(max_turns=16, defender_policy="reactive_cut", defender_budget_per_turn=cut_cost)
    )
    assert trace.outcome == "attacker_exhausted"
    print(
        f"criterion 7 PASS: traces reproducible; reach-iff-chain held on {checked} scenarios "
        f"({compromised} compromised); funded reactive defender starves the attacker"
    )


def test_criterion_8_end_to_end_golden(capsys, fixtures_dir, golden_check):
    start = time.monotonic()
    scenario = str(fixtures_dir / "toy5g.scenario")
    commands = {
        "toy5g_validate.txt": ["validate", "--scenario", scenario],
        "toy5g_graph.json": ["graph", "--scenario", scenario, "--format", "json"],
        "toy5g_graph.dot": ["graph", "--scenario", scenario, "--dot"],
        "toy5g_chains.json": ["chains", "--scenario", scenario, "--format", "json"],
        "toy5g_defend_cut.json": ["defend", "--mode", "cut", "--scenario", scenario, "--format", "json"],
        "toy5g_risk.json": ["risk", "--scenario", scenario, "--format", "json"],
        "toy5g_potential.json": [
            "potential", "--scenario", scenario, "--from", "CH1", "--to", "APP1", "--max-len", "3", "--format", "json",
        ],
        "toy5g_simulate.json": [
            "simulate", "--scenario", scenario, "--runs", "10", "--seed", "3",
            "--attacker", "random", "--defender", "reactive_cut",
            "--budget-per-turn", "2.5", "--max-turns", "10", "--format", "json",
        ],
    }
    for name, argv in commands.items():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, f"{argv} exited {code}"
        golden_check(name, out)
        again = main(argv)
        assert capsys.readouterr().out == out and again == 0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"golden run took {elapsed:.2f}s"
    print(f"criterion 8 PASS: seven subcommands byte-match their goldens twice in {elapsed:.2f}s")
