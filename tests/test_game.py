import random
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from stratagraph import (
    ConfigError,
    EmptyEntryGrantsError,
    GameConfig,
    build_attack_graph,
    build_base_graph,
    enumerate_chains,
    is_valid_chain,
    plan_cut,
    risk_assess,
    run_batch,
    run_game,
    summarize,
)
from stratagraph import canon
from stratagraph.chains import AttackChain, _foothold
from stratagraph.cli import main
from stratagraph.config import EngineConfig
from stratagraph.defense import _budget_choice, _choose, _kernel, _target_rows, neutralized_attacks
from stratagraph.game import _Frontier
from stratagraph.model import Grant

import oracles
from genscen import random_scenario


def rebuild(doc):
    base = build_base_graph(doc)
    return build_attack_graph(doc, base)


def zero_detect(doc):
    return doc._replace(attacks=tuple(a._replace(detect_prob=0.0) for a in doc.attacks))


BAD_GAME_FIELDS = [
    {"max_turns": 2.5},
    {"max_turns": True},
    {"max_turns": "3"},
    {"max_turns": 0},
    {"rng_seed": 1.5},
    {"rng_seed": True},
    {"rng_seed": None},
    {"defender_budget_per_turn": "1"},
    {"defender_budget_per_turn": True},
    {"defender_budget_per_turn": -1.0},
    {"defender_budget_per_turn": float("nan")},
    {"compromise_permissions": "read"},
    {"compromise_permissions": ["read"]},
    {"compromise_permissions": ("read", 1)},
    {"compromise_permissions": ("",)},
    {"compromise_permissions": ("read", "READ")},
    {"compromise_permissions": ("re ad",)},
    {"attacker_policy": "psychic"},
    {"defender_policy": "always"},
]


@pytest.mark.parametrize("fields", BAD_GAME_FIELDS, ids=lambda f: f"{next(iter(f))}={next(iter(f.values()))!r}")
def test_bad_game_config_rejected_at_construction_and_replace(fields):
    with pytest.raises(ConfigError):
        GameConfig(**fields)
    with pytest.raises(ConfigError):
        GameConfig()._replace(**fields)
    with pytest.raises(ConfigError):
        GameConfig._make({**GameConfig()._asdict(), **fields}.values())


def test_undefended_two_step_compromise(minichain):
    _, _, graph = minichain
    trace = run_game(graph, GameConfig(max_turns=12))
    assert trace.outcome == "target_compromised"
    assert trace.fired == ("B1", "B2")
    assert trace.turns_elapsed == 2
    assert trace.attacker_cost == 3.0  # equals the chain cost
    assert trace.defender_cost == 0.0


def test_turn_limit(minichain):
    _, _, graph = minichain
    trace = run_game(graph, GameConfig(max_turns=1))
    assert trace.outcome == "turn_limit"
    assert trace.turns_elapsed == 1


def test_full_budget_reactive_defender_starves_attacker(toy5g):
    _, _, graph = toy5g
    cut_cost = plan_cut(graph).total_cost
    trace = run_game(
        graph, GameConfig(max_turns=12, defender_policy="reactive_cut", defender_budget_per_turn=cut_cost)
    )
    assert trace.outcome == "attacker_exhausted"
    assert trace.fired == ("A1",)
    assert trace.turns[0].defenses == ("D1",)


def test_per_turn_budget_respected(toy5g):
    _, _, graph = toy5g
    for budget in (0.0, 2.5, 3.0, 5.0):
        trace = run_game(
            graph, GameConfig(max_turns=12, defender_policy="reactive_cut", defender_budget_per_turn=budget)
        )
        for turn in trace.turns:
            assert sum(graph.defenses[d].cost for d in turn.defenses) <= budget + 1e-9


def test_grants_snapshots_monotone(toy5g):
    _, _, graph = toy5g
    trace = run_game(graph, GameConfig(max_turns=12, attacker_policy="random", rng_seed=9))
    for a, b in zip(trace.turns, trace.turns[1:]):
        assert set(a.grants) <= set(b.grants)


def test_reproducible_byte_identical(toy5g):
    _, _, graph = toy5g
    cfg = GameConfig(max_turns=10, attacker_policy="random", rng_seed=77, defender_policy="reactive_cut",
                     defender_budget_per_turn=2.5)
    one = run_game(graph, cfg)
    two = run_game(graph, cfg)
    assert canon.dumps(one.as_dict()) == canon.dumps(two.as_dict())


def test_zero_detect_reactive_equals_none():
    for seed in (0, 4, 9):
        doc = zero_detect(random_scenario(seed))
        if not doc.targets or not doc.entry_grants:
            continue
        graph = rebuild(doc)
        base_cfg = GameConfig(max_turns=10, attacker_policy="random", rng_seed=5)
        quiet = run_game(graph, base_cfg._replace(defender_policy="reactive_cut", defender_budget_per_turn=99.0))
        off = run_game(graph, base_cfg)
        assert canon.dumps(quiet.as_dict()) == canon.dumps(off.as_dict())


def test_policies_differ_on_toy5g(toy5g):
    _, _, graph = toy5g
    cheap = run_game(graph, GameConfig(max_turns=12, attacker_policy="greedy_cheapest"))
    nasty = run_game(graph, GameConfig(max_turns=12, attacker_policy="max_threat"))
    assert cheap.fired[0] == nasty.fired[0] == "A1"  # only satisfiable opener
    assert cheap.fired != nasty.fired  # A3 (severity 5) jumps the queue for max_threat
    assert nasty.outcome == cheap.outcome == "target_compromised"


def test_compromise_permission_filter(minichain):
    _, _, graph = minichain
    trace = run_game(graph, GameConfig(max_turns=6, compromise_permissions=("read",)))
    # B2 grants write on the target, which no longer counts as compromise.
    assert trace.outcome == "attacker_exhausted"
    assert trace.fired == ("B1", "B2")


def test_entry_only_attack_fires_first_or_never(minichain):
    doc, _, graph = minichain
    flagged = doc._replace(
        attacks=tuple(a._replace(entry_only=True) if a.id == "B2" else a for a in doc.attacks),
    )
    graph2 = rebuild(flagged)
    trace = run_game(graph2, GameConfig(max_turns=6))
    # B2 is not satisfiable on turn one and entry-only afterwards.
    assert trace.outcome == "attacker_exhausted"
    assert trace.fired == ("B1",)


def test_bad_config_rejected(minichain):
    _, _, graph = minichain
    with pytest.raises(ConfigError):
        run_game(graph, GameConfig(max_turns=0))
    with pytest.raises(ConfigError):
        run_game(graph, GameConfig(attacker_policy="psychic"))
    with pytest.raises(ConfigError):
        run_game(graph, GameConfig(defender_budget_per_turn=-1.0))
    with pytest.raises(ConfigError, match="^runs must be >= 1$"):
        run_batch(graph, GameConfig(), runs=0)


def test_missing_entry_or_targets_rejected(minichain):
    doc, _, _ = minichain
    with pytest.raises(EmptyEntryGrantsError):
        run_game(rebuild(doc._replace(entry_grants=())), GameConfig())
    with pytest.raises(ConfigError):
        run_game(rebuild(doc._replace(targets=())), GameConfig())


def test_batch_seeds_are_consecutive(minichain):
    _, _, graph = minichain
    traces = run_batch(graph, GameConfig(rng_seed=10, max_turns=6), 5)
    singles = [run_game(graph, GameConfig(rng_seed=10 + i, max_turns=6)) for i in range(5)]
    assert [canon.dumps(t.as_dict()) for t in traces] == [canon.dumps(t.as_dict()) for t in singles]


def test_summarize_identical_and_mixed(minichain):
    _, _, graph = minichain
    traces = run_batch(graph, GameConfig(max_turns=6), 10)
    report = summarize(traces)
    assert report.outcomes == {"target_compromised": 10}
    assert report.mean_turns == 2.0
    assert report.mean_attacker_cost == 3.0

    limited = run_batch(graph, GameConfig(max_turns=1), 3)
    mixed = summarize(list(traces[:7]) + list(limited))
    assert mixed.outcomes == {"target_compromised": 7, "turn_limit": 3}
    assert mixed.runs == 10

    with pytest.raises(ValueError):
        summarize([])


def test_grants_stay_grants_and_canon_renders_them_as_dicts(toy5g):
    # Grant is a named tuple and equals the plain tuple of its fields: every
    # grant the engines hand out must still be a Grant, and canonical JSON
    # must render one as its dict form, never as a list.
    doc, _, graph = toy5g
    chains = enumerate_chains(graph)
    grants = [g for c in chains for g in c.final_grants]
    grants += [g for s in is_valid_chain(graph, chains[-1].edges).states for g in s.grants]
    trace = run_game(graph, GameConfig(defender_policy="reactive_cut", defender_budget_per_turn=2.0))
    grants += [g for t in trace.turns for g in t.grants]
    grants += [g for a in doc.attacks for g in a.condition + a.a_results] + list(doc.entry_grants)
    assert grants and all(type(g) is Grant for g in grants)
    assert sorted([Grant("b", "read"), Grant("a", "write"), Grant("a", "execute")]) == [
        Grant("a", "execute"),
        Grant("a", "write"),
        Grant("b", "read"),
    ]
    grant = Grant("x", "read")
    assert canon.dumps(grant) == canon.dumps(grant.as_dict()) == canon.dumps({"object": "x", "permission": "read"})
    assert canon.dumps({"grants": [grant]}) == canon.dumps({"grants": [grant.as_dict()]})
    assert canon.dumps([grant]) != canon.dumps([["x", "read"]])
    with pytest.raises(TypeError):
        canon.dumps(namedtuple("Pair", "object permission")("x", "read"))


def test_reactive_defender_enumerates_under_engine_semantics(toy5g, monkeypatch):
    # The engine config alone owns semantics: a strict config must reach
    # the defender's chain prediction, not be replaced by a game default.
    # The first prediction of a game walks every chain; the later ones walk
    # with the grants won since (via), so the incremental path is taken.
    import stratagraph.defense as defense_module
    from stratagraph.config import EngineConfig

    seen = []
    real = defense_module._walk

    def spy(graph, entry, goal, config, blocked, via=0, context=None):
        seen.append((config.semantics, via))
        return real(graph, entry, goal, config, blocked, via, context)

    monkeypatch.setattr(defense_module, "_walk", spy)
    _, _, graph = toy5g
    game = GameConfig(defender_policy="reactive_cut", defender_budget_per_turn=2.0)
    trace = run_game(graph, game, config=EngineConfig(semantics="strict"))
    assert seen and {semantics for semantics, _ in seen} == {"strict"}
    assert seen[0][1] == 0
    later = [frozenset(graph.grants_of(via)) for _, via in seen[1:]]
    assert later and all(via for via in later)
    grants = [frozenset(t.grants) for t in trace.turns]
    assert set(later) <= {now - before for before, now in zip(grants, grants[1:])}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    semantics=st.sampled_from(("accumulated", "strict")),
    policy=st.sampled_from(("greedy_cheapest", "max_threat", "random")),
    budget=st.sampled_from((0.5, 2.0, 100.0)),
)
def test_reactive_defender_rows_equal_a_fresh_walk_on_every_turn(seed, semantics, policy, budget):
    # run_game updates the last turn's rows; on every turn they must be
    # what a fresh walk from the attacker's grants under the neutralized
    # attacks gives. Every attack is detected, so the defender plans from
    # the first turn on, and no entry grant is on a target, so most games
    # last more than one turn.
    import stratagraph.game as game_module

    doc = random_scenario(seed, max_objects=8, max_edges=24)
    entry = tuple(g for g in doc.entry_grants if g.object not in doc.targets)
    if not entry or not doc.targets:
        return
    doc = doc._replace(entry_grants=entry, attacks=tuple(a._replace(detect_prob=1.0) for a in doc.attacks))
    graph = rebuild(doc)
    config = EngineConfig(semantics=semantics, max_len=4)
    real = game_module._respond
    updates = []

    def check(graph, last, grants, mask, goal, blocked, budget, config):
        chosen, state = real(graph, last, grants, mask, goal, blocked, budget, config)
        if last is None:  # the first prediction walks afresh
            return chosen, state
        rows = state[2]
        applied = [d.id for d in graph.sorted_defenses if mask & graph.defense_bits[d.id]]
        assert blocked == neutralized_attacks(graph, applied)
        assert rows == _target_rows(graph, grants, goal, blocked, config)
        updates.append(rows)
        return chosen, state

    game = GameConfig(max_turns=8, attacker_policy=policy, defender_policy="reactive_cut", defender_budget_per_turn=budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game_module, "_respond", check)
        run_batch(graph, game, 2, config)
    if updates:
        event("rows updated")


def test_reactive_defender_keeps_its_walk_context_while_the_blocked_set_holds(monkeypatch):
    # The blocked set only grows within a game, so the defender's walks keep
    # their goal distances and full step tables while it holds: the goal
    # search runs once per distinct blocked set a game walks under, not once
    # per walk. Both backward searches must give the distances of a forward
    # search by definition (oracles.reference_distances). Every pending
    # table of a via walk is the kept full table of its (end, room), which
    # must be what a fresh scan under the current blocked set gives,
    # filtered by the via distances. The empty chain's full table depends on
    # the entry, so it is not kept: it must be a fresh scan of the edges the
    # entry enables.
    import stratagraph.chains as chains_module
    import stratagraph.game as game_module

    search, step_table, pending_table = (
        chains_module._distance,
        chains_module._step_table,
        chains_module._pending_table,
    )
    real_respond = game_module._respond
    distances = []  # the blocked set of every goal search
    pending = []  # (full, room, opened, ahead, table) of every pending table built
    blocked_sets = []  # the blocked set of every walk
    checked = 0

    def spy_search(graph, blocked, frontier, joins, limit):
        found = search(graph, blocked, frontier, joins, limit)
        if limit is None:  # a goal search, from the goals
            distances.append(blocked)
            assert found == oracles.reference_distances(graph.doc, frontier, blocked)
        return found

    def spy_pending(full, room, opened, ahead):
        table = pending_table(full, room, opened, ahead)
        pending.append((full, room, opened, ahead, table))
        return table

    def spy_respond(graph, last, grants, applied, goal, blocked, budget, config):
        nonlocal checked
        pending.clear()
        out = real_respond(graph, last, grants, applied, goal, blocked, budget, config)
        if last is None:  # the first prediction, a full walk
            blocked_sets.append(blocked)
            return out
        if grants == last[0]:  # nothing won, nothing walked
            assert not pending
            return out
        blocked_sets.append(blocked)
        ((key, (dist, tables)),) = last[3].items()
        assert key == (goal, blocked)
        assert dist == oracles.reference_distances(graph.doc, goal, blocked)
        where = {id(table): at for at, table in tables.items()}
        won = set(graph.grants_of(grants & ~last[0]))
        opened = {f"{a.id}#{i}" for a in graph.doc.attacks if won & set(a.condition) for i in range(len(a.a_results))}
        ahead = oracles.reference_distances(graph.doc, goal, blocked, won, config.max_len - 1)
        enabled = [e for e in graph.edges if e.need_mask & grants == e.need_mask]
        for full, room, got_opened, got_ahead, table in pending:
            assert (got_opened, got_ahead) == (opened, ahead)
            if room == config.max_len - 1:  # the empty chain's, built per walk and never kept
                assert id(full) not in where
                assert full == step_table(enabled, None, room, goal, dist, blocked)
            else:
                end, at_room = where[id(full)]
                assert at_room == room
                assert full == step_table(graph.by_from.get(end, ()), end, room, goal, dist, blocked)
            stays = {edge_id: ahead.get(to, room + 1) <= room for edge_id, _, _, to, *_ in full}
            assert table == [
                (*edge, False, stays[edge[0]], (emit, extend) if edge[0] in opened else None)
                for *edge, emit, extend, _ in full
                if edge[0] in opened or stays[edge[0]]
            ]
            checked += 1
        return out

    monkeypatch.setattr(chains_module, "_distance", spy_search)
    monkeypatch.setattr(chains_module, "_pending_table", spy_pending)
    monkeypatch.setattr(game_module, "_respond", spy_respond)
    walks = searches = 0
    for seed in range(100):
        doc = random_scenario(seed, max_objects=8, max_edges=24)
        entry = tuple(g for g in doc.entry_grants if g.object not in doc.targets)
        if not entry or not doc.targets:
            continue
        doc = doc._replace(entry_grants=entry, attacks=tuple(a._replace(detect_prob=1.0) for a in doc.attacks))
        graph = rebuild(doc)
        for budget in (0.0, 2.0):
            game = GameConfig(
                max_turns=8, attacker_policy="random", defender_policy="reactive_cut",
                defender_budget_per_turn=budget, rng_seed=seed,
            )
            distances.clear()
            blocked_sets.clear()
            run_game(graph, game, EngineConfig(max_len=4))
            assert len(distances) == len(set(blocked_sets))
            walks += len(blocked_sets)
            searches += len(distances)
    assert checked > 100 and searches < walks, (checked, searches, walks)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    objective=st.sampled_from(("threat", "count")),
    limit=st.sampled_from((20, 0)),
    non_dyadic=st.booleans(),
    data=st.data(),
)
def test_target_rows_plan_like_the_per_chain_kernel(seed, objective, limit, non_dyadic, data):
    # Both planners and the reactive defender take their chains from
    # _target_rows. For any foothold and blocked set they must be the
    # enumerated chains in canonical order with their per-chain signatures,
    # and the budget pick must be what the per-chain kernel gives, on the
    # exact and on the greedy path.
    doc = random_scenario(seed, max_objects=6, max_edges=16, max_defenses=8)
    rng = random.Random(seed)
    if non_dyadic:
        doc = doc._replace(attacks=tuple(a._replace(severity=rng.choice((0.1, 0.2, 0.7))) for a in doc.attacks))
    graph = rebuild(doc)
    producible = sorted({g for a in doc.attacks for g in a.a_results} - set(doc.entry_grants))
    extra = data.draw(st.lists(st.sampled_from(producible), max_size=4) if producible else st.just([]), label="extra")
    foothold = frozenset(doc.entry_grants) | frozenset(extra)
    blocked = frozenset(data.draw(st.sets(st.sampled_from(sorted(graph.attacks))), label="blocked"))
    total = sum(d.cost for d in doc.defenses)
    budget = data.draw(st.integers(0, int(2 * total)).map(lambda h: h / 2), label="budget")
    config = EngineConfig(max_len=4, budget_objective=objective, exact_defense_limit=limit)
    chains = enumerate_chains(
        graph, targets=doc.targets, config=config, blocked_attacks=blocked, entry_grants=foothold
    )
    goal = frozenset(doc.targets)
    found = _target_rows(graph, _foothold(graph, foothold)[0], goal, blocked, config)
    signatures = [oracles.chain_signature(doc, c.edges) for c in chains]
    assert found == [(c.edges, sig, c.total_threat) for c, sig in zip(chains, signatures)]
    weights = [1.0 if objective == "count" else c.total_threat for c in chains]
    rows = _kernel(zip(signatures, weights))
    assert _budget_choice(graph, budget, found, config) == _choose(graph, rows, budget, config)


def test_risk_and_reactive_defender_build_no_chains(toy5g, fixtures_dir, tmp_path, monkeypatch, capsys):
    # risk, the reactive defender and the planners read only counts, totals
    # and signatures, so none may package a chain it does not print.
    built = []

    def spy_init(self, *args, **kwargs):
        built.append(self)  # a named tuple is whole after __new__

    monkeypatch.setattr(AttackChain, "__init__", spy_init)
    _, _, graph = toy5g
    game = GameConfig(defender_policy="reactive_cut", defender_budget_per_turn=10.0)
    rows = risk_assess(graph)
    trace = run_game(graph, game)
    assert built == []
    assert any(r.chain_count for r in rows) and any(t.defenses for t in trace.turns)
    enumerate_chains(graph)
    assert built  # the spy sees chains where they are built

    # A budget plan packages only its survivor sample: toy5g keeps all 4
    # chains at budget 0, and the sample holds survivor_sample of them.
    sample = tmp_path / "sample.config"
    sample.write_text('{"survivor_sample": 2}', encoding="utf-8")
    toy = ["--scenario", str(fixtures_dir / "toy5g.scenario")]
    infeasible = ["--scenario", str(fixtures_dir / "infeasible.scenario")]
    for argv, code, chains_built in [
        (["defend", *toy, "--mode", "cut"], 0, 0),
        (["defend", *toy, "--mode", "budget", "--budget", "0", "--config", str(sample)], 0, 2),
        (["defend", *toy, "--mode", "budget", "--budget", "0"], 0, 4),
        (["chains", *toy, "--objective", "max_threat"], 0, 1),
        (["defend", *infeasible, "--mode", "cut"], 3, 1),  # the uncut chain of the error
    ]:
        built.clear()
        assert main(argv) == code, argv
        capsys.readouterr()
        assert len(built) == chains_built, argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), data=st.data())
def test_frontier_lists_the_attacks_a_full_scan_finds(seed, data):
    # The random attacker picks by index, so the frontier must list exactly
    # what a scan of every attack in id order finds, turn after turn, as
    # grants arrive and attacks are fired or neutralized.
    doc = random_scenario(seed, max_objects=6, max_edges=16)
    graph = rebuild(doc)
    grants = set(doc.entry_grants)
    frontier = _Frontier(graph, _foothold(graph, grants)[0])
    fired: list[str] = []
    neutralized: frozenset[str] = frozenset()
    producible = sorted({g for a in doc.attacks for g in a.a_results})
    for _ in range(data.draw(st.integers(1, 8), label="turns")):
        want = [
            a
            for a in graph.sorted_attacks
            if a.id not in fired
            and a.id not in neutralized
            and not (a.entry_only and fired)
            and all(need in grants for need in a.condition)
        ]
        assert frontier.candidates(fired, neutralized) == want
        if want:
            pick = data.draw(st.sampled_from(want), label="pick")
            fired.append(pick.id)
            won = pick.a_results
        else:
            won = data.draw(st.lists(st.sampled_from(producible), max_size=2), label="won")
        grants.update(won)
        frontier.grant(_foothold(graph, won)[0])
        neutralized |= data.draw(st.frozensets(st.sampled_from(sorted(graph.attacks)), max_size=2), label="defended")
        assert graph.grants_of(frontier.held) == tuple(sorted(grants))
