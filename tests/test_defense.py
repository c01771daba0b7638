import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from stratagraph import (
    AttackRecord,
    ChainObjective,
    InfeasibleCutError,
    UnknownIdError,
    applicable_defenses,
    build_attack_graph,
    build_base_graph,
    enumerate_chains,
    parse_scenario,
    plan_budgeted,
    plan_coverage,
    plan_cut,
    risk_assess,
    search_chain,
)
from stratagraph.config import EngineConfig
from stratagraph.model import DefenseRecord, Grant, ObjectRecord, ScenarioDoc
from stratagraph import chains as chains_module
from stratagraph.defense import _choose, _next_rows, _target_rows, chain_attacks, neutralized_attacks

import oracles
from genscen import coherent_scenario, random_scenario

GREEDY_ONLY = EngineConfig(exact_defense_limit=0, exact_chain_limit=0)


def test_applicable_sorted_by_cost_then_id():
    doc = parse_scenario(
        '{"objects": [{"id": "x", "layer": "physical", "category": "os"}],'
        ' "attacks": [{"id": "a", "object": "x", "a_results": [{"object": "x", "permission": "read"}]}],'
        ' "defenses": [{"id": "dear", "cost": 2.0, "d_results": ["a"]},'
        ' {"id": "cheap", "cost": 1.0, "d_results": ["a"]}]}'
    )
    graph = build_attack_graph(doc, build_base_graph(doc))
    assert [d.id for d in applicable_defenses(graph, "a")] == ["cheap", "dear"]


def test_applicable_empty_and_shared(toy5g):
    _, _, graph = toy5g
    assert [d.id for d in applicable_defenses(graph, "A1")] == ["D1"]
    assert [d.id for d in applicable_defenses(graph, "A2")] == ["D1"]  # shared defense in both lists
    with pytest.raises(UnknownIdError):
        applicable_defenses(graph, "A99")


def test_coverage_one_defense_per_attack():
    doc = parse_scenario(
        '{"objects": [{"id": "x", "layer": "physical", "category": "os"},'
        ' {"id": "y", "layer": "physical", "category": "os"},'
        ' {"id": "z", "layer": "physical", "category": "os"},'
        ' {"id": "w", "layer": "physical", "category": "os"}],'
        ' "relationships": [{"from": "x", "to": "y", "kind": "connectivity"},'
        ' {"from": "y", "to": "z", "kind": "connectivity"},'
        ' {"from": "z", "to": "w", "kind": "connectivity"}],'
        ' "attacks": ['
        '{"id": "a", "object": "x", "condition": [{"object": "x", "permission": "read"}],'
        ' "a_results": [{"object": "y", "permission": "read"}]},'
        '{"id": "b", "object": "y", "condition": [{"object": "y", "permission": "read"}],'
        ' "a_results": [{"object": "z", "permission": "read"}]},'
        '{"id": "c", "object": "z", "condition": [{"object": "z", "permission": "read"}],'
        ' "a_results": [{"object": "w", "permission": "read"}]}],'
        ' "defenses": [{"id": "da", "cost": 1.0, "d_results": ["a"]},'
        ' {"id": "db", "cost": 1.0, "d_results": ["b"]},'
        ' {"id": "dc", "cost": 1.0, "d_results": ["c"]}],'
        ' "entry_grants": [{"object": "x", "permission": "read"}], "targets": ["w"]}'
    )
    graph = build_attack_graph(doc, build_base_graph(doc))
    chain = enumerate_chains(graph, targets=doc.targets)[0]
    plan = plan_coverage(graph, chain)
    assert plan.chosen == ("da", "db", "dc")
    assert plan.total_cost == 3.0
    assert plan.optimal and not plan.uncovered_attacks
    assert plan.surviving_count == 0


def test_coverage_shared_defense_counted_once(toy5g):
    _, _, graph = toy5g
    chain = search_chain(graph, ChainObjective("min_cost"))
    plan = plan_coverage(graph, chain)
    assert plan.chosen == ("D1", "D3")  # D1 covers both A1 and A2
    assert plan.total_cost == 7.5


def test_coverage_reports_uncovered(undefendable):
    doc, _, graph = undefendable
    chain = enumerate_chains(graph, targets=doc.targets)[0]
    plan = plan_coverage(graph, chain)
    assert plan.uncovered_attacks == ("U1",)
    assert plan.chosen == ("DU2",)


def test_budget_zero_and_saturation(toy5g):
    doc, _, graph = toy5g
    chains = enumerate_chains(graph, targets=doc.targets)
    empty = plan_budgeted(graph, 0.0)
    assert empty.chosen == () and empty.surviving_count == len(chains)
    everything = plan_budgeted(graph, sum(d.cost for d in doc.defenses))
    assert everything.surviving_count == 0


def test_budget_matches_brute_force(toy5g):
    doc, _, graph = toy5g
    chains = enumerate_chains(graph, targets=doc.targets)
    oracle_chains = oracles.brute_chains(doc, 8, targets=doc.targets)
    for budget in (0.0, 2.0, 3.0, 5.0, 8.0):
        plan = plan_budgeted(graph, budget)
        value, cost, ids = oracles.brute_budget(doc, oracle_chains, budget)
        broken = sum(c.total_threat for c in chains if chain_attacks(graph, c) & neutralized_attacks(graph, plan.chosen))
        assert abs(broken - value) < 1e-9, f"budget {budget}"
        assert plan.chosen == ids


def test_budget_count_objective(toy5g):
    doc, _, graph = toy5g
    cfg = EngineConfig(budget_objective="count")
    plan = plan_budgeted(graph, 2.5, config=cfg)
    value, _, ids = oracles.brute_budget(doc, oracles.brute_chains(doc, 8, targets=doc.targets), 2.5, "count")
    assert plan.chosen == ids


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    objective=st.sampled_from(("threat", "count")),
    limit=st.sampled_from((20, 0)),
    data=st.data(),
)
def test_budget_kernel_matches_per_chain_reference(seed, objective, limit, data):
    # The signature kernel must give the very plan of the per-chain search,
    # on the exact path (limit 20) and on the greedy path (limit 0). With no
    # targets the planner plans over every chain.
    doc = random_scenario(seed, max_objects=6, max_edges=24, max_defenses=10)._replace(targets=())
    graph = build_attack_graph(doc, build_base_graph(doc))
    chains = enumerate_chains(graph, config=EngineConfig(max_len=4))
    total = sum(d.cost for d in doc.defenses)
    budget = data.draw(
        st.one_of(st.integers(0, int(2 * total)).map(lambda h: h / 2), st.floats(0.0, total)), label="budget"
    )
    cfg = EngineConfig(max_len=4, budget_objective=objective, exact_defense_limit=limit)
    plan = plan_budgeted(graph, budget, config=cfg)
    assert plan == oracles.reference_plan_budgeted(doc, chains, budget, objective, exact_limit=limit)


def test_budget_non_dyadic_weights_within_eps():
    # Severities 0.1, 0.2 and 0.7 are not exact binary fractions, so row sums
    # may round differently from per-chain sums; the value may not drift.
    checked = 0
    for seed in range(40):
        doc = random_scenario(seed, max_edges=8)
        if not doc.defenses:
            continue
        rng = random.Random(seed)
        severities = tuple(a._replace(severity=rng.choice((0.1, 0.2, 0.7))) for a in doc.attacks)
        doc = doc._replace(attacks=severities, targets=())  # no targets: plan over every chain
        graph = build_attack_graph(doc, build_base_graph(doc))
        chains = enumerate_chains(graph, config=EngineConfig(max_len=4))
        oracle_chains = oracles.brute_chains(doc, 4)
        total = sum(d.cost for d in doc.defenses)
        for budget in (0.5, 1.5, total / 2, total):
            plan = plan_budgeted(graph, budget, config=EngineConfig(max_len=4))
            value, _, _ = oracles.brute_budget(doc, oracle_chains, budget)
            blocked = neutralized_attacks(graph, plan.chosen)
            broken = sum(c.total_threat for c in chains if chain_attacks(graph, c) & blocked)
            assert abs(broken - value) < oracles.EPS, f"seed={seed} budget={budget}"
            assert plan.total_cost <= budget + oracles.EPS
            checked += 1
    assert checked >= 80


# D1 and E1 break A1's chain, D2 and E2 those of A2 and A3, F only A3's.
# (E1, E2) breaks every chain for 2, summed 0.1 + (0.1 + 1.1); the rows'
# bound before E1, (0.1 + 0.1) + 1.1, rounds one ulp lower.
TIE_COSTS = (2.0, 2.0, 1.0, 1.0, 100.0)
TIE_ROWS = [(0b00101, 0.1), (0b01010, 0.1), (0b11010, 1.1)]


def test_budget_plan_is_the_cheapest_of_equal_value_with_non_dyadic_threats():
    grant = [{"object": "O1", "permission": "read"}]
    attacks = [
        {"id": a, "object": "O1", "condition": grant, "a_results": [{"object": "T", "permission": "read"}], "severity": s}
        for a, s in (("A1", 0.1), ("A2", 0.1), ("A3", 1.1))
    ]
    breaks = (("D1", ["A1"]), ("D2", ["A2", "A3"]), ("E1", ["A1"]), ("E2", ["A2", "A3"]), ("F", ["A3"]))
    doc = parse_scenario(
        json.dumps(
            {
                "objects": [
                    {"id": "O1", "layer": "physical", "category": "channel"},
                    {"id": "T", "layer": "physical", "category": "hardware-device"},
                ],
                "relationships": [{"from": "O1", "to": "T", "kind": "connectivity"}],
                "attacks": attacks,
                "defenses": [{"id": d, "cost": c, "d_results": r} for (d, r), c in zip(breaks, TIE_COSTS)],
                "entry_grants": grant,
                "targets": ["T"],
            }
        )
    )
    plan = plan_budgeted(build_attack_graph(doc, build_base_graph(doc)), 4.0)
    assert (plan.chosen, plan.total_cost, plan.surviving_count, plan.optimal) == (("E1", "E2"), 2.0, 0, True)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    costs=st.lists(st.sampled_from((0.0, 1e-20, 1e-3, 0.1, 0.3, 1.0, 2.5, 1e16)), min_size=1, max_size=9),
    data=st.data(),
)
@example(costs=list(TIE_COSTS), data=None)
def test_exact_budget_search_finds_the_smallest_key(costs, data):
    # The exact search must return the plan of smallest key among all
    # affordable ones, also where rounding blurs ties: weights that are no
    # binary fractions, and costs so far apart that one absorbs another.
    defenses = tuple(DefenseRecord(f"D{k}", c) for k, c in enumerate(costs))
    if data is None:
        rows, budget = TIE_ROWS, 4.0
    else:
        sigs = data.draw(st.lists(st.integers(1, 2 ** len(costs) - 1), unique=True, max_size=8), label="sigs")
        weights = st.sampled_from((0.1, 0.2, 0.7, 1.0, 1.1, 2.5))
        rows = [(sig, data.draw(weights, label="weight")) for sig in sigs]
        budget = data.draw(st.sampled_from((0.0, 0.3, 1.0, 2.0, 3.5, 1e16, sum(costs))), label="budget")
    graph = SimpleNamespace(sorted_defenses=defenses)  # all that _choose reads of a graph
    chosen = oracles.brute_kernel_budget(defenses, rows, budget)
    assert _choose(graph, rows, budget, EngineConfig()) == (chosen, True)


def test_cut_hitting_trio_is_two(hitting_trio):
    _, _, graph = hitting_trio
    plan = plan_cut(graph)
    assert plan.total_cost == 2.0
    assert plan.chosen == ("d1", "d2")
    assert plan.optimal
    assert plan.surviving_count == 0


def test_cut_single_chain_picks_cheapest(minichain):
    _, _, graph = minichain
    plan = plan_cut(graph)
    assert plan.chosen == ("DB1",)
    assert plan.total_cost == 1.0


def test_cut_toy5g(toy5g):
    doc, _, graph = toy5g
    plan = plan_cut(graph)
    assert plan.chosen == ("D1",) and plan.total_cost == 5.0
    survivors = enumerate_chains(graph, targets=doc.targets, blocked_attacks=neutralized_attacks(graph, plan.chosen))
    assert survivors == ()


def test_cut_skips_undefendable_attack_when_another_works(undefendable):
    _, _, graph = undefendable
    plan = plan_cut(graph)
    assert plan.chosen == ("DU2",)


def test_cut_trivial_when_targets_unreachable(toy5g):
    _, _, graph = toy5g
    plan = plan_cut(graph, targets=("SL1",))
    assert plan.chosen == () and plan.total_cost == 0.0 and plan.optimal


def test_cut_infeasible_raises(fixtures_dir):
    from stratagraph import load_scenario

    doc = load_scenario(fixtures_dir / "infeasible.scenario")
    graph = build_attack_graph(doc, build_base_graph(doc))
    with pytest.raises(InfeasibleCutError):
        plan_cut(graph)


def test_cut_greedy_still_cuts(toy5g, hitting_trio):
    for doc, _, graph in (toy5g, hitting_trio):
        plan = plan_cut(graph, config=GREEDY_ONLY)
        assert not plan.optimal
        assert plan.surviving_count == 0
        blocked = neutralized_attacks(graph, plan.chosen)
        assert enumerate_chains(graph, targets=doc.targets, blocked_attacks=blocked, config=GREEDY_ONLY) == ()


@pytest.mark.parametrize("semantics", ["accumulated", "strict"])
def test_cut_matches_option_set_reference(semantics):
    # The row search and the shared greedy must give the very plan of the
    # per-chain option-set search, on both paths, and fail where it fails.
    # The chains come from the engine (enumeration has its own referee),
    # so scenarios are large enough for the exact search to branch.
    docs = [random_scenario(seed, max_edges=14, max_defenses=10) for seed in range(1500)]
    docs += [coherent_scenario(seed) for seed in range(300)]
    seen = {"exact": 0, "greedy": 0, "infeasible": 0}
    for i, doc in enumerate(docs):
        graph = build_attack_graph(doc, build_base_graph(doc))
        exact = EngineConfig(max_len=4, semantics=semantics)
        greedy = GREEDY_ONLY._replace(max_len=4, semantics=semantics)
        chains = [(c.edges,) for c in enumerate_chains(graph, targets=doc.targets, config=exact)]
        for cfg in (exact, greedy):
            limits = {"exact_chain_limit": cfg.exact_chain_limit, "exact_defense_limit": cfg.exact_defense_limit}
            try:
                want = oracles.reference_plan_cut(doc, chains, **limits)
            except InfeasibleCutError as ref:
                with pytest.raises(InfeasibleCutError) as got:
                    plan_cut(graph, config=cfg)
                assert str(got.value) == str(ref), f"doc {i}"
                assert [c.edges for c in got.value.uncut_chains] == list(ref.uncut_chains), f"doc {i}"
                seen["infeasible"] += 1
                continue
            assert plan_cut(graph, config=cfg) == want, f"doc {i} {cfg}"
            if chains:
                seen["exact" if want.optimal else "greedy"] += 1
    assert min(seen.values()) >= 10, seen


def test_cut_rejects_unknown_targets(toy5g):
    _, _, graph = toy5g
    # An unknown target used to give an empty plan marked optimal.
    with pytest.raises(UnknownIdError, match="^unknown target 'GHOST'$"):
        plan_cut(graph, targets=["GHOST"])
    with pytest.raises(UnknownIdError, match="^unknown target 'GHOST'$"):
        plan_cut(graph, targets=["APP1", "GHOST"])
    # No target at all, given or the scenario's, leaves nothing to cut.
    with pytest.raises(ValueError, match="^plan_cut requires at least one target$"):
        plan_cut(graph, targets=[])
    untargeted = graph.doc._replace(targets=())
    with pytest.raises(ValueError, match="^plan_cut requires at least one target$"):
        plan_cut(build_attack_graph(untargeted, build_base_graph(untargeted)))


def test_cut_with_custom_entry_and_targets(toy5g):
    _, _, graph = toy5g
    from stratagraph.model import Grant

    plan = plan_cut(graph, entry_grants=(Grant("UE1", "read"),), targets=("APP1",))
    # From a UE1 foothold only A4/A5 chains exist; cutting them is cheaper.
    assert plan.chosen == ("D3", "D4")
    assert plan.total_cost == 5.5


def test_coverage_never_cheaper_than_cut_on_single_chain():
    for seed in range(20):
        doc = random_scenario(seed, max_edges=6)
        graph = build_attack_graph(doc, build_base_graph(doc))
        chains = enumerate_chains(graph, config=EngineConfig(max_len=4))
        for chain in chains[:3]:
            attacks = chain_attacks(graph, chain)
            if any(not applicable_defenses(graph, a) for a in attacks):
                continue  # cut of that chain would be infeasible
            coverage = plan_coverage(graph, chain)
            cheapest_hit = min(
                min(d.cost for d in applicable_defenses(graph, a)) for a in attacks
            )
            assert coverage.total_cost >= cheapest_hit - 1e-9


def test_adding_defense_never_increases_survivors(toy5g):
    doc, _, graph = toy5g
    chains = enumerate_chains(graph, targets=doc.targets)
    for budget in (0.0, 2.5, 5.0):
        plan = plan_budgeted(graph, budget)
        for extra in doc.defenses:
            if extra.id in plan.chosen:
                continue
            blocked = neutralized_attacks(graph, plan.chosen + (extra.id,))
            survivors = [c for c in chains if not (chain_attacks(graph, c) & blocked)]
            assert len(survivors) <= plan.surviving_count


def test_wide_topology_stays_fast_and_consistent():
    import time

    from stratagraph.model import (
        AttackRecord,
        DefenseRecord,
        Grant,
        ObjectRecord,
        ScenarioDoc,
    )

    tiers, width, fan = 5, 6, 3
    objects, attacks, defenses = [], [], []
    for t in range(tiers):
        for i in range(width):
            objects.append(ObjectRecord(id=f"t{t}n{i}", layer="physical", category="hardware-device"))
    for t in range(tiers - 1):
        tier_attacks = []
        for i in range(width):
            results = tuple(Grant(f"t{t + 1}n{(i + k) % width}", "read") for k in range(fan))
            aid = f"hop{t}x{i}"
            tier_attacks.append(aid)
            attacks.append(
                AttackRecord(
                    id=aid,
                    object=f"t{t}n{i}",
                    condition=(Grant(f"t{t}n{i}", "read"),),
                    a_results=results,
                    cost=1.0 + 0.25 * t,
                    severity=1.0,
                )
            )
        defenses.append(DefenseRecord(id=f"tier{t}", cost=2.0 + t, d_results=tuple(tier_attacks)))
    doc = ScenarioDoc(
        objects=tuple(objects),
        attacks=tuple(attacks),
        defenses=tuple(defenses),
        entry_grants=(Grant("t0n0", "read"),),
        targets=tuple(f"t{tiers - 1}n{i}" for i in range(width)),
    )
    graph = build_attack_graph(doc, build_base_graph(doc))
    assert len(graph.edges) == (tiers - 1) * width * fan

    start = time.monotonic()
    chains = enumerate_chains(graph, targets=doc.targets, config=EngineConfig(max_len=tiers - 1))
    best = search_chain(graph, ChainObjective("min_cost"), config=EngineConfig(max_len=tiers - 1))
    plan = plan_cut(graph)  # > 64 chains forces the greedy path
    elapsed = time.monotonic() - start
    assert len(chains) > 64
    assert best.total_cost == min(c.total_cost for c in chains)
    assert not plan.optimal and plan.surviving_count == 0
    assert plan.chosen == ("tier0",)  # every chain crosses tier 0, cheapest single hit
    assert elapsed < 3.0, f"wide topology took {elapsed:.2f}s"


def test_risk_toy5g_table(toy5g):
    _, _, graph = toy5g
    rows = [(r.object, r.chain_count, r.max_chain_threat, r.min_chain_cost) for r in risk_assess(graph)]
    assert rows == [
        ("APP1", 4, 11.0, 6.5),
        ("HV1", 2, 5.0, 5.0),
        ("UE1", 2, 5.0, 5.0),
        ("BS1", 2, 2.0, 2.0),
        ("CH1", 1, 2.0, 2.0),
        ("SL1", 0, 0.0, None),
    ]


def test_risk_empty_entry_is_all_zero(toy5g):
    doc, _, _ = toy5g
    bare = doc._replace(entry_grants=())
    rows = risk_assess(build_attack_graph(bare, build_base_graph(bare)))
    assert all(r.chain_count == 0 and r.min_chain_cost is None for r in rows)


def typed(rows):
    """Risk rows with the type of each number, which canon prints differently from 1e6 up."""
    return [
        (r.object, r.chain_count, r.max_chain_threat, type(r.max_chain_threat), r.min_chain_cost, type(r.min_chain_cost))
        for r in rows
    ]


def millions(doc, rng, mix):
    """doc with costs and severities of one or two million, as int, float or either.

    Two values make equal chain totals, and so ties between an int and a
    float, common.
    """

    def scale(_):
        whole = rng.choice((1, 2)) * 10**6
        as_int = mix == "int" or mix == "mixed" and rng.random() < 0.5
        return whole if as_int else float(whole)

    return doc._replace(attacks=tuple(a._replace(cost=scale(a.cost), severity=scale(a.severity)) for a in doc.attacks))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    semantics=st.sampled_from(("accumulated", "strict")),
    agg=st.sampled_from(("sum", "max")),
    mix=st.sampled_from(("float", "int", "mixed")),
)
def test_risk_matches_reference_row_for_row(seed, semantics, agg, mix):
    # Counts, values and their int or float types must match the original
    # risk computed over every brute-force chain, ties included.
    doc = millions(random_scenario(seed, max_objects=5, max_edges=8), random.Random(seed), mix)
    graph = build_attack_graph(doc, build_base_graph(doc))
    config = EngineConfig(max_len=3, semantics=semantics, threat_agg=agg)
    assert typed(risk_assess(graph, config)) == typed(oracles.reference_risk(doc, 3, semantics, agg))


def tie_scenario():
    """Chains tie at 1000000 on c, d and e, and at 0 on b, between an int and a float.

    On c a 1-edge chain of int values ties with a 2-edge chain of floats;
    on d it is the other way round. On e two 2-edge chains tie, and the
    walk reaches the int one (through atk5) before the canonically first
    float one (through atk1). On b two 1-edge chains tie at 0.0 and 0.
    """
    objects = tuple(ObjectRecord(o, "service", "application-software", "") for o in "abcde")

    def attack(aid, obj, need, result, value):
        return AttackRecord(aid, obj, (Grant(*need),), "", (Grant(*result),), cost=value, severity=value)

    attacks = (
        attack("atk0", "a", ("a", "read"), ("c", "read"), 1000000),
        attack("atk1", "a", ("a", "read"), ("b", "read"), 0.0),
        attack("atk2", "b", ("b", "read"), ("c", "write"), 1000000.0),
        attack("atk3", "a", ("a", "read"), ("d", "read"), 1000000.0),
        attack("atk4", "b", ("b", "execute"), ("d", "write"), 1000000),
        attack("atk5", "a", ("a", "read"), ("b", "execute"), 0),
        attack("atk6", "b", ("b", "read"), ("e", "read"), 1000000.0),
        attack("atk7", "b", ("b", "execute"), ("e", "write"), 1000000),
    )
    return ScenarioDoc(objects=objects, attacks=attacks, entry_grants=(Grant("a", "read"),), targets=("c",))


@pytest.mark.parametrize("agg", ["sum", "max"])
@pytest.mark.parametrize("semantics", ["accumulated", "strict"])
def test_risk_ties_keep_the_first_chain_in_canonical_order(semantics, agg):
    doc = tie_scenario()
    graph = build_attack_graph(doc, build_base_graph(doc))
    rows = typed(risk_assess(graph, EngineConfig(semantics=semantics, threat_agg=agg)))
    assert rows == [
        ("c", 2, 1000000, int, 1000000, int),
        ("d", 2, 1000000.0, float, 1000000.0, float),
        ("e", 2, 1000000.0, float, 1000000.0, float),
        ("a", 0, 0.0, float, None, type(None)),
        ("b", 2, 0.0, float, 0.0, float),
    ]
    assert rows == typed(oracles.reference_risk(doc, 8, semantics, agg))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    coherent=st.booleans(),
    semantics=st.sampled_from(("accumulated", "strict")),
    agg=st.sampled_from(("sum", "max")),
    max_len=st.integers(1, 5),
    to_goal=st.booleans(),
    data=st.data(),
)
def test_next_rows_equal_a_fresh_walk_at_every_step(seed, coherent, semantics, agg, max_len, to_goal, data):
    # Within a game the attacker's grants and the applied defenses only
    # grow, and the reactive defender updates its last rows instead of
    # walking afresh. At every step of such a sequence the update must give
    # the fresh rows, in the same order. Each step draws what the attacker
    # won (nothing, grants some step needs, or only grants no step needs)
    # and the new defenses (none, some, or every one, which breaks every
    # breakable old row). The updates share one walk context, as a game's
    # do. The via walk must also push back a prefix that has taken no new
    # step only where its end can still reach a goal through a via step:
    # every such push of every table it builds is checked by definition.
    doc = coherent_scenario(seed) if coherent else random_scenario(seed, max_objects=6, max_edges=14)
    graph = build_attack_graph(doc, build_base_graph(doc))
    cfg = EngineConfig(semantics=semantics, max_len=max_len, threat_agg=agg)
    goal = frozenset(doc.targets) if to_goal else frozenset(o.id for o in doc.objects)
    won_from = {
        "needed": sorted(graph.needed_by),
        "empty": [],
        "unneeded": [g for o in doc.objects for g in (Grant(o.id, "read"), Grant(o.id, "write"))],
    }
    won_from["unneeded"] = [g for g in won_from["unneeded"] if g not in graph.needed_by]
    defenses = [d.id for d in graph.sorted_defenses]
    stays = []
    build = chains_module._pending_table

    def spy(full, room, opened, ahead):
        table = build(full, room, opened, ahead)
        stays.extend((to, room) for _, _, _, to, *_, stay, _ in table if stay)
        return table

    grants = frozenset(doc.entry_grants)
    applied = frozenset()
    context = {}
    last = (grants, 0, _target_rows(graph, grants, goal, frozenset(), cfg, context), context)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains_module, "_pending_table", spy)
        for _ in range(data.draw(st.integers(1, 5), label="turns")):
            pool = won_from[data.draw(st.sampled_from(sorted(won_from)), label="kind")]
            won = data.draw(st.frozensets(st.sampled_from(pool), max_size=3) if pool else st.just(frozenset()))
            defend = data.draw(st.sampled_from(("none", "some", "all")), label="defend")
            if defend == "all":
                applied = frozenset(defenses)
            elif defend == "some" and defenses:
                applied |= data.draw(st.frozensets(st.sampled_from(defenses), max_size=2), label="defended")
            mask = graph.defense_mask(applied)
            blocked = neutralized_attacks(graph, applied)
            via = won - grants
            stays.clear()
            rows = _next_rows(graph, last, grants | won, mask, goal, blocked, cfg)
            grants |= won
            assert rows == _target_rows(graph, grants, goal, blocked, cfg)
            for to, room in stays:
                steps = oracles.reference_distance(doc, to, goal, blocked, via)
                assert steps is not None and steps <= room, (to, room)
            if rows != last[2]:
                event("rows changed")
            if defend == "all" and any(sig for _, sig, _ in last[2]):
                event("every breakable old row broken")
            last = (grants, mask, rows, context)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    coherent=st.booleans(),
    semantics=st.sampled_from(("accumulated", "strict")),
    agg=st.sampled_from(("sum", "max")),
    max_len=st.integers(1, 5),
    to_goal=st.booleans(),
    data=st.data(),
)
def test_via_walk_yields_exactly_the_new_chains(seed, coherent, semantics, agg, max_len, to_goal, data):
    # A walk given the grants won since an earlier walk yields the chains
    # that are valid now and invalid under the old grants, by replay, each
    # once, and no other chain. So the rows _next_rows adds share no edge
    # tuple with the rows it keeps, and it needs no dedup set to merge them.
    doc = coherent_scenario(seed) if coherent else random_scenario(seed, max_objects=6, max_edges=14)
    graph = build_attack_graph(doc, build_base_graph(doc))
    cfg = EngineConfig(semantics=semantics, max_len=max_len, threat_agg=agg)
    goal = frozenset(doc.targets) if to_goal else frozenset(o.id for o in doc.objects)
    edges = oracles.oracle_edges(doc)
    old = frozenset(doc.entry_grants)
    needed = sorted(set(graph.needed_by) - old)
    won = data.draw(st.frozensets(st.sampled_from(needed), min_size=1, max_size=3) if needed else st.just(frozenset()))
    defenses = [d.id for d in graph.sorted_defenses]
    applied = data.draw(st.frozensets(st.sampled_from(defenses), max_size=2) if defenses else st.just(frozenset()))
    mask = graph.defense_mask(applied)
    blocked = neutralized_attacks(graph, applied)
    entry = old | won

    walked = list(chains_module._walk(graph, entry, goal, cfg, blocked, won))
    yielded = [p[0] for p in walked]
    for seq in yielded:
        assert oracles.replay(doc, edges, seq, semantics, entry) is not None, seq
        assert oracles.replay(doc, edges, seq, semantics, old) is None, seq
    fresh = [p[0] for p in chains_module._walk(graph, entry, goal, cfg, blocked)]
    new = [seq for seq in fresh if oracles.replay(doc, edges, seq, semantics, old) is None]
    assert sorted(yielded) == sorted(new)

    last = (old, 0, _target_rows(graph, old, goal, frozenset(), cfg), None)
    kept = [row for row in last[2] if not row[1] & mask]
    added = [(p[0], p[8], p[7]) for p in walked]
    assert not {row[0] for row in kept} & {row[0] for row in added}
    merged = sorted(kept + added, key=lambda row: (len(row[0]), row[0]))
    assert _next_rows(graph, last, entry, mask, goal, blocked, cfg) == merged
    if yielded and len(yielded) < len(fresh):
        event("old and new chains")


@pytest.mark.parametrize("semantics", ["accumulated", "strict"])
def test_via_walk_keeps_a_chain_pending_through_a_won_grant_it_earned(semantics):
    # b.read and c.write are won. atk1 earns b.read itself, so atk2 after it
    # takes a step the old pool satisfies, and the chain is still old; only
    # atk3, which needs c.write, makes it new. The walk must keep the
    # prefix pending through atk2 to find that chain.
    objects = tuple(ObjectRecord(o, "service", "application-software", "") for o in "abcd")

    def attack(aid, obj, need, result):
        return AttackRecord(aid, obj, (Grant(*need),), "", (Grant(*result),), cost=1.0, severity=1.0)

    attacks = (
        attack("atk1", "a", ("a", "read"), ("b", "read")),
        attack("atk2", "b", ("b", "read"), ("c", "read")),
        attack("atk3", "c", ("c", "write"), ("d", "read")),
    )
    old = frozenset({Grant("a", "read")})
    doc = ScenarioDoc(objects=objects, attacks=attacks, entry_grants=tuple(old), targets=("d",))
    graph = build_attack_graph(doc, build_base_graph(doc))
    won = frozenset({Grant("b", "read"), Grant("c", "write")})
    walk = chains_module._walk(graph, old | won, frozenset("d"), EngineConfig(semantics=semantics), frozenset(), won)
    assert sorted(p[0] for p in walk) == [("atk1#0", "atk2#0", "atk3#0"), ("atk2#0", "atk3#0"), ("atk3#0",)]


def test_next_rows_refuses_fewer_grants_or_defenses(toy5g):
    # The update is exact only when grants and defenses grow; anything else
    # is a broken invariant of the caller, refused even under python -O.
    _, _, graph = toy5g
    doc = graph.doc
    entry = frozenset(doc.entry_grants)
    goal = frozenset(doc.targets)
    won = entry | {Grant("APP1", "read")}
    rows = _target_rows(graph, won, goal, frozenset(), EngineConfig())
    with pytest.raises(RuntimeError):
        _next_rows(graph, (won, 0, rows, None), entry, 0, goal, frozenset(), EngineConfig())
    mask = graph.defense_mask(["D1"])
    with pytest.raises(RuntimeError):
        _next_rows(graph, (entry, mask, rows, None), entry, 0, goal, frozenset(), EngineConfig())
