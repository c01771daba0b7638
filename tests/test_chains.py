import importlib.util
import json
import random
import sys
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from stratagraph import (
    ChainObjective,
    EmptyEntryGrantsError,
    UnknownIdError,
    build_attack_graph,
    build_base_graph,
    chain_from_edges,
    enumerate_chains,
    generate_potential_chains,
    is_valid_chain,
    parse_scenario,
    search_chain,
)
from stratagraph import chains as chains_module
from stratagraph.config import EngineConfig
from stratagraph.defense import _target_rows, neutralized_attacks
from stratagraph.graphs import AttackGraph
from stratagraph.model import Grant

import oracles
from genscen import PERMS, coherent_scenario, random_scenario

STRICT = EngineConfig(semantics="strict")

# Frozen from the brute-force oracle over the toy5g fixture (max_len 8).
TOY5G_TARGET_CHAINS = [
    (("A1#0", "A2#1", "A4#0"), 6.5, 7.5),
    (("A1#0", "A2#1", "A5#0"), 9.0, 11.0),
    (("A1#1", "A1#0", "A2#1", "A4#0"), 6.5, 7.5),
    (("A1#1", "A1#0", "A2#1", "A5#0"), 9.0, 11.0),
]


def two_step_doc(second_condition):
    return parse_scenario(
        '{"objects": ['
        '{"id": "O1", "layer": "physical", "category": "os"},'
        '{"id": "O2", "layer": "physical", "category": "os"},'
        '{"id": "O3", "layer": "physical", "category": "os"}],'
        '"relationships": [{"from": "O1", "to": "O2", "kind": "connectivity"},'
        '{"from": "O2", "to": "O3", "kind": "connectivity"}],'
        '"attacks": ['
        '{"id": "e1", "object": "O1", "condition": [{"object": "O1", "permission": "read"}],'
        ' "a_results": [{"object": "O2", "permission": "read"}]},'
        '{"id": "e2", "object": "O2", "condition": [' + second_condition + '],'
        ' "a_results": [{"object": "O3", "permission": "write"}]}],'
        '"entry_grants": [{"object": "O1", "permission": "read"}],'
        '"targets": ["O3"]}'
    )


def test_valid_when_condition_granted():
    doc = two_step_doc('{"object": "O2", "permission": "read"}')
    graph = build_attack_graph(doc, build_base_graph(doc))
    check = is_valid_chain(graph, ["e1#0", "e2#0"])
    assert check.valid
    assert check.failed_index is None
    assert len(check.states) == 3


def test_invalid_reports_index_and_requirement():
    doc = two_step_doc('{"object": "O2", "permission": "write"}')
    graph = build_attack_graph(doc, build_base_graph(doc))
    check = is_valid_chain(graph, ["e1#0", "e2#0"])
    assert not check.valid
    assert check.failed_index == 1
    assert check.reason == "unsatisfied <O2, write>"


def test_adjacency_required():
    doc = two_step_doc('{"object": "O2", "permission": "read"}')
    graph = build_attack_graph(doc, build_base_graph(doc))
    check = is_valid_chain(graph, ["e2#0"])
    assert (check.valid, check.failed_index, check.reason) == (False, 0, "unsatisfied <O2, read>")
    # e1 starts at O1, not at O2 where e1#0 ends.
    check = is_valid_chain(graph, ["e1#0", "e1#0"])
    assert (check.failed_index, check.reason) == (1, "not adjacent: previous edge ends at O2, this one starts at O1")
    both = [Grant("O1", "read"), Grant("O2", "read")]
    check = is_valid_chain(graph, ["e2#0", "e1#0"], entry_grants=both)
    assert (check.failed_index, check.reason) == (1, "not adjacent: previous edge ends at O3, this one starts at O1")
    # e1#1 leads from O1 back to O1, so a second e1#1 affects O1 again.
    e1, e2 = doc.attacks
    looped = doc._replace(attacks=(e1._replace(a_results=(*e1.a_results, Grant("O1", "write"))), e2))
    graph = build_attack_graph(looped, build_base_graph(looped))
    check = is_valid_chain(graph, ["e1#1", "e1#1"])
    assert (check.failed_index, check.reason) == (1, "object O1 already affected (chain must stay simple)")


def test_unknown_edge_raises(toy5g):
    _, _, graph = toy5g
    with pytest.raises(UnknownIdError):
        is_valid_chain(graph, ["ZZ#9"])


def test_empty_entry_grants_raise(toy5g):
    doc, _, _ = toy5g
    bare = doc._replace(entry_grants=())
    with pytest.raises(EmptyEntryGrantsError):
        enumerate_chains(build_attack_graph(bare, build_base_graph(bare)))


def test_accumulated_vs_strict_on_sibling_grant(strictmode):
    _, _, graph = strictmode
    seq = ["S1#0", "S2#0"]
    assert is_valid_chain(graph, seq).valid
    strict = is_valid_chain(graph, seq, config=STRICT)
    assert not strict.valid
    assert strict.failed_index == 1
    assert strict.reason == "unsatisfied <O3, execute>"


def test_entry_only_attack_must_open_the_chain():
    doc = two_step_doc('{"object": "O2", "permission": "read"}')
    attacks = tuple(a._replace(entry_only=True) if a.id == "e2" else a for a in doc.attacks)
    doc = doc._replace(attacks=attacks)
    graph = build_attack_graph(doc, build_base_graph(doc))
    check = is_valid_chain(graph, ["e1#0", "e2#0"])
    assert (check.failed_index, check.reason) == (1, "attack e2 is entry-only and cannot fire mid-chain")
    assert enumerate_chains(graph, targets=["O3"]) == ()


@pytest.mark.parametrize("agg, threat", [("sum", 7.5), ("max", 3.0)])
def test_a_re_fired_attack_counts_once(toy5g, agg, threat):
    # A1#1 and A1#0 are two edges of one attack, so A1 fires twice on this
    # chain. The state after each step lists it once, and the cost (2.0 +
    # 3.0 + 1.5) and threat count it once, in the walk and in the replay.
    _, _, graph = toy5g
    cfg = EngineConfig(threat_agg=agg)
    seq = ("A1#1", "A1#0", "A2#1", "A4#0")
    check = is_valid_chain(graph, seq, cfg)
    assert check.valid
    assert [s.fired for s in check.states] == [(), ("A1",), ("A1",), ("A1", "A2"), ("A1", "A2", "A4")]
    chain = chain_from_edges(graph, seq, cfg)
    assert (chain.total_cost, chain.total_threat) == (6.5, threat)
    walked = {c.edges: c for c in enumerate_chains(graph, config=cfg)}
    assert walked[seq] == chain
    assert (walked[seq[:2]].total_cost, walked[seq[:2]].total_threat) == (2.0, 2.0)


def test_bit_indexes_give_each_object_and_attack_its_own_bit(toy5g):
    # The walk's affected and fired masks are ORs of the edges' to_bit and
    # attack_bit, so each object and each attack must have one bit of its
    # own, 1 << its place in base.layers or doc.attacks, and every edge into
    # an object or of an attack must carry that bit. Its grant masks are ORs
    # of grant bits, so each grant the doc names (entry grants, conditions
    # and results) must have one bit of its own, 1 << its place in Grant
    # order, which grants_of decodes back, and every edge's need, result
    # and pair masks must be ORs of those bits. grants_of reads a mask's
    # bits from low to high and does not sort, so grants_by_bit must
    # strictly ascend, also on the bench skeletons (48 to 400 objects).
    # The object and attack bits are edge fields, so the graph builds no
    # side table for them: its only lazily built indexes are needed_by and
    # same_category_attacks.
    assert sorted(name for name, v in vars(AttackGraph).items() if isinstance(v, cached_property)) == [
        "needed_by",
        "same_category_attacks",
    ]
    graphs = [toy5g[2]]
    for seed in range(30):
        doc = random_scenario(seed, max_objects=7, max_edges=14)
        graphs.append(build_attack_graph(doc, build_base_graph(doc)))
    graphs += [build_attack_graph(doc, build_base_graph(doc)) for doc, _ in _bench_skeletons()]
    for graph in graphs:
        ordered = graph.grants_by_bit
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        object_bits, attack_bits, grant_bits = _object_bit_map(graph), _attack_bit_map(graph), _grant_bit_map(graph)
        for e in graph.edges:
            assert (e.to_bit, e.attack_bit) == (object_bits[e.to_id], attack_bits[e.attack_id])
            a = graph.attacks[e.attack_id]
            assert e.need_mask == _or_bits(grant_bits, a.condition)
            assert e.result_mask == _or_bits(grant_bits, a.a_results)
            assert e.grant_bit == grant_bits[Grant(e.to_id, e.permission)]
        assert list(graph.grant_bits.items()) == list(grant_bits.items())
        for g, bit in grant_bits.items():
            assert graph.grants_of(bit) == (g,)
        assert graph.grants_of(sum(grant_bits.values())) == tuple(sorted(grant_bits))


def test_toy5g_enumeration_matches_frozen_oracle(toy5g):
    doc, _, graph = toy5g
    got = [(c.edges, c.total_cost, c.total_threat) for c in enumerate_chains(graph, targets=doc.targets)]
    assert got == TOY5G_TARGET_CHAINS


def test_unknown_targets_raise(toy5g):
    _, _, graph = toy5g
    with pytest.raises(UnknownIdError, match="^unknown target 'GHOST'$"):
        enumerate_chains(graph, targets=["GHOST"])
    # Every id is checked; the first unknown one in sorted order is named.
    with pytest.raises(UnknownIdError, match="^unknown target 'BOO'$"):
        enumerate_chains(graph, targets=["APP1", "GHOST", "BOO"])


def test_enumeration_empty_cases(toy5g):
    _, _, graph = toy5g
    no_attacks = parse_scenario(
        '{"objects": [{"id": "a", "layer": "physical", "category": "os"}],'
        ' "entry_grants": [{"object": "a", "permission": "read"}], "targets": ["a"]}'
    )
    g2 = build_attack_graph(no_attacks, build_base_graph(no_attacks))
    assert enumerate_chains(g2) == ()
    # SL1 is never affected by any attack in toy5g
    assert enumerate_chains(graph, targets=["SL1"]) == ()


def test_prefix_closure_accumulated(toy5g):
    _, _, graph = toy5g
    for chain in enumerate_chains(graph):
        for k in range(1, len(chain.edges)):
            assert is_valid_chain(graph, chain.edges[:k]).valid


def test_search_min_cost_and_max_threat(toy5g):
    _, _, graph = toy5g
    cheapest = search_chain(graph, ChainObjective("min_cost"))
    assert cheapest.edges == ("A1#0", "A2#1", "A4#0")
    assert cheapest.total_cost == 6.5
    nastiest = search_chain(graph, ChainObjective("max_threat"))
    assert nastiest.edges == ("A1#0", "A2#1", "A5#0")
    assert nastiest.total_threat == 11.0
    with pytest.raises(ValueError, match="^unknown objective kind 'cheapest'$"):
        search_chain(graph, ChainObjective("cheapest"))
    # A scenario without targets has no chain to search for, under either objective.
    untargeted = graph.doc._replace(targets=())
    untargeted_graph = build_attack_graph(untargeted, build_base_graph(untargeted))
    for kind in ("min_cost", "max_threat"):
        assert search_chain(untargeted_graph, ChainObjective(kind)) is None


def test_search_single_chain_wins_both_objectives(minichain):
    _, _, graph = minichain
    a = search_chain(graph, ChainObjective("min_cost"))
    b = search_chain(graph, ChainObjective("max_threat"))
    assert a.edges == b.edges == ("B1#0", "B2#0")


def test_search_honours_engine_max_len(minichain):
    # The only chain to the target has two edges; EngineConfig.max_len alone
    # bounds both search modes.
    doc, _, graph = minichain
    short = EngineConfig(max_len=1)
    assert search_chain(graph, ChainObjective("min_cost"), config=short) is None
    assert search_chain(graph, ChainObjective("max_threat"), config=short) is None
    assert enumerate_chains(graph, targets=doc.targets, config=short) == ()
    two = EngineConfig(max_len=2)
    assert search_chain(graph, ChainObjective("min_cost"), config=two).edges == ("B1#0", "B2#0")


def test_search_none_when_unreachable(toy5g):
    _, _, graph = toy5g
    assert search_chain(graph, ChainObjective("min_cost", target="SL1")) is None
    with pytest.raises(UnknownIdError):
        search_chain(graph, ChainObjective("min_cost", target="NOPE"))


def test_equal_cost_tie_breaks_lexicographically():
    doc = parse_scenario(
        '{"objects": [{"id": "a", "layer": "physical", "category": "os"},'
        ' {"id": "t", "layer": "physical", "category": "os"}],'
        ' "relationships": [{"from": "a", "to": "t", "kind": "connectivity"}],'
        ' "attacks": ['
        '{"id": "p1", "object": "a", "a_results": [{"object": "t", "permission": "read"}]},'
        '{"id": "p2", "object": "a", "a_results": [{"object": "t", "permission": "read"}]}],'
        ' "entry_grants": [{"object": "a", "permission": "read"}], "targets": ["t"]}'
    )
    graph = build_attack_graph(doc, build_base_graph(doc))
    best = search_chain(graph, ChainObjective("min_cost"))
    assert best.edges == ("p1#0",)


def test_threat_aggregation_max_mode(toy5g):
    doc, _, graph = toy5g
    chains = enumerate_chains(graph, targets=doc.targets, config=EngineConfig(threat_agg="max"))
    assert chains[1].edges == ("A1#0", "A2#1", "A5#0")
    assert chains[1].total_threat == 6.0  # max severity, not the sum


def test_chain_from_edges_round_trip(toy5g):
    _, _, graph = toy5g
    chain = chain_from_edges(graph, ("A1#0", "A2#1", "A4#0"))
    assert chain.total_cost == 6.5
    with pytest.raises(ValueError):
        chain_from_edges(graph, ("A2#1",))


def test_enumeration_matches_oracle_small_batch():
    for seed in range(8):
        doc = random_scenario(seed, max_objects=6, max_edges=6)
        graph = build_attack_graph(doc, build_base_graph(doc))
        for semantics in ("accumulated", "strict"):
            for agg in ("sum", "max"):
                cfg = EngineConfig(semantics=semantics, max_len=4, threat_agg=agg)
                got = [(c.edges, c.total_cost, c.total_threat) for c in enumerate_chains(graph, config=cfg)]
                want = [(seq, cost, threat) for seq, cost, threat, _ in oracles.brute_chains(doc, 4, semantics, agg=agg)]
                assert got == want, f"seed {seed} {semantics} {agg}"


def test_oracle_permutations_equal_product():
    # Repeating an edge always repeats its affected object, so the
    # permutation scan covers the full sequence space; verify on one
    # small instance against the with-repetition scan.
    doc = random_scenario(3, max_objects=4, max_edges=4)
    assert oracles.brute_chains(doc, 3) == oracles.brute_chains_product(doc, 3)


def test_grants_monotone_along_chains():
    for seed in range(10):
        doc = random_scenario(seed)
        graph = build_attack_graph(doc, build_base_graph(doc))
        for chain in enumerate_chains(graph, config=EngineConfig(max_len=5)):
            states = is_valid_chain(graph, chain.edges).states
            for a, b in zip(states, states[1:]):
                assert set(a.grants) <= set(b.grants)


def test_potential_chain_single_gap(potential_gap):
    _, _, graph = potential_gap
    found = generate_potential_chains(graph, "PB", "PV", config=EngineConfig(max_len=4))
    assert len(found) == 1
    p = found[0]
    assert p.path == ("PB", "PH", "PV")
    assert p.missing_hops == (("PH", "PV"),)
    assert p.suggestions == (("G9",),)


def test_fully_attackable_path_excluded(potential_gap):
    _, _, graph = potential_gap
    assert generate_potential_chains(graph, "PB", "PH", config=EngineConfig(max_len=4)) == ()


def test_no_base_path_gives_nothing(potential_gap):
    _, _, graph = potential_gap
    # PX sits three hops away (PB-PH-PV-PX), beyond this length bound
    assert generate_potential_chains(graph, "PB", "PX", config=EngineConfig(max_len=2)) == ()
    with pytest.raises(UnknownIdError):
        generate_potential_chains(graph, "PB", "NOPE")
    with pytest.raises(UnknownIdError):
        generate_potential_chains(graph, "NOPE", "PB")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    direction=st.sampled_from(("as drawn", "all directed", "all reversed")),
    long=st.booleans(),
    data=st.data(),
)
def test_potential_chains_match_the_brute_force_referee(seed, direction, long, data):
    # The engine walks base paths depth first and looks covering attacks up
    # through its edge index; the referee tries every order of the
    # intermediate objects and scans the records, for every (from, to)
    # pair, the same object twice included. Directed relationships
    # are drawn as generated, all one way, or all the other way, and a long
    # limit exceeds every simple path (an object count's worth of hops).
    doc = random_scenario(seed, max_objects=7, max_edges=16)
    if direction != "as drawn":
        flip = direction == "all reversed"
        doc = doc._replace(
            relationships=tuple(
                r._replace(from_id=r.to_id, to_id=r.from_id, directed=True) if flip else r._replace(directed=True)
                for r in doc.relationships
            )
        )
    graph = build_attack_graph(doc, build_base_graph(doc))
    ids = [o.id for o in doc.objects]
    max_len = len(ids) if long else data.draw(st.integers(1, 4), label="max_len")
    found = []
    for src in ids:
        for dst in ids:
            got = generate_potential_chains(graph, src, dst, EngineConfig(max_len=max_len))
            assert [(p.path, p.missing_hops, p.suggestions) for p in got] == oracles.brute_potential(doc, src, dst, max_len)
            found += got
    if any(len(p.missing_hops) > 1 for p in found):
        event("a path with two gaps")
    for p in found:
        hops = list(zip(p.path, p.path[1:]))
        if any(hop in p.missing_hops and after not in p.missing_hops for hop, after in zip(hops, hops[1:])):
            event("a gap before a covered hop, whose needs filter the suggestions")
            break


def _bench_skeletons() -> list:
    """(doc, potential (from, to) pair) of each bench workload's fixed skeleton, from bench/gen.py."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, gen)  # dataclasses looks its module up there
    spec.loader.exec_module(gen)
    return [gen.skeleton(shape) for shape in gen.SHAPES.values()]


def test_potential_chains_at_one_more_hop_keep_every_shorter_one():
    # A metamorphic relation where the brute-force referee cannot reach:
    # a potential chain is judged on its own path alone, so raising max_len
    # from k to k + 1 only adds paths of k + 1 hops, and filtering those
    # out gives the result at k again, in the same order. Checked on the
    # bench skeletons (48 to 400 objects) from their potential pair and
    # random pairs, and on genscen scenarios of 30 to 60 objects with some
    # of their relationships dropped, so that paths run long.
    rng = random.Random(29)
    cases = []
    for doc, pair in _bench_skeletons():
        ids = sorted(o.id for o in doc.objects)
        cases.append((doc, [pair, *(tuple(rng.sample(ids, 2)) for _ in range(4))], 5))
    seed = 0
    while len(cases) < 9:
        seed += 1
        doc = random_scenario(seed, max_objects=60, max_edges=200)
        if len(doc.objects) < 30:
            continue
        keep = tuple(r for r in doc.relationships if rng.random() < 0.2)
        doc = doc._replace(relationships=keep)
        ids = [o.id for o in doc.objects]
        cases.append((doc, [tuple(rng.sample(ids, 2)) for _ in range(6)], 6))
    grown = 0  # (pair, k) where k + 1 hops find more than k
    for doc, pairs, top in cases:
        graph = build_attack_graph(doc, build_base_graph(doc))
        for src, dst in pairs:
            longer = generate_potential_chains(graph, src, dst, EngineConfig(max_len=top))
            for k in range(top - 1, 0, -1):
                shorter = generate_potential_chains(graph, src, dst, EngineConfig(max_len=k))
                assert shorter == tuple(p for p in longer if len(p.path) <= k + 1), (src, dst, k)
                grown += len(longer) > len(shorter) > 0
                longer = shorter
    assert grown > 40, grown


def test_potential_suggestion_respects_next_condition(toy5g):
    _, _, graph = toy5g
    # Path CH1 -> UE1 -> APP1: hop CH1->UE1 has no attack edge; the next hop
    # UE1->APP1 is covered by A4/A5 whose conditions need read on UE1.
    found = generate_potential_chains(graph, "CH1", "APP1", config=EngineConfig(max_len=3))
    gap = [p for p in found if p.path == ("CH1", "UE1", "APP1")]
    assert len(gap) == 1
    # A1 attacks the only channel-category object but grants no read on UE1;
    # it still matches the category rule only if its permissions can satisfy
    # A4/A5's needs on UE1; A1 grants read (on BS1), so token-wise it can.
    assert gap[0].missing_hops == (("CH1", "UE1"),)
    assert gap[0].suggestions == (("A1",),)


def test_potential_suggestion_drops_a_record_that_cannot_grant_the_next_need():
    # C1 -> U has no attack; NEXT covers U -> T and needs read on U. DROP
    # and KEEP attack a channel, as C1 is, and only KEEP grants read. Each
    # attack needs read on the object it attacks.
    attacks = [
        {
            "id": aid, "object": obj, "condition": [{"object": obj, "permission": "read"}],
            "a_results": [{"object": to, "permission": perm}],
        }
        for aid, obj, to, perm in (("NEXT", "U", "T", "read"), ("KEEP", "C2", "C2", "read"), ("DROP", "C2", "C2", "disable"))
    ]
    objects = [("C1", "channel"), ("C2", "channel"), ("U", "hardware-device"), ("T", "hardware-device")]
    doc = parse_scenario(
        json.dumps(
            {
                "objects": [{"id": o, "layer": "physical", "category": c} for o, c in objects],
                "relationships": [{"from": a, "to": b, "kind": "connectivity"} for a, b in (("C1", "U"), ("U", "T"))],
                "attacks": attacks,
                "entry_grants": [{"object": "C1", "permission": "read"}],
                "targets": ["T"],
            }
        )
    )
    graph = build_attack_graph(doc, build_base_graph(doc))
    [gap] = generate_potential_chains(graph, "C1", "T", config=EngineConfig(max_len=3))
    assert (gap.path, gap.missing_hops, gap.suggestions) == (("C1", "U", "T"), (("C1", "U"),), (("KEEP",),))
    # With no next hop there is no need to meet, and both records stay.
    [last] = generate_potential_chains(graph, "C1", "U", config=EngineConfig(max_len=3))
    assert (last.path, last.suggestions) == (("C1", "U"), (("DROP", "KEEP"),))


def test_removing_attack_never_adds_chains():
    for seed in range(10):
        doc = random_scenario(seed, max_edges=6)
        graph = build_attack_graph(doc, build_base_graph(doc))
        full = {c.edges for c in enumerate_chains(graph, config=EngineConfig(max_len=4))}
        for drop in doc.attacks:
            smaller = doc._replace(
                attacks=tuple(a for a in doc.attacks if a.id != drop.id),
                defenses=tuple(
                    d._replace(d_results=tuple(x for x in d.d_results if x != drop.id))
                    for d in doc.defenses
                    if tuple(x for x in d.d_results if x != drop.id)
                ),
            )
            g2 = build_attack_graph(smaller, build_base_graph(smaller))
            for c in enumerate_chains(g2, config=EngineConfig(max_len=4)):
                assert c.edges in full


# --- target-bound enumeration: the backward-reachability prune -------------

def through_target_doc():
    # Each attack needs read on its own object and grants read on the next.
    # k1 lands on target T1; k2 goes on to target T2, and k3, k4 reach T2
    # by a detour. k5 leaves T2 for a dead end no chain to a target uses.
    hops = [("k1", "O1", "T1"), ("k2", "T1", "T2"), ("k3", "T1", "O3"), ("k4", "O3", "T2"), ("k5", "T2", "O4")]
    return parse_scenario(
        json.dumps(
            {
                "objects": [{"id": o, "layer": "physical", "category": "os"} for o in ("O1", "O3", "O4", "T1", "T2")],
                "attacks": [
                    {
                        "id": a,
                        "object": f,
                        "condition": [{"object": f, "permission": "read"}],
                        "a_results": [{"object": t, "permission": "read"}],
                    }
                    for a, f, t in hops
                ],
                "entry_grants": [{"object": "O1", "permission": "read"}],
                "targets": ["T1", "T2"],
            }
        )
    )


def test_chains_continue_past_a_target():
    doc = through_target_doc()
    graph = build_attack_graph(doc, build_base_graph(doc))
    for max_len, want in (
        (1, [("k1#0",)]),
        (2, [("k1#0",), ("k1#0", "k2#0")]),
        (3, [("k1#0",), ("k1#0", "k2#0"), ("k1#0", "k3#0", "k4#0")]),
        (5, [("k1#0",), ("k1#0", "k2#0"), ("k1#0", "k3#0", "k4#0")]),
    ):
        got = [c.edges for c in enumerate_chains(graph, targets=doc.targets, config=EngineConfig(max_len=max_len))]
        assert got == want, max_len
        assert got == [seq for seq, *_ in oracles.brute_chains(doc, max_len, targets=doc.targets)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    semantics=st.sampled_from(("accumulated", "strict")),
    agg=st.sampled_from(("sum", "max")),
    max_len=st.integers(1, 5),
    data=st.data(),
)
def test_target_enumeration_matches_oracle_on_game_path(seed, semantics, agg, max_len, data):
    # The reactive defender's call: targets, blocked attacks and the
    # attacker's current grants. The oracle sees the blocked attacks removed.
    doc = random_scenario(seed, max_objects=6, max_edges=8)
    graph = build_attack_graph(doc, build_base_graph(doc))
    objects = [o.id for o in doc.objects]
    affected = sorted({g.object for a in doc.attacks for g in a.a_results})
    targets = data.draw(
        st.lists(st.sampled_from(affected) | st.sampled_from(objects), min_size=1, max_size=2, unique=True),
        label="targets",
    )
    blocked = data.draw(
        st.frozensets(st.sampled_from([a.id for a in doc.attacks]), max_size=len(doc.attacks) // 2), label="blocked"
    )
    # Footholds like the game's: entry grants and effects of fired attacks,
    # now and then a grant nothing produces.
    held = sorted({*doc.entry_grants, *(g for a in doc.attacks for g in a.a_results)})
    grant = st.one_of(st.sampled_from(held), st.builds(Grant, st.sampled_from(objects), st.sampled_from(PERMS)))
    entry = data.draw(st.frozensets(grant, min_size=1, max_size=4), label="entry")
    cfg = EngineConfig(semantics=semantics, max_len=max_len, threat_agg=agg)
    found = enumerate_chains(
        graph, targets=targets, config=cfg, blocked_attacks=blocked, entry_grants=tuple(sorted(entry))
    )
    got = [(c.edges, c.total_cost, c.total_threat, frozenset(c.final_grants)) for c in found]
    open_doc = doc._replace(attacks=tuple(a for a in doc.attacks if a.id not in blocked))
    assert got == oracles.brute_chains(open_doc, max_len, semantics, targets=targets, entry=entry, agg=agg)


def test_prune_expands_only_prefixes_that_can_reach_a_goal(monkeypatch):
    # Every prefix the walk expands looks up the step table of its (end,
    # room), and whether it can still reach a goal depends on that key
    # alone, so checking every table the walk builds covers every expanded
    # prefix: its end must reach a goal within the next step and the room
    # after it. Unrestricted enumeration takes every object as a goal and
    # prunes the same way; counting its expansions that cannot reach a
    # target shows the scenarios do have prefixes worth pruning.
    keys = []
    build = chains_module._step_table

    def spy(edges, end, room, *args):
        keys.append((end, room))
        return build(edges, end, room, *args)

    monkeypatch.setattr(chains_module, "_step_table", spy)
    checked = dead_unrestricted = 0
    for seed in range(60):
        doc = random_scenario(seed, max_objects=7, max_edges=12)
        graph = build_attack_graph(doc, build_base_graph(doc))
        rng = random.Random(seed)
        blocked = frozenset(a.id for a in doc.attacks if rng.random() < 0.3)
        targets = frozenset(doc.targets)
        everything = frozenset(o.id for o in doc.objects)
        for max_len in range(1, 6):
            for semantics in ("accumulated", "strict"):
                cfg = EngineConfig(semantics=semantics, max_len=max_len)
                for given, goal in ((doc.targets, targets), (None, everything)):
                    keys.clear()
                    enumerate_chains(graph, targets=given, config=cfg, blocked_attacks=blocked)
                    for end, room in keys:
                        if end is None:
                            continue
                        steps = oracles.reference_distance(doc, end, goal, blocked)
                        assert steps is not None and steps <= room + 1, (seed, max_len, semantics, given, end, room)
                        checked += 1
                        if given is None:
                            steps = oracles.reference_distance(doc, end, targets, blocked)
                            dead_unrestricted += steps is None or steps > room + 1
    assert checked > 900 and dead_unrestricted > 200, (checked, dead_unrestricted)


class _EmptyDraws:
    """Stands in for st.data() in an @example, which cannot take a strategy.

    Each draw checks its strategy as a real draw would, then gives the empty set.
    """

    def draw(self, strategy, label=None):
        strategy.validate()
        return frozenset()


def _or_bits(bits, ids):
    mask = 0
    for i in ids:
        mask |= bits[i]
    return mask


def _object_bit_map(graph):
    """Object id -> its bit, by its place in base.layers."""
    return {oid: 1 << k for k, oid in enumerate(graph.base.layers)}


def _attack_bit_map(graph):
    """Attack id -> its bit, by its place in doc.attacks."""
    return {a.id: 1 << k for k, a in enumerate(graph.doc.attacks)}


def _grant_bit_map(graph):
    """Grant -> its bit, by its place in Grant order among the entry grants, conditions and results."""
    doc = graph.doc
    named = {*doc.entry_grants, *(g for a in doc.attacks for g in (*a.condition, *a.a_results))}
    return {g: 1 << k for k, g in enumerate(sorted(named))}


def _subset(data, items, max_size, label):
    # sampled_from refuses an empty list, as in a scenario with no attacks.
    strategy = st.frozensets(st.sampled_from(items), max_size=max_size) if items else st.just(frozenset())
    return data.draw(strategy, label=label)


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
# coherent_scenario(704152) has no attacks.
@example(seed=704152, coherent=True, semantics="accumulated", agg="sum", max_len=3, to_goal=True, data=_EmptyDraws())
def test_walk_and_replay_apply_the_same_rules(seed, coherent, semantics, agg, max_len, to_goal, data):
    # The walk applies the chain rules in its own loop, and _replay, which
    # is_valid_chain and chain_from_edges check a chain with, applies them
    # again one edge at a time. Every prefix the walk yields must replay
    # with its cost, threat, final grants, fired attacks and signature.
    # The walk's grants are a mask and its pair a bit, decoded through the
    # graph. The entry may hold grants no attack names, which have no bit
    # unless the scenario's own entry grants hold them: the packaged chain
    # and the referee's replay still hold them.
    doc = coherent_scenario(seed) if coherent else random_scenario(seed, max_objects=6, max_edges=14)
    ids = [a.id for a in doc.attacks]
    entry_only = _subset(data, ids, len(ids) // 3, "entry_only")
    doc = doc._replace(attacks=tuple(a._replace(entry_only=a.entry_only or a.id in entry_only) for a in doc.attacks))
    graph = build_attack_graph(doc, build_base_graph(doc))
    blocked = _subset(data, ids, len(ids) // 3, "blocked")
    # A foothold like the reactive defender's: the entry grants plus some
    # effects of attacks fired earlier.
    effects = sorted({g for a in doc.attacks for g in a.a_results})
    named = {g for a in doc.attacks for g in (*a.condition, *a.a_results)}
    unnamed = [g for o in doc.objects for p in (*PERMS, "audit") if (g := Grant(o.id, p)) not in named]
    entry = frozenset(doc.entry_grants) | _subset(data, effects, 2, "won") | _subset(data, unnamed, 2, "unnamed")
    stray = entry - set(graph.grant_bits)  # the entry grants that have no bit
    cfg = EngineConfig(semantics=semantics, max_len=max_len, threat_agg=agg)
    # Unrestricted enumeration walks to every object.
    goal = frozenset(doc.targets) if to_goal else frozenset(o.id for o in doc.objects)
    walked = list(chains_module._walk(graph, chains_module._foothold(graph, entry)[0], goal, cfg, blocked))
    by_id = oracles.oracle_edges(doc)
    for edges, grants, fired, affected, end, pair, cost, threat, sig in walked:
        held = frozenset(graph.grants_of(grants)) | stray
        chain = chain_from_edges(graph, edges, cfg, entry)
        assert (chain.total_cost, chain.total_threat, chain.final_grants) == (cost, threat, tuple(sorted(held)))
        fired_ids = is_valid_chain(graph, edges, cfg, entry).states[-1].fired
        assert oracles.replay(doc, by_id, edges, semantics, entry) == (held, fired_ids)
        assert fired == _or_bits(_attack_bit_map(graph), fired_ids)
        assert not set(fired_ids) & blocked
        last = graph.edge(edges[-1])
        assert (end, graph.grants_of(pair)) == (last.to_id, (Grant(last.to_id, last.permission),))
        assert affected == _or_bits(_object_bit_map(graph), [graph.edge(e).to_id for e in edges])
        assert affected.bit_count() == len(edges)
        assert sig == oracles.chain_signature(doc, edges)
        assert end in goal
    assert len({p[0] for p in walked}) == len(walked)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    coherent=st.booleans(),
    semantics=st.sampled_from(("accumulated", "strict")),
    agg=st.sampled_from(("sum", "max")),
    max_len=st.integers(1, 4),
    data=st.data(),
)
def test_both_searches_find_the_brute_force_winner(seed, coherent, semantics, agg, max_len, data):
    # Under each objective, search_chain's winner (edges, cost and threat)
    # must be the one the brute-force oracle picks out of every valid
    # chain, tie-break included. The search sees entry-only and blocked
    # attacks, and an entry that may hold grants no attack names; the
    # oracle's doc has the blocked attacks removed. Min-cost search must
    # also pop prefixes in (cost, length, edge ids) order, and only those
    # that come before its winner: its frontier stops once no prefix left
    # can beat the cheapest chain found. In scenarios this small a search
    # that pops in another order still finds the winner nearly always, so
    # test_min_cost_search_pops_cheapest_first has a scenario where it
    # does not.
    doc = coherent_scenario(seed, max_objects=6) if coherent else random_scenario(seed, max_objects=6, max_edges=8)
    ids = [a.id for a in doc.attacks]
    entry_only = _subset(data, ids, len(ids) // 3, "entry_only")
    doc = doc._replace(attacks=tuple(a._replace(entry_only=a.entry_only or a.id in entry_only) for a in doc.attacks))
    graph = build_attack_graph(doc, build_base_graph(doc))
    blocked = _subset(data, ids, len(ids) // 2, "blocked")
    effects = sorted({g for a in doc.attacks for g in a.a_results})
    named = {g for a in doc.attacks for g in (*a.condition, *a.a_results)}
    unnamed = [g for o in doc.objects for p in (*PERMS, "audit") if (g := Grant(o.id, p)) not in named]
    entry = frozenset(doc.entry_grants) | _subset(data, effects, 2, "won") | _subset(data, unnamed, 2, "unnamed")
    target = data.draw(st.none() | st.sampled_from([o.id for o in doc.objects]), label="target")
    targets = doc.targets if target is None else (target,)
    cfg = EngineConfig(semantics=semantics, max_len=max_len, threat_agg=agg)
    open_doc = doc._replace(attacks=tuple(a for a in doc.attacks if a.id not in blocked))
    popped = []
    pop = chains_module._Cheapest.pop

    def spy(frontier):
        prefix = pop(frontier)
        popped.append((prefix[6], len(prefix[0]), prefix[0]))
        return prefix

    for kind, brute in (("min_cost", oracles.brute_min_cost), ("max_threat", oracles.brute_max_threat)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chains_module._Cheapest, "pop", spy)
            found = search_chain(graph, ChainObjective(kind, target), cfg, blocked, entry)
        want = brute(open_doc, max_len, semantics, targets, entry, agg)
        assert (found and (found.edges, found.total_cost, found.total_threat)) == want, kind
        if kind == "min_cost" and want:
            assert popped == sorted(popped) and popped[-1] < (want[1], len(want[0]), want[0])
            event("a chain to the target")


def toll_doc():
    """o0 reaches target t in one edge at cost 2, or through o1 at 3.5 or o2 at 1.0.

    The costly first steps a#0 and b#0 come before the cheap c#0 in edge
    id order, so only a search that pops cheapest first and bounds by the
    cheapest chain found gets to c#0, e#0 and stops before b#0.
    """
    hops = (("a", "o0", "t", 2), ("b", "o0", "o1", 3), ("c", "o0", "o2", 0.5))
    hops += (("d", "o1", "t", 0.5), ("e", "o2", "t", 0.5))
    return parse_scenario(
        json.dumps(
            {
                "objects": [{"id": o, "layer": "physical", "category": "os"} for o in ("o0", "o1", "o2", "t")],
                "relationships": [{"from": f, "to": t, "kind": "connectivity"} for _, f, t, _ in hops],
                "attacks": [
                    {
                        "id": aid,
                        "object": f,
                        "condition": [{"object": f, "permission": "read"}],
                        "a_results": [{"object": t, "permission": "read"}],
                        "cost": cost,
                    }
                    for aid, f, t, cost in hops
                ],
                "entry_grants": [{"object": "o0", "permission": "read"}],
                "targets": ["t"],
            }
        )
    )


@pytest.mark.parametrize("semantics", ["accumulated", "strict"])
def test_min_cost_search_pops_cheapest_first(monkeypatch, semantics):
    # A search that pops in push order stops at a#0, the first goal it
    # yields, since b#0 then tops its frontier and cannot beat it; one that
    # ignores the bound pops b#0 as well.
    doc = toll_doc()
    graph = build_attack_graph(doc, build_base_graph(doc))
    popped = []
    pop = chains_module._Cheapest.pop

    def spy(frontier):
        prefix = pop(frontier)
        popped.append(prefix[0])
        return prefix

    monkeypatch.setattr(chains_module._Cheapest, "pop", spy)
    cfg = EngineConfig(semantics=semantics)
    best = search_chain(graph, ChainObjective("min_cost"), cfg)
    assert (best.edges, best.total_cost, best.total_threat) == oracles.brute_min_cost(doc, 8, semantics, doc.targets)
    assert best.edges == ("c#0", "e#0")
    assert popped == [(), ("c#0",)]


def _canonical_key(item):
    return (len(item[0]), item[0])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.none() | st.integers(0, 10**6),
    coherent=st.booleans(),
    semantics=st.sampled_from(("accumulated", "strict")),
    max_len=st.integers(1, 6),
    to_goal=st.booleans(),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_canonical_order_sorts_by_length_then_edge_ids(seed, coherent, semantics, max_len, to_goal, rng, data):
    # _canonical groups items by edge count and sorts each group in natural
    # tuple order, with no key. That is the (length, edge ids) order only
    # because edge ids come first and no two items share them: checked on
    # shuffled chains and planner rows of toy5g (seed None) and genscen
    # scenarios, and on the defender's merge of the rows it keeps, in
    # canonical order, with the rows a via walk adds, in walk order.
    if seed is None:
        doc = parse_scenario((Path(__file__).parent / "fixtures" / "toy5g.scenario").read_text(encoding="utf-8"))
    else:
        doc = coherent_scenario(seed) if coherent else random_scenario(seed, max_objects=6, max_edges=14)
    graph = build_attack_graph(doc, build_base_graph(doc))
    cfg = EngineConfig(semantics=semantics, max_len=max_len)
    goal = frozenset(doc.targets) if to_goal else frozenset(o.id for o in doc.objects)
    found = list(enumerate_chains(graph, sorted(goal), cfg))
    assert found == sorted(found, key=_canonical_key)
    entry = chains_module._foothold(graph, doc.entry_grants)[0]
    rows = _target_rows(graph, entry, goal, frozenset(), cfg)
    assert [row[0] for row in rows] == [c.edges for c in found]
    needed = sorted(set(graph.needed_by) - set(doc.entry_grants))
    won = chains_module._foothold(graph, _subset(data, needed, 3, "won"))[0]
    applied = graph.defense_mask(_subset(data, [d.id for d in graph.sorted_defenses], 2, "applied"))
    blocked = neutralized_attacks(graph, [d.id for d in graph.sorted_defenses if graph.defense_bits[d.id] & applied])
    kept = [row for row in rows if not row[1] & applied]
    added = [(p[0], p[8], p[7]) for p in chains_module._walk(graph, entry | won, goal, cfg, blocked, won)] if won else []
    for items in (found, rows, kept + added):
        shuffled = list(items)
        rng.shuffle(shuffled)
        for case in (items, shuffled):
            assert chains_module._canonical(case) == sorted(case, key=_canonical_key)
    if len({len(c.edges) for c in found}) > 1:
        event("chains of several lengths")
    if kept and added:
        event("kept and added rows")
    if seed is None:
        event("toy5g")


@pytest.mark.parametrize("semantics", ["accumulated", "strict"])
def test_an_entry_grant_no_attack_names_stays_held(toy5g, semantics):
    # An entry grant that no attack names has no bit, so the walk's grant
    # masks leave it out, yet the attacker holds it all along: every state
    # is_valid_chain lists and the final grants of every chain, whether
    # enumerated, replayed by chain_from_edges or found by either search
    # objective, must hold it, as the referee's replay by definition does.
    doc, _, graph = toy5g
    stray = {Grant("APP1", "execute"), Grant("UE1", "write")}
    assert not stray & set(graph.grant_bits)
    entry = frozenset(doc.entry_grants) | stray
    cfg = EngineConfig(semantics=semantics)
    by_id = oracles.oracle_edges(doc)
    found = enumerate_chains(graph, targets=doc.targets, config=cfg, entry_grants=entry)
    assert found
    for chain in found:
        assert chain.final_grants == tuple(sorted(oracles.replay(doc, by_id, chain.edges, semantics, entry)[0]))
        assert chain_from_edges(graph, chain.edges, cfg, entry) == chain
        states = is_valid_chain(graph, chain.edges, cfg, entry).states
        assert len(states) == len(chain.edges) + 1
        for k, state in enumerate(states):
            want = oracles.replay(doc, by_id, chain.edges[:k], semantics, entry)[0]
            assert state.grants == tuple(sorted(want))
    for kind in ("min_cost", "max_threat"):
        best = search_chain(graph, ChainObjective(kind), cfg, entry_grants=entry)
        assert best in found and stray <= set(best.final_grants)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    coherent=st.booleans(),
    to_goal=st.booleans(),
    limit=st.sampled_from((1, 2, 3, 4, 5, 6, 10**6)),
    data=st.data(),
)
def test_backward_search_gives_the_reference_distances(seed, coherent, to_goal, limit, data):
    # A via walk runs the backward search twice: from the goals, uncapped,
    # and from the via edges, capped at the room after the first step. Both
    # must give every object the fewest edges a forward search by
    # definition takes to a goal, through a via step for the second, and
    # no entry for an object that needs more than the cap or cannot get
    # there at all. A limit of 10**6 leaves the cap far beyond the graph.
    doc = coherent_scenario(seed) if coherent else random_scenario(seed, max_objects=7, max_edges=16)
    graph = build_attack_graph(doc, build_base_graph(doc))
    goal = frozenset(doc.targets) if to_goal else frozenset(o.id for o in doc.objects)
    blocked = _subset(data, [a.id for a in doc.attacks], len(doc.attacks) // 2, "blocked")
    won = _subset(data, sorted(graph.needed_by), 3, "won")
    searches = []
    search = chains_module._distance

    def spy(graph, blocked, frontier, joins, cap):
        found = search(graph, blocked, frontier, joins, cap)
        searches.append((cap, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains_module, "_distance", spy)
        entry = frozenset(doc.entry_grants) | won
        mask = chains_module._foothold(graph, entry)[0]
        via = chains_module._foothold(graph, won)[0]
        list(chains_module._walk(graph, mask, goal, EngineConfig(max_len=limit + 1), blocked, via))
    # A via mask of 0 is a full walk, which runs no via search: nothing
    # was won, and the reference via distances are then empty too.
    (uncapped, dist), (cap, ahead) = searches if via else (*searches, (limit, {}))
    assert (uncapped, cap) == (None, limit)
    assert dist == oracles.reference_distances(doc, goal, blocked)
    assert ahead == oracles.reference_distances(doc, goal, blocked, won, limit)
    if ahead and len(ahead) < len(dist):
        event("via search reaches fewer objects")


def test_walk_tables_hold_plain_tuples(monkeypatch):
    # The walk unpacks every table entry in its inner loop, and CPython
    # unpacks an exact tuple several times faster than a named tuple, so
    # no table, full or pending, may hold an AttackEdge or any other tuple
    # subclass. Via walks build both kinds.
    built = {"_step_table": [], "_pending_table": []}
    for name, tables in built.items():

        def spy(*args, build=getattr(chains_module, name), tables=tables):
            table = build(*args)
            tables.append(table)
            return table

        monkeypatch.setattr(chains_module, name, spy)
    for seed in range(40):
        doc = random_scenario(seed, max_objects=7, max_edges=14)
        graph = build_attack_graph(doc, build_base_graph(doc))
        entry = chains_module._foothold(graph, doc.entry_grants)[0]
        won = chains_module._foothold(graph, sorted(graph.needed_by)[::2])[0] & ~entry
        for goal in (frozenset(doc.targets), frozenset(o.id for o in doc.objects)):
            for semantics in ("accumulated", "strict"):
                cfg = EngineConfig(semantics=semantics, max_len=4)
                list(chains_module._walk(graph, entry, goal, cfg, frozenset()))
                list(chains_module._walk(graph, entry | won, goal, cfg, frozenset(), via=won))
    for name, tables in built.items():
        entries = [entry for table in tables for entry in table]
        assert len(entries) > 200, name
        assert {type(entry) for entry in entries} == {tuple}, name
