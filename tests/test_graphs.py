
import json

import pytest

import stratagraph.scenario
from stratagraph import (
    AttackEdge,
    EngineConfig,
    InvalidScenarioError,
    build_attack_graph,
    build_base_graph,
    enumerate_chains,
    graphs_to_dot,
    load_scenario,
    parse_scenario,
    validate_scenario,
)
from stratagraph import canon
from stratagraph.graphs import graphs_to_dict
from stratagraph.model import Grant

import oracles
from genscen import random_scenario


def test_toy5g_edge_partition(toy5g):
    _, base, _ = toy5g
    assert len(base.intra_edges) == 3
    assert len(base.vertical_edges) == 2
    for e in base.vertical_edges:
        assert base.layers[e.from_id] != base.layers[e.to_id]
    for e in base.intra_edges:
        assert base.layers[e.from_id] == base.layers[e.to_id]


def test_no_relationships_gives_isolated_nodes():
    doc = parse_scenario('{"objects": [{"id": "a", "layer": "physical", "category": "os"},'
                         ' {"id": "b", "layer": "virtual", "category": "os"}]}')
    base = build_base_graph(doc)
    assert sorted(base.layers) == ["a", "b"]
    assert base.intra_edges == () and base.vertical_edges == ()
    assert base.adjacency == {}


def test_single_object_graph():
    doc = parse_scenario('{"objects": [{"id": "solo", "layer": "service", "category": "protocol"}]}')
    base = build_base_graph(doc)
    graph = build_attack_graph(doc, base)
    assert sorted(base.layers) == ["solo"]
    assert graph.edges == ()


def test_worked_example_two_edges(multiedge):
    _, _, graph = multiedge
    got = [(e.edge_id, e.from_id, e.to_id, e.permission) for e in graph.edges]
    assert got == [("A1#0", "O1", "O2", "read"), ("A1#1", "O1", "O3", "execute")]


def test_edge_count_matches_a_results(toy5g):
    doc, _, graph = toy5g
    assert len(graph.edges) == 7
    assert len(graph.edges) == sum(len(a.a_results) for a in doc.attacks)


def test_edge_count_property_random():
    for seed in range(30):
        doc = random_scenario(seed)
        graph = build_attack_graph(doc, build_base_graph(doc))
        assert len(graph.edges) == sum(len(a.a_results) for a in doc.attacks)
        for e in graph.edges:
            record = graph.attacks[e.attack_id]
            assert e.from_id == record.object
            assert any(g.object == e.to_id and g.permission == e.permission for g in record.a_results)


def test_edge_attrs_copied_from_record(toy5g):
    _, _, graph = toy5g
    e = graph.by_id["A5#0"]
    assert (e.cost, e.severity, e.detect_prob) == (4.0, 6.0, 1.0)


def test_neighbors_ordering(multiedge, toy5g):
    _, _, megraph = multiedge
    assert [e.edge_id for e in megraph.by_from["O1"]] == ["A1#0", "A1#1"]
    assert "O2" not in megraph.by_from
    _, _, graph = toy5g
    assert [e.edge_id for e in graph.by_from["UE1"]] == ["A4#0", "A5#0"]


def test_builds_are_deterministic(toy5g, fixtures_dir):
    _, _, graph = toy5g
    from stratagraph import load_scenario

    doc2 = load_scenario(fixtures_dir / "toy5g.scenario")
    base2 = build_base_graph(doc2)
    graph2 = build_attack_graph(doc2, base2)
    assert canon.dumps(graphs_to_dict(graph)) == canon.dumps(graphs_to_dict(graph2))
    assert graphs_to_dot(graph) == graphs_to_dot(graph2)


def test_no_edge_survives_record_removal(toy5g):
    doc, _, graph = toy5g
    smaller = doc._replace(
        attacks=tuple(a for a in doc.attacks if a.id != "A2"),
        defenses=tuple(d for d in doc.defenses if "A2" not in d.d_results),
    )
    graph2 = build_attack_graph(smaller, build_base_graph(smaller))
    gone = {e.edge_id for e in graph.edges} - {e.edge_id for e in graph2.edges}
    assert gone == {"A2#0", "A2#1"}


def test_attack_graph_independent_of_relationships(toy5g):
    doc, base, graph = toy5g
    stripped = doc._replace(relationships=())
    base2 = build_base_graph(stripped)
    graph2 = build_attack_graph(stripped, base2)
    assert (base2.intra_edges, base2.vertical_edges) != (base.intra_edges, base.vertical_edges)
    assert [e.as_dict() for e in graph2.edges] == [e.as_dict() for e in graph.edges]


def test_dot_renders_layer_clusters(toy5g):
    _, _, graph = toy5g
    dot = graphs_to_dot(graph)
    assert dot.startswith("digraph scenario {")
    for layer in ("physical", "virtual", "service", "application"):
        assert f"subgraph cluster_{layer}" in dot
    assert '"CH1" -> "BS1"' in dot
    assert "A1#0 read" in dot


def test_adjacency_matches_relationship_scan(fixtures_dir):
    docs = [load_scenario(path) for path in sorted(fixtures_dir.glob("*.scenario"))]
    docs += [random_scenario(seed) for seed in range(60)]
    for doc in docs:
        base = build_base_graph(doc)
        for a in base.layers:
            expected = sorted(
                {e.to_id for e in doc.relationships if e.from_id == a}
                | {e.from_id for e in doc.relationships if not e.directed and e.to_id == a}
            )
            assert list(base.adjacency.get(a, ())) == expected
            for b in base.layers:
                touches = any(
                    (e.from_id, e.to_id) == (a, b) or (not e.directed and (e.from_id, e.to_id) == (b, a))
                    for e in doc.relationships
                )
                assert (b in base.adjacency.get(a, ())) == touches


def test_builders_reject_invalid_doc(toy5g):
    doc, base, _ = toy5g
    invalid = doc._replace(targets=("GHOST",))
    with pytest.raises(InvalidScenarioError):
        build_base_graph(invalid)
    # An invalid doc gets no base graph, so it can only reach the attack
    # graph builder on another doc's base, which is refused.
    with pytest.raises(ValueError, match="another scenario document"):
        build_attack_graph(invalid, base)


def test_attack_graph_revalidates_only_other_docs(toy5g, monkeypatch):
    doc, _, _ = toy5g
    calls = []
    real = stratagraph.scenario.validate_scenario

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(stratagraph.scenario, "validate_scenario", counting)
    base = build_base_graph(doc)
    build_attack_graph(doc, base)
    assert calls == [doc]
    twin = doc._replace()
    with pytest.raises(ValueError, match="another scenario document"):
        build_attack_graph(twin, base)
    assert calls == [doc]


def test_library_flow_validates_once(fixtures_dir, monkeypatch):
    # validate_scenario, then build_base_graph and build_attack_graph, as the
    # README's library flow runs them: the parsed doc keeps its report, so
    # the per-record checks run once and each distinct permission token is
    # checked once. An equal twin from _replace() keeps no report: it is
    # checked on every call.
    checked, tokens = [], []
    violations, problems = stratagraph.scenario._violations, stratagraph.scenario.permission_problems
    monkeypatch.setattr(stratagraph.scenario, "_violations", lambda d: checked.append(d) or violations(d))
    monkeypatch.setattr(stratagraph.scenario, "permission_problems", lambda t: tokens.append(t) or problems(t))
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    data["frobnicate"] = 1  # a warning, so the report is a tuple of its own
    doc = parse_scenario(json.dumps(data))
    report = validate_scenario(doc)
    assert [v.message for v in report] == ["unknown key 'frobnicate' ignored"]
    build_attack_graph(doc, build_base_graph(doc))
    assert validate_scenario(doc) is validate_scenario(doc) is report
    assert checked == [doc]
    grants = [*doc.entry_grants, *(g for a in doc.attacks for g in (*a.condition, *a.a_results))]
    assert len(grants) > len({g.permission for g in grants})
    assert sorted(tokens) == sorted({g.permission for g in grants})
    twin = doc._replace()
    twin_report = validate_scenario(twin)
    assert twin_report == report and twin_report is not report
    assert len(checked) == 2 and checked[1] is twin
    build_base_graph(twin)
    assert len(checked) == 3 and checked[2] is twin


def test_a_doc_with_a_list_field_is_checked_on_every_call(fixtures_dir):
    # A doc built by hand may hold a list, which can change after it was
    # validated: such a doc keeps no report, so a later call sees the change
    # and build_base_graph refuses what the list now names.
    doc = load_scenario(fixtures_dir / "toy5g.scenario")._replace(targets=["APP1"])
    assert validate_scenario(doc) == ()
    doc.targets.append("GHOST")
    assert [v.message for v in validate_scenario(doc)] == ["target 'GHOST' does not exist"]
    with pytest.raises(InvalidScenarioError):
        build_base_graph(doc)


def test_a_doc_with_a_list_in_a_record_is_checked_on_every_call(fixtures_dir):
    # Only a parsed doc keeps its report. A doc whose eight fields are
    # tuples may still hold a list inside a record: a later append to it
    # must fail validation, not the attack graph's build.
    doc = load_scenario(fixtures_dir / "toy5g.scenario")
    first = doc.attacks[0]._replace(a_results=list(doc.attacks[0].a_results))
    doc = doc._replace(attacks=(first, *doc.attacks[1:]))
    assert validate_scenario(doc) == ()
    first.a_results.append(Grant("GHOST", "read"))
    assert [v.message for v in validate_scenario(doc)] == ["a_result object 'GHOST' does not exist"]
    with pytest.raises(InvalidScenarioError):
        build_base_graph(doc)


def test_attack_graph_needs_the_doc_of_its_base(toy5g, minichain):
    doc, base, graph = toy5g
    assert graph.doc is doc and graph.base.doc is doc
    with pytest.raises(AttributeError):
        graph.doc = minichain[0]
    # Another scenario, or an equal copy of this one, is not the doc the base
    # graph validated, so the pair is refused rather than mixed.
    for other in (minichain[0], doc._replace()):
        with pytest.raises(ValueError, match="^the base graph was built from another scenario document$"):
            build_attack_graph(other, base)


def test_attack_defense_index_matches_d_results(toy5g, hitting_trio):
    # The per-attack defense masks must name exactly the defenses whose
    # d_results list the attack, over the id-sorted defenses.
    bundles = [toy5g[::2], hitting_trio[::2]]
    for seed in range(100):
        doc = random_scenario(seed)
        doc = doc._replace(defenses=doc.defenses[::-1])  # doc order is not id order
        bundles.append((doc, build_attack_graph(doc, build_base_graph(doc))))
    for doc, graph in bundles:
        assert [d.id for d in graph.sorted_defenses] == sorted(d.id for d in doc.defenses)
        for a in doc.attacks:
            names = {d.id for d in doc.defenses if a.id in d.d_results}
            assert graph.attack_defenses[a.id] == graph.defense_mask(names)
            bits = graph.attack_defenses[a.id]
            assert {d.id for k, d in enumerate(graph.sorted_defenses) if bits >> k & 1} == names
        assert set(graph.attack_defenses) == {a.id for a in doc.attacks}
        # Each edge carries its attack's mask, and a chain's signature is
        # their OR.
        assert all(e.defense_mask == graph.attack_defenses[e.attack_id] for e in graph.edges)
        for c in enumerate_chains(graph, config=EngineConfig(max_len=3)) if doc.entry_grants else ():
            expected = graph.defense_mask(
                {d.id for d in doc.defenses for eid in c.edges if graph.by_id[eid].attack_id in d.d_results}
            )
            assert oracles.chain_signature(doc, c.edges) == expected


def test_step_records_compile_every_edge(toy5g, strictmode):
    # The chain walk reads an attack edge in place of its attack record,
    # the defense index and the bits of its masks, so each edge must hold
    # those fields, in the order the walk unpacks them, and the graph must
    # list and group the edges the way the walk's step tables take them.
    # needed_by lists, for each grant, the attacks whose condition holds
    # it, in id order: the via walk reads their edges through by_attack.
    assert AttackEdge._fields == (
        "edge_id", "attack_id", "from_id", "to_id", "permission", "cost", "severity", "detect_prob",
        "need_mask", "result_mask", "defense_mask", "entry_only", "grant_bit", "to_bit", "attack_bit",
    )
    graphs = [toy5g[2], strictmode[2]]
    for seed in range(50):
        doc = random_scenario(seed)
        graphs.append(build_attack_graph(doc, build_base_graph(doc)))
    for graph in graphs:
        ids = [f"{a.id}#{i}" for a in graph.doc.attacks for i in range(len(a.a_results))]
        assert [e.edge_id for e in graph.edges] == sorted(ids)
        objects = list(graph.base.layers)
        attacks = [a.id for a in graph.doc.attacks]
        bits = graph.grant_bits

        def mask(grants):
            return sum({bits[g] for g in grants})

        for e in graph.edges:
            a = graph.attacks[e.attack_id]
            i = int(e.edge_id.rpartition("#")[2])
            assert e == (
                f"{a.id}#{i}",
                a.id,
                a.object,
                a.a_results[i].object,
                a.a_results[i].permission,
                a.cost,
                a.severity,
                a.detect_prob,
                mask(a.condition),
                mask(a.a_results),
                graph.attack_defenses[a.id],
                a.entry_only,
                bits[Grant(e.to_id, e.permission)],
                1 << objects.index(e.to_id),
                1 << attacks.index(a.id),
            )
            assert graph.by_id[e.edge_id] is e
        assert graph.by_from == {
            obj: tuple(e for e in graph.edges if e.from_id == obj) for obj in {e.from_id for e in graph.edges}
        }
        assert graph.by_attack == {
            aid: tuple(e for e in graph.edges if e.attack_id == aid) for aid in {e.attack_id for e in graph.edges}
        }
        needs = {g for a in graph.doc.attacks for g in a.condition}
        assert graph.needed_by == {
            g: tuple(sorted(a.id for a in graph.doc.attacks if g in a.condition)) for g in needs
        }
