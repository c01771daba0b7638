import json
import math
from pathlib import Path

import pytest

from stratagraph import scenario
from stratagraph import (
    Grant,
    ParseError,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)

import faults
import oracles
from genscen import random_scenario


def test_load_toy5g_counts(toy5g):
    doc, _, _ = toy5g
    assert len(doc.objects) == 6
    assert {o.layer for o in doc.objects} == {"physical", "virtual", "service", "application"}
    assert len(doc.attacks) == 5
    assert len(doc.defenses) == 4
    assert doc.targets == ("APP1",)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.scenario"
    path.write_text("")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "nope.scenario")


def test_parse_error_carries_record_context():
    with pytest.raises(ParseError, match=r"attacks\[0\].cost"):
        parse_scenario(
            '{"objects": [{"id": "x", "layer": "physical", "category": "os"}],'
            ' "attacks": [{"id": "a", "object": "x", "a_results": [], "cost": "free"}]}'
        )


def test_duplicate_id_parses_then_fails_validation():
    doc = parse_scenario(
        '{"objects": [{"id": "x", "layer": "physical", "category": "os"},'
        ' {"id": "x", "layer": "virtual", "category": "os"}]}'
    )
    report = validate_scenario(doc)
    assert any("duplicate object id" in v.message for v in report)


def test_toy5g_validates_clean(toy5g):
    doc, _, _ = toy5g
    assert validate_scenario(doc) == ()


@pytest.mark.parametrize("rule", sorted(faults.VALIDATION_RULES))
def test_each_validation_rule_gives_its_exact_violation(toy5g, rule):
    # One fault in the otherwise clean toy5g doc gives exactly its own
    # violation: severity, record class, record id and message.
    doc, _, _ = toy5g
    mutate, expected = faults.VALIDATION_RULES[rule]
    assert validate_scenario(mutate(doc)) == (expected,)


def test_each_bad_token_occurrence_reports_its_own_violation(toy5g):
    # Two attacks and the entry grants share the same malformed tokens. Each
    # distinct token is checked once, and every occurrence still reports its
    # own violation; the duplicated entry grant reports twice.
    doc, _, _ = toy5g
    doc = faults.repeated_bad_tokens(doc)
    empty, case, space = "permission is empty", "permission 'Read' is not lowercase", "permission 'ro ot' contains whitespace"
    assert [v[1:] for v in validate_scenario(doc)] == [
        ("attack", "A3", f"a_result on 'HV1': {case}"),
        ("attack", "A3", f"condition on 'HV1': {space}"),
        ("attack", "A3", f"condition on 'HV1': {empty}"),
        ("attack", "A4", f"a_result on 'APP1': {space}"),
        ("attack", "A4", f"a_result on 'APP1': {empty}"),
        ("attack", "A4", f"condition on 'UE1': {case}"),
        ("scenario", "entry_grants", f"entry grant on 'CH1': {case}"),
        ("scenario", "entry_grants", f"entry grant on 'CH1': {case}"),
        ("scenario", "entry_grants", f"entry grant on 'CH1': {space}"),
        ("scenario", "entry_grants", f"entry grant on 'CH1': {empty}"),
    ]
    assert {v.severity for v in validate_scenario(doc)} == {"error"}


# (record, field) -> value -> the one message it gives, or None for none.
NUMBER_MESSAGES = {
    ("attacks", "cost"): {
        -1.0: "cost -1.0 is negative", math.nan: "cost nan is not a finite number",
        math.inf: "cost inf is not a finite number", -math.inf: "cost -inf is not a finite number",
        1.0000001: None, -0.0: None,
    },
    ("attacks", "severity"): {
        -1.0: "severity -1.0 is negative", math.nan: "severity nan is not a finite number",
        math.inf: "severity inf is not a finite number", -math.inf: "severity -inf is not a finite number",
        1.0000001: None, -0.0: None,
    },
    ("attacks", "detect_prob"): {
        -1.0: "detect_prob -1.0 outside [0, 1]", math.nan: "detect_prob nan is not a finite number",
        math.inf: "detect_prob inf is not a finite number", -math.inf: "detect_prob -inf is not a finite number",
        1.0000001: "detect_prob 1.0000001 outside [0, 1]", -0.0: None,
    },
    ("defenses", "cost"): {
        -1.0: "cost -1.0 is negative", math.nan: "cost nan is not a finite number",
        math.inf: "cost inf is not a finite number", -math.inf: "cost -inf is not a finite number",
        1.0000001: None, -0.0: None,
    },
}


@pytest.mark.parametrize(
    "section, field, value",
    [(*key, value) for key, messages in NUMBER_MESSAGES.items() for value in messages],
    ids=lambda x: repr(x) if isinstance(x, float) else x,
)
def test_number_checks_keep_their_messages(toy5g, section, field, value):
    doc, _, _ = toy5g
    record_id = getattr(doc, section)[1].id
    message = NUMBER_MESSAGES[section, field][value]
    expected = () if message is None else (("error", section[:-1], record_id, message),)
    assert validate_scenario(faults.edit(doc, section, 1, **{field: value})) == expected


@pytest.mark.parametrize("section, field", list(NUMBER_MESSAGES))
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_an_int_beyond_the_float_range_is_an_error(toy5g, section, field, sign):
    # The parser refuses an int too large for a float, but a doc built by
    # hand can hold one. Validation reports it once, as an error on its
    # record, and neither the number check nor the total check raises
    # OverflowError.
    doc, _, _ = toy5g
    record_id = getattr(doc, section)[1].id
    expected = (("error", section[:-1], record_id, f"{field} is an integer too large for a float"),)
    assert validate_scenario(faults.edit(doc, section, 1, **{field: sign * 10**400})) == expected


def test_dangling_a_result_names_the_object(toy5g):
    doc, _, _ = toy5g
    attacks = list(doc.attacks)
    attacks[0] = attacks[0]._replace(a_results=(Grant("X9", "read"),))
    report = validate_scenario(doc._replace(attacks=tuple(attacks)))
    assert any("X9" in v.message and v.severity == "error" for v in report)


def test_detect_prob_out_of_range(toy5g):
    doc, _, _ = toy5g
    attacks = list(doc.attacks)
    attacks[0] = attacks[0]._replace(detect_prob=1.5)
    report = validate_scenario(doc._replace(attacks=tuple(attacks)))
    assert any("detect_prob" in v.message for v in report)


def test_vertical_edge_kind_enforced(toy5g):
    doc, _, _ = toy5g
    rels = list(doc.relationships)
    rels[3] = rels[3]._replace(kind="connectivity")  # BS1->HV1 spans layers
    report = validate_scenario(doc._replace(relationships=tuple(rels)))
    assert any(v.record_class == "relationship" and "vertical" in v.message for v in report)


def test_unknown_keys_warn_but_stay_valid():
    doc = parse_scenario('{"objects": [], "frobnicate": 1}')
    report = validate_scenario(doc)
    assert [v.severity for v in report] == ["warning"]
    assert "frobnicate" in report[0].message
    nested = parse_scenario('{"objects": [{"id": "x", "layer": "physical", "category": "os", "color": "red"}]}')
    report = validate_scenario(nested)
    assert any("objects[0].color" in v.message and v.severity == "warning" for v in report)


def test_attack_edge_without_relationship_warns():
    doc = parse_scenario(
        '{"objects": [{"id": "x", "layer": "physical", "category": "os"},'
        ' {"id": "y", "layer": "physical", "category": "os"}],'
        ' "attacks": [{"id": "a", "object": "x",'
        ' "a_results": [{"object": "y", "permission": "read"}]}]}'
    )
    report = validate_scenario(doc)
    assert any(v.severity == "warning" and "counterpart" in v.message for v in report)
    # self-loops are exempt
    doc2 = parse_scenario(
        '{"objects": [{"id": "x", "layer": "physical", "category": "os"}],'
        ' "attacks": [{"id": "a", "object": "x",'
        ' "a_results": [{"object": "x", "permission": "read"}]}]}'
    )
    assert validate_scenario(doc2) == ()


def test_counterpart_warnings_match_quadratic_oracle(fixtures_dir):
    # Directed edges both ways between x and w, one directed edge z->y, one
    # undirected x-y; effects run along, against and outside those edges.
    directed = parse_scenario(
        '{"objects": [' + ",".join(
            '{"id": "%s", "layer": "physical", "category": "os"}' % o for o in "wxyz"
        ) + '],'
        ' "relationships": [{"from": "x", "to": "w", "kind": "connectivity", "directed": true},'
        ' {"from": "w", "to": "x", "kind": "connectivity", "directed": true},'
        ' {"from": "z", "to": "y", "kind": "connectivity", "directed": true},'
        ' {"from": "x", "to": "y", "kind": "connectivity"}],'
        ' "attacks": ['
        '{"id": "along", "object": "z", "a_results": [{"object": "y", "permission": "read"}]},'
        '{"id": "against", "object": "y", "a_results": [{"object": "z", "permission": "read"},'
        ' {"object": "x", "permission": "read"}]},'
        '{"id": "both", "object": "w", "a_results": [{"object": "x", "permission": "read"}]},'
        '{"id": "none", "object": "w", "a_results": [{"object": "z", "permission": "read"},'
        ' {"object": "y", "permission": "read"}, {"object": "w", "permission": "read"}]}]}'
    )
    assert oracles.counterpart_warnings(directed) == [
        ("none", "edge w->y has no relationship counterpart in the base graph"),
        ("none", "edge w->z has no relationship counterpart in the base graph"),
    ]
    docs = [directed]
    docs += [load_scenario(path) for path in sorted(fixtures_dir.glob("*.scenario"))]
    docs += [random_scenario(seed) for seed in range(300)]
    warned = 0
    for doc in docs:
        got = sorted(
            (v.record_id, v.message)
            for v in validate_scenario(doc)
            if v.severity == "warning" and v.record_class == "attack"
        )
        assert got == oracles.counterpart_warnings(doc)
        warned += bool(got)
    assert 0 < warned < len(docs)


NON_FINITE_FIELDS = [
    ("attacks", "cost"),
    ("attacks", "severity"),
    ("attacks", "detect_prob"),
    ("defenses", "cost"),
]


@pytest.mark.parametrize("section, key", NON_FINITE_FIELDS)
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_are_errors(fixtures_dir, section, key, literal):
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    data[section][0][key] = float(literal)
    text = json.dumps(data)
    assert literal in text
    report = validate_scenario(parse_scenario(text))
    errors = [v for v in report if v.severity == "error"]
    assert len(errors) == 1
    assert errors[0].record_id == data[section][0]["id"]
    assert errors[0].message.startswith(f"{key} ") and errors[0].message.endswith("is not a finite number")


def test_summed_numbers_reaching_the_total_limit_are_errors(toy5g):
    # The exact sum decides: two halves of the limit reach it, one ulp less
    # does not, and a sum beyond the largest float is caught, not raised.
    from stratagraph.scenario import TOTAL_LIMIT

    doc, _, _ = toy5g
    half = TOTAL_LIMIT / 2
    below = math.nextafter(half, 0.0)

    def errors(attacks=None, defenses=None):
        changed = doc._replace(attacks=attacks or doc.attacks, defenses=defenses or doc.defenses)
        return [(v.record_id, v.message.split(" sum")[0]) for v in validate_scenario(changed) if v.severity == "error"]

    pair = [a._replace(cost=half if i < 2 else 0.0) for i, a in enumerate(doc.attacks)]
    assert errors(attacks=pair) == [("attacks", "attack costs")]
    pair = [a._replace(cost=half if i == 0 else below if i == 1 else 0.0) for i, a in enumerate(doc.attacks)]
    assert errors(attacks=pair) == []
    huge = [a._replace(severity=1.7e308) for a in doc.attacks]
    assert errors(attacks=huge) == [("attacks", "attack severities")]
    assert "more than the largest float" in validate_scenario(doc._replace(attacks=tuple(huge)))[0].message
    dear = [d._replace(cost=TOTAL_LIMIT) for d in doc.defenses]
    assert errors(defenses=dear) == [("defenses", "defense costs")]


def test_category_extensions_allowed():
    doc = parse_scenario(
        '{"objects": [{"id": "x", "layer": "physical", "category": "ric-xapp"}],'
        ' "extensions": ["ric-xapp"]}'
    )
    assert validate_scenario(doc) == ()
    doc2 = parse_scenario('{"objects": [{"id": "x", "layer": "physical", "category": "ric-xapp"}]}')
    assert any("unknown category" in v.message for v in validate_scenario(doc2))


def test_violation_report_ordering_is_deterministic(toy5g):
    doc, _, _ = toy5g
    broken = doc._replace(
        targets=("GHOST",),
        entry_grants=(Grant("GHOST2", "read"),),
    )
    report = validate_scenario(broken)
    assert list(report) == sorted(report, key=lambda v: v.sort_key())
    assert len(report) == 2


@pytest.mark.parametrize("name", ["toy5g", "minichain", "multiedge", "strictmode", "hitting_trio"])
def test_round_trip_identity_fixtures(fixtures_dir, name):
    doc = load_scenario(fixtures_dir / f"{name}.scenario")
    assert parse_scenario(serialize_scenario(doc)) == doc


def test_round_trip_drops_unknown_keys():
    # unknown_keys takes part in equality, and the serializer never writes it.
    doc = parse_scenario('{"objects": [{"id": "x", "layer": "physical", "category": "os"}], "frobnicate": 1}')
    assert doc.unknown_keys == ("frobnicate",)
    again = parse_scenario(serialize_scenario(doc))
    assert again != doc
    assert again == doc._replace(unknown_keys=())


def test_leftover_vulnerability_catalog_is_an_unknown_key(fixtures_dir):
    # A catalog in an old file loads, warns once, and leaves the document and
    # its serialized bytes as they are without it.
    text = (fixtures_dir / "toy5g.scenario").read_text()
    data = json.loads(text)
    data["vulnerabilities"] = [
        {"id": "V1", "affects_category": "virtual-entity", "yields_permission": "execute",
         "exploit_cost": 2.0, "severity": 4.5}
    ]
    doc = parse_scenario(json.dumps(data))
    plain = parse_scenario(text)
    assert doc.unknown_keys == ("vulnerabilities",)
    assert doc == plain._replace(unknown_keys=("vulnerabilities",))
    assert [(v.severity, v.message) for v in validate_scenario(doc)] == [
        ("warning", "unknown key 'vulnerabilities' ignored")
    ]
    assert serialize_scenario(doc) == serialize_scenario(plain)
    assert "vulnerab" not in serialize_scenario(doc)


def test_no_catalog_in_the_model_or_the_public_api():
    import stratagraph
    from stratagraph.config import EngineConfig
    from stratagraph.model import ScenarioDoc

    assert "vulnerabilities" not in ScenarioDoc._fields
    assert len(EngineConfig._fields) == 7 and "derived_detect_prob" not in EngineConfig._fields
    for name in ("VulnerabilityRecord", "derive_attacks"):
        assert name not in stratagraph.__all__
        with pytest.raises(AttributeError):
            getattr(stratagraph, name)
    with pytest.raises(TypeError):
        ScenarioDoc(vulnerabilities=())


def test_round_trip_identity_random():
    for seed in range(25):
        doc = random_scenario(seed)
        again = parse_scenario(serialize_scenario(doc))
        assert again == doc, f"round trip drifted for seed {seed}"


def test_single_field_corruption_is_caught(toy5g):
    doc, _, _ = toy5g
    mutations = [
        doc._replace(objects=doc.objects + (doc.objects[0]._replace(),)),
        doc._replace(objects=(doc.objects[0]._replace(layer="cloud"),) + doc.objects[1:]),
        doc._replace(objects=(doc.objects[0]._replace(category="widget"),) + doc.objects[1:]),
        doc._replace(attacks=(doc.attacks[0]._replace(object="GONE"),) + doc.attacks[1:]),
        doc._replace(attacks=(doc.attacks[0]._replace(a_results=()),) + doc.attacks[1:]),
        doc._replace(attacks=(doc.attacks[0]._replace(cost=-1.0),) + doc.attacks[1:]),
        doc._replace(attacks=(doc.attacks[0]._replace(severity=-0.5),) + doc.attacks[1:]),
        doc._replace(attacks=(doc.attacks[0]._replace(condition=(Grant("GONE", "read"),)),) + doc.attacks[1:]),
        doc._replace(defenses=(doc.defenses[0]._replace(d_results=("NOPE",)),) + doc.defenses[1:]),
        doc._replace(defenses=(doc.defenses[0]._replace(d_results=()),) + doc.defenses[1:]),
        doc._replace(defenses=(doc.defenses[0]._replace(cost=-2.0),) + doc.defenses[1:]),
        doc._replace(entry_grants=(Grant("GONE", "read"),)),
        doc._replace(targets=("GONE",)),
    ]
    for i, mutant in enumerate(mutations):
        errors = [v for v in validate_scenario(mutant) if v.severity == "error"]
        assert errors, f"mutation {i} produced no error"


def test_type_corruption_always_raises_parse_error(fixtures_dir):
    original = json.loads((fixtures_dir / "toy5g.scenario").read_text())

    def paths(node, prefix=()):
        yield prefix
        if isinstance(node, dict):
            for k, v in node.items():
                yield from paths(v, prefix + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from paths(v, prefix + (i,))

    def corrupt(path, value):
        doc = json.loads(json.dumps(original))
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        return json.dumps(doc)

    outcomes = {"ok": 0, "parse_error": 0}
    for path in list(paths(original)):
        if not path:
            continue
        for junk in (17, [1], {"x": 1}, None, True):
            try:
                parse_scenario(corrupt(path, junk))
                outcomes["ok"] += 1
            except ParseError:
                outcomes["parse_error"] += 1
    # Every corruption either still parses (runtime-compatible value, caught
    # by validate_scenario later) or fails with ParseError; anything else
    # would have propagated out of the loop.
    assert outcomes["parse_error"] > 100


def test_permission_aliases_normalize_at_load(multiedge):
    doc, _, _ = multiedge
    perms = [g.permission for g in doc.attacks[0].a_results]
    assert perms == ["read", "execute"]



# --- record shapes -------------------------------------------------------------

_OBJ = {"id": "x", "layer": "physical", "category": "os"}
_REL = {"from": "x", "to": "x", "kind": "link"}
_GRANT = {"object": "x", "permission": "read"}
_ATK = {"id": "a", "object": "x", "a_results": [_GRANT]}
_DEF = {"id": "d", "cost": 1, "d_results": ["a"]}


def _with(record: dict, **changes) -> dict:
    """record with changes applied; a change to None deletes the key."""
    out = {**record, **changes}
    return {k: v for k, v in out.items() if changes.get(k, 0) is not None}


# (scenario data, the exact ParseError text); one pair per fault kind and record.
SHAPE_FAULTS = [
    ([], "expected dict, got list"),
    ({"objects": {}}, "objects: expected list, got dict"),
    ({"objects": ["x"]}, "objects[0]: expected dict, got str"),
    ({"objects": [{}]}, "objects[0]: missing required key 'id'"),
    ({"objects": [_with(_OBJ, layer=None)]}, "objects[0]: missing required key 'layer'"),
    ({"objects": [_with(_OBJ, id=7)]}, "objects[0].id: expected str, got int"),
    ({"objects": [_with(_OBJ, label=[])]}, "objects[0].label: expected str, got list"),
    ({"relationships": 1}, "relationships: expected list, got int"),
    ({"relationships": [{}]}, "relationships[0]: missing required key 'from'"),
    ({"relationships": [_with(_REL, kind=None)]}, "relationships[0]: missing required key 'kind'"),
    ({"relationships": [_with(_REL, to=1.5)]}, "relationships[0].to: expected str, got float"),
    ({"relationships": [_with(_REL, directed="yes")]}, "relationships[0].directed: expected bool, got str"),
    ({"relationships": [_with(_REL, directed=1)]}, "relationships[0].directed: expected bool, got int"),
    ({"attacks": [{}]}, "attacks[0]: missing required key 'id'"),
    ({"attacks": [[]]}, "attacks[0]: expected dict, got list"),
    ({"attacks": [_with(_ATK, a_results=None)]}, "attacks[0]: missing required key 'a_results'"),
    ({"attacks": [_with(_ATK, object=False)]}, "attacks[0].object: expected str, got bool"),
    ({"attacks": [_with(_ATK, method=5)]}, "attacks[0].method: expected str, got int"),
    ({"attacks": [_with(_ATK, condition="x")]}, "attacks[0].condition: expected list, got str"),
    ({"attacks": [_with(_ATK, condition=[1])]}, "attacks[0].condition[0]: expected dict, got int"),
    ({"attacks": [_with(_ATK, condition=[{}])]}, "attacks[0].condition[0]: missing required key 'object'"),
    ({"attacks": [_with(_ATK, a_results={})]}, "attacks[0].a_results: expected list, got dict"),
    (
        {"attacks": [_with(_ATK, a_results=[{"object": "x"}])]},
        "attacks[0].a_results[0]: missing required key 'permission'",
    ),
    (
        {"attacks": [_with(_ATK, a_results=[_with(_GRANT, object=1)])]},
        "attacks[0].a_results[0].object: expected str, got int",
    ),
    (
        {"attacks": [_with(_ATK, a_results=[_with(_GRANT, z=1, b=2)])]},
        "attacks[0].a_results[0]: unexpected keys ['b', 'z']",
    ),
    ({"attacks": [_with(_ATK, cost=True)]}, "attacks[0].cost: expected number, got bool"),
    ({"attacks": [_with(_ATK, cost="free")]}, "attacks[0].cost: expected number, got str"),
    ({"attacks": [_with(_ATK, severity=2**2000)]}, "attacks[0].severity: integer too large for a float"),
    ({"attacks": [_with(_ATK, detect_prob=[0.5])]}, "attacks[0].detect_prob: expected number, got list"),
    ({"attacks": [_with(_ATK, entry_only=0)]}, "attacks[0].entry_only: expected bool, got int"),
    ({"defenses": "d"}, "defenses: expected list, got str"),
    ({"defenses": [{}]}, "defenses[0]: missing required key 'd_results'"),
    ({"defenses": [_with(_DEF, id=None)]}, "defenses[0]: missing required key 'id'"),
    ({"defenses": [_with(_DEF, cost=None)]}, "defenses[0]: missing required key 'cost'"),
    ({"defenses": [_with(_DEF, cost=False)]}, "defenses[0].cost: expected number, got bool"),
    ({"defenses": [_with(_DEF, method={})]}, "defenses[0].method: expected str, got dict"),
    ({"defenses": [_with(_DEF, d_results="a")]}, "defenses[0].d_results: expected list, got str"),
    ({"defenses": [_with(_DEF, d_results=["a", 2])]}, "defenses[0].d_results[1]: expected str, got int"),
    ({"entry_grants": {}}, "entry_grants: expected list, got dict"),
    ({"entry_grants": [{}]}, "entry_grants[0]: missing required key 'object'"),
    ({"entry_grants": [_with(_GRANT, permission=None)]}, "entry_grants[0]: missing required key 'permission'"),
    ({"entry_grants": [_with(_GRANT, note="x")]}, "entry_grants[0]: unexpected keys ['note']"),
    ({"targets": "x"}, "targets: expected list, got str"),
    ({"targets": ["x", 1]}, "targets[1]: expected str, got int"),
    ({"extensions": [None]}, "extensions[0]: expected str, got NoneType"),
    # Sections are read in document order, and each record in its table's order.
    ({"defenses": [{}], "objects": [{}]}, "objects[0]: missing required key 'id'"),
    ({"attacks": [_with(_ATK, id=1, cost="x")]}, "attacks[0].id: expected str, got int"),
    # A defense reads all of d_results before its other keys.
    ({"defenses": [_with(_DEF, d_results=[1], method=5)]}, "defenses[0].d_results[0]: expected str, got int"),
]


@pytest.mark.parametrize("data, message", SHAPE_FAULTS)
def test_shape_faults_give_exact_messages(data, message):
    with pytest.raises(ParseError) as caught:
        parse_scenario(json.dumps(data), source="s.json")
    assert str(caught.value) == f"s.json: {message}"


def test_unknown_keys_keep_record_then_document_order():
    data = {
        "zz": 1,
        "objects": [_with(_OBJ, z=1, b=2), _OBJ],
        "attacks": [_with(_ATK, a=1)],
        "defenses": [_with(_DEF, x=1)],
        "aa": 2,
    }
    doc = parse_scenario(json.dumps(data))
    assert doc.unknown_keys == ("objects[0].b", "objects[0].z", "attacks[0].a", "defenses[0].x", "aa", "zz")
    assert doc.objects[0] == doc.objects[1]


@pytest.mark.parametrize(
    "table, schema_path",
    [
        ("_GRANT", ("$defs", "grant")),
        ("_OBJECT", ("properties", "objects", "items")),
        ("_RELATIONSHIP", ("properties", "relationships", "items")),
        ("_ATTACK", ("properties", "attacks", "items")),
        ("_DEFENSE", ("properties", "defenses", "items")),
    ],
)
def test_field_tables_match_the_shipped_schema(fixtures_dir, table, schema_path):
    schema = json.loads((Path(__file__).parent.parent / "docs" / "scenario.schema.json").read_text())
    # The schema admits an extra key exactly where the parser only warns
    # about it: a grant refuses one, the record sections keep it unknown.
    data = json.loads((fixtures_dir / "toy5g.scenario").read_text())
    section = schema_path[1] if schema_path[0] == "properties" else "entry_grants"
    data[section][0]["note"] = "x"
    try:
        parse_scenario(json.dumps(data))
        open_record = True
    except ParseError:
        open_record = False
    assert open_record is (table != "_GRANT")
    for step in schema_path:
        schema = schema[step]
    fields = getattr(scenario, table)
    properties = schema["properties"]
    assert sorted(properties) == sorted(key for key, _, _ in fields)
    assert sorted(schema["required"]) == sorted(key for key, _, default in fields if default is scenario._REQUIRED)
    # A table default is the parsed value, so compare both as JSON data.
    defaults = {key: json.loads(json.dumps(default)) for key, _, default in fields if default is not scenario._REQUIRED}
    assert {key: p["default"] for key, p in properties.items() if "default" in p} == defaults
    assert schema.get("additionalProperties", True) is open_record
