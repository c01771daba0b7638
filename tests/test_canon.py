"""canon.dumps against the reference renderer in oracles.py, byte for byte."""

from collections import namedtuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratagraph import canon
from stratagraph.chains import AttackChain, enumerate_chains
from stratagraph.graphs import build_attack_graph, build_base_graph, graphs_to_dict
from stratagraph.model import Grant

from genscen import random_scenario
from oracles import reference_dumps


class Str(str):
    pass


class Int(int):
    pass


class Dict(dict):
    pass


class List(list):
    pass


class Tuple(tuple):
    pass


Pair = namedtuple("Pair", "left right")

SPECIAL_FLOATS = (0.0, -0.0, 1e-7, 1e21, 0.1, 123456789.0, float("nan"), float("inf"), float("-inf"))
TRICKY_STRINGS = ("", '"', "\\", "\n\t\r\x00\x1f\x7f", "café", " \U0001f600", 'say "hi" \\ bye')

strings = st.text() | st.sampled_from(TRICKY_STRINGS)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
    | strings
    | strings.map(Str)
    | st.integers().map(Int)
    | st.builds(Grant, strings, strings)
)
keys = strings | strings.map(Str)
values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.builds(Pair, children, children)
        | st.dictionaries(st.integers() | keys, children, min_size=1, max_size=3)
    ),
    max_leaves=20,
)
# Long lists over a small pool, so one call meets the same string, float and
# Grant again and again, at several depths: the memoised paths. The pool
# holds values that are equal as dict keys but render apart (1, 1.0, True).
POOL = (
    "a", "b", Str("a"), "café",
    0.0, -0.0, 1.0, 2.5, 1e6, 1, 1000000, True, False, Int(1), None,
    Grant("o1", "read"), Grant("o2", "write"), Grant(Str("o1"), "read"), Grant(1, "r"), Grant(True, "r"),
)
repeating = st.recursive(
    st.sampled_from(POOL),
    lambda children: (
        st.lists(children, max_size=16)
        | st.lists(children, max_size=16).map(tuple)
        | st.dictionaries(st.sampled_from(("a", "b", "c", Str("d"))), children, max_size=4)
    ),
    max_leaves=60,
)
GRANT = Grant("o1", "read")


def plain(value):
    """value with every Grant replaced by its as_dict(), all else kept as it is."""
    kind = type(value)
    if kind is Grant:
        return value.as_dict()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if hasattr(value, "_fields"):
        return kind(*map(plain, value))
    if isinstance(value, (list, tuple)):
        return kind(map(plain, value))
    return value


def outcome(render, value):
    """The rendered text, or the class of the exception raised instead."""
    try:
        return render(value)
    except Exception as exc:  # the class is the contract, not the message
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(values | repeating)
@example(-0.0)
@example({"a": [{"b": [1, -0.0]}, {}], "c": ()})
@example([[], [[None, True, False]], {"k": {"v": "x"}}])
@example({"n": float("nan")})
@example({1: "non-string key"})
@example({"k": {1}})  # a set: TypeError
@example(Pair(1, 2))
@example({Str("k"): [Str("café"), Int(7), True]})
@example([Grant("o1", "read"), {"g": Grant("o1", "read")}, (Grant("", 'é"'),)])
@example(Pair(Grant("o1", "read"), 1))
@example(Grant(Str("o1"), "read"))
@example({"chains": [AttackChain(("A1#0",), 1.0, 2.0, (Grant("o1", "read"),))]})  # a record: TypeError
@example([0.0, -0.0, 0.0])  # both zeros print 0
@example([2.5, 2.5, float("nan")])  # a memoised float before it does not let a NaN through
@example([1000000, 1000000.0, 1000000])  # equal as dict keys, printed apart
@example([1, 1.0, True, Int(1)])
@example([Grant(1, "r"), Grant(True, "r"), Grant(1.0, "r")])
@example({"a": GRANT, "b": [GRANT], "c": [[GRANT]]})
@example([{"k": GRANT}, [GRANT]])  # one depth, reached from a dict value and from a list item
@example([Str("x"), "x"])
# An exact list or tuple as a dict value and an exact dict as a list item
# skip render(); a subclass of each still goes through it, and renders as
# its base type, while a named tuple in either place is refused.
@example({"p": Pair(1, 2)})
@example([Pair(1, 2)])
@example([Dict(a=[1, "x"]), {"b": (2.5,)}])
@example({"l": List([1, GRANT]), "t": Tuple(("x", -0.0)), "e": List(), "u": Tuple()})
@example({"l": [[], ()], "t": ({}, [GRANT])})
def test_dumps_matches_reference_renderer(value):
    # A Grant renders as its as_dict(); the reference renderer sees that dict.
    expected = outcome(reference_dumps, plain(value))
    assert outcome(canon.dumps, value) == expected


def test_a_grant_renders_by_its_own_depth_within_one_call():
    # One call meets the same Grant at several depths, deep and shallow in
    # turn; a memo keyed by the grant alone would reuse the first one's
    # indentation.
    grant = Grant("o1", "read")
    value = {"a": [[grant]], "b": grant, "c": [grant, {"d": [[grant]]}], "e": grant}
    assert canon.dumps(value) == reference_dumps(plain(value))


def test_dumps_matches_reference_on_a_chain_set_of_hundreds():
    # The shape of the big outputs: hundreds of chains that repeat a few
    # dozen ids, grants and costs, and the graph listing that goes with them.
    doc = random_scenario(26, max_objects=12, max_edges=30)
    graph = build_attack_graph(doc, build_base_graph(doc))
    found = enumerate_chains(graph)
    assert len(found) >= 300
    for payload in ({"count": len(found), "chains": [c.as_dict() for c in found]}, graphs_to_dict(graph)):
        assert canon.dumps(payload) == reference_dumps(plain(payload))
