"""canon.dumps against the reference renderer in oracles.py, byte for byte."""

from collections import namedtuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratagraph import canon
from stratagraph.chains import AttackChain
from stratagraph.model import Grant

from oracles import reference_dumps


class Str(str):
    pass


class Int(int):
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


@settings(max_examples=300, deadline=None)
@given(values)
@example(-0.0)
@example({"a": [{"b": [1, -0.0]}, {}], "c": ()})
@example([[], [[None, True, False]], {"k": {"v": "x"}}])
@example({"n": float("nan")})
@example({1: "non-string key"})
@example(Pair(1, 2))
@example({Str("k"): [Str("café"), Int(7), True]})
@example([Grant("o1", "read"), {"g": Grant("o1", "read")}, (Grant("", 'é"'),)])
@example(Pair(Grant("o1", "read"), 1))
@example(Grant(Str("o1"), "read"))
@example({"chains": [AttackChain(("A1#0",), 1.0, 2.0, (Grant("o1", "read"),))]})  # a record: TypeError
def test_dumps_matches_reference_renderer(value):
    # A Grant renders as its as_dict(); the reference renderer sees that dict.
    expected = outcome(reference_dumps, plain(value))
    assert outcome(canon.dumps, value) == expected
    if isinstance(expected, str):
        assert canon.dumps(value, end="\n") == expected + "\n"


def test_a_grant_renders_by_its_own_depth_within_one_call():
    # One call meets the same Grant at several depths, deep and shallow in
    # turn; a memo keyed by the grant alone would reuse the first one's
    # indentation.
    grant = Grant("o1", "read")
    value = {"a": [[grant]], "b": grant, "c": [grant, {"d": [[grant]]}], "e": grant}
    for indent in (2, 4):
        assert canon.dumps(value, indent=indent) == reference_dumps(plain(value), indent=indent)
