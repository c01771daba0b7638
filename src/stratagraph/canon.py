"""Canonical JSON rendering.

Every tool output that may land in a golden file or a diff goes through
dumps(), and identical values always render to identical bytes on any
platform. The contract:

- dict keys are sorted, and every key must be a str (else TypeError);
- containers open on their own line, items indented by two spaces per
  level, with no trailing whitespace;
- strings are pure ASCII: anything else is \\u-escaped as json.dumps does;
- floats use 6 significant digits, and -0.0 is folded to 0.0;
- non-finite floats are refused with ValueError;
- a Grant renders as its as_dict() form, {"object": ..., "permission": ...};
- every other named tuple is refused with TypeError: render such a record
  through its as_dict(). So is any other value that is not None, a bool, an
  int, a float, a str, a dict, a list, a tuple or a Grant.

One dumps() call memoises the JSON form of each distinct string it meets,
keys and values alike, the text of each distinct float, and each level's
padding: chain sets repeat the same ids, permissions, keys and costs
hundreds of thousands of times. It memoises each Grant's text per depth
too, in one memo per depth keyed by the grant: a chain set holds tens of
thousands of grant entries but a few dozen distinct grants, and the
indentation of a grant's text depends on its depth. The memos live for
one call. Leaves of the exact built-in types str, Grant, float and int
take an inline path in both the list loop and the dict-value loop, with
no call per leaf; every other value (None, a bool, a container, a
subclass such as a str or int subclass) goes through one render call and
renders as its base type. Values that are equal as dict keys but print
apart never share a memo entry: floats have their own memo (1 == 1.0 ==
True), and only a grant of two exact strs is memoised.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str  # what json.dumps(s) returns for a str

from .model import Grant


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be rendered canonically")
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, ".6g")


def dumps(value) -> str:
    """The canonical JSON text of value."""
    parts: list[str] = []
    append = parts.append
    strings: dict[str, str] = {}  # exact str -> its JSON form
    keys: dict[str, str] = {}  # exact str key -> its JSON form and ": "
    floats: dict[float, str] = {}  # exact float -> its text; 0.0 and -0.0 share "0"
    # depth -> (item separator, "[" opener, "]" closer, "{" opener, "}" closer,
    # the text of each Grant met as an item at the next depth)
    levels: list[tuple[str, str, str, str, str, dict[Grant, str]]] = []

    def add_level() -> None:
        k = len(levels)
        pad = "  " * (k + 1)
        close = "\n" + "  " * k
        levels.append((",\n" + pad, "[\n" + pad, close + "]", "{\n" + pad, close + "}", {}))

    def grant_text(value: Grant, level: int, grants: dict[Grant, str]) -> str:
        start = len(parts)
        render_container(value.as_dict(), level)
        out = "".join(parts[start:])
        del parts[start:]
        # Grant(1, "r") == Grant(True, "r"), yet they render apart: only a
        # grant of two exact strs is memoised.
        if type(value.object) is str and type(value.permission) is str:
            grants[value] = out
        return out

    def render(value, level: int) -> None:
        kind = type(value)
        if kind is dict or kind is list or kind is tuple:
            render_container(value, level)
        elif kind is Grant:
            render_container(value.as_dict(), level)
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, str):
            append(_encode_str(value))
        elif isinstance(value, int):
            append(str(value))
        elif isinstance(value, float):
            append(format_float(value))
        elif isinstance(value, (dict, list, tuple)):
            render_container(value, level)
        else:
            raise TypeError(f"cannot render {type(value).__name__} canonically")

    def render_container(value, level: int) -> None:
        # Both loops below take each leaf of an exact built-in type inline:
        # a call per leaf costs more than the rest of the loop. Any other
        # item goes through render().
        if level == len(levels):
            add_level()
        sep, open_list, close_list, open_dict, close_dict, grants = levels[level]
        if isinstance(value, dict):
            if not value:
                append("{}")
                return
            append(open_dict)
            for i, key in enumerate(sorted(value)):
                if i:
                    append(sep)
                if type(key) is str:
                    head = keys.get(key)
                    if head is None:
                        head = keys[key] = _encode_str(key) + ": "
                elif isinstance(key, str):
                    head = _encode_str(key) + ": "
                else:
                    raise TypeError(f"canonical JSON requires string keys, got {key!r}")
                append(head)
                item = value[key]
                kind = type(item)
                if kind is str:
                    out = strings.get(item)
                    if out is None:
                        out = strings[item] = _encode_str(item)
                    append(out)
                elif kind is Grant:
                    out = grants.get(item)
                    append(grant_text(item, level + 1, grants) if out is None else out)
                elif kind is float:
                    out = floats.get(item)
                    if out is None:
                        out = floats[item] = format_float(item)
                    append(out)
                elif kind is int:
                    append(int.__repr__(item))
                else:
                    render(item, level + 1)
            append(close_dict)
            return
        if hasattr(value, "_fields"):
            # A named tuple other than a Grant is a record; render its as_dict().
            raise TypeError(f"cannot render {type(value).__name__} canonically")
        if not value:
            append("[]")
            return
        append(open_list)
        for i, item in enumerate(value):
            if i:
                append(sep)
            kind = type(item)
            if kind is str:
                out = strings.get(item)
                if out is None:
                    out = strings[item] = _encode_str(item)
                append(out)
            elif kind is Grant:
                out = grants.get(item)
                append(grant_text(item, level + 1, grants) if out is None else out)
            elif kind is float:
                out = floats.get(item)
                if out is None:
                    out = floats[item] = format_float(item)
                append(out)
            elif kind is int:
                append(int.__repr__(item))
            else:
                render(item, level + 1)
        append(close_list)

    add_level()
    render(value, 0)
    return "".join(parts)
