"""Canonical JSON rendering.

Every tool output that may land in a golden file or a diff goes through
dumps(): keys sorted, floats at 6 significant digits, pure-ASCII strings.
Identical values always render to identical bytes on any platform.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be rendered canonically")
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, ".6g")


def _render(value, indent: int, level: int, parts: list[str]) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        parts.append(format_float(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, got {key!r}")
            parts.append(pad)
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(": ")
            _render(value[key], indent, level + 1, parts)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            # A named tuple (such as a Grant) is a record; render its as_dict().
            raise TypeError(f"cannot render {type(value).__name__} canonically")
        if not value:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(value):
            parts.append(pad)
            _render(item, indent, level + 1, parts)
            parts.append(",\n" if i + 1 < len(value) else "\n")
        parts.append(close_pad + "]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} canonically")


def dumps(value, indent: int = 2) -> str:
    parts: list[str] = []
    _render(value, indent, 0, parts)
    return "".join(parts)
