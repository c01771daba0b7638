"""Engine configuration shared by the chain, defense, and simulation engines."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .model import ConfigError

SEMANTICS_MODES = ("accumulated", "strict")
THREAT_AGGREGATIONS = ("sum", "max")
BUDGET_OBJECTIVES = ("threat", "count")


class _Checked:
    """A named-tuple mixin that runs the record's check() on every construction.

    The constructor and _make call it, and _replace builds through _make, so
    each of the three raises ConfigError on a bad value or type.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs).check()

    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable).check()


class _EngineFields(NamedTuple):
    # Chain semantics: "accumulated" keeps every grant won so far; "strict"
    # checks each condition against the entry grants plus the single pair
    # granted by the previous edge.
    semantics: str = "accumulated"
    max_len: int = 8
    threat_agg: str = "sum"
    budget_objective: str = "threat"
    # Above these sizes the defense planners switch from exact search to greedy.
    exact_defense_limit: int = 20
    exact_chain_limit: int = 64
    survivor_sample: int = 5


class EngineConfig(_Checked, _EngineFields):
    __slots__ = ()

    def check(self) -> "EngineConfig":
        if self.semantics not in SEMANTICS_MODES:
            raise ConfigError(f"semantics must be one of {SEMANTICS_MODES}, got {self.semantics!r}")
        if self.threat_agg not in THREAT_AGGREGATIONS:
            raise ConfigError(f"threat_agg must be one of {THREAT_AGGREGATIONS}, got {self.threat_agg!r}")
        if self.budget_objective not in BUDGET_OBJECTIVES:
            raise ConfigError(f"budget_objective must be one of {BUDGET_OBJECTIVES}, got {self.budget_objective!r}")
        for name in ("max_len", "exact_defense_limit", "exact_chain_limit", "survivor_sample"):
            value = getattr(self, name)
            # bool is an int subclass; reject it explicitly.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be a positive integer, got {self.max_len!r}")
        if self.exact_defense_limit < 0 or self.exact_chain_limit < 0 or self.survivor_sample < 0:
            raise ConfigError("limits must be non-negative")
        return self


DEFAULT_CONFIG = EngineConfig()

_FIELDS = set(EngineConfig._fields)


def config_from_dict(data: dict) -> EngineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(data) - _FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return DEFAULT_CONFIG._replace(**data)


def load_config(path: str | Path) -> EngineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ConfigError(f"config {path} is not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal longer than int() converts
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
