"""Layered attack-graph modeling, chain analysis, defense planning, and
turn-based red/blue simulation for 5G-style networks.

Each public name is imported from its submodule on first access (PEP 562),
so `import stratagraph` loads no engine module until a name is used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chains": (
        "AttackChain",
        "AttackerState",
        "ChainCheck",
        "ChainObjective",
        "PotentialChain",
        "chain_from_edges",
        "enumerate_chains",
        "generate_potential_chains",
        "is_valid_chain",
        "search_chain",
    ),
    "config": ("DEFAULT_CONFIG", "EngineConfig", "load_config"),
    "defense": (
        "DefensePlan",
        "RiskRow",
        "applicable_defenses",
        "plan_budgeted",
        "plan_coverage",
        "plan_cut",
        "risk_assess",
    ),
    "game": ("GameConfig", "GameSummary", "GameTrace", "run_batch", "run_game", "summarize"),
    "graphs": (
        "AttackEdge",
        "AttackGraph",
        "HierarchicalGraph",
        "build_attack_graph",
        "build_base_graph",
        "graphs_to_dot",
    ),
    "model": (
        "AttackRecord",
        "ConfigError",
        "DefenseRecord",
        "EmptyEntryGrantsError",
        "Grant",
        "InfeasibleCutError",
        "InvalidScenarioError",
        "ObjectRecord",
        "ParseError",
        "RelationshipEdge",
        "ScenarioDoc",
        "ScenarioError",
        "UnknownIdError",
        "Violation",
    ),
    "scenario": (
        "SCHEMA_VERSION",
        "load_scenario",
        "parse_scenario",
        "serialize_scenario",
        "validate_scenario",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
