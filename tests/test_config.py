
import pytest

from stratagraph.config import DEFAULT_CONFIG, EngineConfig, config_from_dict
from stratagraph.model import ConfigError

BAD_FIELDS = [
    {"semantics": "Strict"},
    {"semantics": "psychic"},
    {"threat_agg": "mean"},
    {"budget_objective": "cost"},
    {"max_len": 0},
    {"max_len": True},
    {"max_len": 2.5},
    {"exact_defense_limit": -1},
    {"exact_chain_limit": "64"},
    {"survivor_sample": None},
]


@pytest.mark.parametrize("fields", BAD_FIELDS, ids=lambda f: f"{next(iter(f))}={next(iter(f.values()))!r}")
def test_bad_values_rejected_at_construction_and_replace(fields):
    with pytest.raises(ConfigError):
        EngineConfig(**fields)
    with pytest.raises(ConfigError):
        DEFAULT_CONFIG._replace(**fields)
    with pytest.raises(ConfigError):
        EngineConfig._make({**DEFAULT_CONFIG._asdict(), **fields}.values())
    with pytest.raises(ConfigError):
        config_from_dict(fields)


def test_removed_derived_detect_prob_is_an_unknown_key():
    with pytest.raises(ConfigError, match="^unknown config keys: derived_detect_prob$"):
        config_from_dict({"derived_detect_prob": 1.0})
    with pytest.raises(TypeError):
        EngineConfig(derived_detect_prob=1.0)
