from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autocam360.cli import main
from autocam360.config import ConfigError, DirectorConfig, config_from_dict, load_config
from autocam360.measures import MeasureConfig
from autocam360.saliency import ShotType


def test_defaults_match_documented_values():
    cfg = DirectorConfig()
    assert cfg.shot_length_s == 3.0
    assert cfg.fov_deg[ShotType.TRACKING] == 75.0
    assert cfg.fov_deg[ShotType.STATIC] == 115.0
    assert cfg.fov_deg[ShotType.MEDIUM] == 95.0
    assert cfg.max_hypotheses_per_type == 4
    assert cfg.jump_cut_threshold_deg == 30.0
    assert cfg.jump_cut_penalty == 0.5
    assert cfg.occurrence_window == 5
    assert cfg.occurrence_cap == 2
    assert cfg.no_repeat is True
    assert cfg.smoothing_alpha == 0.15
    assert cfg.max_angular_velocity_deg_s == 60.0
    assert cfg.pitch_clamp_deg == 45.0
    assert cfg.measures.interp_gap_frames == 15
    assert cfg.measures.min_presence == 0.2
    assert cfg.measures.history_len == 3
    assert cfg.measures.visited_decay == 0.5
    assert cfg.saliency.visited_weight == 0.7
    assert cfg.saliency.category("human") == 1.0
    assert cfg.saliency.category("starfish") == 0.3


def test_every_field_optional(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert load_config(path) == DirectorConfig()
    assert load_config(None) == DirectorConfig()


def test_partial_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "shot_length_s": 2.0,
                "fov_deg": {"tracking": 60.0},
                "measures": {"motion_ref_deg_s": 10.0},
                "saliency": {
                    "visited_weight": 0.5,
                    "category_weights": {"human": 0.9, "default": 0.1},
                },
            }
        )
    )
    cfg = load_config(path)
    assert cfg.shot_length_s == 2.0
    assert cfg.fov_deg[ShotType.TRACKING] == 60.0
    assert cfg.fov_deg[ShotType.STATIC] == 115.0  # untouched default
    assert cfg.measures.motion_ref_deg_s == 10.0
    assert cfg.measures.neighbour_ref_deg == 30.0
    assert cfg.saliency.visited_weight == 0.5
    assert cfg.saliency.category("human") == 0.9
    assert cfg.saliency.category("???") == 0.1


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="shot_lenght"):
        config_from_dict({"shot_lenght": 3})
    with pytest.raises(ConfigError, match="unknown shot type"):
        config_from_dict({"fov_deg": {"dolly": 50}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"shot_length_s": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"occurrence_window": 1, "occurrence_cap": 2})
    with pytest.raises(ConfigError):
        config_from_dict(
            {"saliency": {"type_weights": {"tracking": {"size": 0.9, "motion": 0.9, "isolation": 0.9}}}}
        )
    with pytest.raises(ConfigError, match="syntax"):
        load_config_path_with_text("{bad json")


def load_config_path_with_text(text: str):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "cfg.json"
        p.write_text(text)
        return load_config(p)


# wrong scalar types, non-object sections, null and non-finite numbers
MALFORMED = [
    '{"fov_deg": {"pan": null}}',
    '{"measures": {"history_len": "3"}}',
    '{"saliency": {"category_weights": {"human": null}}}',
    '{"saliency": {"category_weights": 5}}',
    '{"saliency": {"type_weights": {"pan": 3}}}',
    '{"max_hypotheses_per_type": 2.5}',
    '{"occurrence_window": 2.5}',
    '{"no_repeat": "no"}',
    '{"measures": {"interp_gap_frames": 1.5}}',
    '{"jump_cut_penalty": Infinity}',
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_config_exits_2_with_one_error_line(tmp_path, capsys, text):
    tracks = tmp_path / "tracks.json"
    tracks.write_text('{"fps": 30, "width": 360, "height": 180, "num_frames": 30, "objects": []}')
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out = tmp_path / "path.json"
    rc = main(["direct", "--tracks", str(tracks), "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# values of the right type that would stall or break planning later
@pytest.mark.parametrize(
    "text",
    [
        '{"measures": {"history_len": 1000000000}}',
        '{"measures": {"history_len": 1001}}',
        '{"fov_deg": {"tracking": 5e-324}}',
        '{"fov_deg": {"recommender": 1e-323}}',
        '{"aspect": 0}',
        '{"max_hypotheses_per_type": 0}',
        '{"jump_cut_penalty": -1}',
        '{"occurrence_cap": 0, "occurrence_window": 0}',
        '{"smoothing_alpha": 0}',
        '{"smoothing_alpha": 1.5}',
        '{"max_angular_velocity_deg_s": 0}',
        '{"pitch_clamp_deg": 91}',
        '{"pan_sweep_deg": 0}',
        '{"cluster_threshold_deg": 0}',
        '{"recommender_min_coverage": 1.5}',
        '{"measures": {"visited_decay": 0}}',
        '{"measures": {"min_presence": 2}}',
        '{"measures": {"interp_gap_frames": 0}}',
        '{"measures": {"size_ref_sr": 0}}',
        '{"saliency": {"category_weights": {"human": 2}}}',
        '{"saliency": {"category_weights": {"default": -1}}}',
    ],
)
def test_values_that_stop_planning_exit_2_with_one_error_line(tmp_path, capsys, text):
    test_malformed_config_exits_2_with_one_error_line(tmp_path, capsys, text)


def test_bounds_at_the_limits_still_load():
    cfg = config_from_dict({"measures": {"history_len": 1000}, "fov_deg": {"pan": 1e-300}})
    assert cfg.measures.history_len == 1000
    assert cfg.fov_deg[ShotType.PAN] == 1e-300


def test_scalar_types_are_strict():
    with pytest.raises(ConfigError, match="boolean"):
        config_from_dict({"no_repeat": 0})
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict({"occurrence_cap": True})
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict({"aspect": float("nan")})
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict({"pan_sweep_deg": 10**400})
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict({"saliency": {"category_weights": {"default": None}}})
    # integers still count as numbers
    cfg = config_from_dict({"shot_length_s": 2, "fov_deg": {"pan": 80}})
    assert cfg.shot_length_s == 2.0 and cfg.fov_deg[ShotType.PAN] == 80.0


@pytest.mark.parametrize(
    "data",
    [
        # the README's example
        {
            "shot_length_s": 2.5,
            "fov_deg": {"tracking": 70},
            "jump_cut_threshold_deg": 30,
            "measures": {"motion_ref_deg_s": 20, "history_len": 3},
            "saliency": {
                "visited_weight": 0.7,
                "category_weights": {"human": 1.0, "default": 0.3},
            },
        },
        # the config of perfbench's pipeline_hd workload
        {
            "shot_length_s": 1.0,
            "pan_sweep_deg": 45.0,
            "fov_deg": {
                "tracking": 75.0, "static": 115.0, "medium": 95.0, "pan": 90.0, "recommender": 75.0
            },
        },
    ],
)
def test_documented_configs_load(data):
    cfg = config_from_dict(data)
    assert cfg.shot_length_s == data["shot_length_s"]
    for name, deg in data["fov_deg"].items():
        assert cfg.fov_deg[ShotType(name)] == deg


def _object(keys, values):
    return st.dictionaries(st.sampled_from(sorted(keys) + ["unknown"]), values, max_size=4)


_ANY = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0, 1, 0.5, 2.5, 45.0, 10**400])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_PER_TYPE = _object(
    [t.value for t in ShotType], _ANY | _object(["size", "motion", "isolation"], _ANY)
)
_SECTIONS = (
    _PER_TYPE
    | _object({f.name for f in fields(MeasureConfig)}, _ANY)
    | _object(
        ["type_weights", "visited_weight", "category_weights"],
        _ANY | _PER_TYPE | _object(["human", "default"], _ANY),
    )
)
# documents shaped like configs at every depth, with wrong types anywhere
_DOCUMENTS = _ANY | _object({f.name for f in fields(DirectorConfig)}, _ANY | _SECTIONS)


@given(_DOCUMENTS)
def test_config_from_dict_raises_only_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, DirectorConfig)
