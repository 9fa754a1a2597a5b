"""Director configuration and its JSON file form.

The config file mirrors :class:`DirectorConfig` with angles in degrees
and times in seconds; every field is optional and falls back to the
defaults below.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from . import _document
from .measures import MeasureConfig
from .saliency import SaliencyWeights, ShotType, TypeWeights


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration documents."""


def _default_fovs() -> dict[ShotType, float]:
    return {
        ShotType.TRACKING: 75.0,
        ShotType.STATIC: 115.0,
        ShotType.MEDIUM: 95.0,
        ShotType.PAN: 90.0,
        ShotType.RECOMMENDER: 75.0,
    }


@dataclass(frozen=True)
class DirectorConfig:
    shot_length_s: float = 3.0
    fov_deg: Mapping[ShotType, float] = field(default_factory=_default_fovs)
    aspect: float = 16.0 / 9.0
    max_hypotheses_per_type: int = 4
    jump_cut_threshold_deg: float = 30.0
    jump_cut_penalty: float = 0.5
    occurrence_window: int = 5
    occurrence_cap: int = 2
    no_repeat: bool = True
    smoothing_alpha: float = 0.15
    max_angular_velocity_deg_s: float = 60.0
    pitch_clamp_deg: float = 45.0
    pan_sweep_deg: float = 90.0
    cluster_threshold_deg: float = 40.0
    recommender_min_coverage: float = 0.5
    measures: MeasureConfig = field(default_factory=MeasureConfig)
    saliency: SaliencyWeights = field(default_factory=SaliencyWeights)

    def __post_init__(self) -> None:
        if self.shot_length_s <= 0:
            raise ConfigError(f"shot_length_s must be positive, got {self.shot_length_s}")
        for t in ShotType:
            if t not in self.fov_deg:
                raise ConfigError(f"fov_deg missing entry for '{t.value}'")
            # checked in radians, the unit viewports use: a tiny angle in
            # degrees can round to 0 rad
            if not 0.0 < math.radians(self.fov_deg[t]) < math.pi:
                raise ConfigError(
                    f"fov_deg['{t.value}'] must be in (0, 180) and nonzero in radians, "
                    f"got {self.fov_deg[t]!r}"
                )
        if self.aspect <= 0:
            raise ConfigError("aspect must be positive")
        if self.max_hypotheses_per_type < 1:
            raise ConfigError("max_hypotheses_per_type must be >= 1")
        if self.jump_cut_threshold_deg < 0 or self.jump_cut_penalty < 0:
            raise ConfigError("jump-cut parameters must be >= 0")
        if self.occurrence_cap < 1:
            raise ConfigError("occurrence_cap must be >= 1")
        if self.occurrence_window < self.occurrence_cap:
            raise ConfigError("occurrence_window must be >= occurrence_cap")
        if not 0.0 < self.smoothing_alpha <= 1.0:
            raise ConfigError("smoothing_alpha must be in (0, 1]")
        if self.max_angular_velocity_deg_s <= 0:
            raise ConfigError("max_angular_velocity_deg_s must be positive")
        if not 0.0 < self.pitch_clamp_deg <= 90.0:
            raise ConfigError("pitch_clamp_deg must be in (0, 90]")
        if self.pan_sweep_deg <= 0:
            raise ConfigError("pan_sweep_deg must be positive")
        if self.cluster_threshold_deg <= 0:
            raise ConfigError("cluster_threshold_deg must be positive")
        if not 0.0 <= self.recommender_min_coverage <= 1.0:
            raise ConfigError("recommender_min_coverage must be in [0, 1]")


_CONFIG_KEYS = {f.name for f in fields(DirectorConfig)}
_MEASURE_KEYS = {f.name for f in fields(MeasureConfig)}
_SALIENCY_KEYS = {"type_weights", "visited_weight", "category_weights"}
_TYPE_WEIGHTS = {"size": "float", "motion": "float", "isolation": "float"}


def _shot_type(name: str) -> ShotType:
    try:
        return ShotType(name)
    except ValueError:
        raise ConfigError(
            f"unknown shot type '{name}' (expected one of "
            f"{[t.value for t in ShotType]})"
        ) from None


def _saliency(s: dict) -> SaliencyWeights:
    _document.keys(s, _SALIENCY_KEYS, "saliency")
    kwargs: dict = {}
    if "type_weights" in s:
        tw = {}
        for name, spec in _document.check(s["type_weights"], "object", "type_weights").items():
            where = f"type_weights['{name}']"
            _document.keys(_document.check(spec, "object", where), _TYPE_WEIGHTS, where)
            tw[_shot_type(name)] = TypeWeights(*_document.required(spec, _TYPE_WEIGHTS, where))
        kwargs["type_weights"] = {**SaliencyWeights().type_weights, **tw}
    if "visited_weight" in s:
        kwargs["visited_weight"] = _document.check(s["visited_weight"], "float", "visited_weight")
    if "category_weights" in s:
        weights = _document.check(s["category_weights"], "object", "category_weights")
        cw = {
            label: _document.check(v, "float", f"category_weights['{label}']")
            for label, v in weights.items()
        }
        if "default" in cw:
            kwargs["default_category_weight"] = cw.pop("default")
        kwargs["category_weights"] = cw
    return SaliencyWeights(**kwargs)


def _config(data) -> DirectorConfig:
    _document.keys(_document.check(data, "object", "config document"), _CONFIG_KEYS, "config")
    nested = {"fov_deg", "measures", "saliency"}
    simple = _document.fields(DirectorConfig, {k: v for k, v in data.items() if k not in nested})
    if "fov_deg" in data:
        fovs = dict(_default_fovs())
        for name, value in _document.check(data["fov_deg"], "object", "fov_deg").items():
            fovs[_shot_type(name)] = _document.check(value, "float", f"fov_deg['{name}']")
        simple["fov_deg"] = fovs
    if "measures" in data:
        m = _document.check(data["measures"], "object", "measures")
        _document.keys(m, _MEASURE_KEYS, "measures")
        simple["measures"] = MeasureConfig(**_document.fields(MeasureConfig, m, "measures"))
    if "saliency" in data:
        simple["saliency"] = _saliency(_document.check(data["saliency"], "object", "saliency"))
    return DirectorConfig(**simple)


def config_from_dict(data: dict) -> DirectorConfig:
    """A DirectorConfig from a parsed config document; every malformed
    document raises ConfigError."""
    try:
        return _config(data)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(source: str | Path | None) -> DirectorConfig:
    """Load a config file; None gives the defaults.  A path that is not
    a file raises ConfigError."""
    if source is None:
        return DirectorConfig()
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"config file not found: {source}")
    try:
        data = _document.load(path.read_bytes())
    except ValueError as exc:
        raise ConfigError(f"config {exc}") from exc
    return config_from_dict(data)
