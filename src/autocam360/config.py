"""Director configuration and its JSON file form.

The config file mirrors :class:`DirectorConfig` with angles in degrees
and times in seconds; every field is optional and falls back to the
defaults below.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

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


_SALIENCY_KEYS = {"type_weights", "visited_weight", "category_weights"}
_TYPE_WEIGHT_KEYS = ("size", "motion", "isolation")
_KIND_NAMES = {
    "bool": "a boolean", "int": "an integer", "float": "a finite number", "str": "a string"
}


def _shot_type(name: str) -> ShotType:
    try:
        return ShotType(name)
    except ValueError:
        raise ConfigError(
            f"unknown shot type '{name}' (expected one of "
            f"{[t.value for t in ShotType]})"
        ) from None


def _check_keys(data: dict, allowed, context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}")


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


def _scalar(value, kind: str, name: str):
    """`value` as a field of declared type `kind` ("bool", "int", "float"
    or "str"): bools must be JSON booleans, ints JSON integers, floats
    finite numbers, integers included, and strings JSON strings."""
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "str":
        ok = isinstance(value, str)
    elif kind == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:  # NaN fails the comparison too
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and abs(value) <= sys.float_info.max
        if ok:
            value = float(value)
    if not ok:
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _fields(cls, data: dict, context: str) -> dict:
    """The scalar fields of dataclass `cls` given in `data`, type-checked
    against their declared types."""
    kinds = {f.name: f.type for f in fields(cls)}
    return {k: _scalar(v, kinds[k], f"{context}{k}") for k, v in data.items()}


def config_from_dict(data: dict) -> DirectorConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(data, {f.name for f in fields(DirectorConfig)}, "config")

    nested = {"fov_deg", "measures", "saliency"}
    simple = _fields(DirectorConfig, {k: v for k, v in data.items() if k not in nested}, "")

    if "fov_deg" in data:
        fov = _object(data["fov_deg"], "fov_deg")
        fovs = dict(_default_fovs())
        for name, value in fov.items():
            fovs[_shot_type(name)] = _scalar(value, "float", f"fov_deg['{name}']")
        simple["fov_deg"] = fovs

    if "measures" in data:
        m = _object(data["measures"], "measures")
        _check_keys(m, {f.name for f in fields(MeasureConfig)}, "measures")
        try:
            simple["measures"] = replace(MeasureConfig(), **_fields(MeasureConfig, m, "measures."))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if "saliency" in data:
        s = _object(data["saliency"], "saliency")
        _check_keys(s, _SALIENCY_KEYS, "saliency")
        kwargs: dict = {}
        if "type_weights" in s:
            tw = {}
            for name, spec in _object(s["type_weights"], "type_weights").items():
                t = _shot_type(name)
                context = f"type_weights['{name}']"
                spec = _object(spec, context)
                _check_keys(spec, _TYPE_WEIGHT_KEYS, context)
                missing = [k for k in _TYPE_WEIGHT_KEYS if k not in spec]
                if missing:
                    raise ConfigError(f"{context} missing {missing[0]!r}")
                try:
                    tw[t] = TypeWeights(
                        *(_scalar(spec[k], "float", f"{context}.{k}") for k in _TYPE_WEIGHT_KEYS)
                    )
                except ValueError as exc:
                    raise ConfigError(f"{context}: {exc}") from exc
            kwargs["type_weights"] = {**SaliencyWeights().type_weights, **tw}
        if "visited_weight" in s:
            kwargs["visited_weight"] = _scalar(s["visited_weight"], "float", "visited_weight")
        if "category_weights" in s:
            cw = {
                label: _scalar(v, "float", f"category_weights['{label}']")
                for label, v in _object(s["category_weights"], "category_weights").items()
            }
            if "default" in cw:
                kwargs["default_category_weight"] = cw.pop("default")
            kwargs["category_weights"] = cw
        try:
            simple["saliency"] = SaliencyWeights(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    try:
        return DirectorConfig(**simple)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(source: str | Path | None) -> DirectorConfig:
    """Load a config file; None gives the defaults."""
    if source is None:
        return DirectorConfig()
    text = Path(source).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)
