"""Deterministic synthetic scenes and panoramas for desk-scale testing.

Actor motion is limited to three closed forms (fixed, linear yaw drift,
circular sweep in angle space) so every expected value is computable by
hand.  Panoramas carry a seam-smooth gradient background plus one flat
color blob per actor at its parametric direction; blob colors derive
from the seed, have G=255 (unreachable by the background), and are
distinct per actor.

Scenario files are JSON::

    {"seed": 7, "duration_s": 6.0, "fps": 30, "width": 512, "height": 256,
     "actors": [{"category": "human", "motion": "linear", "yaw_deg": -40,
                 "pitch_deg": 0, "size_deg": 12, "rate_deg_s": 10}],
     "recommendations": [{"t": 0, "yaw_deg": 0, "pitch_deg": 0}, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import _document
from .geometry import Direction, EquirectBBox, direction_to_equirect_pixel
from .renderer import Image
from .tracks import (
    MAX_FRAMES,
    MAX_HEIGHT,
    MAX_WIDTH,
    ObjectTrack,
    Recommendation,
    Scene,
    TrackSample,
    read_recommendations,
    recommendation_rows,
)

MOTIONS = ("fixed", "linear", "circular")


class ScenarioError(ValueError):
    """Raised for invalid scenario specifications."""


@dataclass(frozen=True)
class ActorSpec:
    category: str
    motion: str
    yaw_deg: float
    pitch_deg: float
    size_deg: float = 10.0
    rate_deg_s: float = 0.0  # linear: yaw drift rate
    radius_deg: float = 0.0  # circular: sweep radius
    period_s: float = 0.0  # circular: revolution period

    def __post_init__(self) -> None:
        if self.motion not in MOTIONS:
            raise ScenarioError(f"unknown motion '{self.motion}', expected one of {MOTIONS}")
        if self.size_deg <= 0:
            raise ScenarioError(f"size_deg must be positive, got {self.size_deg}")
        if self.motion == "circular" and self.period_s <= 0:
            raise ScenarioError("circular motion requires a positive period_s")

    def direction_deg(self, t: float) -> tuple[float, float]:
        """Parametric (yaw_deg, pitch_deg) at time t seconds."""
        if self.motion == "fixed":
            return self.yaw_deg, self.pitch_deg
        if self.motion == "linear":
            return self.yaw_deg + self.rate_deg_s * t, self.pitch_deg
        phase = 2.0 * math.pi * t / self.period_s
        return (
            self.yaw_deg + self.radius_deg * math.cos(phase),
            self.pitch_deg + self.radius_deg * math.sin(phase),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    duration_s: float
    fps: float
    width: int = 1920
    height: int = 960
    actors: tuple[ActorSpec, ...] = ()
    recommendations: tuple[Recommendation, ...] | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.fps <= 0:
            raise ScenarioError("duration_s and fps must be positive")
        if not math.isfinite(self.duration_s * self.fps):
            raise ScenarioError("the frame count duration_s * fps must be finite")
        if self.num_frames > MAX_FRAMES:
            raise ScenarioError(f"the frame count duration_s * fps must be at most {MAX_FRAMES}")
        if self.width <= 0 or self.height <= 0:
            raise ScenarioError("width and height must be positive")
        if self.width > MAX_WIDTH or self.height > MAX_HEIGHT:
            raise ScenarioError(
                f"panorama size {self.width}x{self.height} exceeds {MAX_WIDTH}x{MAX_HEIGHT}"
            )

    @property
    def num_frames(self) -> int:
        return max(1, round(self.duration_s * self.fps))


_ACTOR_KEYS = {f.name for f in fields(ActorSpec)}
_SCENARIO_SCALARS = ("seed", "duration_s", "fps", "width", "height")


def parse_scenario(document: bytes | str) -> ScenarioSpec:
    """Read a scenario file; every malformed document raises ScenarioError.

    Each field is type-checked: numbers must be finite JSON numbers,
    integers where the field is an integer, and strings JSON strings.
    Actors reject unknown keys.  The caps are the track file's
    (:data:`MAX_FRAMES`, :data:`MAX_WIDTH`, :data:`MAX_HEIGHT`).
    """
    try:
        data = _document.check(_document.load(document), "object", "scenario document")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    try:
        actors = []
        for i, row in enumerate(_document.check(data.get("actors", []), "rows", "actors")):
            where = f"actors[{i}]"
            _document.keys(row, _ACTOR_KEYS, where)
            actors.append(ActorSpec(**_document.fields(ActorSpec, row, where)))
        scalars = {"seed": 0, **{k: data[k] for k in _SCENARIO_SCALARS if k in data}}
        return ScenarioSpec(
            **_document.fields(ScenarioSpec, scalars),
            actors=tuple(actors),
            recommendations=read_recommendations(data),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"malformed scenario field: {exc}") from exc


def _actor_bbox(spec: ScenarioSpec, actor: ActorSpec, frame: int) -> EquirectBBox:
    yaw_deg, pitch_deg = actor.direction_deg(frame / spec.fps)
    d = Direction(math.radians(yaw_deg), math.radians(pitch_deg))
    px, py = direction_to_equirect_pixel(d, spec.width, spec.height)
    w = actor.size_deg / 360.0 * spec.width
    h = actor.size_deg / 180.0 * spec.height
    y = py - h / 2.0
    if y < 0.0 or y + h > spec.height:
        raise ScenarioError(
            f"actor '{actor.category}' leaves the vertical frame at frame {frame} "
            f"(pitch {pitch_deg:.2f} deg, size {actor.size_deg} deg)"
        )
    return EquirectBBox(px - w / 2.0, y, w, h)


def synth_scene(spec: ScenarioSpec) -> Scene:
    """Tracks whose bbox centers follow the parametric motion exactly.

    One sample per frame; deterministic for a given spec.
    """
    tracks = []
    for i, actor in enumerate(spec.actors):
        samples = tuple(
            TrackSample(t, _actor_bbox(spec, actor, t)) for t in range(spec.num_frames)
        )
        tracks.append(ObjectTrack(f"actor{i:02d}", actor.category, samples))
    return Scene(
        fps=spec.fps,
        width=spec.width,
        height=spec.height,
        num_frames=spec.num_frames,
        objects=tuple(tracks),
        recommendations=spec.recommendations,
    )


def actor_color(spec: ScenarioSpec, index: int) -> tuple[int, int, int]:
    """Blob color for one actor: G=255 marks blob pixels (the background
    G never exceeds 220); R is injective per actor for up to 216 actors."""
    r = 20 + (211 * index + spec.seed % 216) % 216
    b = 20 + (101 * index + (spec.seed * 3) % 216) % 216
    return (r, 255, b)


def synth_panorama(spec: ScenarioSpec, frame: int) -> Image:
    """Equirect frame: smooth gradient background plus one blob per actor.

    The background is horizontally periodic (no seam discontinuity) and
    vertically linear; blobs are pixel-space ellipses centered at each
    actor's parametric direction, wrapped across the seam.
    """
    if not 0 <= frame < spec.num_frames:
        raise ScenarioError(f"frame {frame} outside [0, {spec.num_frames})")
    w, h = spec.width, spec.height
    yaw = _column_yaws(w)
    row = (np.arange(h, dtype=np.float64) + 0.5) / h
    r = np.floor(127.5 + 100.0 * np.sin(yaw) + 0.5).astype(np.uint8)
    g = np.floor(40.0 + 180.0 * row + 0.5).astype(np.uint8)
    b = np.floor(127.5 + 100.0 * np.cos(yaw) + 0.5).astype(np.uint8)
    pixels = np.empty((h, w, 3), dtype=np.uint8)
    pixels[:, :, 0] = r[None, :]
    pixels[:, :, 1] = g[:, None]
    pixels[:, :, 2] = b[None, :]

    for i, actor in enumerate(spec.actors):
        box = _actor_bbox(spec, actor, frame)
        cx, cy = box.x + box.w / 2.0, box.y + box.h / 2.0
        rx, ry = max(box.w / 2.0, 1.0), max(box.h / 2.0, 1.0)
        color = np.array(actor_color(spec, i), dtype=np.uint8)
        x_lo, x_hi = int(math.floor(cx - rx)), int(math.ceil(cx + rx))
        y_lo = max(0, int(math.floor(cy - ry)))
        y_hi = min(h - 1, int(math.ceil(cy + ry)))
        for yy in range(y_lo, y_hi + 1):
            dy = (yy + 0.5 - cy) / ry
            for xx in range(x_lo, x_hi + 1):
                dx = (xx + 0.5 - cx) / rx
                if dx * dx + dy * dy <= 1.0:
                    pixels[yy, xx % w] = color
    return Image(w, h, pixels)


def _column_yaws(width: int) -> np.ndarray:
    """Per-column yaw at pixel centers."""
    return 2.0 * math.pi * (np.arange(width, dtype=np.float64) + 0.5) / width - math.pi


def scenario_to_document(spec: ScenarioSpec) -> str:
    data: dict = {
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "fps": spec.fps,
        "width": spec.width,
        "height": spec.height,
        "actors": [
            {
                "category": a.category,
                "motion": a.motion,
                "yaw_deg": a.yaw_deg,
                "pitch_deg": a.pitch_deg,
                "size_deg": a.size_deg,
                "rate_deg_s": a.rate_deg_s,
                "radius_deg": a.radius_deg,
                "period_s": a.period_s,
            }
            for a in spec.actors
        ],
    }
    if spec.recommendations is not None:
        data["recommendations"] = recommendation_rows(spec.recommendations)
    return json.dumps(data, indent=2) + "\n"
