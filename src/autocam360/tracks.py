"""Ingestion and interpolation of per-frame object tracks.

The track file is JSON text::

    {"fps": 30, "width": 1920, "height": 960, "num_frames": 300,
     "objects": [{"id": "a", "category": "human",
                  "samples": [{"t": 0, "x": 10, "y": 20, "w": 30, "h": 40}, ...]}],
     "recommendations": [{"t": 0, "yaw_deg": 15.0, "pitch_deg": 0.0}, ...]}

Angles in the file are degrees; the in-memory API exposes radians.  A
Scene has at most :data:`MAX_FRAMES` frames of at most :data:`MAX_WIDTH`
x :data:`MAX_HEIGHT` pixels.  A parsed Scene is immutable and can be
shared freely across threads.
"""

from __future__ import annotations

import bisect
import json
import math
import warnings
from dataclasses import dataclass, field

from . import _document
from .geometry import Direction, EquirectBBox, validate_bbox


# scene size caps, shared with scenario files: planning keeps state for
# every frame and `synth` holds one width x height x 3 panorama in memory
MAX_FRAMES = 100_000  # 55 min at 30 fps
MAX_WIDTH = 8192
MAX_HEIGHT = 4096


class TrackFileError(ValueError):
    """Raised for any malformed or inconsistent track document."""


@dataclass(frozen=True)
class TrackSample:
    frame: int
    box: EquirectBBox


@dataclass(frozen=True)
class ObjectTrack:
    """One tracked object: samples ordered by frame, gaps allowed."""

    id: str
    category: str
    samples: tuple[TrackSample, ...]
    _frames: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.samples:
            raise TrackFileError(f"object '{self.id}' has no samples")
        frames = tuple(s.frame for s in self.samples)
        for a, b in zip(frames, frames[1:]):
            if b <= a:
                raise TrackFileError(
                    f"object '{self.id}' sample frames not strictly increasing ({a} then {b})"
                )
        object.__setattr__(self, "_frames", frames)


@dataclass(frozen=True)
class Recommendation:
    """An externally recommended view direction for one frame.

    Angles are stored in file units (degrees) so a parse/serialize round
    trip is exact; use :attr:`direction` for the radian form.
    """

    frame: int
    yaw_deg: float
    pitch_deg: float

    @property
    def direction(self) -> Direction:
        return Direction(math.radians(self.yaw_deg), math.radians(self.pitch_deg))


@dataclass(frozen=True)
class Scene:
    """A fully validated collection of tracks over a fixed frame range."""

    fps: float
    width: int
    height: int
    num_frames: int
    objects: tuple[ObjectTrack, ...]
    recommendations: tuple[Recommendation, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise TrackFileError(f"fps must be positive, got {self.fps!r}")
        if self.width <= 0 or self.height <= 0:
            raise TrackFileError(
                f"image dimensions must be positive, got {self.width}x{self.height}"
            )
        if self.num_frames <= 0:
            raise TrackFileError(f"num_frames must be positive, got {self.num_frames}")
        if self.num_frames > MAX_FRAMES or self.width > MAX_WIDTH or self.height > MAX_HEIGHT:
            raise TrackFileError(
                f"{self.num_frames} frames of {self.width}x{self.height} exceed the caps of "
                f"{MAX_FRAMES} frames of {MAX_WIDTH}x{MAX_HEIGHT}"
            )
        if self.width != 2 * self.height:
            warnings.warn(
                f"source is {self.width}x{self.height}, not the 2:1 equirect ratio",
                stacklevel=2,
            )
        seen: set[str] = set()
        for track in self.objects:
            if track.id in seen:
                raise TrackFileError(f"duplicate object id '{track.id}'")
            seen.add(track.id)
            for sample in track.samples:
                if not 0 <= sample.frame < self.num_frames:
                    raise TrackFileError(
                        f"object '{track.id}': frame index {sample.frame} outside "
                        f"[0, {self.num_frames})"
                    )
                try:
                    validate_bbox(sample.box, self.width, self.height)
                except ValueError as exc:
                    raise TrackFileError(
                        f"object '{track.id}' frame {sample.frame}: {exc}"
                    ) from exc
        for rec in self.recommendations or ():
            if not 0 <= rec.frame < self.num_frames:
                raise TrackFileError(
                    f"recommendation frame index {rec.frame} outside [0, {self.num_frames})"
                )
            if not -90.0 <= rec.pitch_deg <= 90.0:
                raise TrackFileError(
                    f"recommendation pitch {rec.pitch_deg} outside [-90, 90] degrees"
                )


# ---------------------------------------------------------------------------
# parsing

_SCENE = {"fps": "float", "width": "int", "height": "int", "num_frames": "int", "objects": "rows"}
_OBJECT = {"id": "str", "category": "str", "samples": "rows"}
_SAMPLE = {"t": "int", "x": "float", "y": "float", "w": "float", "h": "float"}
_RECOMMENDATION = {"t": "int", "yaw_deg": "float", "pitch_deg": "float"}


def read_recommendations(data: dict) -> tuple[Recommendation, ...] | None:
    """The optional ``recommendations`` rows of a track or scenario
    document; None when the key is absent.  Raises ValueError."""
    if "recommendations" not in data:
        return None
    rows = _document.check(data["recommendations"], "rows", "recommendations")
    return tuple(
        Recommendation(*_document.required(row, _RECOMMENDATION, f"recommendations[{i}]"))
        for i, row in enumerate(rows)
    )


def recommendation_rows(recommendations: tuple[Recommendation, ...]) -> list[dict]:
    """The ``recommendations`` rows of a track or scenario document."""
    return [
        {"t": r.frame, "yaw_deg": r.yaw_deg, "pitch_deg": r.pitch_deg} for r in recommendations
    ]


def parse_scene(document: bytes | str) -> Scene:
    """Parse and fully validate a track file.

    Every malformed input raises :class:`TrackFileError` (syntax errors
    report their position); no partially constructed Scene escapes.
    Keys the format does not define are ignored.
    """
    try:
        data = _document.check(_document.load(document), "object", "track file")
        fps, width, height, num_frames, raw_objects = _document.required(data, _SCENE)
        objects = []
        for i, raw in enumerate(raw_objects):
            where = f"objects[{i}]"
            oid, category, raw_samples = _document.required(raw, _OBJECT, where)
            if not oid:
                raise TrackFileError(f"{where}.id must be a non-empty string")
            samples = []
            for j, row in enumerate(raw_samples):
                at = f"{where}.samples[{j}]"
                t, *box = _document.required(row, _SAMPLE, at)
                try:
                    samples.append(TrackSample(t, EquirectBBox(*box)))
                except ValueError as exc:
                    raise TrackFileError(f"{at}: {exc}") from exc
            objects.append(ObjectTrack(oid, category, tuple(samples)))
        return Scene(fps, width, height, num_frames, tuple(objects), read_recommendations(data))
    except TrackFileError:
        raise
    except ValueError as exc:
        raise TrackFileError(str(exc)) from exc


def scene_to_document(scene: Scene) -> str:
    """Serialize a Scene to canonical track-file JSON.

    Parsing the result yields a Scene equal to the input.
    """
    data: dict = {
        "fps": scene.fps,
        "width": scene.width,
        "height": scene.height,
        "num_frames": scene.num_frames,
        "objects": [
            {
                "id": t.id,
                "category": t.category,
                "samples": [
                    {"t": s.frame, "x": s.box.x, "y": s.box.y, "w": s.box.w, "h": s.box.h}
                    for s in t.samples
                ],
            }
            for t in scene.objects
        ],
    }
    if scene.recommendations is not None:
        data["recommendations"] = recommendation_rows(scene.recommendations)
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# interpolation


def interpolated_bbox(
    track: ObjectTrack, frame: int, scene: Scene, max_gap: int = 15
) -> EquirectBBox | None:
    """Box of `track` at `frame`, bridging occlusion gaps up to `max_gap`.

    Exact samples are returned as stored.  Between bracketing samples no
    more than `max_gap` frames apart, x is interpolated along the shorter
    wrap path around the seam and y/w/h linearly.  Before the first
    sample, after the last, or across larger gaps the object is absent
    (None).
    """
    if not 0 <= frame < scene.num_frames:
        raise ValueError(f"frame {frame} outside [0, {scene.num_frames})")
    frames = track._frames
    pos = bisect.bisect_left(frames, frame)
    if pos < len(frames) and frames[pos] == frame:
        return track.samples[pos].box
    if pos == 0 or pos == len(frames):
        return None
    f1, f2 = frames[pos - 1], frames[pos]
    if f2 - f1 > max_gap:
        return None
    a = track.samples[pos - 1].box
    b = track.samples[pos].box
    t = (frame - f1) / (f2 - f1)
    # shorter wrap path: remainder() puts the x delta in [-W/2, W/2]
    dx = math.remainder(b.x - a.x, scene.width)
    return EquirectBBox(
        a.x + t * dx,
        a.y + t * (b.y - a.y),
        a.w + t * (b.w - a.w),
        a.h + t * (b.h - a.h),
    )
