"""Per-object measures over a shot range, plus the cross-shot visit record.

Four normalized measures are computed for every object present in a
frame range: size, motion, neighbourhood (isolation) and visited
(recent-shot visibility).  Raw quantities saturate through ``x/(x+ref)``
so every measure is dimensionless in [0, 1] and the reference constants
below are the midpoints of their scales.

Object positions come in from the caller: the director builds one
:func:`frame_positions` table per scene, and :func:`compute_measures`
and :func:`update_history` read the slice for their own range instead
of interpolating the tracks again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .geometry import (
    Direction,
    angular_distance,
    bbox_center_direction,
    bbox_solid_angle,
    mean_direction,
    project_to_viewport,
)
from .tracks import Scene, interpolated_bbox

# longest visited history a config may ask for; visited_score sums over
# the whole capacity for every object of every shot
MAX_HISTORY_LEN = 1000

# solid angle of a 30 x 30 degree patch straddling the equator
OMEGA_REF_30DEG: float = (math.pi / 6.0) * 2.0 * math.sin(math.pi / 12.0)


@dataclass(frozen=True)
class MeasureConfig:
    size_ref_sr: float = OMEGA_REF_30DEG
    motion_ref_deg_s: float = 20.0
    neighbour_ref_deg: float = 30.0
    history_len: int = 3
    visited_decay: float = 0.5
    min_presence: float = 0.2
    interp_gap_frames: int = 15

    def __post_init__(self) -> None:
        if self.size_ref_sr <= 0 or self.motion_ref_deg_s <= 0 or self.neighbour_ref_deg <= 0:
            raise ValueError("measure reference constants must be positive")
        if not 1 <= self.history_len <= MAX_HISTORY_LEN:
            raise ValueError(f"history_len must be in [1, {MAX_HISTORY_LEN}]")
        if not 0.0 < self.visited_decay <= 1.0:
            raise ValueError("visited_decay must be in (0, 1]")
        if not 0.0 <= self.min_presence <= 1.0:
            raise ValueError("min_presence must be in [0, 1]")
        if self.interp_gap_frames < 1:
            raise ValueError("interp_gap_frames must be >= 1")


@dataclass(frozen=True)
class ObjectMeasures:
    """Normalized measures of one object over one frame range."""

    size: float
    motion: float
    neighbourhood: float
    visited: float
    mean_center: Direction
    presence: float

    def __post_init__(self) -> None:
        for name in ("size", "motion", "neighbourhood", "visited", "presence"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"measure {name}={v!r} outside [0, 1]")
        if self.presence <= 0.0:
            raise ValueError("objects absent for the whole range are not emitted")


@dataclass(frozen=True)
class VisitedHistory:
    """Ring of per-object visibility fractions for recent chosen shots.

    ``entries`` is ordered oldest to newest and holds at most `capacity`
    entries; each maps object id to the fraction of that shot's frames
    where the object's center fell inside the chosen viewport.
    """

    entries: tuple[Mapping[str, float], ...] = ()
    capacity: int = 3

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(self.entries) > self.capacity:
            raise ValueError("history holds more entries than its capacity")

    def push(self, visibility: Mapping[str, float]) -> "VisitedHistory":
        entries = (*self.entries, dict(visibility))
        if len(entries) > self.capacity:
            entries = entries[len(entries) - self.capacity :]
        return VisitedHistory(entries, self.capacity)


def visited_score(history: VisitedHistory, object_id: str, decay: float) -> float:
    """Decayed visibility over the ring; most recent shot weighs most.

    The denominator always spans the full capacity, so a single recent
    sighting cannot saturate the score.  Empty history gives 0.
    """
    num = 0.0
    for k, entry in enumerate(reversed(history.entries)):  # k=0 most recent
        num += (decay**k) * entry.get(object_id, 0.0)
    den = sum(decay**k for k in range(history.capacity))
    return num / den


# object id -> per-frame (center direction, solid angle), None where absent
Positions = dict[str, list[tuple[Direction, float] | None]]


def frame_positions(scene: Scene, frame_range: tuple[int, int], max_gap: int) -> Positions:
    """Per-frame (center direction, solid angle) for every object, None
    where the object is absent.  Keys are sorted object ids.

    Rows are per frame, so the table of a sub-range is the same slice of
    every row of the whole-scene table.
    """
    start, end = frame_range
    out: Positions = {}
    for track in sorted(scene.objects, key=lambda t: t.id):
        row: list[tuple[Direction, float] | None] = []
        for f in range(start, end):
            box = interpolated_bbox(track, f, scene, max_gap)
            if box is None:
                row.append(None)
            else:
                row.append(
                    (
                        bbox_center_direction(box, scene.width, scene.height),
                        bbox_solid_angle(box, scene.width, scene.height),
                    )
                )
        out[track.id] = row
    return out


def compute_measures(
    scene: Scene,
    frame_range: tuple[int, int],
    positions: Positions,
    history: VisitedHistory,
    cfg: MeasureConfig,
) -> dict[str, ObjectMeasures]:
    """Measures for every object present at least one frame of the range.

    `positions` is the :func:`frame_positions` table of `frame_range`.
    Deterministic and independent of object order (results keyed and
    iterated by sorted id).  Pure; safe to call concurrently.
    """
    start, end = frame_range
    if start >= end:
        raise ValueError(f"empty frame range [{start}, {end})")
    if start < 0 or end > scene.num_frames:
        raise ValueError(f"range [{start}, {end}) outside [0, {scene.num_frames})")
    n_frames = end - start
    if any(len(row) != n_frames for row in positions.values()):
        raise ValueError("positions must cover the frame range")

    out: dict[str, ObjectMeasures] = {}
    for oid in sorted(positions):
        row = positions[oid]
        present = [(i, p) for i, p in enumerate(row) if p is not None]
        if not present:
            continue

        sizes = [omega / cfg.size_ref_sr for _, (_, omega) in present]
        size = min(1.0, sum(sizes) / len(sizes))

        steps = []
        for (i1, p1), (i2, p2) in zip(present, present[1:]):
            if i2 == i1 + 1:
                steps.append(angular_distance(p1[0], p2[0]))
        if steps:
            deg_per_s = math.degrees(sum(steps) / len(steps)) * scene.fps
            motion = deg_per_s / (deg_per_s + cfg.motion_ref_deg_s)
        else:
            motion = 0.0

        min_dists = []
        for i, (center, _) in present:
            others = [
                positions[other][i][0]
                for other in positions
                if other != oid and positions[other][i] is not None
            ]
            if others:
                min_dists.append(min(angular_distance(center, o) for o in others))
        if min_dists:
            d_deg = math.degrees(sum(min_dists) / len(min_dists))
            neighbourhood = d_deg / (d_deg + cfg.neighbour_ref_deg)
        else:
            neighbourhood = 1.0  # alone in the scene

        visited = visited_score(history, oid, cfg.visited_decay)
        center = mean_direction([p[0] for _, p in present])
        out[oid] = ObjectMeasures(
            size=size,
            motion=motion,
            neighbourhood=neighbourhood,
            visited=min(1.0, visited),
            mean_center=center,
            presence=len(present) / n_frames,
        )
    return out


def update_history(history: VisitedHistory, shot, positions: Positions) -> VisitedHistory:
    """Append the chosen shot's per-object visibility to the ring.

    `positions` is the :func:`frame_positions` table of the shot's range.
    Visibility is the fraction of the shot's frames where the object's
    center direction projects inside the shot viewport (u, v both in
    [0, 1]); the object's extent is ignored on purpose.
    """
    n = shot.end - shot.start
    if len(shot.path) != n or any(len(row) != n for row in positions.values()):
        raise ValueError("shot path and positions must cover the shot's frame range")
    visibility: dict[str, float] = {}
    for oid, row in positions.items():
        inside = 0
        for p, vp in zip(row, shot.path):
            if p is None:
                continue
            uv = project_to_viewport(p[0], vp)
            if uv is not None and 0.0 <= uv[0] <= 1.0 and 0.0 <= uv[1] <= 1.0:
                inside += 1
        visibility[oid] = inside / n
    return history.push(visibility)
