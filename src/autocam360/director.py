"""The shot-by-shot planning loop.

Segments the timeline into shot-length ranges, generates and scores
hypotheses for every eligible shot type, picks the argmax (ties broken
by declaration order of :class:`ShotType`, then generation index),
enforces the occurrence limits, and maintains the visited history.
Object positions are interpolated once per scene and each shot reads its
slice; saliency is tabled once per shot type per shot.  The chosen shots
are the winning :class:`ShotHypothesis` objects themselves.  Identical
inputs produce bit-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

from . import _document
from .config import DirectorConfig
from .geometry import Direction, Viewport
from .hypotheses import (
    ShotHypothesis,
    generate_hypotheses,
    saliency_table,
    score_hypothesis,
    smooth_path,  # re-exported as part of the director's API
)
from .measures import (
    ObjectMeasures,
    Positions,
    VisitedHistory,
    compute_measures,
    frame_positions,
    update_history,
)
from .saliency import ShotType
from .tracks import Scene


@dataclass(frozen=True)
class ShotRecord:
    """Planning diagnostics for one shot (not serialized)."""

    start: int
    end: int
    relaxed: bool
    eligible: tuple[ShotType, ...]
    measures: dict[str, ObjectMeasures]
    saliency: dict[ShotType, dict[str, float]]
    hypotheses: tuple[ShotHypothesis, ...]
    chosen_index: int


@dataclass(frozen=True)
class DirectorOutput:
    fps: float
    shots: tuple[ShotHypothesis, ...]
    camera_path: tuple[Viewport, ...]
    records: tuple[ShotRecord, ...] = field(repr=False, compare=False)


def segment_timeline(num_frames: int, fps: float, shot_length_s: float) -> list[tuple[int, int]]:
    """Consecutive shot ranges covering [0, num_frames) exactly once.

    The nominal length is round(fps * shot_length_s) frames; a trailing
    remainder shorter than half a shot merges into the previous range
    instead of standing alone.
    """
    if num_frames <= 0:
        raise ValueError(f"num_frames must be positive, got {num_frames}")
    if fps <= 0 or shot_length_s <= 0:
        raise ValueError("fps and shot_length_s must be positive")
    # min(): round() cannot take the infinite product of a huge shot length
    length = max(1, round(min(fps * shot_length_s, num_frames)))
    full = num_frames // length  # >= 1: length is at most num_frames
    remainder = num_frames % length
    ranges = [(i * length, (i + 1) * length) for i in range(full)]
    if remainder:
        if remainder < length / 2:
            ranges[-1] = (ranges[-1][0], num_frames)
        else:
            ranges.append((full * length, num_frames))
    return ranges


class Eligibility(frozenset):
    """The shot types allowed next; `relaxed` is True when an occurrence
    rule had to be dropped to keep the set non-empty."""

    relaxed: bool

    def __new__(cls, types, relaxed: bool = False):
        self = super().__new__(cls, types)
        self.relaxed = relaxed
        return self


def _stages(recent: tuple[ShotType, ...], cfg: DirectorConfig) -> Iterator[Eligibility]:
    """The allowed types at each relaxation stage, strictest first: both
    occurrence rules, then no-repeat alone, then none.

    A stage that allows nothing, or the same types as the stage before,
    is skipped.  The last stage allows all types, so at least one stage
    is always yielded.
    """
    window = recent[-cfg.occurrence_window :]
    capped = {t for t in ShotType if window.count(t) >= cfg.occurrence_cap}
    repeat = {recent[-1]} if cfg.no_repeat and recent else set()
    last = None
    for i, excluded in enumerate((capped | repeat, repeat, set())):
        allowed = Eligibility((t for t in ShotType if t not in excluded), relaxed=i > 0)
        if allowed and allowed != last:
            yield allowed
            last = allowed


def eligible_types(recent, cfg: DirectorConfig) -> Eligibility:
    """Types allowed after the given chronological choice history.

    A type is excluded when it matches the immediately previous shot
    (no-repeat) or already occurs `occurrence_cap` times in the last
    `occurrence_window` choices.  If that empties the set, the window
    rule is relaxed first, then no-repeat, so the result is never empty.
    """
    return next(_stages(tuple(recent), cfg))


def _plan(
    scene: Scene,
    frame_range: tuple[int, int],
    positions: Positions,
    history: VisitedHistory,
    recent: tuple[ShotType, ...],
    cfg: DirectorConfig,
    prev: ShotHypothesis | None,
) -> tuple[ShotHypothesis, ShotRecord]:
    measures = compute_measures(scene, frame_range, positions, history, cfg.measures)
    saliency = {t: saliency_table(measures, scene, t, cfg.saliency) for t in ShotType}

    # the last stage admits PAN, whose generator always yields candidates
    for allowed in _stages(recent, cfg):
        hyps = [
            score_hypothesis(h, saliency[t], positions, prev, cfg)
            for t in ShotType
            if t in allowed
            for h in generate_hypotheses(
                t, scene, frame_range, measures, saliency[t], positions, prev, cfg
            )
        ]
        if hyps:
            break
    best = 0
    for i in range(1, len(hyps)):
        if hyps[i].score > hyps[best].score:  # ties keep the earlier candidate
            best = i
    record = ShotRecord(
        frame_range[0],
        frame_range[1],
        allowed.relaxed,
        tuple(t for t in ShotType if t in allowed),
        measures,
        saliency,
        tuple(hyps),
        best,
    )
    return hyps[best], record


def plan_next_shot(
    scene: Scene,
    frame_range: tuple[int, int],
    history: VisitedHistory,
    chosen_types,
    cfg: DirectorConfig,
    prev: ShotHypothesis | None = None,
) -> ShotHypothesis:
    """Best shot for one range given the choice history so far."""
    positions = frame_positions(scene, frame_range, cfg.measures.interp_gap_frames)
    shot, _record = _plan(scene, frame_range, positions, history, tuple(chosen_types), cfg, prev)
    return shot


def direct(scene: Scene, cfg: DirectorConfig | None = None) -> DirectorOutput:
    """Plan the whole timeline: the complete shot list plus per-frame path.

    Object positions are interpolated once for the whole scene; each
    shot plans from its slice of that table.  Deterministic: identical
    inputs produce bit-identical output.  The visited history is updated
    only with chosen shots, never with rejected hypotheses.
    """
    cfg = cfg or DirectorConfig()
    scene_positions = frame_positions(scene, (0, scene.num_frames), cfg.measures.interp_gap_frames)
    history = VisitedHistory(capacity=cfg.measures.history_len)
    recent: list[ShotType] = []
    prev: ShotHypothesis | None = None
    shots: list[ShotHypothesis] = []
    records: list[ShotRecord] = []
    for start, end in segment_timeline(scene.num_frames, scene.fps, cfg.shot_length_s):
        positions = {oid: row[start:end] for oid, row in scene_positions.items()}
        shot, record = _plan(scene, (start, end), positions, history, tuple(recent), cfg, prev)
        history = update_history(history, shot, positions)
        recent.append(shot.shot_type)
        shots.append(shot)
        records.append(record)
        prev = shot
    camera_path = tuple(vp for s in shots for vp in s.path)
    return DirectorOutput(scene.fps, tuple(shots), camera_path, tuple(records))


# ---------------------------------------------------------------------------
# camera-path file


def output_to_document(out: DirectorOutput) -> str:
    """Serialize director output to the camera-path JSON interchange form.

    Shot rows pair each shot with its record by position."""
    data = {
        "fps": out.fps,
        "frames": [
            {
                "yaw_deg": math.degrees(vp.center.yaw),
                "pitch_deg": math.degrees(vp.center.pitch),
                "hfov_deg": math.degrees(vp.hfov),
            }
            for vp in out.camera_path
        ],
        "shots": [
            {
                "start": s.start,
                "end": s.end,
                "type": s.shot_type.value,
                "score": s.score,
                "targets": list(s.target_ids),
                "relaxed": r.relaxed,
            }
            for s, r in zip(out.shots, out.records, strict=True)
        ],
    }
    return json.dumps(data, indent=2) + "\n"


class CameraPathError(ValueError):
    """Raised for malformed camera-path documents."""


_PATH = {"fps": "float", "frames": "rows"}
_FRAME = {"yaw_deg": "float", "pitch_deg": "float", "hfov_deg": "float"}


def parse_camera_path(document: bytes | str, aspect: float) -> tuple[float, list[Viewport], list[dict]]:
    """Read a camera-path file back as (fps, per-frame viewports, shot rows).

    `aspect` supplies the output aspect ratio (the file stores only the
    horizontal FOV).  ``fps`` must be a positive finite number, every
    frame's angles finite numbers and the shot rows, when present, a list
    of objects.  A path with no frames is rejected.  Keys the format does
    not define are ignored.
    """
    try:
        data = _document.check(_document.load(document), "object", "camera path")
        fps, rows = _document.required(data, _PATH)
        if fps <= 0.0:
            raise ValueError(f"fps must be positive, got {fps!r}")
        frames = []
        for i, row in enumerate(rows):
            yaw, pitch, hfov = map(math.radians, _document.required(row, _FRAME, f"frames[{i}]"))
            frames.append(Viewport(Direction(yaw, pitch), hfov, aspect))
        shots = _document.check(data.get("shots", []), "rows", "shots")
    except ValueError as exc:
        raise CameraPathError(f"malformed camera-path document: {exc}") from exc
    if not frames:
        raise CameraPathError("camera path has no frames")
    return fps, frames, shots
