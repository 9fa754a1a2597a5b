"""The shot-by-shot planning loop.

Segments the timeline into shot-length ranges, generates and scores
hypotheses for every eligible shot type, picks the argmax (ties broken
by declaration order of :class:`ShotType`, then generation index),
enforces the occurrence limits, and maintains the visited history.
Identical inputs produce bit-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .config import DirectorConfig
from .geometry import Direction, Viewport, smooth_directions
from .hypotheses import ShotHypothesis, generate_hypotheses, saliency_table, score_hypothesis
from .measures import (
    ObjectMeasures,
    VisitedHistory,
    compute_measures,
    frame_positions,
    update_history,
)
from .saliency import ShotType
from .tracks import Scene

_TYPE_ORDER = {t: i for i, t in enumerate(ShotType)}


@dataclass(frozen=True)
class Shot:
    """A chosen shot; ranges of consecutive shots tile the timeline."""

    shot_type: ShotType
    start: int
    end: int
    path: tuple[Viewport, ...]
    score: float
    target_ids: tuple[str, ...] = ()


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
    shots: tuple[Shot, ...]
    camera_path: tuple[Viewport, ...]
    records: tuple[ShotRecord, ...] = field(default=(), repr=False, compare=False)


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
    length = max(1, round(fps * shot_length_s))
    full = num_frames // length
    remainder = num_frames % length
    if full == 0:
        return [(0, num_frames)]
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


def _excluded(
    recent: tuple[ShotType, ...], cfg: DirectorConfig, window_rule: bool, no_repeat_rule: bool
) -> set[ShotType]:
    out: set[ShotType] = set()
    if no_repeat_rule and cfg.no_repeat and recent:
        out.add(recent[-1])
    if window_rule:
        window = recent[-cfg.occurrence_window :]
        for t in ShotType:
            if window.count(t) >= cfg.occurrence_cap:
                out.add(t)
    return out


_RULE_STAGES = ((True, True), (False, True), (False, False))


def eligible_types(recent, cfg: DirectorConfig) -> Eligibility:
    """Types allowed after the given chronological choice history.

    A type is excluded when it matches the immediately previous shot
    (no-repeat) or already occurs `occurrence_cap` times in the last
    `occurrence_window` choices.  If that empties the set, the window
    rule is relaxed first, then no-repeat, so the result is never empty.
    """
    recent = tuple(recent)
    for i, (window_rule, no_repeat_rule) in enumerate(_RULE_STAGES):
        allowed = [t for t in ShotType if t not in _excluded(recent, cfg, window_rule, no_repeat_rule)]
        if allowed:
            return Eligibility(allowed, relaxed=i > 0)
    return Eligibility(tuple(ShotType), relaxed=True)  # unreachable: stage 3 allows all


def smooth_path(raw_centers, fps: float, cfg: DirectorConfig) -> list[Direction]:
    """Sphere-aware exponential smoothing with the config's velocity and
    pitch limits; see :func:`autocam360.geometry.smooth_directions`."""
    return smooth_directions(
        list(raw_centers),
        cfg.smoothing_alpha,
        math.radians(cfg.max_angular_velocity_deg_s) / fps,
        math.radians(cfg.pitch_clamp_deg),
    )


def _continuation_pan(prev, frame_range, cfg: DirectorConfig) -> ShotHypothesis:
    """Last-resort shot: keep panning from wherever the camera is."""
    if prev is not None:
        anchor = prev.path[-1].center
    else:
        anchor = Direction(0.0, 0.0)
    start, end = frame_range
    n = end - start
    sweep = math.radians(cfg.pan_sweep_deg)
    if n == 1:
        centers = [anchor]
    else:
        centers = [Direction(anchor.yaw + sweep * i / (n - 1), anchor.pitch) for i in range(n)]
    path = tuple(
        Viewport(c, math.radians(cfg.fov_deg[ShotType.PAN]), cfg.aspect) for c in centers
    )
    return ShotHypothesis(ShotType.PAN, start, end, path)


def _plan(
    scene: Scene,
    frame_range: tuple[int, int],
    history: VisitedHistory,
    recent: tuple[ShotType, ...],
    cfg: DirectorConfig,
    prev: Shot | None,
) -> tuple[Shot, ShotRecord]:
    measures = compute_measures(scene, frame_range, history, cfg.measures)
    positions = frame_positions(scene, frame_range, cfg.measures.interp_gap_frames)
    saliency = {t: saliency_table(measures, scene, t, cfg.saliency) for t in ShotType}

    stages: list[tuple[tuple[ShotType, ...], bool]] = []
    for i, (window_rule, no_repeat_rule) in enumerate(_RULE_STAGES):
        allowed = tuple(
            t for t in ShotType if t not in _excluded(recent, cfg, window_rule, no_repeat_rule)
        )
        if allowed and (not stages or allowed != stages[-1][0]):
            stages.append((allowed, i > 0 or bool(stages)))

    for allowed, relaxed in stages:
        hyps: list[ShotHypothesis] = []
        for shot_type in ShotType:
            if shot_type not in allowed:
                continue
            for h in generate_hypotheses(shot_type, scene, frame_range, measures, prev, cfg):
                hyps.append(
                    score_hypothesis(h, scene, measures, prev, cfg.saliency, cfg, positions)
                )
        if not hyps:
            continue
        best = 0
        for i in range(1, len(hyps)):
            if hyps[i].score > hyps[best].score:  # ties keep the earlier candidate
                best = i
        chosen = hyps[best]
        shot = Shot(
            chosen.shot_type,
            chosen.start,
            chosen.end,
            chosen.path,
            chosen.score,
            chosen.target_ids,
        )
        record = ShotRecord(
            frame_range[0],
            frame_range[1],
            relaxed,
            allowed,
            measures,
            saliency,
            tuple(hyps),
            best,
        )
        return shot, record

    # unreachable while the pan generator is total; kept as the documented
    # fallback so planning can never dead-end
    h = score_hypothesis(
        _continuation_pan(prev, frame_range, cfg), scene, measures, prev, cfg.saliency, cfg
    )
    shot = Shot(h.shot_type, h.start, h.end, h.path, h.score, h.target_ids)
    record = ShotRecord(
        frame_range[0], frame_range[1], True, (), measures, saliency, (h,), 0
    )
    return shot, record


def plan_next_shot(
    scene: Scene,
    frame_range: tuple[int, int],
    history: VisitedHistory,
    chosen_types,
    cfg: DirectorConfig,
    prev: Shot | None = None,
) -> Shot:
    """Best shot for one range given the choice history so far."""
    shot, _record = _plan(scene, frame_range, history, tuple(chosen_types), cfg, prev)
    return shot


def direct(scene: Scene, cfg: DirectorConfig | None = None) -> DirectorOutput:
    """Plan the whole timeline: the complete shot list plus per-frame path.

    Deterministic: identical inputs produce bit-identical output.  The
    visited history is updated only with chosen shots, never with
    rejected hypotheses.
    """
    cfg = cfg or DirectorConfig()
    history = VisitedHistory(capacity=cfg.measures.history_len)
    recent: list[ShotType] = []
    prev: Shot | None = None
    shots: list[Shot] = []
    records: list[ShotRecord] = []
    for frame_range in segment_timeline(scene.num_frames, scene.fps, cfg.shot_length_s):
        shot, record = _plan(scene, frame_range, history, tuple(recent), cfg, prev)
        history = update_history(history, shot, scene, cfg.measures.interp_gap_frames)
        recent.append(shot.shot_type)
        shots.append(shot)
        records.append(record)
        prev = shot
    camera_path = tuple(vp for s in shots for vp in s.path)
    return DirectorOutput(scene.fps, tuple(shots), camera_path, tuple(records))


# ---------------------------------------------------------------------------
# camera-path file


def output_to_document(out: DirectorOutput) -> str:
    """Serialize director output to the camera-path JSON interchange form."""
    relaxed = {(r.start, r.end): r.relaxed for r in out.records}
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
                "relaxed": relaxed.get((s.start, s.end), False),
            }
            for s in out.shots
        ],
    }
    return json.dumps(data, indent=2) + "\n"


class CameraPathError(ValueError):
    """Raised for malformed camera-path documents."""


def parse_camera_path(document: bytes | str, aspect: float) -> tuple[float, list[Viewport], list[dict]]:
    """Read a camera-path file back as (fps, per-frame viewports, shot rows).

    `aspect` supplies the output aspect ratio (the file stores only the
    horizontal FOV).  A path with no frames is rejected.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CameraPathError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        fps = float(data["fps"])
        frames = [
            Viewport(
                Direction(math.radians(f["yaw_deg"]), math.radians(f["pitch_deg"])),
                math.radians(f["hfov_deg"]),
                aspect,
            )
            for f in data["frames"]
        ]
        shots = list(data.get("shots", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise CameraPathError(f"malformed camera-path document: {exc}") from exc
    if not frames:
        raise CameraPathError("camera path has no frames")
    return fps, frames, shots
