"""Shot hypothesis generation and scoring.

For each shot type a small set of candidate shots is generated (at most
``max_hypotheses_per_type``), each carrying a complete per-frame viewport
path.  Scoring rewards keeping salient objects near the viewport center
and applies the classic 30-degree jump-cut penalty against the previous
shot, with same-target tracking continuations exempt.

Generators for the five types are independent of each other and pure;
output ordering is deterministic (saliency, then object id).  The
per-frame object positions and the per-type saliency table come in from
the caller, which builds each once per shot range.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from .config import DirectorConfig
from .geometry import (
    Direction,
    Viewport,
    angular_distance,
    clamp_pitch,
    mean_direction,
    rotate_toward,
    smooth_directions,
)
from .measures import ObjectMeasures, Positions
from .saliency import SaliencyWeights, ShotType, object_saliency
from .tracks import Scene


@dataclass(frozen=True)
class ShotHypothesis:
    """One candidate shot: type, frame range, per-frame path, score.

    The director's chosen shots are the winning hypotheses themselves;
    consecutive chosen ranges tile the timeline.
    """

    shot_type: ShotType
    start: int
    end: int
    path: tuple[Viewport, ...]
    target_ids: tuple[str, ...] = ()
    raw_score: float = 0.0
    penalty: float = 0.0
    score: float = 0.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty frame range [{self.start}, {self.end})")
        if len(self.path) != self.end - self.start:
            raise ValueError(
                f"path length {len(self.path)} != range length {self.end - self.start}"
            )
        hfov = self.path[0].hfov
        if any(vp.hfov != hfov for vp in self.path):
            raise ValueError("hfov must be constant within a hypothesis")


def centered_weight(obj_dir: Direction, vp: Viewport) -> float:
    """Framing quality of a direction: 1 on the optical axis, linear
    falloff to 0 at half the horizontal FOV."""
    return max(0.0, 1.0 - angular_distance(obj_dir, vp.center) / (vp.hfov / 2.0))


def saliency_table(
    measures: dict[str, ObjectMeasures],
    scene: Scene,
    shot_type: ShotType,
    weights: SaliencyWeights,
) -> dict[str, float]:
    """Per-object saliency for one shot type, keyed by sorted id."""
    categories = {t.id: t.category for t in scene.objects}
    return {
        oid: object_saliency(measures[oid], categories[oid], shot_type, weights)
        for oid in sorted(measures)
    }


def smooth_path(raw_centers, fps: float, cfg: DirectorConfig) -> list[Direction]:
    """Sphere-aware exponential smoothing with the config's velocity and
    pitch limits; see :func:`autocam360.geometry.smooth_directions`."""
    return smooth_directions(
        list(raw_centers),
        cfg.smoothing_alpha,
        math.radians(cfg.max_angular_velocity_deg_s) / fps,
        math.radians(cfg.pitch_clamp_deg),
    )


def _ranked_targets(
    measures: dict[str, ObjectMeasures],
    sal: dict[str, float],
    cfg: DirectorConfig,
) -> list[str]:
    """Objects worth framing, most salient first (id breaks ties)."""
    ids = [
        oid for oid in sorted(measures) if measures[oid].presence >= cfg.measures.min_presence
    ]
    return sorted(ids, key=lambda o: (-sal[o], o))


def _held_centers(positions: Positions, oid: str) -> list[Direction]:
    """Per-frame centers with absences held at the last known position
    (the first known one for leading absences)."""
    row = positions[oid]
    first = next(p[0] for p in row if p is not None)
    out: list[Direction] = []
    cur = first
    for p in row:
        if p is not None:
            cur = p[0]
        out.append(cur)
    return out


def _shot(
    shot_type: ShotType, frame_range: tuple[int, int], centers, cfg: DirectorConfig, targets=()
) -> ShotHypothesis:
    """A candidate of `shot_type` over `frame_range` looking along
    `centers`: one Direction per frame, or one Direction held for the
    whole range.  Every center's pitch is clamped to the config limit
    and every viewport takes the type's FOV."""
    limit = math.radians(cfg.pitch_clamp_deg)
    hfov = math.radians(cfg.fov_deg[shot_type])
    start, end = frame_range
    if isinstance(centers, Direction):
        path = (Viewport(clamp_pitch(centers, limit), hfov, cfg.aspect),) * (end - start)
    else:
        path = tuple(Viewport(clamp_pitch(c, limit), hfov, cfg.aspect) for c in centers)
    return ShotHypothesis(shot_type, start, end, path, targets)


def _generate_tracking(scene, frame_range, measures, sal, positions, prev, cfg):
    return [
        _shot(
            ShotType.TRACKING,
            frame_range,
            smooth_path(_held_centers(positions, oid), scene.fps, cfg),
            cfg,
            (oid,),
        )
        for oid in _ranked_targets(measures, sal, cfg)[:3]
    ]


def _generate_static(scene, frame_range, measures, sal, positions, prev, cfg):
    threshold = math.radians(cfg.cluster_threshold_deg)
    pool = _ranked_targets(measures, sal, cfg)
    out = []
    while pool and len(out) < 3:
        seed = pool[0]
        members = [
            oid
            for oid in pool
            if angular_distance(measures[seed].mean_center, measures[oid].mean_center)
            <= threshold
        ]
        pool = [oid for oid in pool if oid not in members]
        center = mean_direction(
            [measures[oid].mean_center for oid in members],
            weights=[sal[oid] for oid in members],
        )
        out.append(_shot(ShotType.STATIC, frame_range, center, cfg, tuple(sorted(members))))
    return out


def _generate_medium(scene, frame_range, measures, sal, positions, prev, cfg):
    return [
        _shot(ShotType.MEDIUM, frame_range, measures[oid].mean_center, cfg, (oid,))
        for oid in _ranked_targets(measures, sal, cfg)[:3]
    ]


def _generate_pan(scene, frame_range, measures, sal, positions, prev, cfg):
    start_yaw = prev.path[-1].center.yaw if prev is not None else 0.0
    targets = _ranked_targets(measures, sal, cfg)
    weight_sum = sum(sal[oid] for oid in targets)
    if weight_sum > 0.0:
        pitch = sum(sal[oid] * measures[oid].mean_center.pitch for oid in targets) / weight_sum
    else:
        pitch = 0.0
    # clamped before any Direction is built: a clamp in _shot would
    # rebuild each Direction and wrap its yaw a second time
    limit = math.radians(cfg.pitch_clamp_deg)
    pitch = min(limit, max(-limit, pitch))
    sweep = math.radians(cfg.pan_sweep_deg)
    n = frame_range[1] - frame_range[0]
    # one frame sweeps nothing: it adds +-0.0 to the start yaw
    return [
        _shot(
            ShotType.PAN,
            frame_range,
            [Direction(start_yaw + sign * sweep * i / max(1, n - 1), pitch) for i in range(n)],
            cfg,
        )
        for sign in (1.0, -1.0)
    ]


def _generate_recommender(scene, frame_range, measures, sal, positions, prev, cfg):
    """Follow the external recommendation track when it covers the range.

    A frame counts as covered when it lies within the annotated span;
    directions between annotations follow the great circle, and frames
    outside the span hold the nearest endpoint.  The second candidate
    holds the mean of those directions.
    """
    if not scene.recommendations:
        return []
    by_frame: dict[int, Direction] = {}
    for rec in scene.recommendations:  # later entries override duplicates
        by_frame[rec.frame] = rec.direction
    frames = sorted(by_frame)
    first, last = frames[0], frames[-1]
    start, end = frame_range
    covered = sum(1 for t in range(start, end) if first <= t <= last)
    if covered / (end - start) < cfg.recommender_min_coverage:
        return []

    targets: list[Direction] = []
    for t in range(start, end):
        if t <= first:
            targets.append(by_frame[first])
        elif t >= last:
            targets.append(by_frame[last])
        elif t in by_frame:
            targets.append(by_frame[t])
        else:
            pos = bisect.bisect_left(frames, t)
            f1, f2 = frames[pos - 1], frames[pos]
            d1, d2 = by_frame[f1], by_frame[f2]
            frac = (t - f1) / (f2 - f1)
            targets.append(rotate_toward(d1, d2, frac * angular_distance(d1, d2)))

    return [
        _shot(ShotType.RECOMMENDER, frame_range, smooth_path(targets, scene.fps, cfg), cfg),
        _shot(ShotType.RECOMMENDER, frame_range, mean_direction(targets), cfg),
    ]


_GENERATORS = {
    ShotType.TRACKING: _generate_tracking,
    ShotType.STATIC: _generate_static,
    ShotType.MEDIUM: _generate_medium,
    ShotType.PAN: _generate_pan,
    ShotType.RECOMMENDER: _generate_recommender,
}


def generate_hypotheses(
    shot_type: ShotType,
    scene: Scene,
    frame_range: tuple[int, int],
    measures: dict[str, ObjectMeasures],
    sal: dict[str, float],
    positions: Positions,
    prev,
    cfg: DirectorConfig,
) -> list[ShotHypothesis]:
    """Candidates of one type for one range; an empty list is valid.

    `sal` is the :func:`saliency_table` of `shot_type` and `positions`
    the :func:`~autocam360.measures.frame_positions` table of the range.
    `prev` is the previously chosen shot, if any (used by the pan
    generator to anchor its sweep).
    """
    out = _GENERATORS[shot_type](scene, frame_range, measures, sal, positions, prev, cfg)
    return out[: cfg.max_hypotheses_per_type]


def score_hypothesis(
    h: ShotHypothesis,
    sal: dict[str, float],
    positions: Positions,
    prev,
    cfg: DirectorConfig,
) -> ShotHypothesis:
    """Attach raw score, jump-cut penalty and final score to a hypothesis.

    `sal` is the :func:`saliency_table` of the hypothesis's type and
    `positions` the :func:`~autocam360.measures.frame_positions` table of
    its range.  The raw score is the per-frame mean of saliency-weighted
    framing quality summed over the objects present in that frame; it is
    always >= 0.  `prev` is the previously chosen shot, if any.
    """
    total = 0.0
    for i, vp in enumerate(h.path):
        for oid in sal:
            p = positions[oid][i]
            if p is not None:
                total += sal[oid] * centered_weight(p[0], vp)
    raw = total / len(h.path)

    penalty = 0.0
    if prev is not None:
        cut = angular_distance(prev.path[-1].center, h.path[0].center)
        if 0.0 < cut < math.radians(cfg.jump_cut_threshold_deg):
            continuation = (
                h.shot_type is ShotType.TRACKING
                and prev.shot_type is ShotType.TRACKING
                and tuple(h.target_ids) == tuple(prev.target_ids)
            )
            if not continuation:
                penalty = cfg.jump_cut_penalty
    return replace(h, raw_score=raw, penalty=penalty, score=raw - penalty)
