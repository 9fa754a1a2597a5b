from __future__ import annotations

import math
import random

import pytest

from oracles import stable_angle

from autocam360.config import DirectorConfig
from autocam360.geometry import Direction, Viewport, angular_distance
from autocam360.hypotheses import (
    ShotHypothesis,
    centered_weight,
    generate_hypotheses,
    saliency_table,
    score_hypothesis,
)
from autocam360.measures import VisitedHistory, compute_measures, frame_positions
from autocam360.saliency import SaliencyWeights, ShotType
from autocam360.tracks import ObjectTrack, Recommendation, Scene, TrackSample

from test_measures import box_at, make_scene, track_from_yaws, H, W

CFG = DirectorConfig()


def positions_for(scene, frame_range=(0, 30)):
    return frame_positions(scene, frame_range, CFG.measures.interp_gap_frames)


def table(m, scene, shot_type):
    return saliency_table(m, scene, shot_type, CFG.saliency)


def measures_for(scene, frame_range=(0, 30), history=None):
    positions = positions_for(scene, frame_range)
    return compute_measures(
        scene, frame_range, positions, history or VisitedHistory(), CFG.measures
    )


def generate(shot_type, scene, frame_range, m, prev):
    """generate_hypotheses with the range's own saliency table and positions."""
    sal = table(m, scene, shot_type)
    positions = positions_for(scene, frame_range)
    return generate_hypotheses(shot_type, scene, frame_range, m, sal, positions, prev, CFG)


def empty_scene(num_frames=30) -> Scene:
    return Scene(30.0, W, H, num_frames, ())


# ---------------------------------------------------------------------------
# generators


def test_empty_scene_only_pan_generates():
    scene = empty_scene()
    m = measures_for(scene)
    for shot_type in (ShotType.TRACKING, ShotType.STATIC, ShotType.MEDIUM, ShotType.RECOMMENDER):
        assert generate(shot_type, scene, (0, 30), m, None) == []
    pans = generate(ShotType.PAN, scene, (0, 30), m, None)
    assert len(pans) == 2


def test_single_moving_human_gets_one_tracking_hypothesis():
    yaws = {t: 10.0 * t / 30.0 for t in range(30)}
    scene = make_scene([track_from_yaws("solo", yaws)])
    m = measures_for(scene)
    hyps = generate(ShotType.TRACKING, scene, (0, 30), m, None)
    assert len(hyps) == 1
    assert hyps[0].target_ids == ("solo",)
    assert hyps[0].path[0].hfov == pytest.approx(math.radians(75.0))


def test_type_fovs_and_path_lengths():
    scene = make_scene(
        [track_from_yaws("a", {t: 0.0 for t in range(30)}),
         track_from_yaws("b", {t: 50.0 for t in range(30)})]
    )
    m = measures_for(scene)
    expected_fov = {
        ShotType.TRACKING: 75.0,
        ShotType.STATIC: 115.0,
        ShotType.MEDIUM: 95.0,
        ShotType.PAN: 90.0,
    }
    for shot_type, fov in expected_fov.items():
        for h in generate(shot_type, scene, (0, 30), m, None):
            assert len(h.path) == 30
            assert all(vp.hfov == pytest.approx(math.radians(fov)) for vp in h.path)
            assert all(abs(vp.center.pitch) <= math.radians(45.0) + 1e-12 for vp in h.path)


def test_static_clusters_nearby_objects():
    # two objects 20 degrees apart cluster together; a third 120 degrees
    # away seeds its own cluster
    scene = make_scene(
        [
            track_from_yaws("a", {t: -10.0 for t in range(30)}),
            track_from_yaws("b", {t: 10.0 for t in range(30)}),
            track_from_yaws("c", {t: 130.0 for t in range(30)}),
        ]
    )
    m = measures_for(scene)
    hyps = generate(ShotType.STATIC, scene, (0, 30), m, None)
    grouped = [h for h in hyps if len(h.target_ids) == 2]
    assert len(grouped) == 1
    assert grouped[0].target_ids == ("a", "b")
    assert {h.target_ids for h in hyps} == {("a", "b"), ("c",)}


def test_pan_anchors_at_previous_end_and_sweeps_90():
    scene = empty_scene()
    m = measures_for(scene)
    prev_end = Direction(math.radians(50.0), 0.0)
    prev = ShotHypothesis(
        ShotType.TRACKING, 0, 30, (Viewport(prev_end, math.radians(75), 16 / 9),) * 30
    )
    hyps = generate(ShotType.PAN, scene, (30, 60), m, prev)
    for h, sign in zip(hyps, (1.0, -1.0)):
        assert h.path[0].center.yaw == pytest.approx(math.radians(50.0), abs=1e-12)
        end_yaw = h.path[-1].center.yaw
        want = math.radians(50.0) + sign * math.radians(90.0)
        assert math.sin(end_yaw) == pytest.approx(math.sin(want), abs=1e-12)
        assert math.cos(end_yaw) == pytest.approx(math.cos(want), abs=1e-12)
        # constant rate
        steps = [
            angular_distance(a.center, b.center) for a, b in zip(h.path, h.path[1:])
        ]
        assert max(steps) - min(steps) < 1e-9


def test_one_frame_pan_holds_the_previous_end_yaw():
    # with one frame there is nothing to sweep: both directions start and
    # end at the previous shot's last yaw
    scene = empty_scene(31)
    m = measures_for(scene, (30, 31))
    prev_end = Direction(math.radians(50.0), 0.0)
    prev = ShotHypothesis(
        ShotType.TRACKING, 0, 30, (Viewport(prev_end, math.radians(75), 16 / 9),) * 30
    )
    hyps = generate(ShotType.PAN, scene, (30, 31), m, prev)
    assert len(hyps) == 2
    for h in hyps:
        assert len(h.path) == 1
        assert h.path[0].center == Direction(math.radians(50.0), 0.0)
        assert h.path[0].hfov == math.radians(90.0)


def test_recommender_follows_annotations():
    recs = tuple(Recommendation(t, 5.0 + 0.5 * t, 0.0) for t in range(30))
    scene = Scene(30.0, W, H, 30, (), recs)
    m = measures_for(scene)
    hyps = generate(ShotType.RECOMMENDER, scene, (0, 30), m, None)
    assert len(hyps) == 2

    # independent smoothing recurrence over the annotated directions
    from oracles import slerp

    alpha = CFG.smoothing_alpha
    max_step = math.radians(CFG.max_angular_velocity_deg_s) / scene.fps
    targets = [r.direction for r in recs]
    expected = [targets[0]]
    for tgt in targets[1:]:
        cur = expected[-1]
        total = stable_angle(cur, tgt)
        step = min(alpha * total, max_step)
        expected.append(slerp(cur, tgt, step / total) if total > 0 else cur)
    for vp, want in zip(hyps[0].path, expected):
        assert stable_angle(vp.center, want) < 1e-9
    assert all(vp.hfov == pytest.approx(math.radians(75.0)) for vp in hyps[0].path)


def test_recommender_requires_coverage():
    # annotations spanning only the first third of the range: coverage 1/3
    recs = (Recommendation(0, 0.0, 0.0), Recommendation(9, 10.0, 0.0))
    scene = Scene(30.0, W, H, 30, (), recs)
    m = measures_for(scene)
    assert generate(ShotType.RECOMMENDER, scene, (0, 30), m, None) == []
    # spanning over half of it: eligible
    recs = (Recommendation(0, 0.0, 0.0), Recommendation(16, 10.0, 0.0))
    scene = Scene(30.0, W, H, 30, (), recs)
    assert len(generate(ShotType.RECOMMENDER, scene, (0, 30), m, None)) == 2


def test_low_presence_objects_not_targeted():
    scene = make_scene(
        [
            track_from_yaws("ghost", {0: 0.0, 2: 0.0}),  # 3 frames of 30
            track_from_yaws("solid", {t: 40.0 for t in range(30)}),
        ]
    )
    m = measures_for(scene)
    assert "ghost" in m  # measured
    hyps = generate(ShotType.MEDIUM, scene, (0, 30), m, None)
    assert all(h.target_ids == ("solid",) for h in hyps)


def test_generation_deterministic():
    rng = random.Random(31)
    tracks = [
        track_from_yaws(f"o{i}", {t: rng.uniform(-170, 170) + t * 0.1 for t in range(30)})
        for i in range(3)
    ]
    scene = make_scene(tracks)
    m = measures_for(scene)
    for shot_type in ShotType:
        a = generate(shot_type, scene, (0, 30), m, None)
        b = generate(shot_type, scene, (0, 30), m, None)
        assert a == b


def test_hypothesis_invariants_on_randomized_scenes():
    rng = random.Random(77)
    for _ in range(10):
        tracks = []
        for i in range(rng.randint(0, 3)):
            base = rng.uniform(-160, 160)
            drift = rng.uniform(-15, 15)
            yaws = {t: base + drift * t / 30.0 for t in range(30)}
            tracks.append(track_from_yaws(f"o{i}", yaws))
        scene = make_scene(tracks)
        m = measures_for(scene)
        for shot_type in ShotType:
            for h in generate(shot_type, scene, (0, 30), m, None):
                assert len(h.path) == h.end - h.start
                assert len({vp.hfov for vp in h.path}) == 1
                assert h.path[0].hfov == pytest.approx(
                    math.radians(CFG.fov_deg[shot_type])
                )
                assert all(
                    abs(vp.center.pitch) <= math.radians(CFG.pitch_clamp_deg) + 1e-12
                    for vp in h.path
                )


# ---------------------------------------------------------------------------
# centered weight


def test_centered_weight_reference_points():
    vp = Viewport(Direction(0.0, 0.0), math.radians(80), 16 / 9)
    assert centered_weight(vp.center, vp) == 1.0
    assert centered_weight(Direction(math.radians(40.0), 0.0), vp) == pytest.approx(
        0.0, abs=1e-9
    )
    assert centered_weight(Direction(math.radians(20.0), 0.0), vp) == pytest.approx(
        0.5, abs=1e-9
    )
    # beyond the half-fov the weight stays at zero
    assert centered_weight(Direction(math.pi, 0.0), vp) == 0.0


# ---------------------------------------------------------------------------
# scoring


def _const_hypothesis(shot_type, center, start=0, end=30, targets=()):
    vp = Viewport(center, math.radians(CFG.fov_deg[shot_type]), CFG.aspect)
    return ShotHypothesis(shot_type, start, end, (vp,) * (end - start), tuple(targets))


def test_empty_scene_scores_zero():
    scene = empty_scene()
    m = measures_for(scene)
    h = _const_hypothesis(ShotType.STATIC, Direction(0, 0))
    scored = score_hypothesis(h, table(m, scene, h.shot_type), positions_for(scene), None, CFG)
    assert scored.raw_score == 0.0
    assert scored.penalty == 0.0
    assert scored.score == 0.0


def test_jump_cut_penalty_is_exactly_half():
    scene = empty_scene(num_frames=60)
    m = measures_for(scene, (30, 60)) if scene.objects else {}
    prev = _const_hypothesis(ShotType.STATIC, Direction(0.0, 0.0), 0, 30)
    near = _const_hypothesis(ShotType.MEDIUM, Direction(math.radians(20.0), 0.0), 30, 60)
    far = _const_hypothesis(ShotType.MEDIUM, Direction(math.radians(40.0), 0.0), 30, 60)
    positions = positions_for(scene, (30, 60))
    s_near = score_hypothesis(near, table(m, scene, near.shot_type), positions, prev, CFG)
    s_far = score_hypothesis(far, table(m, scene, far.shot_type), positions, prev, CFG)
    assert s_near.penalty == 0.5
    assert s_far.penalty == 0.0
    assert s_far.score - s_near.score == 0.5


def test_zero_distance_cut_not_penalized():
    scene = empty_scene(num_frames=60)
    prev = _const_hypothesis(ShotType.STATIC, Direction(0.3, 0.1), 0, 30)
    same = _const_hypothesis(ShotType.MEDIUM, Direction(0.3, 0.1), 30, 60)
    scored = score_hypothesis(same, {}, {}, prev, CFG)
    assert scored.penalty == 0.0


def test_tracking_continuation_exempt_from_jump_cut():
    scene = empty_scene(num_frames=60)
    prev = _const_hypothesis(ShotType.TRACKING, Direction(0.0, 0.0), 0, 30, targets=("a",))
    cont = _const_hypothesis(
        ShotType.TRACKING, Direction(math.radians(20.0), 0.0), 30, 60, targets=("a",)
    )
    other = _const_hypothesis(
        ShotType.TRACKING, Direction(math.radians(20.0), 0.0), 30, 60, targets=("b",)
    )
    assert score_hypothesis(cont, {}, {}, prev, CFG).penalty == 0.0
    assert score_hypothesis(other, {}, {}, prev, CFG).penalty == 0.5


def test_raw_score_nonnegative_and_penalty_binary():
    rng = random.Random(11)
    scene = make_scene(
        [
            track_from_yaws(f"o{i}", {t: rng.uniform(-170, 170) for t in range(0, 30, 5)})
            for i in range(2)
        ]
    )
    m = measures_for(scene)
    prev = _const_hypothesis(ShotType.STATIC, Direction(0.0, 0.0))
    for shot_type in ShotType:
        for h in generate(shot_type, scene, (0, 30), m, prev):
            sal = table(m, scene, shot_type)
            scored = score_hypothesis(h, sal, positions_for(scene), prev, CFG)
            assert scored.raw_score >= 0.0
            assert scored.penalty in (0.0, CFG.jump_cut_penalty)
            assert scored.score == scored.raw_score - scored.penalty


def test_raising_target_saliency_never_lowers_raw_score():
    yaws = {t: 15.0 for t in range(30)}
    scene = make_scene([track_from_yaws("a", yaws)])
    m = measures_for(scene)
    h = generate(ShotType.TRACKING, scene, (0, 30), m, None)[0]
    sal = table(m, scene, h.shot_type)
    base = score_hypothesis(h, sal, positions_for(scene), None, CFG).raw_score
    import dataclasses

    bumped = {"a": dataclasses.replace(m["a"], size=min(1.0, m["a"].size + 0.3))}
    sal = table(bumped, scene, h.shot_type)
    higher = score_hypothesis(h, sal, positions_for(scene), None, CFG).raw_score
    assert higher >= base


def test_hypothesis_validation():
    vp = Viewport(Direction(0, 0), math.radians(75), 16 / 9)
    with pytest.raises(ValueError):
        ShotHypothesis(ShotType.PAN, 0, 10, (vp,) * 9)
    with pytest.raises(ValueError):
        ShotHypothesis(ShotType.PAN, 10, 10, ())
    other = Viewport(Direction(0, 0), math.radians(90), 16 / 9)
    with pytest.raises(ValueError):
        ShotHypothesis(ShotType.PAN, 0, 2, (vp, other))
