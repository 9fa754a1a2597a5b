from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import autocam360.director
import autocam360.hypotheses
import autocam360.measures
from autocam360.config import DirectorConfig
from autocam360.director import (
    CameraPathError,
    direct,
    eligible_types,
    output_to_document,
    parse_camera_path,
    plan_next_shot,
    segment_timeline,
    smooth_path,
)
from autocam360.geometry import Direction, Viewport, angular_distance
from autocam360.hypotheses import ShotHypothesis
from autocam360.measures import VisitedHistory
from autocam360.saliency import SaliencyWeights, ShotType, TypeWeights
from autocam360.tracks import Scene

from test_measures import box_at, make_scene, track_from_yaws, H, W

CFG = DirectorConfig()


# ---------------------------------------------------------------------------
# timeline segmentation


def test_segment_exact_division():
    assert segment_timeline(180, 30, 3.0) == [(0, 90), (90, 180)]


def test_segment_small_remainder_merges():
    assert segment_timeline(100, 30, 3.0) == [(0, 100)]


def test_segment_large_remainder_stands_alone():
    assert segment_timeline(140, 30, 3.0) == [(0, 90), (90, 140)]


def test_segment_short_clip_is_single_shot():
    assert segment_timeline(40, 30, 3.0) == [(0, 40)]


def test_segment_huge_shot_length_is_single_shot():
    assert segment_timeline(40, 30, 1e308) == [(0, 40)]


def test_segment_rejects_zero_frames():
    with pytest.raises(ValueError):
        segment_timeline(0, 30, 3.0)


# ---------------------------------------------------------------------------
# eligibility


def test_empty_history_allows_all():
    el = eligible_types((), CFG)
    assert el == frozenset(ShotType)
    assert el.relaxed is False


def test_no_repeat_excludes_last():
    el = eligible_types((ShotType.TRACKING,), CFG)
    assert ShotType.TRACKING not in el
    assert len(el) == 4


def test_window_cap_hand_count():
    recent = (ShotType.STATIC, ShotType.PAN, ShotType.STATIC, ShotType.PAN, ShotType.TRACKING)
    el = eligible_types(recent, CFG)
    assert el == frozenset({ShotType.MEDIUM, ShotType.RECOMMENDER})
    assert el.relaxed is False


def test_eligibility_relaxes_rather_than_emptying():
    # cap 1 over a window of 5 with all five types used: everything excluded
    cfg = DirectorConfig(occurrence_window=5, occurrence_cap=1)
    recent = tuple(ShotType)
    el = eligible_types(recent, cfg)
    assert el  # never empty
    assert el.relaxed is True
    # window dropped first: only no-repeat remains
    assert el == frozenset(ShotType) - {recent[-1]}


# ---------------------------------------------------------------------------
# smoothing wrapper


def test_smooth_path_matches_config_limits():
    raw = [Direction(0.0, 0.0)] + [Direction(math.pi, 0.0)] * 5
    out = smooth_path(raw, 30.0, CFG)
    step_limit = math.radians(CFG.max_angular_velocity_deg_s) / 30.0
    for a, b in zip(out, out[1:]):
        assert angular_distance(a, b) <= step_limit + 1e-12
    assert out[0] == raw[0]
    assert len(out) == len(raw)


# ---------------------------------------------------------------------------
# planning


def test_fast_isolated_human_gets_tracking_shot():
    yaws = {t: -30.0 + 20.0 * t / 30.0 for t in range(90)}
    scene = make_scene([track_from_yaws("runner", yaws)], num_frames=90)
    shot = plan_next_shot(scene, (0, 90), VisitedHistory(), (), CFG)
    assert shot.shot_type is ShotType.TRACKING
    assert shot.target_ids == ("runner",)


def test_empty_scene_gets_pan():
    scene = Scene(30.0, W, H, 90, ())
    shot = plan_next_shot(scene, (0, 90), VisitedHistory(), (), CFG)
    assert shot.shot_type is ShotType.PAN


def test_exact_tie_broken_by_type_order():
    # one object exactly at the image center, stationary and alone:
    # with isolation weights zeroed for static and medium, both framings
    # sit exactly on the object and score identically
    weights = SaliencyWeights(
        type_weights={
            # isolation weights zeroed so the lone object scores the same
            # under every framing style; pan still loses because its sweep
            # leaves the object off-center
            ShotType.TRACKING: TypeWeights(0.5, 0.5, 0.0),
            ShotType.STATIC: TypeWeights(0.5, 0.5, 0.0),
            ShotType.MEDIUM: TypeWeights(0.5, 0.5, 0.0),
            ShotType.PAN: TypeWeights(0.5, 0.5, 0.0),
            ShotType.RECOMMENDER: TypeWeights(0.3, 0.4, 0.3),
        }
    )
    cfg = DirectorConfig(saliency=weights)
    scene = make_scene([track_from_yaws("solo", {t: 0.0 for t in range(60)})], num_frames=60)
    prev = ShotHypothesis(
        ShotType.TRACKING,
        0,
        30,
        (Viewport(Direction(0.0, 0.0), math.radians(75), cfg.aspect),) * 30,
        ("solo",),
        score=1.0,
    )
    shot = plan_next_shot(
        scene, (30, 60), VisitedHistory(), (ShotType.TRACKING,), cfg, prev=prev
    )
    # tracking excluded by no-repeat; static and medium tie exactly; the
    # declaration order promotes static
    assert shot.shot_type is ShotType.STATIC


def test_plan_respects_eligibility():
    scene = make_scene([track_from_yaws("a", {t: 0.0 for t in range(60)})], num_frames=60)
    recent = (ShotType.TRACKING,)
    shot = plan_next_shot(scene, (30, 60), VisitedHistory(), recent, CFG)
    assert shot.shot_type is not ShotType.TRACKING


# ---------------------------------------------------------------------------
# the full loop


def test_empty_scene_two_shots_relax_to_pan_pan():
    scene = Scene(30.0, W, H, 180, ())
    out = direct(scene, CFG)
    assert [s.shot_type for s in out.shots] == [ShotType.PAN, ShotType.PAN]
    assert out.records[0].relaxed is False
    assert out.records[1].relaxed is True  # no-repeat had to be dropped


def test_shot_ranges_partition_timeline():
    scene = make_scene([track_from_yaws("a", {t: 5.0 for t in range(100)})], num_frames=100)
    out = direct(scene, CFG)
    cur = 0
    for shot in out.shots:
        assert shot.start == cur
        cur = shot.end
    assert cur == 100
    assert len(out.camera_path) == 100
    flat = tuple(vp for s in out.shots for vp in s.path)
    assert flat == out.camera_path


def test_every_frame_respects_type_fov_and_pitch_clamp():
    scene = make_scene(
        [
            track_from_yaws("a", {t: -40.0 for t in range(300)}),
            track_from_yaws("b", {t: 55.0 + 0.1 * t for t in range(300)}),
        ],
        num_frames=300,
    )
    out = direct(scene, CFG)
    for shot in out.shots:
        want = math.radians(CFG.fov_deg[shot.shot_type])
        for vp in shot.path:
            assert vp.hfov == pytest.approx(want, abs=1e-12)
            assert abs(vp.center.pitch) <= math.radians(CFG.pitch_clamp_deg) + 1e-12


def test_visited_damping_lowers_saliency_next_shot():
    scene = make_scene([track_from_yaws("solo", {t: 0.0 for t in range(180)})], num_frames=180)
    out = direct(scene, CFG)
    assert len(out.shots) >= 2
    first, second = out.records[0], out.records[1]
    t = out.shots[0].shot_type
    assert second.saliency[t]["solo"] < first.saliency[t]["solo"]
    assert second.measures["solo"].visited > first.measures["solo"].visited


def test_chosen_score_is_argmax_of_recorded_hypotheses():
    rng = random.Random(3)
    tracks = [
        track_from_yaws(f"o{i}", {t: rng.uniform(-150, 150) + rng.uniform(-5, 5) * t / 30 for t in range(120)})
        for i in range(3)
    ]
    scene = make_scene(tracks, num_frames=120)
    out = direct(scene, CFG)
    for record, shot in zip(out.records, out.shots):
        best = max(h.score for h in record.hypotheses)
        assert shot.score == best
        assert record.hypotheses[record.chosen_index].score == best


def test_determinism_bit_identical_documents():
    rng = random.Random(8)
    tracks = [
        track_from_yaws(f"o{i}", {t: rng.uniform(-150, 150) for t in range(0, 150, 3)})
        for i in range(2)
    ]
    scene = make_scene(tracks, num_frames=150)
    doc1 = output_to_document(direct(scene, CFG))
    doc2 = output_to_document(direct(scene, CFG))
    assert doc1 == doc2


def test_camera_path_round_trip():
    scene = make_scene([track_from_yaws("a", {t: 25.0 for t in range(90)})], num_frames=90)
    out = direct(scene, CFG)
    doc = output_to_document(out)
    fps, viewports, shots = parse_camera_path(doc, aspect=CFG.aspect)
    assert fps == scene.fps
    assert len(viewports) == 90
    for got, want in zip(viewports, out.camera_path):
        assert angular_distance(got.center, want.center) < 1e-12
        assert got.hfov == pytest.approx(want.hfov, abs=1e-12)
    assert shots[0]["type"] == out.shots[0].shot_type.value
    assert {"start", "end", "type", "score", "targets", "relaxed"} <= set(shots[0])


def _path_document(fps=30.0, **frame):
    return json.dumps(
        {"fps": fps, "frames": [{"yaw_deg": 10.0, "pitch_deg": -5.0, "hfov_deg": 75.0, **frame}]}
    )


@pytest.mark.parametrize(
    "document",
    [
        _path_document(fps="nan"),
        _path_document(fps=0),
        _path_document(fps=-30.0),
        '{"fps": 1e999, "frames": [{"yaw_deg": 0, "pitch_deg": 0, "hfov_deg": 60}]}',
        '{"fps": NaN, "frames": [{"yaw_deg": 0, "pitch_deg": 0, "hfov_deg": 60}]}',
        _path_document(fps="30"),
        _path_document(fps=True),
        _path_document(hfov_deg=True),
        _path_document(yaw_deg="10"),
        _path_document(pitch_deg=None),
        _path_document(yaw_deg=10**400),
        b"\xff",
        json.dumps({**json.loads(_path_document()), "shots": "abc"}),
        json.dumps({**json.loads(_path_document()), "shots": {"x": 1}}),
    ],
)
def test_camera_path_values_are_strict(document):
    with pytest.raises(CameraPathError):
        parse_camera_path(document, aspect=CFG.aspect)


def test_camera_path_accepts_integer_numbers():
    fps, viewports, _ = parse_camera_path(_path_document(fps=24, yaw_deg=10), aspect=CFG.aspect)
    assert fps == 24.0 and isinstance(fps, float)
    assert viewports[0].center.yaw == pytest.approx(math.radians(10), abs=1e-15)


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0, 30, 60.0, -95.0, 10**400, "30", "nan"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["fps", "frames", "shots", "yaw_deg", "pitch_deg", "hfov_deg", "x"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


# a valid camera path whose shot rows are arbitrary JSON
_PATHS = _JSON.map(lambda shots: {**json.loads(_path_document()), "shots": shots})


@given(_JSON | _PATHS)
def test_parse_camera_path_raises_only_camera_path_error(data):
    try:
        fps, viewports, shots = parse_camera_path(json.dumps(data), aspect=CFG.aspect)
    except CameraPathError:
        return
    assert math.isfinite(fps) and fps > 0
    assert viewports and isinstance(shots, list)
    assert all(isinstance(row, dict) for row in shots)


def test_window_cap_respected_or_relaxed_over_long_run():
    scene = make_scene([track_from_yaws("a", {t: 0.0 for t in range(600)})], num_frames=600)
    out = direct(scene, CFG)
    types = [s.shot_type for s in out.shots]
    for i in range(1, len(types)):
        if types[i] == types[i - 1]:
            assert out.records[i].relaxed
        window = types[max(0, i - CFG.occurrence_window) : i]
        if window.count(types[i]) >= CFG.occurrence_cap:
            assert out.records[i].relaxed


def test_direct_interpolates_once_per_scene_and_tables_five_per_shot(monkeypatch):
    # each object box is interpolated once per frame of the scene, and
    # each shot builds one saliency table per shot type
    calls = {"interpolated_bbox": 0, "saliency_table": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(autocam360.measures, "interpolated_bbox", "interpolated_bbox")
    counted(autocam360.director, "saliency_table", "saliency_table")
    counted(autocam360.hypotheses, "saliency_table", "saliency_table")
    rng = random.Random(5)
    tracks = [
        track_from_yaws(f"o{i}", {t: rng.uniform(-150, 150) + 0.2 * t for t in range(0, 270, 2)})
        for i in range(4)
    ]
    scene = make_scene(tracks, num_frames=270)
    out = direct(scene, CFG)
    assert len(out.shots) == 3
    assert calls["interpolated_bbox"] == len(scene.objects) * scene.num_frames
    assert calls["saliency_table"] == 5 * len(out.shots)
