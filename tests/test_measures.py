from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autocam360.geometry import Direction, EquirectBBox, Viewport, bbox_solid_angle
from autocam360.measures import (
    OMEGA_REF_30DEG,
    MeasureConfig,
    ObjectMeasures,
    VisitedHistory,
    compute_measures,
    frame_positions,
    update_history,
    visited_score,
)
from autocam360.tracks import ObjectTrack, Scene, TrackSample

W, H = 360, 180  # 1 px per degree


def box_at(yaw_deg: float, pitch_deg: float, size_deg: float = 10.0) -> EquirectBBox:
    px = (yaw_deg + 180.0) / 360.0 * W
    py = (90.0 - pitch_deg) / 180.0 * H
    w = size_deg / 360.0 * W
    h = size_deg / 180.0 * H
    return EquirectBBox(px - w / 2, py - h / 2, w, h)


def track_from_yaws(oid: str, yaw_by_frame: dict[int, float], category="human") -> ObjectTrack:
    samples = tuple(
        TrackSample(t, box_at(yaw, 0.0)) for t, yaw in sorted(yaw_by_frame.items())
    )
    return ObjectTrack(oid, category, samples)


def make_scene(tracks, num_frames=30, fps=30.0) -> Scene:
    return Scene(fps, W, H, num_frames, tuple(tracks))


CFG = MeasureConfig()


def measure(scene, frame_range, history, cfg=CFG):
    """compute_measures over the range's own position table."""
    positions = frame_positions(scene, frame_range, cfg.interp_gap_frames)
    return compute_measures(scene, frame_range, positions, history, cfg)


def test_single_stationary_object_degenerate_cases():
    scene = make_scene([track_from_yaws("a", {t: 30.0 for t in range(30)})])
    m = measure(scene, (0, 30), VisitedHistory(), CFG)["a"]
    assert m.motion == 0.0
    assert m.neighbourhood == 1.0
    assert m.visited == 0.0
    assert m.presence == 1.0
    assert m.mean_center.yaw == pytest.approx(math.radians(30.0), abs=1e-9)


def test_size_measure_closed_form():
    scene = make_scene([track_from_yaws("a", {t: 0.0 for t in range(30)})])
    m = measure(scene, (0, 30), VisitedHistory(), CFG)["a"]
    omega = bbox_solid_angle(box_at(0.0, 0.0), W, H)
    assert m.size == pytest.approx(omega / OMEGA_REF_30DEG, abs=1e-12)
    # a 30x30 degree equatorial box saturates to exactly the reference
    big = make_scene([ObjectTrack("a", "human", (TrackSample(0, box_at(0, 0, 30.0)),))])
    m = measure(big, (0, 1), VisitedHistory(), CFG)["a"]
    assert m.size == pytest.approx(1.0, abs=1e-12)


def test_motion_closed_form_10_deg_per_s():
    # 10 deg/s at 30 fps: consecutive equatorial centers 1/3 degree apart
    yaws = {t: 10.0 * t / 30.0 for t in range(30)}
    scene = make_scene([track_from_yaws("a", yaws)])
    m = measure(scene, (0, 30), VisitedHistory(), CFG)["a"]
    assert m.motion == pytest.approx(10.0 / (10.0 + 20.0), abs=1e-9)


def test_neighbourhood_30_degree_separation_is_half():
    a = track_from_yaws("a", {t: -15.0 for t in range(30)})
    b = track_from_yaws("b", {t: 15.0 for t in range(30)})
    measures = measure(make_scene([a, b]), (0, 30), VisitedHistory(), CFG)
    assert measures["a"].neighbourhood == pytest.approx(0.5, abs=1e-9)
    assert measures["b"].neighbourhood == pytest.approx(0.5, abs=1e-9)


def test_visited_single_recent_shot():
    history = VisitedHistory(capacity=3).push({"a": 1.0})
    assert visited_score(history, "a", 0.5) == pytest.approx(1.0 / 1.75, abs=1e-12)
    assert visited_score(history, "missing", 0.5) == 0.0
    assert visited_score(VisitedHistory(capacity=3), "a", 0.5) == 0.0


def test_visited_decay_order():
    history = VisitedHistory(capacity=3).push({"a": 1.0}).push({}).push({})
    # the sighting is now two shots old: weight 0.25
    assert visited_score(history, "a", 0.5) == pytest.approx(0.25 / 1.75, abs=1e-12)


def test_history_ring_evicts_oldest():
    h = VisitedHistory(capacity=2)
    h = h.push({"a": 1.0}).push({"b": 1.0}).push({"c": 1.0})
    assert len(h.entries) == 2
    assert "a" not in h.entries[0]


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.integers(0, 2),
    st.floats(0.01, 0.4),
)
def test_visited_monotone_in_entries(values, bump_idx, delta):
    h1 = VisitedHistory(capacity=3)
    h2 = VisitedHistory(capacity=3)
    for i, v in enumerate(values):
        h1 = h1.push({"a": v})
        h2 = h2.push({"a": min(1.0, v + delta) if i == bump_idx % len(values) else v})
    assert visited_score(h2, "a", 0.5) >= visited_score(h1, "a", 0.5) - 1e-12


def test_visited_newer_slot_weighs_more():
    older = VisitedHistory(capacity=3).push({"a": 1.0}).push({})
    newer = VisitedHistory(capacity=3).push({}).push({"a": 1.0})
    assert visited_score(newer, "a", 0.5) > visited_score(older, "a", 0.5)


def test_empty_range_rejected():
    scene = make_scene([track_from_yaws("a", {0: 0.0})])
    with pytest.raises(ValueError):
        compute_measures(scene, (10, 10), {}, VisitedHistory(), CFG)
    with pytest.raises(ValueError):
        compute_measures(scene, (0, 99), {}, VisitedHistory(), CFG)


def test_absent_object_not_emitted():
    a = track_from_yaws("a", {0: 0.0, 5: 0.0})
    b = track_from_yaws("b", {25: 40.0})
    measures = measure(make_scene([a, b]), (10, 20), VisitedHistory(), CFG)
    assert "a" not in measures  # last sample before the range
    assert "b" not in measures  # first sample after the range


def test_measures_independent_of_object_order():
    a = track_from_yaws("a", {t: -20.0 for t in range(30)})
    b = track_from_yaws("b", {t: 25.0 for t in range(30)})
    m1 = measure(make_scene([a, b]), (0, 30), VisitedHistory(), CFG)
    m2 = measure(make_scene([b, a]), (0, 30), VisitedHistory(), CFG)
    assert m1 == m2


# ---------------------------------------------------------------------------
# update_history


class _FakeShot:
    def __init__(self, start, end, path):
        self.start, self.end, self.path = start, end, path


def _const_path(center: Direction, n: int) -> tuple[Viewport, ...]:
    return tuple(Viewport(center, math.radians(75), 16 / 9) for _ in range(n))


def test_update_history_object_at_center_is_fully_visible():
    scene = make_scene([track_from_yaws("a", {t: 30.0 for t in range(30)})])
    shot = _FakeShot(0, 30, _const_path(Direction(math.radians(30), 0.0), 30))
    positions = frame_positions(scene, (0, 30), CFG.interp_gap_frames)
    h = update_history(VisitedHistory(), shot, positions)
    assert h.entries[-1]["a"] == 1.0


def test_update_history_antipodal_object_invisible():
    scene = make_scene([track_from_yaws("a", {t: 150.0 for t in range(30)})])
    shot = _FakeShot(0, 30, _const_path(Direction(math.radians(-30.0), 0.0), 30))
    positions = frame_positions(scene, (0, 30), CFG.interp_gap_frames)
    h = update_history(VisitedHistory(), shot, positions)
    assert h.entries[-1]["a"] == 0.0


def test_update_history_half_visible():
    # object inside the viewport for exactly the first half of the shot
    yaws = {t: (0.0 if t < 15 else 150.0) for t in range(31)}
    # avoid interpolation between 0 and 150: adjacent samples every frame
    scene = make_scene([track_from_yaws("a", yaws)], num_frames=31)
    shot = _FakeShot(0, 30, _const_path(Direction(0.0, 0.0), 30))
    positions = frame_positions(scene, (0, 30), CFG.interp_gap_frames)
    h = update_history(VisitedHistory(), shot, positions)
    # brute-force count with the projection itself
    vp = shot.path[0]
    from autocam360.geometry import project_to_viewport
    from autocam360.tracks import interpolated_bbox
    from autocam360.geometry import bbox_center_direction

    expected = 0
    for t in range(30):
        box = interpolated_bbox(scene.objects[0], t, scene)
        uv = project_to_viewport(bbox_center_direction(box, W, H), vp)
        if uv is not None and 0 <= uv[0] <= 1 and 0 <= uv[1] <= 1:
            expected += 1
    assert h.entries[-1]["a"] == expected / 30
    assert h.entries[-1]["a"] == 0.5


def test_motion_strictly_monotone_in_rate():
    rates = [0.0, 5.0, 10.0, 25.0, 60.0]
    got = []
    for rate in rates:
        yaws = {t: rate * t / 30.0 for t in range(30)}
        scene = make_scene([track_from_yaws("a", yaws)])
        got.append(measure(scene, (0, 30), VisitedHistory(), CFG)["a"].motion)
    for lo, hi in zip(got, got[1:]):
        assert hi > lo


def test_measure_validation():
    with pytest.raises(ValueError):
        ObjectMeasures(1.5, 0, 0, 0, Direction(0, 0), 1.0)
    with pytest.raises(ValueError):
        ObjectMeasures(0.5, 0, 0, 0, Direction(0, 0), 0.0)
    with pytest.raises(ValueError):
        MeasureConfig(history_len=0)


def test_positions_must_cover_the_range():
    scene = make_scene([track_from_yaws("a", {t: 0.0 for t in range(30)})])
    short = frame_positions(scene, (0, 10), CFG.interp_gap_frames)
    with pytest.raises(ValueError, match="cover"):
        compute_measures(scene, (0, 30), short, VisitedHistory(), CFG)
    shot = _FakeShot(0, 30, _const_path(Direction(0.0, 0.0), 30))
    with pytest.raises(ValueError, match="cover"):
        update_history(VisitedHistory(), shot, short)
