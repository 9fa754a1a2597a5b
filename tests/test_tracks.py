from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autocam360.geometry import (
    Direction,
    EquirectBBox,
    bbox_center_direction,
)
from autocam360.tracks import (
    MAX_FRAMES,
    MAX_HEIGHT,
    MAX_WIDTH,
    ObjectTrack,
    Recommendation,
    Scene,
    TrackFileError,
    TrackSample,
    interpolated_bbox,
    parse_scene,
    scene_to_document,
)

MINIMAL = {
    "fps": 30,
    "width": 200,
    "height": 100,
    "num_frames": 60,
    "objects": [
        {
            "id": "a",
            "category": "human",
            "samples": [{"t": 0, "x": 10.0, "y": 20.0, "w": 30.0, "h": 40.0}],
        }
    ],
}


def doc(**overrides) -> str:
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return json.dumps(data)


def test_parse_minimal():
    scene = parse_scene(doc())
    assert scene.fps == 30
    assert len(scene.objects) == 1
    assert scene.objects[0].samples[0].box == EquirectBBox(10, 20, 30, 40)
    assert scene.recommendations is None


def test_parse_accepts_bytes():
    scene = parse_scene(doc().encode())
    assert scene.num_frames == 60


def test_missing_fps_names_field():
    data = json.loads(doc())
    del data["fps"]
    with pytest.raises(TrackFileError, match="'fps'"):
        parse_scene(json.dumps(data))


def test_syntax_error_reports_position():
    with pytest.raises(TrackFileError, match="line 1"):
        parse_scene("{nope}")


def test_frame_index_at_num_frames_rejected():
    data = json.loads(doc())
    data["objects"][0]["samples"][0]["t"] = 60
    with pytest.raises(TrackFileError, match="60"):
        parse_scene(json.dumps(data))


def test_nonpositive_fps_rejected():
    with pytest.raises(TrackFileError, match="fps"):
        parse_scene(doc(fps=0))


def test_duplicate_object_id_rejected():
    data = json.loads(doc())
    data["objects"].append(data["objects"][0])
    with pytest.raises(TrackFileError, match="duplicate"):
        parse_scene(json.dumps(data))


def test_non_increasing_sample_frames_rejected():
    data = json.loads(doc())
    data["objects"][0]["samples"] = [
        {"t": 5, "x": 1, "y": 1, "w": 2, "h": 2},
        {"t": 5, "x": 1, "y": 1, "w": 2, "h": 2},
    ]
    with pytest.raises(TrackFileError, match="increasing"):
        parse_scene(json.dumps(data))


def test_bbox_exceeding_image_rejected():
    data = json.loads(doc())
    data["objects"][0]["samples"][0]["h"] = 90.0  # y=20 -> bottom 110 > 100
    with pytest.raises(TrackFileError, match="'a'"):
        parse_scene(json.dumps(data))


def test_non_equirect_ratio_warns():
    with pytest.warns(UserWarning, match="2:1"):
        parse_scene(doc(width=300))


def test_recommendations_parsed_in_degrees():
    data = json.loads(doc())
    data["recommendations"] = [{"t": 3, "yaw_deg": 90.0, "pitch_deg": -45.0}]
    scene = parse_scene(json.dumps(data))
    rec = scene.recommendations[0]
    assert rec.direction.yaw == pytest.approx(math.pi / 2)
    assert rec.direction.pitch == pytest.approx(-math.pi / 4)


def test_recommendation_frame_out_of_range_rejected():
    data = json.loads(doc())
    data["recommendations"] = [{"t": 60, "yaw_deg": 0.0, "pitch_deg": 0.0}]
    with pytest.raises(TrackFileError, match="recommendation"):
        parse_scene(json.dumps(data))


def test_canonical_round_trip():
    data = json.loads(doc())
    data["objects"][0]["samples"].append({"t": 7, "x": -3.25, "y": 1.5, "w": 12.125, "h": 9})
    data["recommendations"] = [
        {"t": 0, "yaw_deg": 10.123456789, "pitch_deg": -0.000123},
        {"t": 59, "yaw_deg": -179.9, "pitch_deg": 33.3},
    ]
    scene1 = parse_scene(json.dumps(data))
    doc1 = scene_to_document(scene1)
    scene2 = parse_scene(doc1)
    assert scene2 == scene1
    assert scene_to_document(scene2) == doc1


# ---------------------------------------------------------------------------
# interpolation


def two_sample_scene(x1, x2, t1=0, t2=10, width=200, height=100):
    track = ObjectTrack(
        "a",
        "human",
        (
            TrackSample(t1, EquirectBBox(x1, 20.0, 10.0, 10.0)),
            TrackSample(t2, EquirectBBox(x2, 30.0, 20.0, 14.0)),
        ),
    )
    return Scene(30.0, width, height, 60, (track,))


def test_exact_sample_returned():
    scene = two_sample_scene(10.0, 20.0)
    box = interpolated_bbox(scene.objects[0], 0, scene)
    assert box == EquirectBBox(10.0, 20.0, 10.0, 10.0)


def test_midpoint_interpolation():
    scene = two_sample_scene(10.0, 20.0)
    box = interpolated_bbox(scene.objects[0], 5, scene)
    assert box == EquirectBBox(15.0, 25.0, 15.0, 12.0)


def test_absent_outside_samples_and_large_gaps():
    scene = two_sample_scene(10.0, 20.0, t1=5, t2=30)
    track = scene.objects[0]
    assert interpolated_bbox(track, 2, scene) is None  # before first
    assert interpolated_bbox(track, 40, scene) is None  # after last
    assert interpolated_bbox(track, 12, scene) is None  # gap 25 > 15
    assert interpolated_bbox(track, 12, scene, max_gap=25) is not None


def test_frame_out_of_range():
    scene = two_sample_scene(10.0, 20.0)
    with pytest.raises(ValueError):
        interpolated_bbox(scene.objects[0], 60, scene)


def test_seam_interpolation_takes_short_arc():
    w, h = 200, 100
    # equal-size boxes vertically centered on the equator, so center motion
    # is purely in yaw and pixel-space lerp must match a spherical slerp
    track = ObjectTrack(
        "a",
        "human",
        (
            TrackSample(0, EquirectBBox(w - 5.0, 45.0, 10.0, 10.0)),
            TrackSample(10, EquirectBBox(5.0, 45.0, 10.0, 10.0)),
        ),
    )
    scene = Scene(30.0, w, h, 60, (track,))
    box = interpolated_bbox(track, 5, scene)
    assert box.x == pytest.approx(w, abs=1e-12)  # x = W, equivalent to 0 after wrap

    # oracle: slerp between the two center directions
    b1, b2 = track.samples[0].box, track.samples[1].box
    d1 = bbox_center_direction(b1, w, h)
    d2 = bbox_center_direction(b2, w, h)
    for frame in (2, 5, 8):
        t = frame / 10
        u = np.array(d1.unit())
        v = np.array(d2.unit())
        omega = math.acos(float(np.clip(u @ v, -1, 1)))
        slerped = (math.sin((1 - t) * omega) * u + math.sin(t * omega) * v) / math.sin(omega)
        want_yaw = math.atan2(slerped[0], slerped[2])
        got = interpolated_bbox(track, frame, scene)
        got_yaw = bbox_center_direction(got, w, h).yaw
        assert math.sin(got_yaw) == pytest.approx(math.sin(want_yaw), abs=1e-9)
        assert math.cos(got_yaw) == pytest.approx(math.cos(want_yaw), abs=1e-9)


def test_interpolation_continuity():
    scene = two_sample_scene(10.0, 40.0)
    track = scene.objects[0]
    w, h = scene.width, scene.height
    from autocam360.geometry import angular_distance

    # per-frame movement bounded by the per-frame yaw plus pitch deltas of
    # the endpoint centers (angular distance is 1-Lipschitz in each)
    b1, b2 = track.samples[0].box, track.samples[1].box
    dx = abs(math.remainder((b2.x + b2.w / 2) - (b1.x + b1.w / 2), w))
    dy = abs((b2.y + b2.h / 2) - (b1.y + b1.h / 2))
    bound = (2 * math.pi * dx / w + math.pi * dy / h) / 10 + 1e-9
    prev = bbox_center_direction(b1, w, h)
    for frame in range(1, 11):
        cur = bbox_center_direction(interpolated_bbox(track, frame, scene), w, h)
        assert angular_distance(prev, cur) <= bound
        prev = cur


@given(st.text(max_size=200))
def test_parse_is_total_over_malformed_text(text):
    # any junk input yields a structured TrackFileError, never a partial
    # Scene or a foreign exception
    try:
        scene = parse_scene(text)
    except TrackFileError:
        pass
    else:
        assert scene.num_frames > 0


# any JSON value, with the edge cases of the number rules
_ANY = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 10**400, -(10**400), math.nan, math.inf, -math.inf, "", "30"])
    | st.lists(st.integers(), max_size=2)
)


def _mostly(*likely):
    """One of `likely` three times in four, any JSON value otherwise."""
    return st.tuples(st.integers(0, 3), st.sampled_from(likely), _ANY).map(
        lambda drawn: drawn[1] if drawn[0] else drawn[2]
    )


def _rows(**columns):
    return st.lists(st.fixed_dictionaries(columns), max_size=3)


# documents with the track file's shape, mostly valid, with values past
# the caps and the number rules mixed in
_TRACK_FILES = st.fixed_dictionaries(
    {
        "fps": _mostly(30, 29.97, 10**400),
        "width": _mostly(200, MAX_WIDTH + 1, 10**400),
        "height": _mostly(100, MAX_HEIGHT + 1),
        "num_frames": _mostly(60, MAX_FRAMES + 1, 10**9),
        "objects": _rows(
            id=_mostly("a", "b", ""),
            category=_mostly("human"),
            samples=_rows(
                t=_mostly(0, 5, 59), x=_mostly(10.0, -3.5, 199), y=_mostly(20, 0.0),
                w=_mostly(30.0, 1e-300), h=_mostly(40, 80.0),
            ),
        ),
    },
    optional={
        "recommendations": _rows(
            t=_mostly(0, 3, 59),
            yaw_deg=_mostly(15.0, -180, 1e308, math.nan, -math.inf),
            pitch_deg=_mostly(0.0, -0.0, 90, -90),
        )
    },
)


@given(
    st.dictionaries(
        st.sampled_from(["fps", "width", "height", "num_frames", "objects"]),
        st.one_of(st.integers(-5, 100), st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2)),
    )
    | _TRACK_FILES
)
def test_parse_is_total_over_malformed_documents(data):
    # every document yields a TrackFileError or a scene within the caps
    # whose recommendations give directions
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 2:1 ratio warning
            scene = parse_scene(json.dumps(data))
    except TrackFileError:
        return
    assert 1 <= scene.num_frames <= MAX_FRAMES
    assert 1 <= scene.width <= MAX_WIDTH and 1 <= scene.height <= MAX_HEIGHT
    for rec in scene.recommendations or ():
        assert math.isfinite(rec.direction.yaw)


def test_recommendation_round_trip_is_exact():
    # degree values survive serialize/parse untouched (stored in file units)
    rec = Recommendation(0, 123.456789, -12.3456789)
    assert rec.yaw_deg == 123.456789
    d = rec.direction
    assert d.yaw == math.radians(123.456789)
