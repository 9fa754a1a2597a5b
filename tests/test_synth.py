from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import stable_angle

from autocam360.geometry import (
    Direction,
    bbox_center_direction,
    direction_to_equirect_pixel,
)
from autocam360.synth import (
    MAX_FRAMES,
    MAX_HEIGHT,
    MAX_WIDTH,
    ActorSpec,
    ScenarioError,
    ScenarioSpec,
    parse_scenario,
    scenario_to_document,
    synth_panorama,
    synth_scene,
)
from autocam360.tracks import parse_scene, scene_to_document


def spec_with(actors=(), **kw) -> ScenarioSpec:
    base = dict(seed=11, duration_s=2.0, fps=30.0, width=360, height=180)
    base.update(kw)
    return ScenarioSpec(actors=tuple(actors), **base)


def test_fixed_actor_center_exact():
    spec = spec_with([ActorSpec("human", "fixed", 30.0, 0.0, size_deg=10.0)])
    scene = synth_scene(spec)
    want = Direction(math.radians(30.0), 0.0)
    for sample in scene.objects[0].samples:
        center = bbox_center_direction(sample.box, spec.width, spec.height)
        assert stable_angle(center, want) < 1e-9
    assert scene.num_frames == 60
    assert scene.objects[0].category == "human"


def test_linear_drift_step_is_third_of_degree():
    spec = spec_with([ActorSpec("dog", "linear", 0.0, 0.0, rate_deg_s=10.0)])
    scene = synth_scene(spec)
    centers = [
        bbox_center_direction(s.box, spec.width, spec.height)
        for s in scene.objects[0].samples
    ]
    for a, b in zip(centers, centers[1:]):
        assert stable_angle(a, b) == pytest.approx(math.radians(10.0 / 30.0), abs=1e-9)


def test_circular_path_closed_form():
    actor = ActorSpec(
        "cat", "circular", 10.0, 5.0, radius_deg=8.0, period_s=2.0
    )
    spec = spec_with([actor])
    scene = synth_scene(spec)
    t = 15  # half a second: quarter revolution
    yaw_deg, pitch_deg = actor.direction_deg(t / spec.fps)
    assert yaw_deg == pytest.approx(10.0 + 8.0 * math.cos(math.pi / 2.0))
    assert pitch_deg == pytest.approx(5.0 + 8.0 * math.sin(math.pi / 2.0))
    center = bbox_center_direction(scene.objects[0].samples[t].box, spec.width, spec.height)
    assert stable_angle(
        center, Direction(math.radians(yaw_deg), math.radians(pitch_deg))
    ) < 1e-9


def test_same_spec_gives_identical_scene_bytes():
    spec1 = spec_with([ActorSpec("human", "linear", -40.0, 10.0, rate_deg_s=7.5)])
    spec2 = spec_with([ActorSpec("human", "linear", -40.0, 10.0, rate_deg_s=7.5)])
    assert scene_to_document(synth_scene(spec1)) == scene_to_document(synth_scene(spec2))


def test_vertical_overflow_rejected():
    with pytest.raises(ScenarioError, match="vertical"):
        synth_scene(spec_with([ActorSpec("human", "fixed", 0.0, 88.0, size_deg=10.0)]))


def test_parse_back_reproduces_parametric_centers():
    spec = spec_with(
        [
            ActorSpec("human", "linear", -60.0, 0.0, rate_deg_s=12.0),
            ActorSpec("car", "fixed", 100.0, -20.0, size_deg=14.0),
        ]
    )
    scene2 = parse_scene(scene_to_document(synth_scene(spec)))
    for i, actor in enumerate(spec.actors):
        track = scene2.objects[i]
        for sample in track.samples:
            yaw_deg, pitch_deg = actor.direction_deg(sample.frame / spec.fps)
            want = Direction(math.radians(yaw_deg), math.radians(pitch_deg))
            got = bbox_center_direction(sample.box, spec.width, spec.height)
            assert stable_angle(got, want) < 1e-6


def test_recommendations_pass_through():
    from autocam360.tracks import Recommendation

    spec = spec_with(recommendations=(Recommendation(0, 5.0, 0.0),))
    scene = synth_scene(spec)
    assert scene.recommendations == (Recommendation(0, 5.0, 0.0),)


# ---------------------------------------------------------------------------
# panoramas


def test_blob_centered_at_actor_direction():
    spec = spec_with([ActorSpec("human", "fixed", 0.0, 0.0, size_deg=12.0)])
    img = synth_panorama(spec, 0)
    assert (img.width, img.height) == (spec.width, spec.height)
    mask = img.pixels[:, :, 1] == 255  # blob marker channel
    assert mask.any()
    ys, xs = np.nonzero(mask)
    cx, cy = float(xs.mean()) + 0.5, float(ys.mean()) + 0.5
    want = direction_to_equirect_pixel(Direction(0.0, 0.0), spec.width, spec.height)
    assert abs(cx - want[0]) <= 0.5
    assert abs(cy - want[1]) <= 0.5


def test_blob_wraps_across_seam():
    spec = spec_with([ActorSpec("human", "fixed", 180.0, 0.0, size_deg=12.0)])
    img = synth_panorama(spec, 0)
    mask = img.pixels[:, :, 1] == 255
    assert mask[:, 0].any() and mask[:, -1].any()


def test_empty_spec_gives_pure_gradient():
    spec = spec_with()
    img = synth_panorama(spec, 0)
    assert not (img.pixels[:, :, 1] == 255).any()
    # column-constant R/B, row-constant G
    assert (img.pixels[:, :, 0] == img.pixels[0:1, :, 0]).all()
    assert (img.pixels[:, :, 1] == img.pixels[:, 0:1, 1]).all()


def test_distinct_blob_colors_per_actor():
    spec = spec_with(
        [
            ActorSpec("human", "fixed", -60.0, 0.0),
            ActorSpec("dog", "fixed", 0.0, 0.0),
            ActorSpec("cat", "fixed", 60.0, 0.0),
        ]
    )
    from autocam360.synth import actor_color

    colors = {actor_color(spec, i) for i in range(3)}
    assert len(colors) == 3


def test_panorama_frame_range_checked():
    spec = spec_with()
    with pytest.raises(ScenarioError):
        synth_panorama(spec, 60)


# ---------------------------------------------------------------------------
# scenario documents


def test_scenario_document_round_trip():
    spec = spec_with(
        [ActorSpec("human", "circular", 15.0, 0.0, radius_deg=5.0, period_s=3.0)],
    )
    doc = scenario_to_document(spec)
    assert parse_scenario(doc) == spec


def test_scenario_errors():
    with pytest.raises(ScenarioError, match="duration_s"):
        parse_scenario('{"fps": 30}')
    with pytest.raises(ScenarioError, match="syntax"):
        parse_scenario("{")
    with pytest.raises(ScenarioError, match="motion"):
        ActorSpec("x", "warp", 0.0, 0.0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(seed=0, duration_s=0.0, fps=30)


def test_scenario_size_caps():
    # specs are only built, never synthesized, at these sizes
    assert ScenarioSpec(seed=0, duration_s=MAX_FRAMES, fps=1.0).num_frames == MAX_FRAMES
    ScenarioSpec(seed=0, duration_s=1.0, fps=1.0, width=MAX_WIDTH, height=MAX_HEIGHT)
    with pytest.raises(ScenarioError, match=f"at most {MAX_FRAMES}"):
        ScenarioSpec(seed=0, duration_s=MAX_FRAMES + 1, fps=1.0)
    with pytest.raises(ScenarioError, match=f"at most {MAX_FRAMES}"):
        ScenarioSpec(seed=0, duration_s=1e300, fps=1.0)
    for w, h in ((MAX_WIDTH + 1, MAX_HEIGHT), (MAX_WIDTH, MAX_HEIGHT + 1)):
        with pytest.raises(ScenarioError, match="exceeds"):
            ScenarioSpec(seed=0, duration_s=1.0, fps=1.0, width=w, height=h)


_VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([1, 30, 2.5, 1e308, 10**400, "x", "human", "fixed", "linear", "circular"])
    | st.text(max_size=3)
)
_KEYS = st.sampled_from(["seed", "duration_s", "fps", "width", "actors", "category", "t", "x"])
_JSON = st.recursive(
    _VALUES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)
# documents with the scenario's shape, whose values are arbitrary
_ACTOR_FIELDS = ("category", "motion", "yaw_deg", "pitch_deg")
_ACTOR_OPTIONAL = ("size_deg", "rate_deg_s", "radius_deg", "period_s")
_SCENARIOS = st.fixed_dictionaries(
    {"duration_s": _VALUES, "fps": _VALUES},
    optional={
        "seed": _VALUES,
        "width": _VALUES,
        "height": _VALUES,
        "actors": st.lists(
            st.fixed_dictionaries(
                {k: _VALUES for k in _ACTOR_FIELDS},
                optional={k: _VALUES for k in _ACTOR_OPTIONAL},
            ),
            max_size=2,
        ),
        "recommendations": st.lists(
            st.fixed_dictionaries({k: _VALUES for k in ("t", "yaw_deg", "pitch_deg")}), max_size=2
        ),
    },
)


@given(_JSON | _SCENARIOS)
def test_parse_scenario_raises_only_scenario_error(data):
    # synth_scene is not called, but every accepted spec is within the caps
    try:
        spec = parse_scenario(json.dumps(data))
    except ScenarioError:
        return
    assert isinstance(spec.num_frames, int) and 1 <= spec.num_frames <= MAX_FRAMES
    assert 1 <= spec.width <= MAX_WIDTH and 1 <= spec.height <= MAX_HEIGHT
    assert all(isinstance(a.category, str) and isinstance(a.yaw_deg, float) for a in spec.actors)
