"""Golden camera paths: `direct` on six fixed scenes must reproduce the
committed `output_to_document` bytes exactly.

The fixtures in ``tests/golden/`` pin every frame's yaw, pitch and FOV
and every shot's type, range, score, targets and relaxation flag, so a
refactor of the planner that claims to keep behaviour can prove it.
Rewrite them only for an intended behaviour change, with
``python tests/test_golden_paths.py``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from autocam360.config import DirectorConfig, config_from_dict
from autocam360.director import direct, output_to_document, parse_camera_path
from autocam360.geometry import EquirectBBox
from autocam360.saliency import SaliencyWeights, ShotType, TypeWeights
from autocam360.synth import ActorSpec, ScenarioSpec, synth_scene
from autocam360.tracks import ObjectTrack, Recommendation, Scene, TrackSample

GOLDEN = Path(__file__).parent / "golden"
W, H = 360, 180  # 1 px per degree


def _box(yaw_deg: float, pitch_deg: float, size_deg: float = 10.0) -> EquirectBBox:
    return EquirectBBox(
        (yaw_deg + 180.0) - size_deg / 2, (90.0 - pitch_deg) - size_deg / 2, size_deg, size_deg
    )


def _track(oid: str, frames, yaw, pitch=lambda t: 0.0, category="human") -> ObjectTrack:
    return ObjectTrack(
        oid, category, tuple(TrackSample(t, _box(yaw(t), pitch(t))) for t in frames)
    )


def _empty():
    return Scene(30.0, W, H, 180, ()), DirectorConfig()


def _tie():
    # a lone, still object on the optical axis with isolation weights
    # zeroed: tracking, static and medium frame it identically, so the
    # first shot is tracking and the second static, by type order
    flat = TypeWeights(0.5, 0.5, 0.0)
    weights = SaliencyWeights(
        type_weights={
            ShotType.TRACKING: flat,
            ShotType.STATIC: flat,
            ShotType.MEDIUM: flat,
            ShotType.PAN: flat,
            ShotType.RECOMMENDER: TypeWeights(0.3, 0.4, 0.3),
        }
    )
    scene = Scene(30.0, W, H, 180, (_track("solo", range(180), lambda t: 0.0),))
    return scene, DirectorConfig(saliency=weights)


def _occlusion():
    bridged = [t for t in range(180) if not 40 <= t < 50]  # 11-frame gap
    lost = [t for t in range(180) if not 60 <= t < 110]  # 51-frame gap
    objects = (
        _track("bridged", bridged, lambda t: -50.0 + 0.5 * t, category="dog"),
        _track("lost", lost, lambda t: 70.0 - 0.3 * t, lambda t: 10.0),
        _track("late", range(100, 180), lambda t: 150.0, category="car"),
    )
    return Scene(30.0, W, H, 180, objects), DirectorConfig()


def _recommendations():
    # the recommendations follow object "a" part of the way, then swing
    # off to the far side; past the last one the track holds still
    recs = (
        *(Recommendation(t, -90.0 + 0.2 * t, 0.0) for t in range(0, 150, 30)),
        Recommendation(150, 0.0, 10.0),
        Recommendation(180, 120.0, -5.0),
        Recommendation(180, 110.0, -5.0),  # a later duplicate overrides
        Recommendation(200, 100.0, -5.0),
    )
    objects = (
        _track("a", range(270), lambda t: -90.0 + 0.2 * t),
        _track("b", range(0, 270, 3), lambda t: 100.0, lambda t: -20.0, category="cat"),
    )
    return Scene(30.0, W, H, 270, objects, recs), DirectorConfig()


def _crowd():
    rng = random.Random(20)
    categories = ("human", "dog", "car", "bicycle", "kite")
    actors = []
    for _ in range(20):
        motion = rng.choice(("fixed", "linear", "circular"))
        actors.append(
            ActorSpec(
                rng.choice(categories),
                motion,
                rng.uniform(-180.0, 180.0),
                rng.uniform(-30.0, 30.0),
                size_deg=rng.uniform(4.0, 20.0),
                rate_deg_s=rng.uniform(-25.0, 25.0) if motion == "linear" else 0.0,
                radius_deg=rng.uniform(2.0, 10.0) if motion == "circular" else 0.0,
                period_s=rng.uniform(2.0, 8.0) if motion == "circular" else 0.0,
            )
        )
    spec = ScenarioSpec(
        seed=20, duration_s=9.0, fps=30.0, width=720, height=360, actors=tuple(actors)
    )
    return synth_scene(spec), DirectorConfig()


def _short_shots():
    objects = (
        _track("a", range(180), lambda t: -30.0 + 0.4 * t),
        _track("b", range(180), lambda t: 35.0, lambda t: 5.0),
        _track("c", range(30, 150), lambda t: 160.0 - 0.8 * t, category="bicycle"),
    )
    cfg = config_from_dict({"shot_length_s": 1, "no_repeat": False, "max_hypotheses_per_type": 1})
    return Scene(30.0, W, H, 180, objects), cfg


SCENES = {
    "empty": _empty,
    "tie": _tie,
    "occlusion": _occlusion,
    "recommendations": _recommendations,
    "crowd": _crowd,
    "short_shots": _short_shots,
}


def _document(name: str) -> str:
    scene, cfg = SCENES[name]()
    return output_to_document(direct(scene, cfg))


@pytest.mark.parametrize("name", sorted(SCENES))
def test_camera_path_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _document(name) == want


@pytest.mark.parametrize("name", sorted(SCENES))
def test_camera_path_parses_back(name):
    scene, cfg = SCENES[name]()
    out = direct(scene, cfg)
    fps, viewports, shots = parse_camera_path(output_to_document(out), aspect=cfg.aspect)
    assert fps == scene.fps
    assert len(viewports) == len(out.camera_path) == scene.num_frames
    assert len(shots) == len(out.shots)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(SCENES):
        (GOLDEN / f"{name}.json").write_text(_document(name), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
