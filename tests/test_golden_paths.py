"""Golden camera paths and planning traces: `direct` on seven fixed
scenes must reproduce the committed `output_to_document` bytes and every
candidate shot exactly.

The fixtures in ``tests/golden/`` pin every frame's yaw, pitch and FOV
and every shot's type, range, score, targets and relaxation flag
(``<scene>.json``), and, one line per shot, the eligible types, the
relaxation flag, the chosen index and every scored candidate: its type,
range, targets, raw score, penalty and score, and the SHA-256 of its
per-frame (yaw, pitch, hfov) doubles (``<scene>.trace.jsonl``).  JSON
floats round-trip exactly, so both compare exactly, and a refactor of
the planner that claims to keep behaviour can prove it for the losing
candidates too.  Rewrite them only for an intended behaviour change,
with ``python tests/test_golden_paths.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
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


def _steep():
    # objects and recommendations beyond the 45-degree pitch clamp, north
    # and south, so that every generator clamps some candidate's pitch
    recs = (
        Recommendation(0, -20.0, 70.0),
        Recommendation(90, 40.0, 80.0),
        Recommendation(150, 100.0, -60.0),
        Recommendation(239, 160.0, -75.0),
    )
    objects = (
        _track("north", range(240), lambda t: -40.0 + 0.3 * t, lambda t: 60.0),
        _track("cap", range(0, 240, 2), lambda t: 30.0, lambda t: 72.0, category="kite"),
        _track("south", range(90, 240), lambda t: 120.0 - 0.2 * t, lambda t: -65.0, "dog"),
    )
    return Scene(30.0, W, H, 240, objects, recs), DirectorConfig()


SCENES = {
    "empty": _empty,
    "tie": _tie,
    "occlusion": _occlusion,
    "recommendations": _recommendations,
    "crowd": _crowd,
    "short_shots": _short_shots,
    "steep": _steep,
}


def _document(name: str) -> str:
    scene, cfg = SCENES[name]()
    return output_to_document(direct(scene, cfg))


def _path_digest(path) -> str:
    values = [v for vp in path for v in (vp.center.yaw, vp.center.pitch, vp.hfov)]
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _trace(name: str) -> list[dict]:
    scene, cfg = SCENES[name]()
    return [
        {
            "range": [r.start, r.end],
            "eligible": [t.value for t in r.eligible],
            "relaxed": r.relaxed,
            "chosen": r.chosen_index,
            "candidates": [
                {
                    "type": h.shot_type.value,
                    "range": [h.start, h.end],
                    "targets": list(h.target_ids),
                    "raw_score": h.raw_score,
                    "penalty": h.penalty,
                    "score": h.score,
                    "path_sha256": _path_digest(h.path),
                }
                for h in r.hypotheses
            ],
        }
        for r in direct(scene, cfg).records
    ]


@pytest.mark.parametrize("name", sorted(SCENES))
def test_camera_path_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _document(name) == want


@pytest.mark.parametrize("name", sorted(SCENES))
def test_every_candidate_matches_golden_trace(name):
    lines = (GOLDEN / f"{name}.trace.jsonl").read_text(encoding="utf-8").splitlines()
    assert _trace(name) == [json.loads(line) for line in lines]


def test_steep_scene_clamps_a_candidate_of_every_type():
    scene, cfg = _steep()
    limit = math.radians(cfg.pitch_clamp_deg)
    clamped = {
        h.shot_type
        for r in direct(scene, cfg).records
        for h in r.hypotheses
        if any(abs(vp.center.pitch) == limit for vp in h.path)
    }
    assert clamped == set(ShotType)


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
        trace = "".join(json.dumps(line) + "\n" for line in _trace(name))
        (GOLDEN / f"{name}.trace.jsonl").write_text(trace, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json and .trace.jsonl", file=sys.stderr)
