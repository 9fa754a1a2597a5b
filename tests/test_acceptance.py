"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at run
time.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import oracle_project, stable_angle

from autocam360.cli import main as cli_main
from autocam360.config import DirectorConfig
from autocam360.director import direct
from autocam360.geometry import (
    Direction,
    Viewport,
    angular_distance,
    direction_from_unit,
    direction_to_equirect_pixel,
    equirect_pixel_to_direction,
    project_to_viewport,
    unproject_from_viewport,
)
from autocam360.hypotheses import ShotHypothesis, score_hypothesis
from autocam360.measures import VisitedHistory
from autocam360.renderer import Image, encode_ppm, read_image, render_viewport
from autocam360.saliency import ShotType
from autocam360.synth import ActorSpec, ScenarioSpec, scenario_to_document, synth_panorama, synth_scene
from autocam360.tracks import ObjectTrack, Scene, TrackSample

from test_measures import box_at, make_scene, measure, track_from_yaws, H, W

CFG = DirectorConfig()


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {num} ({name}): FAIL")
        raise
    print(f"acceptance {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. paper-constant conformance


def test_criterion_1_paper_constants():
    with criterion(1, "paper constants"):
        cfg = DirectorConfig()
        assert cfg.shot_length_s == 3.0
        assert cfg.fov_deg[ShotType.TRACKING] == 75.0
        assert cfg.fov_deg[ShotType.STATIC] == 115.0
        assert cfg.max_hypotheses_per_type == 4

        yaws = {t: 12.0 * t / 30.0 for t in range(180)}
        scene = make_scene([track_from_yaws("solo", yaws)], num_frames=180)
        out = direct(scene, cfg)
        # 3 s default shot length at 30 fps
        assert all(s.end - s.start == 90 for s in out.shots)
        for record in out.records:
            per_type: dict[ShotType, int] = {}
            for h in record.hypotheses:
                per_type[h.shot_type] = per_type.get(h.shot_type, 0) + 1
            assert all(n <= 4 for n in per_type.values())
        tracking_shots = [s for s in out.shots if s.shot_type is ShotType.TRACKING]
        assert tracking_shots
        assert all(
            vp.hfov == pytest.approx(math.radians(75.0), abs=1e-12)
            for s in tracking_shots
            for vp in s.path
        )
        static = [
            h
            for r in out.records
            for h in r.hypotheses
            if h.shot_type is ShotType.STATIC
        ]
        assert static
        assert all(
            vp.hfov == pytest.approx(math.radians(115.0), abs=1e-12)
            for h in static
            for vp in h.path
        )


# ---------------------------------------------------------------------------
# 2. geometry suite


def test_criterion_2_geometry():
    with criterion(2, "geometry round-trips and metric"):
        rng = random.Random(20240901)
        w, h = 3840, 1920
        worst_equirect = 0.0
        worst_px = 0.0
        for _ in range(10_000):
            px = rng.uniform(0.0, w)
            py = rng.uniform(0.0, h)
            d = equirect_pixel_to_direction(px, py, w, h)
            qx, qy = direction_to_equirect_pixel(d, w, h)
            worst_px = max(worst_px, abs(qx - px), abs(qy - py))
            worst_equirect = max(
                worst_equirect, stable_angle(d, equirect_pixel_to_direction(qx, qy, w, h))
            )
        assert worst_px < 1e-9
        assert worst_equirect < 1e-9

        worst_gnomonic = 0.0
        for _ in range(10_000):
            vp = Viewport(
                Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-0.7, 0.7)),
                rng.uniform(0.4, 2.2),
                rng.uniform(0.8, 2.4),
            )
            u, v = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            d = unproject_from_viewport(u, v, vp)
            uv = project_to_viewport(d, vp)
            assert uv is not None
            worst_gnomonic = max(
                worst_gnomonic, stable_angle(d, unproject_from_viewport(*uv, vp))
            )
        assert worst_gnomonic < 1e-9

        # collinearity of great-circle triples through the center
        for _ in range(200):
            vp = Viewport(
                Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-0.6, 0.6)),
                rng.uniform(0.8, 2.0),
                16 / 9,
            )
            c = np.array(vp.center.unit())
            t = np.array(
                Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-1.2, 1.2)).unit()
            )
            t = t - c * float(t @ c)
            norm = float(np.linalg.norm(t))
            if norm < 1e-6:
                continue
            t /= norm
            pts = []
            for ang in (-0.25, 0.05, 0.3):
                d = direction_from_unit(*(c * math.cos(ang) + t * math.sin(ang)))
                uv = project_to_viewport(d, vp)
                assert uv is not None
                pts.append(uv)
            (u1, v1), (u2, v2), (u3, v3) = pts
            assert abs((u2 - u1) * (v3 - v1) - (v2 - v1) * (u3 - u1)) < 1e-9

        # metric properties on sampled triples
        dirs = [
            Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
            for _ in range(300)
        ]
        for a, b, c in zip(dirs[::3], dirs[1::3], dirs[2::3]):
            assert angular_distance(a, a) == 0.0
            assert angular_distance(a, b) == angular_distance(b, a)
            assert (
                angular_distance(a, c)
                <= angular_distance(a, b) + angular_distance(b, c) + 1e-12
            )


# ---------------------------------------------------------------------------
# 3. measures oracle


def test_criterion_3_measures_closed_forms():
    with criterion(3, "measures closed forms"):
        cfg = CFG.measures
        # neighbourhood: two objects at constant 30 degree separation
        a = track_from_yaws("a", {t: -15.0 for t in range(30)})
        b = track_from_yaws("b", {t: 15.0 for t in range(30)})
        m = measure(make_scene([a, b]), (0, 30), VisitedHistory(), cfg)
        assert m["a"].neighbourhood == pytest.approx(0.5, abs=1e-9)
        assert m["b"].neighbourhood == pytest.approx(0.5, abs=1e-9)

        # visited: fully visible in the single most recent shot, K=3
        history = VisitedHistory(capacity=3).push({"a": 1.0})
        m = measure(make_scene([a, b]), (0, 30), history, cfg)
        assert m["a"].visited == pytest.approx(1.0 / 1.75, abs=1e-9)
        assert m["b"].visited == 0.0

        # motion: 10 deg/s drift
        mover = track_from_yaws("m", {t: 10.0 * t / 30.0 for t in range(30)})
        m = measure(make_scene([mover]), (0, 30), VisitedHistory(), cfg)
        assert m["m"].motion == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert m["m"].neighbourhood == 1.0

        # size: a 30x30 degree equatorial box exactly saturates
        big = make_scene([ObjectTrack("s", "human", (TrackSample(0, box_at(0, 0, 30.0)),))])
        m = measure(big, (0, 1), VisitedHistory(), cfg)
        assert m["s"].size == pytest.approx(1.0, abs=1e-9)
        # stationary object: motion exactly 0
        still = make_scene([track_from_yaws("s", {t: 40.0 for t in range(30)})])
        assert measure(still, (0, 30), VisitedHistory(), cfg)["s"].motion == 0.0


# ---------------------------------------------------------------------------
# 4. selection oracle (brute force, independent implementation)


def _bf_center(box, width, height):
    """Box center direction, recomputed from scratch."""
    cx = (box.x + box.w / 2.0) % width
    cy = box.y + box.h / 2.0
    yaw = 2.0 * math.pi * cx / width - math.pi
    pitch = math.pi / 2.0 - math.pi * cy / height
    return yaw, pitch


def _bf_angle(a, b):
    ya, pa = a
    yb, pb = b
    ua = (math.cos(pa) * math.sin(ya), math.sin(pa), math.cos(pa) * math.cos(ya))
    ub = (math.cos(pb) * math.sin(yb), math.sin(pb), math.cos(pb) * math.cos(yb))
    dot = sum(x * y for x, y in zip(ua, ub))
    return math.acos(min(1.0, max(-1.0, dot)))


def _bf_saliency(m, category, shot_type, weights):
    iso = 1.0 - m.neighbourhood if shot_type is ShotType.STATIC else m.neighbourhood
    tw = weights.type_weights[shot_type]
    c = weights.category_weights.get(category, weights.default_category_weight)
    base = tw.size * m.size + tw.motion * m.motion + tw.isolation * iso
    return c * base * (1.0 - weights.visited_weight * m.visited)


def _bf_score(hyp, scene, measures, prev, cfg):
    categories = {t.id: t.category for t in scene.objects}
    sample_boxes = {
        t.id: {s.frame: s.box for s in t.samples} for t in scene.objects
    }
    total = 0.0
    for i, vp in enumerate(hyp.path):
        frame = hyp.start + i
        vp_center = (vp.center.yaw, vp.center.pitch)
        for oid, m in measures.items():
            box = sample_boxes[oid].get(frame)
            if box is None:
                continue
            sal = _bf_saliency(m, categories[oid], hyp.shot_type, cfg.saliency)
            dist = _bf_angle(_bf_center(box, scene.width, scene.height), vp_center)
            total += sal * max(0.0, 1.0 - dist / (vp.hfov / 2.0))
    raw = total / len(hyp.path)
    penalty = 0.0
    if prev is not None:
        cut = _bf_angle(
            (prev.path[-1].center.yaw, prev.path[-1].center.pitch),
            (hyp.path[0].center.yaw, hyp.path[0].center.pitch),
        )
        if 0.0 < cut < math.radians(cfg.jump_cut_threshold_deg):
            continuation = (
                hyp.shot_type is ShotType.TRACKING
                and prev.shot_type is ShotType.TRACKING
                and tuple(hyp.target_ids) == tuple(prev.target_ids)
            )
            if not continuation:
                penalty = cfg.jump_cut_penalty
    return raw - penalty


def _random_scenario(seed: int, max_actors=3, duration_s=4.0) -> Scene:
    rng = random.Random(seed)
    categories = ["human", "dog", "cat", "bicycle", "car"]
    actors = []
    for _ in range(rng.randint(0, max_actors)):
        kind = rng.choice(["fixed", "linear", "circular"])
        actor = ActorSpec(
            category=rng.choice(categories),
            motion=kind,
            yaw_deg=rng.uniform(-170.0, 170.0),
            pitch_deg=rng.uniform(-25.0, 25.0),
            size_deg=rng.uniform(6.0, 18.0),
            rate_deg_s=rng.uniform(-20.0, 20.0) if kind == "linear" else 0.0,
            radius_deg=rng.uniform(3.0, 10.0) if kind == "circular" else 0.0,
            period_s=rng.uniform(2.0, 6.0) if kind == "circular" else 0.0,
        )
        actors.append(actor)
    spec = ScenarioSpec(
        seed=seed,
        duration_s=duration_s,
        fps=30.0,
        width=720,
        height=360,
        actors=tuple(actors),
    )
    return synth_scene(spec)


def test_criterion_4_selection_matches_brute_force():
    with criterion(4, "selection equals brute-force argmax"):
        for seed in range(100):
            scene = _random_scenario(seed)
            out = direct(scene, CFG)
            prev = None
            for record, shot in zip(out.records, out.shots):
                bf_scores = [
                    _bf_score(h, scene, record.measures, prev, CFG)
                    for h in record.hypotheses
                ]
                # re-scoring agreement on every hypothesis
                for h, bf in zip(record.hypotheses, bf_scores):
                    assert abs(h.score - bf) <= 1e-7, (seed, h.shot_type)
                best = max(bf_scores)
                chosen = record.chosen_index
                assert bf_scores[chosen] >= best - 1e-7, seed
                # documented tie-break: among exact library-score ties the
                # earliest candidate in canonical order wins
                top = [
                    i
                    for i, h in enumerate(record.hypotheses)
                    if h.score == record.hypotheses[chosen].score
                ]
                assert chosen == top[0], seed
                prev = shot


# ---------------------------------------------------------------------------
# 5. editing rules


def test_criterion_5_editing_rules():
    with criterion(5, "editing rules"):
        for seed in range(100):
            scene = _random_scenario(1000 + seed, duration_s=10.0)
            out = direct(scene, CFG)
            # partition
            cur = 0
            for s in out.shots:
                assert s.start == cur
                cur = s.end
            assert cur == scene.num_frames
            # occurrence rules, except where relaxation is flagged
            types = [s.shot_type for s in out.shots]
            for i in range(len(types)):
                if not out.records[i].relaxed:
                    if i > 0:
                        assert types[i] != types[i - 1], seed
                    window = types[max(0, i - CFG.occurrence_window) : i]
                    assert window.count(types[i]) < CFG.occurrence_cap, seed

        # jump-cut unit test: exactly the configured 0.5 penalty between
        # otherwise identical cuts at 20 vs 40 degrees
        empty = Scene(30.0, W, H, 60, ())
        vp = lambda yaw_deg: Viewport(
            Direction(math.radians(yaw_deg), 0.0), math.radians(95.0), CFG.aspect
        )
        prev = ShotHypothesis(ShotType.STATIC, 0, 30, (vp(0.0),) * 30)
        near = ShotHypothesis(ShotType.MEDIUM, 30, 60, (vp(20.0),) * 30)
        far = ShotHypothesis(ShotType.MEDIUM, 30, 60, (vp(40.0),) * 30)
        s_near = score_hypothesis(near, {}, {}, prev, CFG)
        s_far = score_hypothesis(far, {}, {}, prev, CFG)
        assert s_far.score - s_near.score == 0.5


# ---------------------------------------------------------------------------
# 6. tracking quality


def test_criterion_6_tracking_quality():
    with criterion(6, "tracking quality"):
        spec = ScenarioSpec(
            seed=6,
            duration_s=3.0,
            fps=30.0,
            width=720,
            height=360,
            actors=(ActorSpec("human", "linear", -20.0, 5.0, size_deg=12.0, rate_deg_s=10.0),),
        )
        scene = synth_scene(spec)
        out = direct(scene, CFG)
        shot = out.shots[0]
        assert shot.shot_type is ShotType.TRACKING
        track = scene.objects[0]
        boxes = {s.frame: s.box for s in track.samples}
        settle = round(0.5 * scene.fps)
        inside = 0
        total = 0
        for i in range(settle, shot.end - shot.start):
            yaw, pitch = _bf_center(boxes[shot.start + i], scene.width, scene.height)
            dist = angular_distance(Direction(yaw, pitch), shot.path[i].center)
            total += 1
            if dist <= math.radians(10.0):
                inside += 1
        assert inside / total >= 0.95


# ---------------------------------------------------------------------------
# 7. visited / novelty behavior


def test_criterion_7_novelty():
    with criterion(7, "novelty damping"):
        scene = make_scene(
            [track_from_yaws("solo", {t: 10.0 for t in range(180)})], num_frames=180
        )
        out = direct(scene, CFG)
        assert len(out.shots) >= 2
        t0 = out.shots[0].shot_type
        s_before = out.records[0].saliency[t0]["solo"]
        s_after = out.records[1].saliency[t0]["solo"]
        assert s_after < s_before
        assert out.records[1].measures["solo"].visited > 0.0


# ---------------------------------------------------------------------------
# 8. renderer


def test_criterion_8_renderer():
    with criterion(8, "renderer"):
        out_w, out_h = 320, 180
        aspect = out_w / out_h

        # constant-color exactness
        flat = Image(512, 256, np.full((256, 512, 3), (9, 87, 201), dtype=np.uint8))
        vp = Viewport(Direction(0.7, -0.2), math.radians(75.0), aspect)
        rendered = render_viewport(flat, vp, out_w, out_h)
        assert (rendered.pixels == np.array([9, 87, 201], np.uint8)).all()

        # marker localization at 5 placements, seam included
        centers = [
            Direction(0.0, 0.0),
            Direction(math.pi, 0.0),
            Direction(math.radians(120.0), math.radians(20.0)),
            Direction(math.radians(-75.0), math.radians(-30.0)),
            Direction(math.radians(-179.0), math.radians(10.0)),
        ]
        for center in centers:
            vp = Viewport(center, math.radians(75.0), aspect)
            d = Direction(center.yaw + math.radians(6.0), center.pitch + math.radians(4.0))
            px, py = direction_to_equirect_pixel(d, 512, 256)
            px_i, py_i = round(px - 0.5), round(py - 0.5)
            pixels = np.zeros((256, 512, 3), dtype=np.uint8)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    pixels[(py_i + dy) % 256, (px_i + dx) % 512] = 255
            src = Image(512, 256, pixels)
            outimg = render_viewport(src, vp, out_w, out_h)
            d_marker = equirect_pixel_to_direction(px_i + 0.5, py_i + 0.5, 512, 256)
            u, v = oracle_project(d_marker, vp)
            brightness = outimg.pixels.astype(np.float64).sum(axis=2)
            mask = brightness >= 0.5 * brightness.max()
            ys, xs = np.nonzero(mask)
            wts = brightness[mask]
            got_x = float((xs * wts).sum() / wts.sum())
            got_y = float((ys * wts).sum() / wts.sum())
            assert math.hypot(got_x - (u * out_w - 0.5), got_y - (v * out_h - 0.5)) <= 1.0

        # rotation consistency within one intensity level
        spec = ScenarioSpec(seed=8, duration_s=1.0, fps=1.0, width=512, height=256)
        src = synth_panorama(spec, 0)
        k = 100
        rolled = Image(src.width, src.height, np.roll(src.pixels, k, axis=1))
        vp1 = Viewport(Direction(0.3, 0.05), math.radians(80.0), aspect)
        vp2 = Viewport(
            Direction(0.3 + 2 * math.pi * k / src.width, 0.05), math.radians(80.0), aspect
        )
        o1 = render_viewport(src, vp1, out_w, out_h)
        o2 = render_viewport(rolled, vp2, out_w, out_h)
        assert np.abs(o1.pixels.astype(np.int16) - o2.pixels.astype(np.int16)).max() <= 1

        # byte determinism
        a = encode_ppm(render_viewport(src, vp1, out_w, out_h))
        b = encode_ppm(render_viewport(src, vp1, out_w, out_h))
        assert a == b


# ---------------------------------------------------------------------------
# 9. end-to-end determinism


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline determinism"):
        spec = ScenarioSpec(
            seed=99,
            duration_s=10.0,
            fps=30.0,
            width=512,
            height=256,
            actors=(
                ActorSpec("human", "linear", -60.0, 0.0, size_deg=12.0, rate_deg_s=12.0),
                ActorSpec("dog", "circular", 80.0, -10.0, size_deg=9.0, radius_deg=6.0, period_s=4.0),
            ),
        )
        scenario = tmp_path / "scenario.json"
        scenario.write_text(scenario_to_document(spec))
        tracks = tmp_path / "tracks.json"
        frames = tmp_path / "frames"
        assert (
            cli_main(
                ["synth", "--scenario", str(scenario), "--out", str(tracks),
                 "--frames", str(frames)]
            )
            == 0
        )

        outputs = []
        for run in ("run1", "run2"):
            out_dir = tmp_path / run
            rc = cli_main(
                ["pipeline", "--tracks", str(tracks), "--frames", str(frames),
                 "--out", str(out_dir), "--size", "320x180"]
            )
            assert rc == 0
            files = sorted(p.name for p in out_dir.iterdir())
            outputs.append({name: (out_dir / name).read_bytes() for name in files})
        assert outputs[0].keys() == outputs[1].keys()
        assert len(outputs[0]) == 301  # camera_path.json + 300 frames
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name
