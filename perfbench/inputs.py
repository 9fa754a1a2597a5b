"""Seeded inputs for each workload, written to disk before any timing.

Every scene and panorama comes from the package's own ``synth`` module;
the seed decides actor placement, motion, occlusion gaps and the
hand-held path, never the size of the work (object, frame and pixel
counts are fixed per workload), so runs with different seeds measure
the same amount of work.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

FPS = 30
FRAME_NAME = "frame_{:06d}.ppm"  # the CLI's documented frame naming

# Pinned, not read from the package defaults, so the workload does not
# change when a default does.  The gate checks shots against these.
FOV_DEG = {"tracking": 75.0, "static": 115.0, "medium": 95.0, "pan": 90.0, "recommender": 75.0}

CATEGORIES = ("human", "human", "dog", "cat", "bicycle", "car", "ball")


@dataclass(frozen=True)
class Clip:
    """One command invocation's inputs."""

    name: str
    command: str  # pipeline or render; direct for the call-counting pass
    num_frames: int
    objects: int
    fov_deg: dict
    tracks: Path | None = None
    config: Path | None = None
    frames: Path | None = None
    path: Path | None = None  # input camera path (render only)
    src_size: tuple[int, int] | None = None
    out_size: tuple[int, int] | None = None

    def argv(self, out_dir: Path) -> list[str]:
        if self.command == "direct":
            return [
                "direct", "--tracks", str(self.tracks), "--config", str(self.config),
                "--out", str(out_dir / "camera_path.json"),
            ]
        size = "{}x{}".format(*self.out_size)
        if self.command == "pipeline":
            return [
                "pipeline", "--tracks", str(self.tracks), "--frames", str(self.frames),
                "--config", str(self.config), "--out", str(out_dir), "--size", size,
            ]
        return [
            "render", "--frames", str(self.frames), "--path", str(self.path),
            "--out", str(out_dir), "--size", size,
        ]

    def planning_argv(self, out_dir: Path) -> list[str] | None:
        """``direct`` on this clip's tracks, for the call-counting pass."""
        if self.tracks is None:
            return None
        return dataclasses.replace(self, command="direct").argv(out_dir)

    def path_file(self, out_dir: Path) -> Path:
        return self.path if self.command == "render" else out_dir / "camera_path.json"


def _wrap_deg(angle: float) -> float:
    return (angle + 180.0) % 360.0 - 180.0


def _actor(rng: random.Random, synth, category: str | None = None):
    return synth.ActorSpec(
        category=category or rng.choice(CATEGORIES),
        motion=rng.choice(synth.MOTIONS),
        yaw_deg=rng.uniform(-180.0, 180.0),
        pitch_deg=rng.uniform(-25.0, 25.0),
        size_deg=rng.uniform(6.0, 16.0),
        rate_deg_s=rng.uniform(-12.0, 12.0),
        radius_deg=rng.uniform(2.0, 8.0),
        period_s=rng.uniform(3.0, 9.0),
    )


GAP_FRAMES = 12  # missing frames per occlusion gap; the package bridges up to 15


def _cut(track, rng: random.Random, gaps: int, enter: int = 0):
    """Drop samples before `enter` and cut `gaps` occlusion gaps of
    GAP_FRAMES missing frames at seeded places."""
    drop: set[int] = set(range(enter))
    last = track.samples[-1].frame
    for _ in range(gaps):
        start = rng.randrange(enter + 1, last - GAP_FRAMES - 1)
        drop.update(range(start, start + GAP_FRAMES))
    samples = tuple(s for s in track.samples if s.frame not in drop)
    return dataclasses.replace(track, samples=samples)


def _write_config(path: Path, **fields) -> Path:
    path.write_text(json.dumps({**fields, "fov_deg": FOV_DEG}, indent=2) + "\n", encoding="utf-8")
    return path


def pipeline_hd(seed: int, root: Path) -> list[Clip]:
    """One 4 s clip: two actors throughout and a third that enters a
    third of the way in, 1920x960 panoramas.  1 s shots give four shots
    per clip, so each clip mixes shot types; the pan sweep is halved to
    45 deg to keep 1 s pans under the 60 deg/s limit."""
    from autocam360 import renderer, synth, tracks

    rng = random.Random(f"pipeline_hd:{seed}")
    n = 4 * FPS
    spec = synth.ScenarioSpec(
        seed=rng.randrange(2**31), duration_s=n / FPS, fps=FPS, width=1920, height=960,
        actors=(_actor(rng, synth, "human"), _actor(rng, synth), _actor(rng, synth)),
    )
    scene = synth.synth_scene(spec)
    first, second, late = scene.objects
    objects = (first, _cut(second, rng, gaps=1), _cut(late, rng, gaps=0, enter=n // 3))
    scene = dataclasses.replace(scene, objects=objects)
    track_file = root / "tracks.json"
    track_file.write_text(tracks.scene_to_document(scene), encoding="utf-8")
    frames = root / "pano"
    frames.mkdir()
    for t in range(n):
        renderer.write_image(synth.synth_panorama(spec, t), frames / FRAME_NAME.format(t))
    return [
        Clip(
            "hd", "pipeline", n, len(objects), FOV_DEG, tracks=track_file,
            config=_write_config(root / "config.json", shot_length_s=1.0, pan_sweep_deg=45.0),
            frames=frames,
            src_size=(1920, 960), out_size=(960, 540),
        )
    ]


def _wobble_path(rng: random.Random, n: int, shot_len: int) -> dict:
    """A hand-held camera: slow yaw drift plus two-tone pitch and yaw
    shake, so pitch changes on every frame; well under 60 deg/s."""
    yaw0, drift = rng.uniform(-180.0, 180.0), rng.uniform(-15.0, 15.0)
    pitch0 = rng.uniform(-20.0, 20.0)
    ph = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
    types = list(FOV_DEG)
    rng.shuffle(types)
    shots, frames = [], []
    for k, start in enumerate(range(0, n, shot_len)):
        end = min(n, start + shot_len)
        kind = types[k % len(types)]
        shots.append(
            {"start": start, "end": end, "type": kind, "score": 0.0, "targets": [], "relaxed": False}
        )
        for i in range(start, end):
            t = i / FPS
            pitch = (
                pitch0
                + 2.0 * math.sin(2.0 * math.pi * 1.3 * t + ph[0])
                + 0.7 * math.sin(2.0 * math.pi * 3.1 * t + ph[1])
            )
            if frames and pitch == frames[-1]["pitch_deg"]:
                pitch += 1e-3
            yaw = _wrap_deg(yaw0 + drift * t + 1.0 * math.sin(2.0 * math.pi * 0.9 * t + ph[2]))
            frames.append({"yaw_deg": yaw, "pitch_deg": pitch, "hfov_deg": FOV_DEG[kind]})
    return {"fps": FPS, "frames": frames, "shots": shots}


def render_4k_wobble(seed: int, root: Path) -> list[Clip]:
    """One 2 s hand-held path over 3840x1920 panoramas.  Sources repeat
    a cycle of 6 synthesized frames through hard links, which keeps the
    input at 6 x 22 MB on disk while every frame is still read and
    decoded in full."""
    from autocam360 import renderer, synth

    rng = random.Random(f"render_4k_wobble:{seed}")
    n, cycle = 2 * FPS, 6
    spec = synth.ScenarioSpec(
        seed=rng.randrange(2**31), duration_s=n / FPS, fps=FPS, width=3840, height=1920,
        actors=tuple(_actor(rng, synth) for _ in range(4)),
    )
    frames = root / "pano"
    frames.mkdir()
    for t in range(n):
        dest = frames / FRAME_NAME.format(t)
        if t < cycle:
            renderer.write_image(synth.synth_panorama(spec, t), dest)
        else:
            os.link(frames / FRAME_NAME.format(t % cycle), dest)
    path = root / "camera_path.json"
    path.write_text(json.dumps(_wobble_path(rng, n, 15), indent=2) + "\n", encoding="utf-8")
    return [
        Clip(
            "wobble", "render", n, len(spec.actors), FOV_DEG, frames=frames, path=path,
            src_size=(3840, 1920), out_size=(640, 360),
        )
    ]


GENERATORS = {
    "pipeline_hd": pipeline_hd,
    "render_4k_wobble": render_4k_wobble,
}


def generate(workload: str, seed: int, root: Path) -> list[Clip]:
    """Write the workload's inputs under `root` and flush them to disk,
    so their write-back does not compete with the timed commands."""
    root.mkdir(parents=True, exist_ok=True)
    clips = GENERATORS[workload](seed, root)
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    return clips


def disk_bytes(clips) -> dict:
    """Input bytes as read (hard links counted per name) and as stored."""
    logical, inodes = 0, {}
    for clip in clips:
        files = [p for p in (clip.tracks, clip.config, clip.path) if p is not None]
        if clip.frames is not None:
            files += [clip.frames / FRAME_NAME.format(i) for i in range(clip.num_frames)]
        for f in files:
            st = f.stat()
            logical += st.st_size
            inodes[(st.st_dev, st.st_ino)] = st.st_size
    return {"logical": logical, "stored": sum(inodes.values())}
