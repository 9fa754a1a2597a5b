"""Correctness gate for one command's outputs.

A frame fails when the camera path breaks a documented contract there,
when its output file is missing or malformed, when a sampled pixel is
more than 1 away from an independent per-pixel reference, or when a
repeat of the same clip wrote different bytes.  Failed frames count
against the workload's ``passed_share``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import FPS, FRAME_NAME

PITCH_LIMIT_DEG = 45.0
SPEED_LIMIT_DEG_S = 60.0
PIXEL_FRAMES = 6  # sampled frames per clip
PIXELS_PER_FRAME = 2000


@dataclass
class ClipCheck:
    failed: set = field(default_factory=set)
    reasons: list = field(default_factory=list)
    frame_digests: list = field(default_factory=list)
    digest: str = ""
    pixels_checked: int = 0
    pixels_off: int = 0

    def fail(self, frames, reason: str) -> None:
        frames = set(frames)
        if frames:
            self.failed |= frames
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def read_ppm(data: bytes) -> np.ndarray:
    """Pixels of a canonical binary PPM as written by the package
    (``P6\\n<w> <h>\\n255\\n`` then raw RGB); raises ValueError otherwise."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError("not a canonical P6 header")
    w, h = (int(x) for x in parts[1].split(b" "))
    if len(parts[3]) != w * h * 3:
        raise ValueError(f"payload is {len(parts[3])} bytes, expected {w * h * 3}")
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)


def _units(yaw_deg: np.ndarray, pitch_deg: np.ndarray) -> np.ndarray:
    y, p = np.radians(yaw_deg), np.radians(pitch_deg)
    return np.stack([np.cos(p) * np.sin(y), np.sin(p), np.cos(p) * np.cos(y)], axis=1)


def check_path(doc, num_frames: int, fps: float, fov_deg: dict, check: ClipCheck) -> None:
    """Path contracts: `num_frames` frames; shots tile ``[0, N)`` in
    order; each shot's hfov is the configured FOV of its type; |pitch|
    <= 45 deg; angular speed within a shot <= 60 deg/s."""
    everything = range(num_frames)
    try:
        frames = doc["frames"]
        shots = doc["shots"]
        yaw = np.array([f["yaw_deg"] for f in frames], dtype=np.float64)
        pitch = np.array([f["pitch_deg"] for f in frames], dtype=np.float64)
        hfov = np.array([f["hfov_deg"] for f in frames], dtype=np.float64)
        bounds = [(int(s["start"]), int(s["end"]), s["type"]) for s in shots]
    except (KeyError, TypeError, ValueError) as exc:
        check.fail(everything, f"malformed camera path: {exc}")
        return
    if len(frames) != num_frames:
        check.fail(everything, f"path has {len(frames)} frames, expected {num_frames}")
        return

    owner = np.full(num_frames, -1)
    cursor = 0
    for k, (start, end, kind) in enumerate(bounds):
        if start != cursor or end <= start:
            check.fail(
                range(min(start, cursor), min(max(start, cursor), num_frames)),
                f"shot {k} is [{start}, {end}) after a shot ending at {cursor}",
            )
        lo, hi = max(start, 0), min(end, num_frames)
        overlap = np.nonzero(owner[lo:hi] >= 0)[0] + lo
        check.fail(overlap.tolist(), f"shot {k} overlaps an earlier shot")
        owner[lo:hi] = k
        fov = fov_deg.get(kind)
        wrong = np.nonzero(np.abs(hfov[lo:hi] - fov) > 1e-9)[0] + lo if fov else range(lo, hi)
        check.fail(list(wrong), f"shot {k} ({kind}) hfov is not the configured {fov}")
        cursor = max(cursor, end)
    check.fail(np.nonzero(owner < 0)[0].tolist(), "frames not covered by any shot")

    check.fail(
        np.nonzero(np.abs(pitch) > PITCH_LIMIT_DEG + 1e-9)[0].tolist(),
        f"|pitch| above {PITCH_LIMIT_DEG} deg",
    )
    u = _units(yaw, pitch)
    cross = np.linalg.norm(np.cross(u[1:], u[:-1]), axis=1)
    angle = np.degrees(np.arctan2(cross, np.sum(u[1:] * u[:-1], axis=1)))
    same_shot = (owner[1:] == owner[:-1]) & (owner[1:] >= 0)
    fast = np.nonzero(same_shot & (angle * fps > SPEED_LIMIT_DEG_S + 1e-6))[0] + 1
    check.fail(fast.tolist(), f"angular speed above {SPEED_LIMIT_DEG_S} deg/s within a shot")


def check_frames(out_dir: Path, num_frames: int, size, check: ClipCheck) -> None:
    """Every output frame exists and is a canonical PPM of `size`;
    records each frame's SHA-256."""
    w, h = size
    for i in range(num_frames):
        try:
            data = (out_dir / FRAME_NAME.format(i)).read_bytes()
            pixels = read_ppm(data)
        except (OSError, ValueError) as exc:
            check.fail([i], f"frame {i}: {exc}")
            check.frame_digests.append(None)
            continue
        if pixels.shape != (h, w, 3):
            check.fail([i], f"frame {i} is {pixels.shape[1]}x{pixels.shape[0]}, expected {w}x{h}")
        check.frame_digests.append(hashlib.sha256(data).hexdigest())


def _viewport(frame: dict, out_size):
    """A camera-path frame as the CLI reads it (degrees to radians)."""
    from autocam360.geometry import Direction, Viewport

    return Viewport(
        Direction(math.radians(frame["yaw_deg"]), math.radians(frame["pitch_deg"])),
        math.radians(frame["hfov_deg"]),
        out_size[0] / out_size[1],
    )


def reference_pixels(src: np.ndarray, frame: dict, out_size, points) -> np.ndarray:
    """Reference RGB at output pixels `points` ((row, col) pairs): each
    pixel center is unprojected through the viewport, mapped to equirect
    coordinates and sampled with the NumPy kernel, one pixel at a time
    through the package's scalar geometry."""
    from autocam360 import _resample_np
    from autocam360.geometry import direction_to_equirect_pixel, unproject_from_viewport

    out_w, out_h = out_size
    src_h, src_w = src.shape[:2]
    vp = _viewport(frame, out_size)
    xs, ys = [], []
    for row, col in points:
        d = unproject_from_viewport((col + 0.5) / out_w, (row + 0.5) / out_h, vp)
        px, py = direction_to_equirect_pixel(d, src_w, src_h)
        xs.append(px)
        ys.append(py)
    return _resample_np.bilinear_wrap_sample(src, np.array(xs), np.array(ys))


def sample_frames(rng: random.Random, num_frames: int, count: int) -> list[int]:
    """First, last and random frames in between."""
    picks = {0, num_frames - 1}
    while len(picks) < min(count, num_frames):
        picks.add(rng.randrange(num_frames))
    return sorted(picks)


def check_pixels(clip, doc, out_dir: Path, rng: random.Random, check: ClipCheck) -> None:
    out_w, out_h = clip.out_size
    per_frame = PIXELS_PER_FRAME
    for i in sample_frames(rng, clip.num_frames, PIXEL_FRAMES):
        if i in check.failed:
            continue
        src = read_ppm((clip.frames / FRAME_NAME.format(i)).read_bytes())
        out = read_ppm((out_dir / FRAME_NAME.format(i)).read_bytes())
        points = [(rng.randrange(out_h), rng.randrange(out_w)) for _ in range(per_frame)]
        ref = reference_pixels(src, doc["frames"][i], clip.out_size, points)
        rows, cols = np.array(points).T
        diff = np.abs(out[rows, cols].astype(np.int16) - ref.astype(np.int16))
        off = int(np.count_nonzero(np.any(diff > 1, axis=1)))
        check.pixels_checked += per_frame
        check.pixels_off += off
        if off:
            check.fail([i], f"frame {i}: {off} of {per_frame} sampled pixels off by more than 1")


def check_clip(clip, out_dir: Path, rc: int, pixel_rng: random.Random | None) -> tuple:
    """Gate one run of `clip`; returns ``(ClipCheck, camera-path document)``.

    `pixel_rng` selects the sampled pixels; pass None to skip the pixel
    reference (used on repeats, which are compared by digest instead).
    """
    check = ClipCheck()
    if rc != 0:
        check.fail(range(clip.num_frames), f"command exited {rc}")
        return check, None
    path_file = clip.path_file(out_dir)
    try:
        path_bytes = path_file.read_bytes()
        doc = json.loads(path_bytes)
    except (OSError, ValueError) as exc:
        check.fail(range(clip.num_frames), f"camera path unreadable: {exc}")
        return check, None
    check_path(doc, clip.num_frames, FPS, clip.fov_deg, check)
    check_frames(out_dir, clip.num_frames, clip.out_size, check)
    digest = hashlib.sha256(path_bytes)
    for d in check.frame_digests:
        digest.update((d or "missing").encode())
    check.digest = digest.hexdigest()
    if pixel_rng is not None and len(check.failed) < clip.num_frames:
        check_pixels(clip, doc, out_dir, pixel_rng, check)
    return check, doc


def compare_repeat(first: ClipCheck, again: ClipCheck, num_frames: int) -> None:
    """A repeat of a clip must write the same bytes as its first run.
    Frames whose bytes differ fail; a differing camera path fails all."""
    if first.digest == again.digest:
        return
    differ = [
        i for i, (a, b) in enumerate(zip(first.frame_digests, again.frame_digests)) if a != b
    ]
    again.fail(differ or range(num_frames), "output differs from the first run of this clip")


def combined_digest(digests) -> str:
    """One SHA-256 over the clips' digests, in clip order."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def backend_identity(backend: str, clip, doc, out_dir: Path, frames) -> str:
    """With a compiled kernel active, the sampled frames must equal a
    full NumPy-kernel render byte for byte; with the NumPy fallback
    active there is nothing to compare and the check is skipped."""
    if backend == "numpy":
        return "skipped"
    from autocam360 import _resample_np
    from autocam360.renderer import _sample_coords

    out_w, out_h = clip.out_size
    for i in frames:
        src = read_ppm((clip.frames / FRAME_NAME.format(i)).read_bytes())
        vp = _viewport(doc["frames"][i], clip.out_size)
        xs, ys = _sample_coords(vp, out_w, out_h, src.shape[1], src.shape[0])
        ref = _resample_np.bilinear_wrap_sample(src, xs, ys).reshape(out_h, out_w, 3)
        if not np.array_equal(ref, read_ppm((out_dir / FRAME_NAME.format(i)).read_bytes())):
            return "failed"
    return "passed"
