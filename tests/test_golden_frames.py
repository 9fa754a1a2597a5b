"""Golden rendered frames: rendering fixed camera paths over a fixed
noise panorama must reproduce the committed bytes exactly.

Each path is rendered at 64x36 through :func:`render_sequence` over one
seeded 360x180 noise panorama, and all of its frames are hashed into one
SHA-256.  The paths are the seven golden camera paths in ``tests/golden/``
and two hand-made ones.  ``hand_made`` crosses the seam, reaches pitch
+-80 degrees and changes FOV every frame.  ``wobble`` is a hand-held
camera: pitch changes every frame while the FOV holds for 6-frame shots,
yaw crosses the seam, and one frame's aspect is 0.5% off the output's.
Noise makes every coordinate change show up in the bytes.  Rewrite ``tests/golden/frames.json`` only for an
intended change to the rendered bytes, with
``python tests/test_golden_frames.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from autocam360.director import parse_camera_path
from autocam360.geometry import Direction, Viewport
from autocam360.renderer import Image, encode_ppm, render_sequence

GOLDEN = Path(__file__).parent / "golden"
FRAMES_FILE = GOLDEN / "frames.json"
OUT_W, OUT_H = 64, 36
SRC_W, SRC_H = 360, 180
SEED = 8


def _panorama() -> Image:
    noise = random.Random(SEED).randbytes(SRC_W * SRC_H * 3)
    return Image(SRC_W, SRC_H, np.frombuffer(noise, np.uint8).reshape(SRC_H, SRC_W, 3))


def _hand_made_path() -> list[Viewport]:
    # yaw 160 -> 207 degrees crosses the seam at 180; pitch runs from
    # -80 to +80 degrees and the FOV grows by 2.5 degrees every frame
    n = 48
    return [
        Viewport(
            Direction(math.radians(160.0 + k), math.radians(-80.0 + 160.0 * k / (n - 1))),
            math.radians(30.0 + 2.5 * k),
            OUT_W / OUT_H,
        )
        for k in range(n)
    ]


def _wobble_path() -> list[Viewport]:
    # yaw drifts 174 -> 186 degrees across the seam with a shake; pitch
    # shakes around a slow climb and never repeats; the FOV steps every
    # 6 frames; frame 15 keeps its shot's FOV at an aspect 0.5% wider
    n, shot_len = 30, 6
    fovs = (65.0, 40.0, 90.0, 65.0, 110.0)
    path = []
    for k in range(n):
        yaw = 174.0 + 0.4 * k + 1.5 * math.sin(0.9 * k)
        pitch = -5.0 + 0.3 * k + 4.0 * math.sin(1.3 * k) + 1.5 * math.sin(3.1 * k)
        aspect = OUT_W / OUT_H * (1.005 if k == 15 else 1.0)
        center = Direction(math.radians(yaw), math.radians(pitch))
        path.append(Viewport(center, math.radians(fovs[k // shot_len]), aspect))
    return path


def _path(name: str) -> list[Viewport]:
    if name == "hand_made":
        return _hand_made_path()
    if name == "wobble":
        return _wobble_path()
    document = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    return parse_camera_path(document, aspect=OUT_W / OUT_H)[1]


PATHS = [
    "crowd", "empty", "hand_made", "occlusion", "recommendations", "short_shots", "steep", "tie",
    "wobble",
]


def _digest(name: str) -> str:
    path = _path(name)
    pano = _panorama()
    h = hashlib.sha256()

    def sink(i: int, img: Image) -> None:
        h.update(encode_ppm(img))

    render_sequence([pano] * len(path), path, OUT_W, OUT_H, sink)
    return h.hexdigest()


@pytest.mark.parametrize("name", PATHS)
def test_rendered_frames_match_golden(name):
    want = json.loads(FRAMES_FILE.read_text(encoding="utf-8"))
    assert _digest(name) == want[name]


if __name__ == "__main__":
    digests = {name: _digest(name) for name in PATHS}
    FRAMES_FILE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FRAMES_FILE}", file=sys.stderr)
