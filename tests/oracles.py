"""Independent reference implementations shared by the test modules.

These deliberately avoid the library's internal shortcuts so they can
serve as oracles: projection goes through explicit rotation matrices and
a pinhole division, and angles use the atan2 form that stays accurate
for tiny separations.
"""

from __future__ import annotations

import math

import numpy as np

from autocam360.geometry import TWO_PI, Direction, Viewport, _camera_basis


def stable_angle(a: Direction, b: Direction) -> float:
    """atan2-based angle between directions; resolves angles far below the
    ~1e-8 granularity of the acos formulation."""
    u = np.array(a.unit())
    v = np.array(b.unit())
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


def oracle_project(d: Direction, vp: Viewport) -> tuple[float, float] | None:
    """Rotation-matrix + pinhole projection.

    World->camera is R_x(pitch_c) @ R_y(-yaw_c); directions on or behind
    the camera plane yield None.
    """
    yaw_c, pitch_c = vp.center.yaw, vp.center.pitch
    ty = -yaw_c
    r_yaw = np.array(
        [
            [math.cos(ty), 0.0, math.sin(ty)],
            [0.0, 1.0, 0.0],
            [-math.sin(ty), 0.0, math.cos(ty)],
        ]
    )
    r_pitch = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(pitch_c), -math.sin(pitch_c)],
            [0.0, math.sin(pitch_c), math.cos(pitch_c)],
        ]
    )
    world = np.array(d.unit())
    cam = r_pitch @ (r_yaw @ world)
    if cam[2] <= 0.0:
        return None
    half_w = math.tan(vp.hfov / 2.0)
    half_h = math.tan(vp.hfov / 2.0) / vp.aspect
    return (
        0.5 + cam[0] / cam[2] / (2.0 * half_w),
        0.5 - cam[1] / cam[2] / (2.0 * half_h),
    )


def slerp(d1: Direction, d2: Direction, t: float) -> Direction:
    """Textbook spherical interpolation between two directions."""
    u = np.array(d1.unit())
    v = np.array(d2.unit())
    omega = math.acos(float(np.clip(u @ v, -1.0, 1.0)))
    if omega < 1e-12:
        return d1
    w = (math.sin((1.0 - t) * omega) * u + math.sin(t * omega) * v) / math.sin(omega)
    return Direction(math.atan2(w[0], w[2]), math.asin(float(np.clip(w[1], -1, 1))))


def rotation_sample_coords(vp: Viewport, out_w: int, out_h: int, src_w: int, src_h: int):
    """Equirect sample coordinates through a normalized ray grid and the
    full camera rotation: each pixel's ray is turned into world space by
    the right/up/forward basis, then mapped to (yaw, pitch).  The closed
    form in ``renderer._sample_coords`` must give the same directions."""
    half_w = math.tan(0.5 * vp.hfov)
    half_h = half_w / vp.aspect
    u = (np.arange(out_w, dtype=np.float64) + 0.5) / out_w
    v = (np.arange(out_h, dtype=np.float64) + 0.5) / out_h
    xg, yg = np.meshgrid((u - 0.5) * (2.0 * half_w), (0.5 - v) * (2.0 * half_h))
    norm = np.sqrt(xg * xg + yg * yg + 1.0)
    xn, yn, zn = xg / norm, yg / norm, 1.0 / norm
    right, up, forward = _camera_basis(vp.center)
    wx = xn * right[0] + yn * up[0] + zn * forward[0]
    wy = xn * right[1] + yn * up[1] + zn * forward[1]
    wz = xn * right[2] + yn * up[2] + zn * forward[2]
    yaw = np.arctan2(wx, wz)
    pitch = np.arcsin(np.clip(wy, -1.0, 1.0))
    px = (yaw + math.pi) * (src_w / TWO_PI)
    py = ((0.5 * math.pi) - pitch) * (src_h / math.pi)
    return px.ravel(), py.ravel()


def reference_sample_coords(vp: Viewport, out_w: int, out_h: int, src_w: int, src_h: int):
    """The closed form of ``renderer._sample_coords`` evaluated over the
    whole output grid at once: the unblocked form that it must equal
    element for element."""
    half_w = math.tan(0.5 * vp.hfov)
    x = ((np.arange(out_w) + 0.5) / out_w - 0.5) * (2.0 * half_w)
    y = (0.5 - (np.arange(out_h) + 0.5) / out_h) * (2.0 * half_w / vp.aspect)
    x, y = np.meshgrid(x, y)
    sp, cp = math.sin(vp.center.pitch), math.cos(vp.center.pitch)
    fwd = cp - y * sp
    up = y * cp + sp
    x_scale = src_w / TWO_PI
    px = (np.arctan2(x, fwd) + math.pi) * x_scale + vp.center.yaw * x_scale
    sin_pitch = np.clip(up / np.sqrt(x * x + y * y + 1.0), -1.0, 1.0)
    py = ((0.5 * math.pi) - np.arcsin(sin_pitch)) * (src_h / math.pi)
    return px.ravel(), py.ravel()
