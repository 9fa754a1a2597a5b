"""Pure-NumPy bilinear equirect sampler: horizontal wrap, vertical clamp.

Fallback used when the compiled extension is unavailable.  Keeps the
exact arithmetic (operation order, float64 blending, floor(+0.5)
conversion) of the compiled kernel so both produce identical bytes.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def bilinear_wrap_sample(src: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample src (H, W, 3) at continuous pixel coords; returns (N, 3) uint8.

    Coordinates must be finite and below 2^52 in magnitude, the domain on
    which the compiled kernel gives the same bytes; x wraps around the
    seam and y clamps at the poles.
    """
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have equal length")
    h, w = src.shape[0], src.shape[1]
    sx = xs - 0.5
    sy = ys - 0.5
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = (sx - x0)[:, None]
    fy = (sy - y0)[:, None]
    ix0 = x0.astype(np.int64) % w
    ix1 = (ix0 + 1) % w
    yi = y0.astype(np.int64)
    iy0 = np.clip(yi, 0, h - 1)
    iy1 = np.clip(yi + 1, 0, h - 1)
    p00 = src[iy0, ix0].astype(np.float64)
    p10 = src[iy0, ix1].astype(np.float64)
    p01 = src[iy1, ix0].astype(np.float64)
    p11 = src[iy1, ix1].astype(np.float64)
    val = (
        ((1.0 - fx) * (1.0 - fy)) * p00
        + (fx * (1.0 - fy)) * p10
        + ((1.0 - fx) * fy) * p01
        + (fx * fy) * p11
    )
    return np.floor(val + 0.5).astype(np.uint8)
