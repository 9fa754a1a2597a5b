"""Compiled bilinear equirect sampler, loaded through ctypes.

``setup.py`` builds ``_resample_c.c`` into a shared library next to this
module (``python setup.py build_ext --inplace``).  :func:`load_built`
loads that build and raises ImportError when there is none, so the
renderer falls back to ``_resample_np``; :class:`CompiledKernel` wraps
any build of the same source, given its path.
"""

from __future__ import annotations

import ctypes
import importlib.util

import numpy as np

_ARGTYPES = (
    ctypes.c_void_p,  # src, (h, w, 3) uint8
    ctypes.c_int64,  # h
    ctypes.c_int64,  # w
    ctypes.c_void_p,  # xs, float64
    ctypes.c_void_p,  # ys, float64
    ctypes.c_int64,  # n
    ctypes.c_void_p,  # out, (n, 3) uint8
)


class CompiledKernel:
    """The sampler in the shared library at `path` (raises OSError when
    the file cannot be loaded)."""

    BACKEND = "c"

    def __init__(self, path) -> None:
        self._library = ctypes.CDLL(str(path))
        self._sample = self._library.bilinear_wrap_sample
        self._sample.argtypes = _ARGTYPES
        self._sample.restype = None

    def bilinear_wrap_sample(self, src: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Sample src (H, W, 3) at continuous pixel coords; returns (N, 3) uint8.

        Coordinates must be finite; x wraps around the seam and y clamps
        at the poles.
        """
        src = np.ascontiguousarray(src)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must have equal length")
        if src.dtype != np.uint8 or src.ndim != 3 or src.shape[2] != 3 or 0 in src.shape:
            raise ValueError(
                f"source must be a non-empty (H, W, 3) uint8 array, got {src.dtype} {src.shape}"
            )
        out = np.empty((xs.shape[0], 3), dtype=np.uint8)
        self._sample(
            src.ctypes.data, src.shape[0], src.shape[1],
            xs.ctypes.data, ys.ctypes.data, xs.shape[0], out.ctypes.data,
        )
        return out


def load_built() -> CompiledKernel:
    """The sampler ``setup.py`` built into this package."""
    spec = importlib.util.find_spec(f"{__package__}._resample_c")
    if spec is None or spec.origin is None:
        raise ImportError("compiled sampler _resample_c is not built")
    try:
        return CompiledKernel(spec.origin)
    except OSError as exc:  # present but not loadable (wrong platform, truncated file)
        raise ImportError(f"cannot load compiled sampler {spec.origin}: {exc}") from exc
