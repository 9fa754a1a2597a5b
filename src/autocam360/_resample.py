"""Compiled bilinear equirect sampler, loaded through ctypes.

``setup.py`` builds ``_resample_c.c`` into a shared library next to this
module (``python setup.py build_ext --inplace``).  :func:`load_built`
loads that build and raises ImportError when there is none, so the
renderer falls back to ``_resample_np``; :class:`CompiledKernel` wraps
any build of the same source, given its path.

Each call cuts its pixels into contiguous ranges, one per CPU this
process may run on (at most ``MAX_RANGES``, and at most one per
``BLOCK`` pixels).  The first range runs on the calling thread and the
others on threads started for that call; ctypes releases the GIL while
the sampler runs, so the ranges run in parallel.  Every thread is joined
before the call returns, and each pixel is computed on its own, so the
bytes are the same for any range count.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import threading

import numpy as np

# a call uses at most MAX_RANGES ranges, and at most one per BLOCK
# pixels: starting and joining a thread (50-70 us) costs about as much as
# sampling 8k-11k pixels of a viewport (6-7 ns each on one thread, on the
# AVX-512 path), so a second range pays only when it takes that many
# pixels off the calling thread, at 16k-22k pixels per call
MAX_RANGES = 4
BLOCK = 16384


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


THREADS = min(MAX_RANGES, _usable_cpus())


def range_count(n: int) -> int:
    """How many ranges a call over `n` pixels is cut into."""
    return max(1, min(THREADS, -(-n // BLOCK)))


def split_ranges(n: int, count: int) -> list[tuple[int, int]]:
    """`count` contiguous ranges ``(lo, hi)`` that tile ``[0, n)`` with
    sizes differing by at most one; fewer when n < count, so none is
    empty unless n is 0."""
    count = max(1, min(count, n))
    return [(n * k // count, n * (k + 1) // count) for k in range(count)]


def run_ranges(fn, ranges) -> None:
    """Call ``fn(lo, hi)`` for every range: the first on this thread, the
    others on threads started here.  All threads are joined before this
    returns, and an exception raised in any range is raised here."""
    errors = []

    def work(lo: int, hi: int) -> None:
        try:
            fn(lo, hi)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = []
    try:
        for lo, hi in ranges[1:]:
            thread = threading.Thread(target=work, args=(lo, hi))
            thread.start()
            threads.append(thread)
        fn(*ranges[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]

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
    the file cannot be loaded).

    ``BACKEND`` names the path the library picked for this CPU when it
    loaded: ``"c-avx512"`` for the AVX-512 loop, 8 pixels per step, and
    ``"c"`` for the scalar loop.  Both give the same bytes.
    """

    def __init__(self, path) -> None:
        self._library = ctypes.CDLL(str(path))
        self._sample = self._library.bilinear_wrap_sample
        self._sample.argtypes = _ARGTYPES
        self._sample.restype = None
        lanes = self._library.bilinear_wrap_sample_lanes
        lanes.argtypes, lanes.restype = (), ctypes.c_int
        self.BACKEND = "c-avx512" if lanes() == 8 else "c"

    def bilinear_wrap_sample(self, src: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Sample src (H, W, 3) at continuous pixel coords; returns (N, 3) uint8.

        Coordinates must be finite and below 2^52 in magnitude; x wraps
        around the seam and y clamps at the poles.
        """
        return self._sample_split(src, xs, ys)

    def _sample_split(self, src, xs, ys, count: int | None = None) -> np.ndarray:
        """:meth:`bilinear_wrap_sample` over `count` ranges (fewer when
        there are fewer pixels); by default over ``range_count(n)``."""
        src = np.ascontiguousarray(src)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must have equal length")
        if src.dtype != np.uint8 or src.ndim != 3 or src.shape[2] != 3 or 0 in src.shape:
            raise ValueError(
                f"source must be a non-empty (H, W, 3) uint8 array, got {src.dtype} {src.shape}"
            )
        n = xs.shape[0]
        out = np.empty((n, 3), dtype=np.uint8)
        sample, (h, w) = self._sample, src.shape[:2]
        src_p, xs_p, ys_p, out_p = (a.ctypes.data for a in (src, xs, ys, out))

        def sample_range(lo: int, hi: int) -> None:
            sample(src_p, h, w, xs_p + 8 * lo, ys_p + 8 * lo, hi - lo, out_p + 3 * lo)

        run_ranges(sample_range, split_ranges(n, range_count(n) if count is None else count))
        return out


def load_built() -> CompiledKernel:
    """The sampler ``setup.py`` built into this package."""
    spec = importlib.util.find_spec(f"{__package__}._resample_c")
    if spec is None or spec.origin is None:
        raise ImportError("compiled sampler _resample_c is not built")
    try:
        return CompiledKernel(spec.origin)
    # present but not loadable (wrong platform, truncated file), or built
    # from an older source that lacks a symbol
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot load compiled sampler {spec.origin}: {exc}") from exc
