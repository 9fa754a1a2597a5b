#!/usr/bin/env python3
"""Benchmark the compiled bilinear sampler against the NumPy fallback.

Both backends receive identical sample coordinates (the per-pixel
direction grid is shared NumPy code either way) and must produce
identical bytes; this script checks that, then times a representative
rendering workload.

Usage: python benchmarks/bench_resample.py [--frames N] [--size WxH]
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from autocam360 import _resample, _resample_np
from autocam360.geometry import Direction, Viewport
from autocam360.renderer import _sample_coords
from autocam360.synth import ScenarioSpec, synth_panorama


def workload(out_w: int, out_h: int, frames: int, src_w=1024, src_h=512):
    spec = ScenarioSpec(seed=1, duration_s=1.0, fps=1.0, width=src_w, height=src_h)
    src = synth_panorama(spec, 0).pixels
    coords = []
    for i in range(frames):
        vp = Viewport(
            Direction(-math.pi + 2 * math.pi * i / frames, 0.2 * math.sin(i)),
            math.radians(75.0),
            out_w / out_h,
        )
        coords.append(_sample_coords(vp, out_w, out_h, src_w, src_h))
    return src, coords


def time_backend(kernel, src, coords, repeats=3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for xs, ys in coords:
            kernel.bilinear_wrap_sample(src, xs, ys)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=60)
    parser.add_argument("--size", default="960x540")
    args = parser.parse_args()
    out_w, out_h = (int(x) for x in args.size.lower().split("x"))

    src, coords = workload(out_w, out_h, args.frames)
    px_per_frame = out_w * out_h

    print(f"workload: {args.frames} frames at {out_w}x{out_h} "
          f"({px_per_frame * args.frames / 1e6:.1f} Mpx total)\n")

    t_np = time_backend(_resample_np, src, coords)
    print(f"  numpy fallback : {t_np:8.3f} s  "
          f"({1e3 * t_np / args.frames:6.2f} ms/frame)")

    try:
        compiled = _resample.load_built()
    except ImportError as exc:
        print(f"  compiled kernel: {exc} (python setup.py build_ext --inplace with a C compiler)")
        return 0

    t_c = time_backend(compiled, src, coords)
    print(f"  compiled kernel: {t_c:8.3f} s  "
          f"({1e3 * t_c / args.frames:6.2f} ms/frame)")
    print(f"\n  speedup: {t_np / t_c:.2f}x")

    xs, ys = coords[0]
    same = np.array_equal(
        compiled.bilinear_wrap_sample(src, xs, ys),
        _resample_np.bilinear_wrap_sample(src, xs, ys),
    )
    print(f"  byte-identical outputs: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
