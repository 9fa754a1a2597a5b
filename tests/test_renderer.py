from __future__ import annotations

import ast
import importlib.machinery
import importlib.util
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import oracle_project, reference_sample_coords, rotation_sample_coords

from autocam360 import _resample, _resample_np, renderer
from autocam360.geometry import Direction, Viewport, direction_to_equirect_pixel
from autocam360.renderer import (
    Image,
    ImageFormatError,
    RenderError,
    _sample_coords,
    decode_ppm,
    encode_ppm,
    read_image,
    render_frames_dir,
    render_sequence,
    render_viewport,
    write_image,
)
from autocam360.synth import ScenarioSpec, synth_panorama

VP_ASPECT = 16 / 9
OUT_W, OUT_H = 320, 180


def flat_image(w, h, color) -> Image:
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    pixels[:] = color
    return Image(w, h, pixels)


# ---------------------------------------------------------------------------
# PPM I/O


def test_decode_1x1_red():
    img = decode_ppm(b"P6\n1 1\n255\n\xff\x00\x00")
    assert (img.width, img.height) == (1, 1)
    assert img.pixels.tolist() == [[[255, 0, 0]]]


def test_decode_handles_comments():
    img = decode_ppm(b"P6\n# a comment\n2 1 # trailing\n255\n" + b"\x01\x02\x03\x04\x05\x06")
    assert img.width == 2
    assert img.pixels[0, 1].tolist() == [4, 5, 6]


def test_bad_magic():
    with pytest.raises(ImageFormatError, match="magic"):
        decode_ppm(b"P5\n1 1\n255\n\x00")


def test_wrong_maxval():
    with pytest.raises(ImageFormatError, match="maxval"):
        decode_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")


def test_truncated_payload_names_offset():
    with pytest.raises(ImageFormatError, match="byte 14"):
        decode_ppm(b"P6\n2 1\n255\n\xff\x00\x00")  # 3 of 6 payload bytes


def test_round_trip_gradient(tmp_path):
    w, h = 64, 32
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    pixels[:, :, 0] = np.arange(w, dtype=np.uint8)[None, :] * 3
    pixels[:, :, 1] = np.arange(h, dtype=np.uint8)[:, None] * 7
    pixels[:, :, 2] = 99
    img = Image(w, h, pixels)
    data = encode_ppm(img)
    assert encode_ppm(decode_ppm(data)) == data

    path = tmp_path / "grad.ppm"
    write_image(img, path)
    assert read_image(path) == img


def test_image_validation():
    with pytest.raises(ValueError):
        Image(2, 2, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(2, 2, np.zeros((2, 2, 3), dtype=np.float32))


# a 4x3 image's header is 11 bytes and its payload 36
HEADER_4X3 = b"P6\n4 3\n255\n"


def test_read_image_pixels_are_writable_and_writes_never_reach_the_file(tmp_path):
    img = Image(4, 3, np.arange(36, dtype=np.uint8).reshape(3, 4, 3))
    path = tmp_path / "src.ppm"
    data = write_image(img, path)
    got = read_image(path)
    assert got == img
    assert got.pixels.flags.writeable
    got.pixels[:] = 255
    assert path.read_bytes() == data
    assert read_image(path) == img


def test_read_image_from_bytes_is_a_read_only_view():
    data = HEADER_4X3 + bytes(range(36))
    img = read_image(data)
    assert not img.pixels.flags.writeable
    assert img.pixels.tobytes() == data[len(HEADER_4X3) :]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "truncated header at byte 0"),
        (HEADER_4X3, "truncated pixel data at byte 11: expected 36 bytes, got 0"),
        (HEADER_4X3[:-1], "truncated pixel data at byte 11: expected 36 bytes, got 0"),
        (HEADER_4X3 + bytes(20), "truncated pixel data at byte 31: expected 36 bytes, got 20"),
        (b"P6\n4 3", "truncated header at byte 6"),
    ],
)
def test_malformed_files_raise_the_decode_messages(tmp_path, data, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    for source in (path, data):
        with pytest.raises(ImageFormatError) as info:
            read_image(source)
        assert str(info.value) == message


_BUFFER_TYPES = st.sampled_from([bytes, bytearray, lambda b: memoryview(bytes(b))])
_TOKENS = st.sampled_from([b"P6", b"P5", b"4", b"3", b"255", b"0", b"-1", b"65535", b"x", b"#c\n"])
# documents that look like PPM headers, with arbitrary separators and payloads
_PPM_LIKE = st.builds(
    lambda tokens, sep, payload: sep.join(tokens) + sep + payload,
    st.lists(_TOKENS, max_size=5),
    st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#x\n", b""]),
    st.binary(max_size=40),
)


@given(st.binary(max_size=64) | _PPM_LIKE, _BUFFER_TYPES)
def test_decode_ppm_raises_only_image_format_error(data, buffer_type):
    try:
        img = decode_ppm(buffer_type(data))
    except ImageFormatError:
        return
    assert img.pixels.nbytes == 3 * img.width * img.height


@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9))
    .flatmap(lambda hw: arrays(np.uint8, (*hw, 3)))
    .map(lambda px: Image(px.shape[1], px.shape[0], px)),
    _BUFFER_TYPES,
)
def test_decode_ppm_inverts_encode_ppm(img, buffer_type):
    assert decode_ppm(buffer_type(encode_ppm(img))) == img


# ---------------------------------------------------------------------------
# render_viewport


def test_uniform_source_renders_uniform_exactly():
    src = flat_image(128, 64, (13, 200, 77))
    vp = Viewport(Direction(1.0, 0.2), math.radians(75), VP_ASPECT)
    out = render_viewport(src, vp, OUT_W, OUT_H)
    assert (out.pixels == np.array([13, 200, 77], dtype=np.uint8)).all()


def test_aspect_mismatch_rejected():
    src = flat_image(128, 64, (0, 0, 0))
    vp = Viewport(Direction(0, 0), math.radians(75), VP_ASPECT)
    with pytest.raises(ValueError, match="aspect"):
        render_viewport(src, vp, 300, 180)


def marker_image(w, h, px, py) -> Image:
    pixels = np.zeros((h, w, 3), dtype=np.uint8)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            pixels[(py + dy) % h, (px + dx) % w] = 255
    return Image(w, h, pixels)


@pytest.mark.parametrize(
    "center",
    [
        Direction(0.0, 0.0),
        Direction(math.pi, 0.0),  # seam-centered
        Direction(math.radians(120.0), math.radians(20.0)),
        Direction(math.radians(-75.0), math.radians(-30.0)),
        Direction(math.radians(-179.0), math.radians(10.0)),
    ],
)
def test_marker_localization_against_projection_oracle(center):
    w, h = 512, 256
    vp = Viewport(center, math.radians(75), VP_ASPECT)
    # marker slightly off the viewport center, snapped to a pixel center
    d = Direction(center.yaw + math.radians(6.0), center.pitch + math.radians(4.0))
    px, py = direction_to_equirect_pixel(d, w, h)
    px_i, py_i = round(px - 0.5), round(py - 0.5)
    src = marker_image(w, h, px_i, py_i)
    out = render_viewport(src, vp, OUT_W, OUT_H)

    # the direction actually drawn is the snapped pixel's center
    from autocam360.geometry import equirect_pixel_to_direction

    d_marker = equirect_pixel_to_direction(px_i + 0.5, py_i + 0.5, w, h)
    u, v = oracle_project(d_marker, vp)
    want_x, want_y = u * OUT_W - 0.5, v * OUT_H - 0.5

    # intensity centroid of the rendered blob
    brightness = out.pixels.astype(np.float64).sum(axis=2)
    mask = brightness >= 0.5 * brightness.max()
    ys, xs = np.nonzero(mask)
    weights = brightness[mask]
    got_x = float((xs * weights).sum() / weights.sum())
    got_y = float((ys * weights).sum() / weights.sum())
    assert math.hypot(got_x - want_x, got_y - want_y) <= 1.0


def test_rotation_consistency_within_one_level():
    spec = ScenarioSpec(seed=3, duration_s=1.0, fps=1.0, width=256, height=128)
    src = synth_panorama(spec, 0)
    k = 40
    rolled = Image(src.width, src.height, np.roll(src.pixels, k, axis=1))
    vp1 = Viewport(Direction(0.4, 0.1), math.radians(80), VP_ASPECT)
    vp2 = Viewport(
        Direction(0.4 + 2 * math.pi * k / src.width, 0.1), math.radians(80), VP_ASPECT
    )
    out1 = render_viewport(src, vp1, OUT_W, OUT_H)
    out2 = render_viewport(rolled, vp2, OUT_W, OUT_H)
    diff = np.abs(out1.pixels.astype(np.int16) - out2.pixels.astype(np.int16))
    assert diff.max() <= 1


def test_seam_continuity():
    # a seam-centered render of a horizontally smooth panorama shows no
    # column jump beyond what an equator-centered render shows
    spec = ScenarioSpec(seed=5, duration_s=1.0, fps=1.0, width=512, height=256)
    src = synth_panorama(spec, 0)

    def max_column_delta(img: Image) -> int:
        a = img.pixels.astype(np.int16)
        return int(np.abs(a[:, 1:, :] - a[:, :-1, :]).max())

    vp_seam = Viewport(Direction(-math.pi, 0.05), math.radians(80), VP_ASPECT)
    vp_front = Viewport(Direction(0.0, 0.05), math.radians(80), VP_ASPECT)
    seam_delta = max_column_delta(render_viewport(src, vp_seam, OUT_W, OUT_H))
    front_delta = max_column_delta(render_viewport(src, vp_front, OUT_W, OUT_H))
    assert seam_delta <= front_delta + 1


def test_render_deterministic():
    spec = ScenarioSpec(seed=9, duration_s=1.0, fps=1.0, width=256, height=128)
    src = synth_panorama(spec, 0)
    vp = Viewport(Direction(2.0, -0.3), math.radians(95), VP_ASPECT)
    a = render_viewport(src, vp, OUT_W, OUT_H)
    b = render_viewport(src, vp, OUT_W, OUT_H)
    assert encode_ppm(a) == encode_ppm(b)


def _setup_compile_args() -> list[str]:
    """The ``extra_compile_args`` that setup.py builds the sampler with."""
    tree = ast.parse((Path(__file__).parents[1] / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "extra_compile_args":
            return ast.literal_eval(node.value)
    raise AssertionError("setup.py sets no extra_compile_args")


@pytest.fixture(scope="module")
def kernel_library(tmp_path_factory):
    """_resample_c.c as it is in the tree, compiled here with setup.py's
    flags; an in-place build may be older than the source."""
    cc = shutil.which(os.environ.get("CC", "cc")) or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler found")
    source = Path(_resample.__file__).with_name("_resample_c.c")
    library = tmp_path_factory.mktemp("kernel") / "_resample_c.so"
    subprocess.run(
        [cc, *_setup_compile_args(), "-shared", "-fPIC", str(source), "-o", str(library)],
        check=True,
    )
    return library


@pytest.fixture(scope="module")
def compiled_kernel(kernel_library):
    """The compiled kernel's dispatching entry point, as the renderer
    calls it: the AVX-512 path where the CPU has it."""
    return _resample.CompiledKernel(kernel_library)


def _portable(library) -> _resample.CompiledKernel:
    """A kernel on `library` whose calls go straight to the scalar loop."""
    kernel = _resample.CompiledKernel(library)
    kernel._sample = kernel._library.bilinear_wrap_sample_portable
    kernel._sample.argtypes = _resample._ARGTYPES
    return kernel


@pytest.fixture(scope="module")
def entry_points(compiled_kernel, kernel_library):
    """Both entry points of the compiled kernel: the dispatching one and
    the scalar loop it falls back to, kept under test on any CPU."""
    return {"dispatched": compiled_kernel, "portable": _portable(kernel_library)}


def _kernel_cases():
    rng = np.random.default_rng(42)
    h, w, n = 64, 128, 3000
    src = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    inside_y = rng.uniform(0.0, h, n)
    beyond_poles = np.concatenate(
        [rng.uniform(-3.0 * h, 0.5, n // 2), rng.uniform(h - 0.5, 4.0 * h, n - n // 2)]
    )
    return {
        "random": (src, rng.uniform(-10.0, 140.0, n), rng.uniform(-5.0, 70.0, n)),
        "seam": (src, rng.uniform(w - 0.5, w + 0.5, n), inside_y),
        "far_outside_x": (src, rng.uniform(-3.0 * w, 4.0 * w, n), inside_y),
        "beyond_poles": (src, rng.uniform(-w, w, n), beyond_poles),
        "half_integers": (src, rng.integers(-w, 2 * w, n) + 0.5, rng.integers(-2, h + 2, n) + 0.5),
        "1x1_source": (src[:1, :1], rng.uniform(-3.0, 4.0, n), rng.uniform(-3.0, 4.0, n)),
        "one_row_source": (src[:1], rng.uniform(-w, 2.0 * w, n), rng.uniform(-3.0, 4.0, n)),
        "empty": (src, np.empty(0), np.empty(0)),
        "strided_xs": (src, rng.uniform(-10.0, 140.0, 2 * n)[::2], inside_y),
    }


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_backends_bit_identical(entry_points, case):
    # both entry points give the same bytes however their pixels are split
    src, xs, ys = KERNEL_CASES[case]
    b = _resample_np.bilinear_wrap_sample(src, xs, ys)
    for name, kernel in entry_points.items():
        a = kernel.bilinear_wrap_sample(src, xs, ys)
        assert a.shape == (len(xs), 3)
        assert np.array_equal(a, b), name
        for count in (1, 2, 3):
            assert np.array_equal(kernel._sample_split(src, xs, ys, count), b), (name, count)
        # more ranges than pixels, over a few pixels so that few threads start
        few = slice(0, 5)
        assert np.array_equal(kernel._sample_split(src, xs[few], ys[few], 8), b[few]), name


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_active_kernel_matches_the_tree_source(compiled_kernel, case):
    # a stale in-place build of the C kernel fails here
    src, xs, ys = KERNEL_CASES[case]
    want = compiled_kernel.bilinear_wrap_sample(src, xs, ys)
    assert np.array_equal(renderer._kernel.bilinear_wrap_sample(src, xs, ys), want)


# the kernels' coordinate domain: finite and below 2^52 in magnitude
_LIMIT = 2.0**52


def _step(v, ulps):
    """`v` moved by `ulps` (-1, 0 or 1) units in the last place."""
    return np.where(ulps == 0, v, np.nextafter(v, np.copysign(np.inf, ulps)))


# uniform values, integers and half-integers, near the source and far
# out, each possibly one ulp off
_COORDS = st.builds(
    lambda v, ulps: float(_step(v, ulps)),
    st.floats(-64.0, 64.0)
    | st.floats(-_LIMIT, _LIMIT, exclude_min=True, exclude_max=True)
    | st.integers(-64, 64).map(float)
    | st.integers(-(2**52) + 1, 2**52 - 1).map(float)
    | st.integers(-64, 64).map(lambda k: k + 0.5)
    | st.integers(-(2**51), 2**51 - 1).map(lambda k: k + 0.5),
    st.sampled_from([0, -1, 1]),
).filter(lambda v: abs(v) < _LIMIT)


def _random_coords(rng, n):
    """n coordinates of the same kinds as _COORDS, half of them within
    64 of zero and half spread log-uniformly up to 2^52."""
    scale = np.where(rng.random(n) < 0.5, 64.0, 2.0 ** rng.uniform(0.0, 52.0, n))
    v = rng.uniform(-1.0, 1.0, n) * scale
    kind = rng.integers(0, 3, n)
    v = np.where(kind == 1, np.round(v), np.where(kind == 2, np.floor(v) + 0.5, v))
    return _step(v, rng.integers(-1, 2, n))


@settings(deadline=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 32), st.integers(1, 32)),
    seed=st.integers(0, 2**32 - 1),
    picked=st.lists(st.tuples(_COORDS, _COORDS), max_size=8),
)
def test_backends_bit_identical_over_the_coordinate_domain(entry_points, shape, seed, picked):
    # random bytes, about a tenth of them 0 and a tenth 255
    rng = np.random.default_rng(seed)
    src = rng.integers(-32, 288, (*shape, 3)).clip(0, 255).astype(np.uint8)
    xs, ys = _random_coords(rng, 1000), _random_coords(rng, 1000)
    inside = (np.abs(xs) < _LIMIT) & (np.abs(ys) < _LIMIT)
    xs = np.concatenate([[x for x, _ in picked], xs[inside]])
    ys = np.concatenate([[y for _, y in picked], ys[inside]])
    want = _resample_np.bilinear_wrap_sample(src, xs, ys)
    for name, kernel in entry_points.items():
        for count in (1, 2):
            assert np.array_equal(kernel._sample_split(src, xs, ys, count), want), (name, count)


# the AVX-512 path samples 8 pixels per step and hands a group to the
# scalar loop when a lane's x tap needs the modulo or a tap sits at byte 0
_LANES = 8
_LANE_SRC = np.random.default_rng(7).integers(0, 256, (9, 13, 3), dtype=np.uint8)


def _in_range(rng, n):
    """n coordinates whose taps need no wrap and avoid byte 0."""
    h, w = _LANE_SRC.shape[:2]
    return rng.uniform(1.5, w - 0.5, n), rng.uniform(1.5, h - 0.5, n)


# a lane that needs the group's fallback: wrapping at either side of the
# seam, far outside, or a tap at byte offset 0 (top-left pixel, y clamped
# at the pole), reached through x0 or through x1 wrapping to column 0
_ODD_LANES = {
    "left_of_seam": (-0.2, 4.0),
    "right_of_seam": (13.7, 4.0),
    "far_outside": (-70.3, 4.0),
    "top_left_x0": (0.7, -3.0),
    "top_left_x1": (12.9, 0.2),
}


def test_every_length_from_0_to_17(entry_points):
    # whole groups of 8, their tails, and tails with no group before them
    rng = np.random.default_rng(1)
    for n in range(2 * _LANES + 2):
        xs, ys = _in_range(rng, n)
        want = _resample_np.bilinear_wrap_sample(_LANE_SRC, xs, ys)
        for name, kernel in entry_points.items():
            assert np.array_equal(kernel._sample_split(_LANE_SRC, xs, ys, 1), want), (name, n)


@pytest.mark.parametrize("odd", list(_ODD_LANES))
def test_one_odd_lane_among_in_range_lanes(entry_points, odd):
    # the odd lane at every position of the first and the second group,
    # the second followed by a tail of 3
    rng = np.random.default_rng(2)
    for n, lanes in ((_LANES, range(_LANES)), (2 * _LANES + 3, range(_LANES, 2 * _LANES))):
        for lane in lanes:
            xs, ys = _in_range(rng, n)
            xs[lane], ys[lane] = _ODD_LANES[odd]
            want = _resample_np.bilinear_wrap_sample(_LANE_SRC, xs, ys)
            for name, kernel in entry_points.items():
                got = kernel._sample_split(_LANE_SRC, xs, ys, 1)
                assert np.array_equal(got, want), (name, n, lane)


def test_in_range_groups_round_like_the_reference(entry_points):
    # every group takes the vector path; fractions of 0, 1/2 or uniform,
    # each possibly one ulp off, put about one blend in a thousand near a
    # rounding boundary, where a reordered sum or a fused multiply-add
    # changes a byte
    rng = np.random.default_rng(4)
    h, w, n = 24, 40, 1 << 16
    src = rng.integers(-32, 288, (h, w, 3)).clip(0, 255).astype(np.uint8)

    def coords(lo, hi):
        fraction = np.choose(rng.integers(0, 3, n), [rng.random(n), 0.5, 0.0])
        return _step(np.floor(rng.uniform(lo, hi, n)) + fraction + 0.5, rng.integers(-1, 2, n))

    xs, ys = coords(1.0, w - 2.0), coords(1.0, h - 2.0)
    want = _resample_np.bilinear_wrap_sample(src, xs, ys)
    for name, kernel in entry_points.items():
        assert np.array_equal(kernel._sample_split(src, xs, ys, 1), want), name


# Runs in a child process, so that a read outside the source kills the
# child and fails the test instead of ending pytest.  Three anonymous
# pages are mapped; the first and the last become PROT_NONE, and a 16x32
# source is placed flush against each of them in turn.
_GUARD_CHILD = r"""
import ctypes
import mmap
import sys

import numpy as np

from autocam360 import _resample, _resample_np

library = sys.argv[1]
h, w = 16, 32
size = h * w * 3
page = mmap.PAGESIZE
pages = mmap.mmap(-1, 3 * page)
base = ctypes.addressof(ctypes.c_char.from_buffer(pages))
libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
for guard in (base, base + 2 * page):
    if libc.mprotect(guard, page, 0) != 0:  # PROT_NONE
        sys.exit(f"mprotect failed with errno {ctypes.get_errno()}")

dispatched = _resample.CompiledKernel(library)
portable = _resample.CompiledKernel(library)
portable._sample = portable._library.bilinear_wrap_sample_portable
portable._sample.argtypes = _resample._ARGTYPES

# corners, the seam and beyond both poles, 8 lanes alike so that whole
# groups take the vector path, and a tail
rng = np.random.default_rng(3)
xs_at = [-0.2, 0.5, 0.7, 1.4, w - 1.2, w - 0.5, w - 0.2, w, w + 0.3, 2 * w + 0.6]
ys_at = [-40.0, -0.2, 0.3, 0.5, 1.2, h - 1.2, h - 0.5, h, h + 0.4, 3.0 * h]
xs = np.repeat([x for x in xs_at for _ in ys_at], 8) + rng.uniform(-0.05, 0.05, 800)
ys = np.repeat([y for _ in xs_at for y in ys_at], 8) + rng.uniform(-0.05, 0.05, 800)
xs, ys = np.append(xs, xs[-5:]), np.append(ys, ys[-5:])

for offset in (page, 2 * page - size):
    src = np.frombuffer(pages, np.uint8, size, offset).reshape(h, w, 3)
    src[:] = rng.integers(0, 256, src.shape, dtype=np.uint8)
    want = _resample_np.bilinear_wrap_sample(src.copy(), xs, ys)
    for name, kernel in (("dispatched", dispatched), ("portable", portable)):
        for count in (1, 2):
            got = kernel._sample_split(src, xs, ys, count)
            if not np.array_equal(got, want):
                sys.exit(f"{name} over {count} range(s), source at {offset}: bytes differ")
"""


def _child_env() -> dict:
    """This environment, with the package under test on the import path."""
    src = str(Path(renderer.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs mprotect (Linux)")
def test_kernel_never_reads_outside_its_source(kernel_library):
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_CHILD, str(kernel_library)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


def test_backend_names_the_path_for_this_cpu(compiled_kernel):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    needed = ("AVX512F", "AVX512DQ", "AVX512BW", "AVX512VL", "AVX512VBMI")
    vector = all(__cpu_features__.get(name) for name in needed)
    assert compiled_kernel.BACKEND == ("c-avx512" if vector else "c")
    if renderer._kernel is not _resample_np:
        assert renderer.KERNEL_BACKEND == compiled_kernel.BACKEND


@pytest.mark.parametrize("failing", [0, 2])
def test_run_ranges_joins_every_thread_and_raises_in_the_caller(failing):
    # range 0 runs on the calling thread, ranges 1-3 on threads of their own
    ranges = _resample.split_ranges(40, 4)
    ran = {}

    def fn(lo, hi):
        ran[lo] = threading.current_thread()
        if lo == ranges[failing][0]:
            raise KeyError(lo)

    before = threading.active_count()
    with pytest.raises(KeyError) as info:
        _resample.run_ranges(fn, ranges)
    assert info.value.args == (ranges[failing][0],)
    assert threading.active_count() == before
    assert sorted(ran) == [lo for lo, _ in ranges]
    assert ran[0] is threading.current_thread()
    assert len(set(ran.values())) == len(ranges)


@settings(max_examples=200)
@given(
    n=st.integers(0, 2**62) | st.sampled_from([1, _resample.BLOCK - 1, _resample.BLOCK + 1]),
    threads=st.integers(1, _resample.MAX_RANGES),
    count=st.integers(1, 64),
)
def test_ranges_are_capped_and_tile_the_pixels(n, threads, count):
    # ranges are only computed here, never run
    assert 1 <= _resample.THREADS <= _resample.MAX_RANGES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_resample, "THREADS", threads)
        used = _resample.range_count(n)
    assert 1 <= used <= threads
    assert used <= max(1, math.ceil(n / _resample.BLOCK))
    ranges = _resample.split_ranges(n, count)
    assert len(ranges) == max(1, min(count, n))
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1


def test_a_build_of_an_older_source_falls_back(tmp_path, monkeypatch):
    # a library without bilinear_wrap_sample_lanes is not loaded, so the
    # renderer uses the NumPy kernel instead of failing at import
    cc = shutil.which(os.environ.get("CC", "cc")) or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler found")
    source = tmp_path / "old.c"
    source.write_text("void bilinear_wrap_sample(void) {}\n", encoding="utf-8")
    library = tmp_path / "old.so"
    subprocess.run([cc, "-shared", "-fPIC", str(source), "-o", str(library)], check=True)
    found = importlib.machinery.ModuleSpec("autocam360._resample_c", None, origin=str(library))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: found)
    with pytest.raises(ImportError, match="bilinear_wrap_sample_lanes"):
        _resample.load_built()


def test_compiled_kernel_rejects_bad_arguments(compiled_kernel):
    src = np.zeros((4, 8, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match="equal length"):
        compiled_kernel.bilinear_wrap_sample(src, np.zeros(3), np.zeros(2))
    for bad in (src.astype(np.float64), src[:, :, :2], src[:0]):
        with pytest.raises(ValueError, match="uint8"):
            compiled_kernel.bilinear_wrap_sample(bad, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# sequences


def test_render_sequence_counts(tmp_path):
    spec = ScenarioSpec(seed=1, duration_s=1.0, fps=10.0, width=128, height=64)
    frames = [synth_panorama(spec, t) for t in range(10)]
    vp = Viewport(Direction(0.0, 0.0), math.radians(75), VP_ASPECT)
    outs = {}
    count = render_sequence(frames, [vp] * 10, 64, 36, lambda i, img: outs.__setitem__(i, img))
    assert count == 10
    assert sorted(outs) == list(range(10))

    with pytest.raises(RenderError, match="9 .*10|does not match"):
        render_sequence(frames[:9], [vp] * 10, 64, 36, lambda i, img: None)


def test_render_sequence_static_path_identical_outputs():
    spec = ScenarioSpec(seed=2, duration_s=1.0, fps=5.0, width=128, height=64)
    frame = synth_panorama(spec, 0)
    vp = Viewport(Direction(1.0, 0.0), math.radians(75), VP_ASPECT)
    outs = []
    render_sequence([frame] * 5, [vp] * 5, 64, 36, lambda i, img: outs.append(encode_ppm(img)))
    assert all(o == outs[0] for o in outs)


def test_render_sequence_reuses_coordinates_only_while_the_viewport_holds(monkeypatch):
    spec = ScenarioSpec(seed=2, duration_s=1.0, fps=9.0, width=128, height=64)
    frames = [synth_panorama(spec, t) for t in range(9)]
    larger = ScenarioSpec(seed=2, duration_s=1.0, fps=1.0, width=256, height=128)
    frames[8] = synth_panorama(larger, 0)
    hfov = math.radians(75)
    a = Viewport(Direction(1.0, 0.1), hfov, VP_ASPECT)
    yawed = Viewport(Direction(1.3, 0.1), hfov, VP_ASPECT)
    pitched = Viewport(Direction(1.3, -0.2), hfov, VP_ASPECT)
    zoomed = Viewport(Direction(1.3, -0.2), math.radians(60), VP_ASPECT)
    path = [a, a, yawed, yawed, pitched, zoomed, a, a, a]  # last frame: new source size

    calls = []
    real = renderer._sample_coords

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(renderer, "_sample_coords", counting)
    outs = {}
    render_sequence(frames, path, 64, 36, lambda i, img: outs.__setitem__(i, encode_ppm(img)))
    monkeypatch.undo()

    assert len(calls) == 6
    for i, (frame, vp) in enumerate(zip(frames, path)):
        assert outs[i] == encode_ppm(render_viewport(frame, vp, 64, 36)), i


def test_hooked_names_run_once_per_frame_on_the_calling_thread(monkeypatch, compiled_kernel):
    # tracing wraps these two names with a single-thread span stack
    spec = ScenarioSpec(seed=4, duration_s=1.0, fps=4.0, width=512, height=256)
    frames = [synth_panorama(spec, t) for t in range(4)]
    hfov = math.radians(75)
    path = [Viewport(Direction(0.3 * (i // 2), 0.1), hfov, VP_ASPECT) for i in range(4)]
    calls = {"coords": [], "kernel": [], "ranges": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_resample, "THREADS", 2)
    monkeypatch.setattr(renderer, "_kernel", compiled_kernel)
    monkeypatch.setattr(compiled_kernel, "_sample", recording("ranges", compiled_kernel._sample))
    monkeypatch.setattr(
        compiled_kernel, "bilinear_wrap_sample",
        recording("kernel", compiled_kernel.bilinear_wrap_sample),
    )
    monkeypatch.setattr(renderer, "_sample_coords", recording("coords", renderer._sample_coords))
    # 256x144 output pixels are more than two BLOCKs, so each frame is split
    render_sequence(frames, path, 256, 144, lambda i, img: None)
    monkeypatch.undo()

    me = threading.get_ident()
    assert calls["coords"] == [me, me]
    assert calls["kernel"] == [me] * len(frames)
    assert len(calls["ranges"]) == 2 * len(frames)
    assert len(set(calls["ranges"])) > 1


def test_render_sequence_sink_error_names_the_frame():
    spec = ScenarioSpec(seed=1, duration_s=1.0, fps=4.0, width=128, height=64)
    frames = [synth_panorama(spec, t) for t in range(4)]
    vp = Viewport(Direction(0.0, 0.0), math.radians(75), VP_ASPECT)
    delivered = []

    def sink(i, img):
        if i == 2:
            raise OSError("disk full")
        delivered.append(i)

    with pytest.raises(RenderError, match=r"^frame 2: disk full$"):
        render_sequence(frames, [vp] * 4, 64, 36, sink)
    assert delivered == [0, 1]


def test_render_frames_dir_missing_frame_reports_index(tmp_path):
    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    spec = ScenarioSpec(seed=1, duration_s=1.0, fps=3.0, width=128, height=64)
    for t in range(2):  # third frame missing
        write_image(synth_panorama(spec, t), in_dir / f"frame_{t:06d}.ppm")
    vp = Viewport(Direction(0.0, 0.0), math.radians(75), VP_ASPECT)
    with pytest.raises(RenderError, match="frame 2"):
        render_frames_dir(in_dir, out_dir, [vp] * 3, 64, 36)


# ---------------------------------------------------------------------------
# sample coordinates

# pitches that reach the poles and yaws on both sides of the seam
_PITCHES = st.floats(-math.pi / 2, math.pi / 2) | st.sampled_from(
    [math.pi / 2, -math.pi / 2, math.radians(89.99), math.radians(-89.99)]
)
_YAWS = st.floats(-math.pi, math.pi) | st.sampled_from(
    [math.pi, -math.pi, math.pi - 1e-9, -math.pi + 1e-9, 0.0]
)


@settings(deadline=None, max_examples=60)
@given(
    yaw=_YAWS,
    pitch=_PITCHES,
    hfov=st.floats(0.01, 3.1),
    aspect=st.floats(0.3, 4.0),
    data=st.data(),
)
def test_blocked_sample_coords_equal_the_unblocked_reference(yaw, pitch, hfov, aspect, data):
    # sizes are odd and not multiples of 8
    out_w = data.draw(st.integers(1, 200), label="out_w")
    out_h = data.draw(st.integers(1, 200), label="out_h")
    src_w = data.draw(st.integers(1, 8000), label="src_w")
    src_h = data.draw(st.integers(1, 4000), label="src_h")
    vp = Viewport(Direction(yaw, pitch), hfov, aspect)
    _assert_equals_reference(vp, out_w, out_h, src_w, src_h)


@pytest.mark.parametrize("src_h", [7, 64, 8192])
@pytest.mark.parametrize("pitch_deg", [89.9, -90.0, 0.0])
def test_blocked_sample_coords_at_a_rendered_size(pitch_deg, src_h):
    # 640x360 facing the seam, from a 2:1 source from 7 to 8192 rows high
    vp = Viewport(Direction(math.pi, math.radians(pitch_deg)), math.radians(75), VP_ASPECT)
    _assert_equals_reference(vp, 640, 360, 2 * src_h, src_h)


@settings(deadline=None, max_examples=100)
@given(
    yaw=_YAWS,
    pitch=_PITCHES,
    hfov=st.floats(0.01, 3.1),
    aspect=st.floats(0.3, 4.0),
    data=st.data(),
)
def test_sample_coords_point_where_the_rotated_rays_point(yaw, pitch, hfov, aspect, data):
    out_w = data.draw(st.integers(1, 200), label="out_w")
    out_h = data.draw(st.integers(1, 200), label="out_h")
    src_w = data.draw(st.integers(1, 8000), label="src_w")
    src_h = data.draw(st.integers(1, 4000), label="src_h")
    vp = Viewport(Direction(yaw, pitch), hfov, aspect)
    got = _sample_coords(vp, out_w, out_h, src_w, src_h)
    want = rotation_sample_coords(vp, out_w, out_h, src_w, src_h)
    u, v = (_units(px, py, src_w, src_h) for px, py in (got, want))
    angle = np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), np.sum(u * v, axis=1))
    assert angle.max() <= 1e-9


def _units(px, py, src_w, src_h):
    """Unit vectors of equirect coordinates; x may lie outside [0, W)."""
    yaw = px * (2.0 * math.pi / src_w) - math.pi
    pitch = 0.5 * math.pi - py * (math.pi / src_h)
    cp = np.cos(pitch)
    return np.stack([cp * np.sin(yaw), np.sin(pitch), cp * np.cos(yaw)], axis=1)


def _assert_equals_reference(vp, out_w, out_h, src_w, src_h):
    px, py = _sample_coords(vp, out_w, out_h, src_w, src_h)
    want_x, want_y = reference_sample_coords(vp, out_w, out_h, src_w, src_h)
    assert np.array_equal(px, want_x)
    assert np.array_equal(py, want_y)
