"""Perspective frame rendering from equirectangular sources.

Every output pixel center is unprojected through the viewport onto the
sphere, mapped to continuous equirect coordinates, and bilinearly sampled
with horizontal wrap-around at the seam and vertical clamp at the poles.

The per-pixel gather/blend is the hot kernel.  A plain-C sampler
(``_resample_c.c``, built by ``setup.py`` and loaded through ctypes by
``_resample``) is used when it has been built, with a pure-NumPy fallback
selected at import time.  ``KERNEL_BACKEND`` names the active one:
"c-avx512" when the compiled kernel runs its AVX-512 loop (8 pixels per
step, picked when the library loads), "c" for its scalar loop, or
"numpy".  All produce byte-identical frames, and rendering is
deterministic regardless of pixel iteration order.  Bytes are identical
for identical inputs on one NumPy build and CPU class; across NumPy's
CPU dispatch targets the sample coordinates, which come from NumPy's
``arctan2`` and ``arcsin``, agree to about 1e-12, so a blend next to a
rounding boundary may differ there.  The compiled kernel
splits each frame's pixels over up to 4 threads
(``_resample.MAX_RANGES``), one per CPU the process may run on, started
for the call and joined before it returns; the bytes are the same for
any thread count.  :func:`_sample_coords` and the kernel's
``bilinear_wrap_sample`` run only on the calling thread, the kernel
once per frame.

Source frames are mapped, not copied: :func:`read_image` maps a file
copy-on-write and :func:`decode_ppm` returns a view of the payload, so a
viewport faults in only the source pages it samples.  Decoded file
pixels are writable and writes never reach the file; pixels decoded
from ``bytes`` are read-only views.  A source file truncated while it is
being rendered ends the process with SIGBUS, as any mapped file does.

Sample coordinates depend only on the viewport and the frame sizes.
They are computed in closed form from one vector of per-column and one
of per-row terms, plus one grid of ray norms ``sqrt(x² + y² + 1)``.  Yaw
is the last term: it adds yaw·W/2π to every x.  They are evaluated in
one pass over the output grid, in place in the two result arrays.
Within one :func:`render_sequence` call there are three levels of reuse:
the coordinates while the viewport and source size hold, the norm grid
while hfov and aspect hold, and the memory of one coordinate pair: the
old pair is released before the new one is computed, so the allocator
can reuse its blocks and at most one pair is alive.  Nothing is cached
between calls.

Images are PPM "P6" (binary, maxval 255) end to end; video encode/decode
is left to external tools.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _resample, _resample_np
from .geometry import TWO_PI, Viewport

try:
    _kernel = _resample.load_built()
except ImportError:  # compiled sampler not built
    _kernel = _resample_np

KERNEL_BACKEND = _kernel.BACKEND


class ImageFormatError(ValueError):
    """Raised for malformed PPM documents."""


class RenderError(RuntimeError):
    """Raised when a frame in a sequence cannot be read, rendered or written."""


@dataclass(eq=False)
class Image:
    """8-bit RGB raster; pixels shaped (height, width, 3), row-major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} != {(self.height, self.width, 3)}"
            )
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixel dtype must be uint8, got {self.pixels.dtype}")
        self.pixels = np.ascontiguousarray(self.pixels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Image)
            and self.width == other.width
            and self.height == other.height
            and np.array_equal(self.pixels, other.pixels)
        )


# ---------------------------------------------------------------------------
# PPM I/O


_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")  # what bytes.isspace() accepts


def _next_token(buf: memoryview, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c == ord("#"):
            while pos < n and buf[pos] not in b"\n\r":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageFormatError(f"truncated header at byte {pos}")
    start = pos
    while pos < n and buf[pos] not in _WHITESPACE and buf[pos] != ord("#"):
        pos += 1
    return bytes(buf[start:pos]), pos


def decode_ppm(buf) -> Image:
    """Parse binary PPM ("P6", maxval 255) from any bytes-like buffer.

    The pixels are a view of `buf`, not a copy: they are writable exactly
    when `buf` is, and they keep `buf` alive.
    """
    view = memoryview(buf).cast("B")
    magic, pos = _next_token(view, 0)
    if magic != b"P6":
        raise ImageFormatError(f"bad magic {magic!r}, expected b'P6'")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(view, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageFormatError(f"non-numeric {name} token {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, only 255 is handled")
    pos += 1  # exactly one whitespace byte separates header from payload
    need = width * height * 3
    got = max(0, min(need, len(view) - pos))
    if got < need:
        raise ImageFormatError(
            f"truncated pixel data at byte {pos + got}: expected {need} bytes, got {got}"
        )
    pixels = np.frombuffer(view, dtype=np.uint8, count=need, offset=pos)
    return Image(width, height, pixels.reshape(height, width, 3))


def encode_ppm(img: Image) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, img.pixels))  # one copy of the pixels, not two


def read_image(source: bytes | str | Path) -> Image:
    """Read a P6 image from raw bytes or from a file path.

    A file is mapped copy-on-write rather than read, so only the pages
    that are sampled are ever loaded; its pixels are writable, and writes
    to them never reach the file.  Pixels decoded from ``bytes`` are
    read-only views of them.
    """
    if isinstance(source, bytes):
        return decode_ppm(source)
    with open(Path(source), "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # an empty file cannot be mapped
            return decode_ppm(b"")
        return decode_ppm(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY))


def write_image(img: Image, dest: str | Path | None = None) -> bytes:
    """Encode to P6; also writes to `dest` when given.  Lossless:
    ``write_image(read_image(x))`` reproduces a canonical P6 byte for
    byte."""
    data = encode_ppm(img)
    if dest is not None:
        Path(dest).write_bytes(data)
    return data


# ---------------------------------------------------------------------------
# rendering

def _ray_norm(x, y, out):
    """sqrt(x² + y² + 1) for every (row y, column x) pair, into `out`."""
    np.add(x * x, (y * y)[:, None], out=out)
    out += 1.0
    np.sqrt(out, out=out)
    return out


def _sample_coords(vp: Viewport, out_w: int, out_h: int, src_w: int, src_h: int, norms=None):
    """Continuous equirect sample coordinates for every output pixel.

    The camera never rolls, so a pixel's ray is built from its column's
    x and its row's y alone: pitch turns each row's (y, 1) into its
    ``up`` and ``fwd`` components, and yaw only shifts x, which is added
    last.  x lies in [-W/2, 3W/2); the kernel wraps it.  The expressions
    run in place over the two (H, W) output arrays, with no temporary
    grid, and give the same values element for element as evaluating
    them with NumPy's broadcasting over the whole grid.

    Only ``up`` and ``fwd`` depend on pitch.  The ray norm
    ``sqrt(x² + y² + 1)`` depends on hfov, aspect and the output size
    alone.  `norms`, a dict owned by one caller at one output size,
    keeps the norm grid of the last ``(hfov, aspect)``, so the grid is
    built only when they change; without it everything is fresh.
    """
    half_w = math.tan(0.5 * vp.hfov)
    x = ((np.arange(out_w) + 0.5) / out_w - 0.5) * (2.0 * half_w)
    y = (0.5 - (np.arange(out_h) + 0.5) / out_h) * (2.0 * half_w / vp.aspect)
    sp, cp = math.sin(vp.center.pitch), math.cos(vp.center.pitch)
    fwd = (cp - y * sp)[:, None]
    up = (y * cp + sp)[:, None]
    x_scale = src_w / TWO_PI
    y_scale = src_h / math.pi
    shift = vp.center.yaw * x_scale
    px, py = np.empty((2, out_h, out_w))
    if norms is None:
        norm = _ray_norm(x, y, py)
    else:
        norm = norms.get((vp.hfov, vp.aspect))
        if norm is None:
            norms.clear()  # one grid at a time
            norm = norms[vp.hfov, vp.aspect] = _ray_norm(x, y, np.empty((out_h, out_w)))
    np.arctan2(x, fwd, out=px)
    px += math.pi
    px *= x_scale
    px += shift
    np.divide(up, norm, out=py)
    np.clip(py, -1.0, 1.0, out=py)
    np.arcsin(py, out=py)
    np.subtract(0.5 * math.pi, py, out=py)
    py *= y_scale
    return px.ravel(), py.ravel()


def _check_output_size(vp: Viewport, out_w: int, out_h: int) -> None:
    if out_w <= 0 or out_h <= 0:
        raise ValueError(f"output dimensions must be positive, got {out_w}x{out_h}")
    if abs(out_w / out_h - vp.aspect) > 0.01 * vp.aspect:
        raise ValueError(
            f"output {out_w}x{out_h} (aspect {out_w / out_h:.4f}) does not match "
            f"viewport aspect {vp.aspect:.4f} within 1%"
        )


def _sample_image(src: Image, coords, out_w: int, out_h: int) -> Image:
    flat = _kernel.bilinear_wrap_sample(src.pixels, *coords)
    return Image(out_w, out_h, flat.reshape(out_h, out_w, 3))


def render_viewport(src: Image, vp: Viewport, out_w: int, out_h: int) -> Image:
    """Extract one perspective view from an equirect frame.

    The output dimensions must match the viewport aspect within 1%.
    """
    _check_output_size(vp, out_w, out_h)
    coords = _sample_coords(vp, out_w, out_h, src.width, src.height)
    return _sample_image(src, coords, out_w, out_h)


def render_sequence(frames, camera_path, out_w: int, out_h: int, sink) -> int:
    """Render one output frame per (source frame, viewport) pair.

    `frames` is a sequence of Image or PPM file paths; `sink(index,
    image)` receives each result.  The frame count must equal the path
    length; per-frame read/write failures are reported with their index.
    Returns the number of frames written.  The output equals
    :func:`render_viewport` frame by frame: sample coordinates are reused,
    not approximated, while the viewport and source size hold still, and
    the ray-norm grid while hfov and aspect do.
    """
    if len(frames) != len(camera_path):
        raise RenderError(
            f"frame count {len(frames)} does not match path length {len(camera_path)}"
        )
    key = coords = None
    norms = {}
    for i, source in enumerate(frames):
        if isinstance(source, Image):
            img = source
        else:
            try:
                img = read_image(source)
            except (OSError, ImageFormatError) as exc:
                raise RenderError(f"frame {i}: {exc}") from exc
        vp = camera_path[i]
        if (vp, img.width, img.height) != key:
            _check_output_size(vp, out_w, out_h)
            # Release the old pair first, so at most one pair is alive.  A
            # pair kept for the call and overwritten in place was slower:
            # with no large block ever freed, glibc trimmed the heap after
            # every frame, and each encoded frame faulted in all its pages.
            coords = None
            coords = _sample_coords(vp, out_w, out_h, img.width, img.height, norms)
            key = (vp, img.width, img.height)
        out = _sample_image(img, coords, out_w, out_h)
        try:
            sink(i, out)
        except OSError as exc:
            raise RenderError(f"frame {i}: {exc}") from exc
    return len(frames)


FRAME_NAME = "frame_{:06d}.ppm"


def render_frames_dir(
    in_dir: str | Path, out_dir: str | Path, camera_path, out_w: int, out_h: int
) -> int:
    """Directory-to-directory rendering with the frame_%06d.ppm naming."""
    in_dir = Path(in_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = [in_dir / FRAME_NAME.format(i) for i in range(len(camera_path))]

    def sink(i: int, img: Image) -> None:
        write_image(img, out_dir / FRAME_NAME.format(i))

    return render_sequence(sources, camera_path, out_w, out_h, sink)
