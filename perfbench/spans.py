"""Span recording around the package's layer boundaries.

The benchmark wraps module attributes from outside the package: the
wrapper replaces ``module.attr`` for the life of one command and is
removed afterwards.  A name is wrapped in the namespace of the module
that calls it (``from .x import f`` binds ``f`` in the caller), so one
function can appear under several targets with the same span name.

All state lives in the :class:`SpanRecorder` or counter dict passed in;
nothing here is module-global.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, dotted attribute, span name)
SPAN_HOOKS = (
    ("autocam360.cli", "load_config", "config.load"),
    ("autocam360.cli", "parse_scene", "tracks.parse"),
    ("autocam360.cli", "direct", "director.direct"),
    ("autocam360.cli", "output_to_document", "director.serialize"),
    ("autocam360.cli", "parse_camera_path", "director.parse_path"),
    ("autocam360.cli", "render_frames_dir", "renderer.frames_dir"),
    ("autocam360.director", "compute_measures", "measures.compute"),
    ("autocam360.director", "frame_positions", "measures.positions"),
    ("autocam360.measures", "frame_positions", "measures.positions"),
    ("autocam360.hypotheses", "frame_positions", "measures.positions"),
    ("autocam360.director", "update_history", "measures.history"),
    ("autocam360.director", "saliency_table", "saliency.table"),
    ("autocam360.hypotheses", "saliency_table", "saliency.table"),
    ("autocam360.director", "generate_hypotheses", "hypotheses.generate"),
    ("autocam360.director", "score_hypothesis", "hypotheses.score"),
    ("autocam360.director", "smooth_directions", "geometry.smooth"),
    ("autocam360.hypotheses", "smooth_directions", "geometry.smooth"),
    ("autocam360.renderer", "read_image", "renderer.read"),
    ("autocam360.renderer", "decode_ppm", "renderer.decode"),
    ("autocam360.renderer", "_sample_coords", "renderer.coords"),
    ("autocam360.renderer", "_kernel.bilinear_wrap_sample", "renderer.kernel"),
    ("autocam360.renderer", "encode_ppm", "renderer.encode"),
    ("autocam360.renderer", "write_image", "renderer.write"),
)

# Hot functions are only counted, in a separate pass, because a span per
# call (about 1M angular distances per planning clip) would distort the
# timed spans.  (module, dotted attribute, counter name)
COUNT_HOOKS = (
    ("autocam360.geometry", "angular_distance", "angular_distance"),
    ("autocam360.measures", "angular_distance", "angular_distance"),
    ("autocam360.hypotheses", "angular_distance", "angular_distance"),
    ("autocam360.measures", "interpolated_bbox", "interpolated_bbox"),
)


class SpanRecorder:
    """Collects ``[name, start, end, parent]`` spans in memory.

    `parent` is the index of the enclosing span, or -1 for a root.  The
    recorder assumes one thread: spans nest through a call stack.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    *parents, attr = dotted.split(".")
    for part in parents:
        obj = getattr(obj, part)
    return obj, attr


def install(hooks, make_wrapper):
    """Replace each hook target with ``make_wrapper(original, name)``.

    Returns ``(undo, missing)``: pass `undo` to :func:`uninstall`;
    `missing` lists targets that do not exist in this version of the
    package, which are left alone.
    """
    undo, missing = [], []
    for module, dotted, name in hooks:
        try:
            owner, attr = _resolve(module, dotted)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{dotted}")
            continue
        setattr(owner, attr, make_wrapper(original, name))
        undo.append((owner, attr, original))
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def install_spans(recorder: SpanRecorder, hooks=SPAN_HOOKS):
    return install(hooks, recorder.wrap)


def install_counters(counts: dict, hooks=COUNT_HOOKS):
    def make(fn, name):
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return install(hooks, make)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def totals_by_name(spans) -> dict[str, tuple[float, int]]:
    """``{span name: (total self time, span count)}``."""
    out: dict[str, tuple[float, int]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        total, count = out.get(span[0], (0.0, 0))
        out[span[0]] = (total + self_s, count + 1)
    return out
