"""What the benchmark measures: workloads, metrics, bounds, and which
end-to-end metric each per-layer metric is expected to move.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --write-spec``); the benchmark's tests check
that the committed file matches.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 45

WORKLOADS = (
    (
        "pipeline_hd",
        "pipeline on 2-3-actor clips, 1920x960 to 960x540 along the planned path: "
        "the kernel and coordinates dominate and many frames change only yaw",
    ),
    (
        "render_4k_wobble",
        "render 3840x1920 sources to 640x360 along a hand-held path whose pitch "
        "changes every frame: reads dominate more and yaw-only reuse cannot apply",
    ),
)

# (name, unit, better, bound).  Timings come from the untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("frames_per_s", "1/s", "higher", 0.25),
    ("frame_ms_p50", "ms", "lower", 0.25),
    ("frame_ms_p90", "ms", "lower", 0.25),
    ("shot_ms_p50", "ms", "lower", 0.25),
    ("shot_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("passed_share", "share", "higher", 0.01),
)

HD = "pipeline_hd"
WOBBLE = "render_4k_wobble"
_RENDER = (HD, WOBBLE)
# Planning is under 0.2% of pipeline_hd's wall time, so no end-to-end
# metric here resolves a planning change: the planning layers are
# measured (inside `pipeline`) but map to nothing.
_PLANNING = ()

# (name, unit, better, the (end-to-end metric, workload) pairs it should move).
# Every `_s` metric is self time (span duration minus its child spans),
# summed over the traced clips of a run and divided by their number.
PER_LAYER = (
    ("measures.compute_s", "s/clip", "lower", _PLANNING),
    ("measures.positions_s", "s/clip", "lower", _PLANNING),
    ("measures.history_s", "s/clip", "lower", _PLANNING),
    ("measures.positions_per_shot", "count", "lower", _PLANNING),
    ("tracks.interp_per_object_frame", "count", "lower", _PLANNING),
    ("geometry.angular_distance_calls", "count/clip", "lower", _PLANNING),
    ("geometry.smooth_s", "s/clip", "lower", _PLANNING),
    ("hypotheses.generate_s", "s/clip", "lower", _PLANNING),
    ("hypotheses.score_s", "s/clip", "lower", _PLANNING),
    ("hypotheses.scored_per_shot", "count", "lower", _PLANNING),
    ("saliency.table_s", "s/clip", "lower", _PLANNING),
    ("saliency.tables_per_shot", "count", "lower", _PLANNING),
    ("director.self_s", "s/clip", "lower", _PLANNING),
    ("director.relaxed_shots", "count/clip", "lower", _PLANNING),
    ("director.chosen_share", "share", "higher", _PLANNING),
    ("tracks.parse_s", "s/clip", "lower", _PLANNING),
    ("config.load_s", "s/clip", "lower", _PLANNING),
    (
        "renderer.kernel_s",
        "s/clip",
        "lower",
        tuple((m, w) for w in _RENDER for m in ("frames_per_s", "frame_ms_p50")),
    ),
    (
        "renderer.kernel_ns_per_px",
        "ns/px",
        "lower",
        tuple((m, w) for w in _RENDER for m in ("frames_per_s", "frame_ms_p50")),
    ),
    ("renderer.coords_s", "s/clip", "lower", (("frames_per_s", HD),)),
    ("renderer.coords_ns_per_px", "ns/px", "lower", (("frames_per_s", HD),)),
    ("renderer.read_s", "s/clip", "lower", (("frames_per_s", WOBBLE), ("frame_ms_p90", WOBBLE))),
    ("renderer.decode_s", "s/clip", "lower", (("frames_per_s", WOBBLE), ("frame_ms_p90", WOBBLE))),
    ("renderer.bytes_read", "B/frame", "lower", (("frames_per_s", WOBBLE), ("frame_ms_p90", WOBBLE))),
    ("renderer.encode_s", "s/clip", "lower", (("frames_per_s", HD),)),
    ("renderer.write_s", "s/clip", "lower", (("frames_per_s", HD),)),
    ("renderer.bytes_written", "B/frame", "lower", (("frames_per_s", HD),)),
    ("renderer.self_s", "s/clip", "lower", ()),
    ("director.serialize_s", "s/clip", "lower", ()),
    ("director.parse_path_s", "s/clip", "lower", ()),
    ("cli.self_s", "s/clip", "lower", ()),
    # coordinates in (2 x float64), four RGB taps, one RGB pixel out
    ("renderer.kernel_bytes_per_px", "B/px-computed", "lower", ()),
    # an input property: a yaw-reuse claim quotes it for each workload
    ("renderer.yaw_only_share", "share", "higher", ()),
    ("trace.overhead_share", "share", "lower", ()),
    ("trace.self_coverage", "share", "higher", ()),
)

# Span names recorded by the traced run, and the per-layer metric that
# receives each one's self time.  Every span maps to exactly one metric,
# so the mapped self times add up to the traced command's wall time.
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "config.load": "config.load_s",
    "tracks.parse": "tracks.parse_s",
    "director.direct": "director.self_s",
    "director.serialize": "director.serialize_s",
    "director.parse_path": "director.parse_path_s",
    "measures.compute": "measures.compute_s",
    "measures.positions": "measures.positions_s",
    "measures.history": "measures.history_s",
    "saliency.table": "saliency.table_s",
    "hypotheses.generate": "hypotheses.generate_s",
    "hypotheses.score": "hypotheses.score_s",
    "geometry.smooth": "geometry.smooth_s",
    "renderer.frames_dir": "renderer.self_s",
    "renderer.read": "renderer.read_s",
    "renderer.decode": "renderer.decode_s",
    "renderer.coords": "renderer.coords_s",
    "renderer.kernel": "renderer.kernel_s",
    "renderer.encode": "renderer.encode_s",
    "renderer.write": "renderer.write_s",
}

KERNEL_BYTES_PER_PX = 2 * 8 + 4 * 3 + 3


def benchmark_document() -> dict:
    """The BENCHMARK.json contents (the movement map stays here)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def benchmark_json() -> str:
    return json.dumps(benchmark_document(), indent=2) + "\n"
