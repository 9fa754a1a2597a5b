"""Turn worker reports and gate results into the benchmark's metrics.

A ``Run`` is one command invocation: its clip, the worker's report (None
when the worker died), the gate's verdict and the camera path it read.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import spec
from inputs import FRAME_NAME


@dataclass
class Run:
    clip: object
    report: dict | None
    check: object
    doc: dict | None
    wall_s: float  # the command's wall time (from the report, else from outside)
    out_dir: Path

    @property
    def passed_frames(self) -> int:
        return self.clip.num_frames - len(self.check.failed)


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  Shot and frame costs are multimodal, and a
    plain sample median jumps between modes from run to run; this
    estimate moves smoothly instead."""
    from scipy.special import betainc

    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def percentiles(samples) -> dict:
    """Median and p90 with the sample count and how many lie beyond p90
    (p90 is trustworthy only with at least ten beyond it)."""
    samples = list(samples)
    if not samples:
        return {"p50": 0.0, "p90": 0.0, "n": 0, "beyond_p90": 0}
    p90 = quantile(samples, 0.9)
    return {
        "p50": quantile(samples, 0.5),
        "p90": p90,
        "n": len(samples),
        "beyond_p90": sum(1 for s in samples if s > p90),
    }


def frame_and_shot_gaps(run: Run) -> tuple[list[float], list[float]]:
    """Per-frame and per-shot latencies of one command, in seconds: the
    gaps between consecutive written frames, and between consecutive
    completed shots, a shot completing with its last written frame (the
    first gap counts from command start)."""
    frames = run.report["stamps"]["frame"]
    done = [frames[s["end"] - 1] for s in run.doc["shots"]]
    return list(np.diff(frames)), list(np.diff([run.report["start"], *done]))


def end_to_end(runs: list[Run], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts."""
    frame_gaps, shot_gaps = [], []
    for run in runs:
        if run.report is not None and not run.check.failed:
            f, s = frame_and_shot_gaps(run)
            frame_gaps += f
            shot_gaps += s
    frame = percentiles(1e3 * g for g in frame_gaps)
    shot = percentiles(1e3 * g for g in shot_gaps)
    attempted = sum(r.clip.num_frames for r in runs)
    passed = sum(r.passed_frames for r in runs)
    rss = [r.report["maxrss_kb"] / 1024.0 for r in runs if r.report is not None]
    values = {
        "setup_s": statistics.median(setup),
        "frames_per_s": passed / sum(r.wall_s for r in runs),
        "frame_ms_p50": frame["p50"],
        "frame_ms_p90": frame["p90"],
        "shot_ms_p50": shot["p50"],
        "shot_ms_p90": shot["p90"],
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "passed_share": passed / attempted,
    }
    samples = {
        "setup_s": len(setup),
        "frames_per_s": len(runs),
        "frame_ms": frame,
        "shot_ms": shot,
        "peak_rss_mb": len(rss),
        "passed_share": attempted,
    }
    return values, samples


def yaw_only_share(docs) -> float:
    """Share of frame-to-frame steps that keep pitch and hfov (only yaw
    may change), so a yaw-offset coordinate cache could serve them."""
    same = steps = 0
    for doc in docs:
        frames = doc["frames"]
        for a, b in zip(frames, frames[1:]):
            steps += 1
            same += a["pitch_deg"] == b["pitch_deg"] and a["hfov_deg"] == b["hfov_deg"]
    return same / steps if steps else 0.0


def _frame_bytes(directory, count: int) -> int:
    total = 0
    for i in range(count):
        try:
            total += (directory / FRAME_NAME.format(i)).stat().st_size
        except OSError:  # a missing frame already failed the gate
            pass
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    plain: list[Run], traced: list[Run], counted: list[dict], distinct_docs
) -> tuple[dict, dict]:
    """Per-layer metrics from paired untraced/traced runs of the same
    clips and from the call-counting pass; also returns diagnostics."""
    n = len(traced)
    totals: dict[str, tuple[float, int]] = {}
    for run in traced:
        for name, (self_s, calls) in spans.totals_by_name(run.report["spans"]).items():
            t, c = totals.get(name, (0.0, 0))
            totals[name] = (t + self_s, c + calls)

    def total(name):
        return totals.get(name, (0.0, 0))[0]

    def count(name):
        return totals.get(name, (0.0, 0))[1]

    values = {metric: 0.0 for metric, *_ in spec.PER_LAYER}
    for name, (self_s, _count) in totals.items():
        metric = spec.SPAN_METRIC.get(name)
        if metric is not None:
            values[metric] += self_s / n

    planned = [r for r in traced if r.clip.command != "render"]
    shots = sum(len(r.doc["shots"]) for r in planned)
    frames = sum(r.clip.num_frames for r in traced)
    pixels = sum(r.clip.num_frames * r.clip.out_size[0] * r.clip.out_size[1] for r in traced)
    read = sum(_frame_bytes(r.clip.frames, r.clip.num_frames) for r in traced)
    written = sum(_frame_bytes(r.out_dir, r.clip.num_frames) for r in traced)
    values.update(
        {
            "measures.positions_per_shot": _ratio(count("measures.positions"), shots),
            "hypotheses.scored_per_shot": _ratio(count("hypotheses.score"), shots),
            "saliency.tables_per_shot": _ratio(count("saliency.table"), shots),
            "director.chosen_share": _ratio(shots, count("hypotheses.score")),
            "director.relaxed_shots": _ratio(
                sum(s["relaxed"] for r in planned for s in r.doc["shots"]), n
            ),
            "renderer.kernel_ns_per_px": _ratio(1e9 * total("renderer.kernel"), pixels),
            "renderer.coords_ns_per_px": _ratio(1e9 * total("renderer.coords"), pixels),
            "renderer.bytes_read": _ratio(read, frames),
            "renderer.bytes_written": _ratio(written, frames),
            "renderer.kernel_bytes_per_px": float(spec.KERNEL_BYTES_PER_PX) if frames else 0.0,
            "renderer.yaw_only_share": yaw_only_share(distinct_docs),
        }
    )
    if counted:
        calls = [c["counts"] for c in counted]
        object_frames = sum(c["object_frames"] for c in counted)
        values["geometry.angular_distance_calls"] = sum(
            c.get("angular_distance", 0) for c in calls
        ) / len(calls)
        values["tracks.interp_per_object_frame"] = _ratio(
            sum(c.get("interpolated_bbox", 0) for c in calls), object_frames
        )

    traced_wall = sum(r.wall_s for r in traced)
    plain_fps = _ratio(sum(r.passed_frames for r in plain), sum(r.wall_s for r in plain))
    traced_fps = _ratio(sum(r.passed_frames for r in traced), traced_wall)
    values["trace.overhead_share"] = 1.0 - _ratio(traced_fps, plain_fps)
    mapped = sum(t for name, (t, _c) in totals.items() if name in spec.SPAN_METRIC)
    values["trace.self_coverage"] = _ratio(mapped, traced_wall)
    diagnostics = {
        "unmapped_spans": sorted(set(totals) - set(spec.SPAN_METRIC)),
        "span_counts": {name: c for name, (_t, c) in sorted(totals.items())},
        "traced_clips": n,
    }
    return values, diagnostics
