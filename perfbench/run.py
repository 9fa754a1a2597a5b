#!/usr/bin/env python3
"""Benchmark the autocam360 commands end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

The benchmark generates seeded inputs with the package's ``synth``
module, then runs the real command (``pipeline`` or ``render``) in a
fresh worker process per clip, one at a time: a closed
loop with one client, each clip starting when the previous command has
returned, until about S seconds of command time are spent.  Every
command's outputs pass a correctness gate.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` pairs each untraced clip with a traced
one and reports per-layer self times, counts and the tracing overhead.

stdout ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it print every metric with its unit.  A
fuller record (environment, input properties, output digest, sample
counts, spans) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gate
import inputs
import metrics
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 120
SETUP_REPEATS = 7
SETUP_PROBE = "import time\nt = time.perf_counter()\nimport autocam360\nprint(time.perf_counter() - t)"
COVERAGE_TOLERANCE = 0.02


def _env() -> dict:
    # one client, no helper threads: keep BLAS/OpenMP pools at one thread
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build(env) -> str:
    """Build the package's optional compiled kernel in place, once per
    checkout; without a compiler toolchain the NumPy fallback stays."""
    stamp = WORK / "build.stamp"
    if stamp.exists():
        return stamp.read_text(encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=600,
    )
    status = "ok" if proc.returncode == 0 else f"failed with exit code {proc.returncode}"
    stamp.write_text(status, encoding="utf-8")
    return status


def measure_setup(env) -> list[float]:
    """Fresh-process ``import autocam360`` times (kernel selection
    included), after one unmeasured import that warms bytecode caches."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(proc.stdout))
    return times


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """One benchmark run: inputs, the command loop and its gate."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path, env):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work, self.env = work, env
        self.pixel_rng = random.Random(f"pixels:{workload}:{seed}")
        self.first: dict = {}
        self.docs: dict = {}
        self.identity = "not-run"
        self.missing: set[str] = set()
        self.errors: list[str] = []

    def command(self, argv, mode: str, name: str):
        report_path = self.work / f"report-{name}-{mode}.json"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--report", str(report_path), "--", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S,
            )
            failure = None if proc.returncode == 0 else proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            failure = f"timed out after {COMMAND_TIMEOUT_S} s"
        outside = time.perf_counter() - start
        if failure is not None or not report_path.exists():
            self.errors.append(f"{name} {mode}: worker failed: {(failure or '')[-500:]}")
            return None, outside
        report = json.loads(report_path.read_text(encoding="utf-8"))
        self.missing.update(report["missing_hooks"])
        if report["rc"] != 0:
            self.errors.append(f"{name} {mode}: autocam360 exited {report['rc']}")
        return report, outside

    def run_clip(self, clip, mode: str) -> metrics.Run:
        out_dir = self.work / "out" / clip.name
        out_dir.mkdir(parents=True, exist_ok=True)
        report, outside = self.command(clip.argv(out_dir), mode, clip.name)
        rc = report["rc"] if report is not None else -1
        first = self.first.get(clip.name)
        check, doc = gate.check_clip(clip, out_dir, rc, self.pixel_rng if first is None else None)
        if first is None:
            self.first[clip.name], self.docs[clip.name] = check, doc
            if doc is not None and not check.failed and self.identity == "not-run":
                self.identity = gate.backend_identity(
                    self.backend, clip, doc, out_dir, [0, clip.num_frames - 1]
                )
        else:
            gate.compare_repeat(first, check, clip.num_frames)
        wall = report["wall_s"] if report is not None else outside
        return metrics.Run(clip, report, check, doc, wall, out_dir)

    def loop(self, clips):
        """Closed loop over the clips (each at least once) until about
        `seconds` of command time are spent; in a traced run every step
        is an untraced and a traced run of the same clip."""
        modes = ("plain", "trace") if self.trace else ("plain",)
        runs = {mode: [] for mode in modes}
        spent, k = 0.0, 0
        while k < len(clips) or spent + 0.5 * spent / k < self.seconds:
            clip = clips[k % len(clips)]
            for mode in modes:
                run = self.run_clip(clip, mode)
                runs[mode].append(run)
                spent += run.wall_s
            k += 1
        return runs

    def count_calls(self, clips) -> list[dict]:
        """Hot-call counts from one ``direct`` pass over the first clip
        with tracks (none for pure rendering)."""
        for clip in clips:
            out_dir = self.work / "out" / "count"
            out_dir.mkdir(parents=True, exist_ok=True)
            argv = clip.planning_argv(out_dir)
            if argv is None:
                continue
            report, _ = self.command(argv, "count", clip.name)
            if report is None:
                return []
            return [{"counts": report["counts"], "object_frames": clip.objects * clip.num_frames}]
        return []

    def execute(self) -> dict:
        import autocam360
        import numpy

        self.backend = autocam360.KERNEL_BACKEND
        setup = [] if self.trace else measure_setup(self.env)
        clips = inputs.generate(self.workload, self.seed, self.work / "in")
        runs = self.loop(clips)
        all_runs = [r for group in runs.values() for r in group]
        attempted = sum(r.clip.num_frames for r in all_runs)
        failed = sum(len(r.check.failed) for r in all_runs)
        correct = failed == 0 and not self.errors and self.identity != "failed"

        if self.trace:
            traced = [r for r in runs["trace"] if r.report is not None and r.doc is not None]
            counted = self.count_calls(clips)
            values, diagnostics = metrics.per_layer(
                runs["plain"], traced, counted, [d for d in self.docs.values() if d]
            )
            coverage = values["trace.self_coverage"]
            if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
                correct = False
                self.errors.append(f"layer self times cover {coverage:.4f} of the traced wall time")
            if not counted and any(c.tracks for c in clips):
                correct = False
                self.errors.append("the call-counting pass failed")
            units = {n: u for n, u, _b, _m in spec.PER_LAYER}
            samples = diagnostics
        else:
            values, samples = metrics.end_to_end(runs["plain"], setup)
            units = {n: u for n, u, _b, _bound in spec.END_TO_END}
            if self.missing:
                correct = False
                self.errors.append(f"timing hooks missing: {sorted(self.missing)}")
            samples["setup_s_values"] = setup
        if self.missing:
            print(f"warning: hooks missing in autocam360: {sorted(self.missing)}", file=sys.stderr)

        distinct_docs = [d for d in self.docs.values() if d]
        shot_types = collections.Counter(s["type"] for d in distinct_docs for s in d["shots"])
        digests = [self.first[c.name].digest for c in clips]
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            "samples": samples,
            "environment": {
                "kernel_backend": self.backend,
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "platform": platform.platform(),
                "commit": git_commit(),
                "seed": self.seed,
            },
            "inputs": {
                "clips": [
                    {
                        "name": c.name,
                        "command": c.command,
                        "objects": c.objects,
                        "frames": c.num_frames,
                        "source_px": c.src_size[0] * c.src_size[1] if c.src_size else None,
                        "output_px": c.out_size[0] * c.out_size[1] if c.out_size else None,
                    }
                    for c in clips
                ],
                "shot_types": dict(sorted(shot_types.items())),
                "renderer.yaw_only_share": metrics.yaw_only_share(distinct_docs),
                "bytes_on_disk": inputs.disk_bytes(clips),
            },
            "digest": gate.combined_digest(digests),
            "clip_digests": digests,
            "backend_identity": self.identity,
            "pixels": {
                "checked": sum(c.pixels_checked for c in self.first.values()),
                "off_by_more_than_1": sum(c.pixels_off for c in self.first.values()),
            },
            "command_walls_s": {mode: [r.wall_s for r in group] for mode, group in runs.items()},
            "errors": self.errors,
            "gate_reasons": sorted({x for r in all_runs for x in r.check.reasons})[:50],
            "missing_hooks": sorted(self.missing),
        }
        if self.trace:
            record["spans"] = [r.report["spans"] for r in runs["trace"] if r.report]
        return record


def print_result(record: dict) -> None:
    samples = record["samples"]
    print(f"autocam360 benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} backend={record['environment']['kernel_backend']}")
    for name, m in record["metrics"].items():
        extra = ""
        stem = name.rsplit("_", 1)[0]
        if not record["trace"] and stem in ("frame_ms", "shot_ms"):
            s = samples[stem]
            extra = f"  (n={s['n']}, beyond p90={s['beyond_p90']})"
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}{extra}")
    print(f"  gate: attempted={record['attempted']} failed={record['failed']} "
          f"pixels checked={record['pixels']['checked']} "
          f"backend identity={record['backend_identity']} digest={record['digest'][:16]}")
    for err in record["errors"]:
        print(f"  error: {err}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="utf-8")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (SRC / "autocam360" / "__init__.py").is_file():
        print(f"error: no autocam360 package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = _env()
    WORK.mkdir(exist_ok=True)
    build_status = build(env)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        record = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work, env).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"]["build"] = build_status
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_result(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
