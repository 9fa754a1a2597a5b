#!/usr/bin/env python3
"""Run one autocam360 command in this fresh process and report on it.

Usage: worker.py --mode {plain,trace,count} --report FILE -- ARGS...

ARGS go to ``autocam360.cli.main`` unchanged.  The report (JSON) holds
the command's exit code, its wall time around ``main``, the process's
peak RSS, and, by mode:

- ``plain``: the completion timestamp of each written frame, the only
  hook.
- ``trace``: spans at every layer boundary (see ``spans.SPAN_HOOKS``).
- ``count``: call counts of the hot functions (``spans.COUNT_HOOKS``).

The package must be importable (the caller sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time

import spans


def _install_stamps(stamps: list):
    """Stamp each written frame as ``renderer.write_image`` returns."""

    def on_return(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        return wrapper

    return spans.install((("autocam360.renderer", "write_image", "frame"),), on_return)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "trace", "count"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    argv = ns.args[1:] if ns.args[:1] == ["--"] else ns.args

    from autocam360 import cli

    report: dict = {"mode": ns.mode}
    run = cli.main
    if ns.mode == "plain":
        frames: list = []
        undo, missing = _install_stamps(frames)
        report["stamps"] = {"frame": frames}
    elif ns.mode == "trace":
        recorder = spans.SpanRecorder()
        undo, missing = spans.install_spans(recorder)
        run = recorder.wrap(cli.main, "cli.main")
        report["spans"] = recorder.spans
    else:
        counts: dict = {}
        undo, missing = spans.install_counters(counts)
        report["counts"] = counts

    start = time.perf_counter()
    try:
        rc = run(argv)
    finally:
        end = time.perf_counter()
        spans.uninstall(undo)
    report.update(
        rc=rc,
        start=start,
        wall_s=end - start,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        missing_hooks=missing,
    )
    with open(ns.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
