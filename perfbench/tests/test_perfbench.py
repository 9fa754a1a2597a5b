"""Tests of the benchmark itself (not of autocam360).

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402


# ---------------------------------------------------------------------------
# spans


def test_self_times_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 2.0, 3.0, 1],
        ["c", 6.0, 7.0, 2],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 1.0]
    assert spans.totals_by_name(tree) == {
        "root": (3.0, 1),
        "a": (2.0, 1),
        "b": (3.0, 1),
        "c": (2.0, 2),
    }
    assert sum(spans.self_times(tree)) == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [["p", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 3.0, 6.0, 0], ["z", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_and_uninstall_restores():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake_layer")
    sys.modules["fake_layer"] = mod
    try:
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        originals = (mod.inner, mod.outer)
        undo, missing = spans.install_spans(
            recorder,
            (
                ("fake_layer", "outer", "layer.outer"),
                ("fake_layer", "inner", "layer.inner"),
                ("fake_layer", "gone", "layer.gone"),
            ),
        )
        assert missing == ["fake_layer.gone"]
        assert mod.outer(1) == 4
        spans.uninstall(undo)
        assert (mod.inner, mod.outer) == originals
    finally:
        del sys.modules["fake_layer"]
    assert recorder.spans == [["layer.outer", 0.0, 3.0, -1], ["layer.inner", 1.0, 2.0, 0]]


def test_every_span_name_maps_to_a_per_layer_metric():
    layer_names = {name for name, *_ in spec.PER_LAYER}
    hooked = {name for *_, name in spans.SPAN_HOOKS} | {"cli.main"}
    assert hooked == set(spec.SPAN_METRIC)
    assert set(spec.SPAN_METRIC.values()) <= layer_names


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.benchmark_json()


# ---------------------------------------------------------------------------
# gate


def _path_doc(n: int, shots) -> dict:
    """A slow pan over `n` frames; frames outside every shot get 90 deg."""
    hfov = [90.0] * n
    for start, end, kind in shots:
        hfov[start:end] = [inputs.FOV_DEG[kind]] * (end - start)
    return {
        "fps": inputs.FPS,
        "frames": [{"yaw_deg": 0.5 * i, "pitch_deg": 0.0, "hfov_deg": hfov[i]} for i in range(n)],
        "shots": [{"start": s, "end": e, "type": k} for s, e, k in shots],
    }


def test_gate_accepts_a_valid_path():
    check = gate.ClipCheck()
    doc = _path_doc(20, [(0, 10, "static"), (10, 20, "pan")])
    gate.check_path(doc, 20, inputs.FPS, inputs.FOV_DEG, check)
    assert check.failed == set()


def test_gate_rejects_a_gap_between_shots():
    doc = _path_doc(20, [(0, 8, "static"), (10, 20, "pan")])
    check = gate.ClipCheck()
    gate.check_path(doc, 20, inputs.FPS, inputs.FOV_DEG, check)
    assert check.failed == {8, 9}


def test_gate_rejects_wrong_fov_steep_pitch_and_fast_turns():
    doc = _path_doc(12, [(0, 6, "static"), (6, 12, "medium")])
    doc["frames"][2]["hfov_deg"] = 90.0
    doc["frames"][4]["pitch_deg"] = 46.0  # also a fast turn into and out of it
    doc["frames"][9]["yaw_deg"] = 40.0  # 2.5 deg -> 40 deg in one frame
    check = gate.ClipCheck()
    gate.check_path(doc, 12, inputs.FPS, inputs.FOV_DEG, check)
    assert check.failed == {2, 4, 5, 9, 10}


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """A small real render: 4 frames of a 128x64 synthetic panorama to 64x36."""
    from autocam360 import cli, renderer, synth

    root = tmp_path_factory.mktemp("render")
    spec_ = synth.ScenarioSpec(
        seed=3, duration_s=4 / inputs.FPS, fps=inputs.FPS, width=128, height=64,
        actors=(synth.ActorSpec("human", "linear", 10.0, 5.0, 20.0, 30.0),),
    )
    (root / "pano").mkdir()
    for t in range(4):
        renderer.write_image(synth.synth_panorama(spec_, t), root / "pano" / gate.FRAME_NAME.format(t))
    doc = _path_doc(4, [(0, 4, "tracking")])
    for i, f in enumerate(doc["frames"]):
        f["pitch_deg"] = 0.5 * math.sin(i)
    (root / "path.json").write_text(json.dumps(doc), encoding="utf-8")
    clip = inputs.Clip(
        "tiny", "render", 4, 1, inputs.FOV_DEG, frames=root / "pano", path=root / "path.json",
        src_size=(128, 64), out_size=(64, 36),
    )
    out = root / "out"
    assert cli.main(clip.argv(out)) == 0
    return clip, out


def test_gate_passes_real_frames_and_checks_pixels(rendered):
    clip, out = rendered
    check, doc = gate.check_clip(clip, out, 0, random.Random(1))
    assert check.failed == set(), check.reasons
    assert check.pixels_checked > 0 and check.pixels_off == 0
    assert gate.backend_identity("numpy", clip, doc, out, [0]) == "skipped"


def test_gate_rejects_a_corrupted_frame(rendered, tmp_path):
    clip, out = rendered
    first, _ = gate.check_clip(clip, out, 0, random.Random(1))
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    frame = bad / gate.FRAME_NAME.format(0)
    data = bytearray(frame.read_bytes())
    header = len(data) - 64 * 36 * 3
    for i in range(header, len(data)):
        data[i] ^= 0x80
    frame.write_bytes(bytes(data))
    check, _ = gate.check_clip(clip, bad, 0, random.Random(1))
    assert check.failed == {0}
    assert check.pixels_off > 0
    again, _ = gate.check_clip(clip, bad, 0, None)
    gate.compare_repeat(first, again, clip.num_frames)
    assert again.failed == {0}


def test_gate_counts_a_truncated_frame_and_a_failed_command(rendered, tmp_path):
    clip, out = rendered
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    frame = bad / gate.FRAME_NAME.format(3)
    frame.write_bytes(frame.read_bytes()[:-1])
    check, _ = gate.check_clip(clip, bad, 0, None)
    assert check.failed == {3}
    check, _ = gate.check_clip(clip, out, 2, None)
    assert check.failed == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# inputs and the whole command


def test_inputs_depend_on_the_seed_and_only_on_it(tmp_path):
    docs = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        clips = inputs.generate("render_4k_wobble", seed, tmp_path / name)
        docs[name] = [(c.path.read_bytes(), (c.frames / gate.FRAME_NAME.format(0)).read_bytes())
                      for c in clips]
    assert docs["a"] == docs["b"]
    assert docs["a"] != docs["c"]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_different_seed_keeps_the_metric_names():
    names = [name for name, *_ in spec.END_TO_END]
    results = [
        _result(_bench("--workload", "render_4k_wobble", "--seed", seed, "--seconds", "0.1"))
        for seed in ("1", "2")
    ]
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == names
        assert all(m["value"] > 0 for m in res["metrics"].values())
    records = sorted((ROOT / ".bench_work" / "results").glob("render_4k_wobble-seed[12]-trace0-*"))
    digests = {json.loads(p.read_text())["seed"]: json.loads(p.read_text())["digest"] for p in records}
    assert digests[1] != digests[2]


def test_traced_run_reports_every_per_layer_metric():
    res = _result(_bench("--workload", "render_4k_wobble", "--seed", "3", "--seconds", "0.1",
                         "--trace", "1"))
    assert res["correct"]
    assert list(res["metrics"]) == [name for name, *_ in spec.PER_LAYER]
    assert res["metrics"]["renderer.kernel_s"]["value"] > 0
    assert res["metrics"]["renderer.yaw_only_share"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "render_4k_wobble", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
