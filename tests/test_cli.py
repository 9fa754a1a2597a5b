from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import autocam360
from autocam360.cli import MAX_SIZE, build_parser, main
from autocam360.renderer import Image, read_image, write_image
from autocam360.synth import ScenarioSpec, ActorSpec, scenario_to_document

SCENARIO = scenario_to_document(
    ScenarioSpec(
        seed=4,
        duration_s=3.0,
        fps=10.0,
        width=256,
        height=128,
        actors=(ActorSpec("human", "linear", -30.0, 0.0, size_deg=14.0, rate_deg_s=15.0),),
    )
)


@pytest.fixture()
def workspace(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(SCENARIO)
    return tmp_path


def test_synth_writes_scene_and_frames(workspace, capsys):
    tracks = workspace / "tracks.json"
    frames = workspace / "frames"
    rc = main(
        ["synth", "--scenario", str(workspace / "scenario.json"), "--out", str(tracks),
         "--frames", str(frames)]
    )
    assert rc == 0
    data = json.loads(tracks.read_text())
    assert data["num_frames"] == 30
    assert len(list(frames.glob("frame_*.ppm"))) == 30
    img = read_image(frames / "frame_000000.ppm")
    assert (img.width, img.height) == (256, 128)


def test_direct_writes_path_and_prints_table(workspace, capsys):
    tracks = workspace / "tracks.json"
    main(["synth", "--scenario", str(workspace / "scenario.json"), "--out", str(tracks)])
    capsys.readouterr()
    path_file = workspace / "path.json"
    rc = main(["direct", "--tracks", str(tracks), "--out", str(path_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tracking" in out or "pan" in out  # shot table printed
    data = json.loads(path_file.read_text())
    assert len(data["frames"]) == 30
    assert {"yaw_deg", "pitch_deg", "hfov_deg"} <= set(data["frames"][0])
    assert {"start", "end", "type", "score", "targets", "relaxed"} <= set(data["shots"][0])


def test_render_counts_frames(workspace, capsys):
    tracks = workspace / "tracks.json"
    frames = workspace / "frames"
    path_file = workspace / "path.json"
    main(["synth", "--scenario", str(workspace / "scenario.json"), "--out", str(tracks),
          "--frames", str(frames)])
    main(["direct", "--tracks", str(tracks), "--out", str(path_file)])
    out_dir = workspace / "rendered"
    rc = main(["render", "--frames", str(frames), "--path", str(path_file),
               "--out", str(out_dir), "--size", "160x90"])
    assert rc == 0
    rendered = sorted(out_dir.glob("frame_*.ppm"))
    assert len(rendered) == 30
    img = read_image(rendered[0])
    assert (img.width, img.height) == (160, 90)


def test_pipeline_end_to_end_count(workspace, capsys):
    tracks = workspace / "tracks.json"
    frames = workspace / "frames"
    main(["synth", "--scenario", str(workspace / "scenario.json"), "--out", str(tracks),
          "--frames", str(frames)])
    out_dir = workspace / "out"
    rc = main(["pipeline", "--tracks", str(tracks), "--frames", str(frames),
               "--out", str(out_dir), "--size", "160x90"])
    assert rc == 0
    assert (out_dir / "camera_path.json").is_file()
    assert len(list(out_dir.glob("frame_*.ppm"))) == 30


def test_missing_tracks_file_exits_2_and_names_path(workspace, capsys):
    rc = main(["direct", "--tracks", str(workspace / "nope.json"),
               "--out", str(workspace / "p.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "nope.json" in err
    assert err.count("\n") == 1  # single line


def test_malformed_tracks_exits_2(workspace, capsys):
    valid = {"fps": 30, "width": 200, "height": 100, "num_frames": 60, "objects": []}
    nan_yaw = {"t": 0, "yaw_deg": float("nan"), "pitch_deg": 0.0}
    documents = [
        "{",
        json.dumps(valid).replace('"fps": 30', '"fps": 1' + "0" * 400),
        json.dumps({**valid, "recommendations": [nan_yaw]}),
        json.dumps({**valid, "num_frames": 10**9}),
    ]
    bad = workspace / "bad.json"
    for document in documents:
        bad.write_text(document)
        rc = main(["direct", "--tracks", str(bad), "--out", str(workspace / "p.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    assert not (workspace / "p.json").exists()


def test_empty_camera_path_exits_2(workspace, capsys):
    frames = workspace / "frames"
    frames.mkdir()
    path_file = workspace / "path.json"
    path_file.write_text(json.dumps({"fps": 10.0, "frames": [], "shots": []}))
    rc = main(["render", "--frames", str(frames), "--path", str(path_file),
               "--out", str(workspace / "out"), "--size", "160x90"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: camera path has no frames\n"
    assert "rendered" not in captured.out


def _two_frame_path(workspace, **overrides):
    path_file = workspace / "path.json"
    frame = {"yaw_deg": 0.0, "pitch_deg": 0.0, "hfov_deg": 75.0}
    path_file.write_text(json.dumps({"fps": 10.0, "frames": [frame, frame], **overrides}))
    return path_file


def test_render_truncated_source_exits_2(workspace, capsys):
    frames = workspace / "frames"
    frames.mkdir()
    img = Image(8, 4, np.zeros((4, 8, 3), dtype=np.uint8))
    write_image(img, frames / "frame_000000.ppm")
    data = write_image(img, frames / "frame_000001.ppm")
    (frames / "frame_000001.ppm").write_bytes(data[:-10])
    rc = main(["render", "--frames", str(frames), "--path", str(_two_frame_path(workspace)),
               "--out", str(workspace / "out"), "--size", "160x90"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: frame 1: truncated pixel data at byte 97: expected 96 bytes, got 86\n"
    )


def test_render_unwritable_output_frame_exits_2(workspace, capsys):
    frames = workspace / "frames"
    frames.mkdir()
    img = Image(8, 4, np.zeros((4, 8, 3), dtype=np.uint8))
    for t in range(2):
        write_image(img, frames / f"frame_{t:06d}.ppm")
    out_dir = workspace / "out"
    (out_dir / "frame_000001.ppm").mkdir(parents=True)  # a directory, not a file
    rc = main(["render", "--frames", str(frames), "--path", str(_two_frame_path(workspace)),
               "--out", str(out_dir), "--size", "160x90"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: frame 1: ") and captured.err.count("\n") == 1
    assert "frame_000001.ppm" in captured.err
    assert "rendered" not in captured.out
    assert (out_dir / "frame_000000.ppm").is_file()


def test_malformed_camera_path_exits_2(workspace, capsys):
    frames = workspace / "frames"
    frames.mkdir()
    rc = main(["render", "--frames", str(frames), "--path",
               str(_two_frame_path(workspace, fps="nan")),
               "--out", str(workspace / "out"), "--size", "160x90"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: malformed camera-path document: fps must be a finite number, got 'nan'\n"
    )


@pytest.mark.parametrize("shots", ["abc", {"x": 1}])
def test_camera_path_shot_rows_must_be_objects(workspace, capsys, shots):
    frames = workspace / "frames"
    frames.mkdir()
    rc = main(["render", "--frames", str(frames), "--path",
               str(_two_frame_path(workspace, shots=shots)),
               "--out", str(workspace / "out"), "--size", "160x90"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: malformed camera-path document: shots must be a list of JSON objects\n"
    )


_ACTOR = {"category": "human", "motion": "fixed", "yaw_deg": 0, "pitch_deg": 0}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"duration_s": 1e308}, "the frame count duration_s * fps must be finite"),
        ({"actors": [{**_ACTOR, "yaw_deg": "x"}]},
         "malformed scenario field: actors[0].yaw_deg must be a finite number, got 'x'"),
        ({"recommendations": [{"t": 0, "yaw_deg": 0, "pitch_deg": "up"}]},
         "malformed scenario field: recommendations[0].pitch_deg must be a finite number, "
         "got 'up'"),
        ({"seed": "s"}, "malformed scenario field: seed must be an integer, got 's'"),
        ({"width": 2.5, "height": 1.5},
         "malformed scenario field: width must be an integer, got 2.5"),
        ({"actors": [{**_ACTOR, "category": 5}]},
         "malformed scenario field: actors[0].category must be a string, got 5"),
        ({"duration_s": 1e300, "fps": 1},
         "the frame count duration_s * fps must be at most 100000"),
        ({"width": 100000, "height": 4096}, "panorama size 100000x4096 exceeds 8192x4096"),
    ],
)
def test_malformed_scenario_exits_2_with_one_error_line(workspace, capsys, fields, message):
    scenario = workspace / "scenario.json"
    scenario.write_text(json.dumps({"duration_s": 1.0, "fps": 10, **fields}))
    rc = main(["synth", "--scenario", str(scenario), "--out", str(workspace / "tracks.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not (workspace / "tracks.json").exists()


def test_import_loads_no_pool_modules():
    # importing the package must stay cheap: no executor or process pool
    src = Path(autocam360.__file__).parent.parent
    code = (
        "import sys, autocam360; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def test_usage_error_exits_1(capsys):
    assert main(["direct"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_bad_size_exits_1(workspace, capsys):
    rc = main(["render", "--frames", "x", "--path", "y", "--out", "z", "--size", "whatever"])
    assert rc == 1


@pytest.mark.parametrize("command", ["render", "pipeline"])
def test_size_is_capped_per_side(command, capsys):
    # the arguments are only parsed: nothing renders at any of these sizes
    flags = ["--frames", "x", "--out", "z", "--path" if command == "render" else "--tracks", "y"]
    args = build_parser().parse_args([command, *flags, "--size", f"{MAX_SIZE}x{MAX_SIZE}"])
    assert args.size == (MAX_SIZE, MAX_SIZE)
    for size in (f"{MAX_SIZE + 1}x540", f"960x{MAX_SIZE + 1}", "100000x56250"):
        assert main([command, *flags, "--size", size]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"error: argument --size: size {size} exceeds {MAX_SIZE} on a side"]
