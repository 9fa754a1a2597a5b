"""Command-line entry point.

Subcommands: ``direct`` (tracks -> camera path), ``render`` (frames +
path -> perspective frames), ``pipeline`` (direct then render), ``synth``
(scenario -> synthetic tracks and optional panoramas).

Exit status: 0 on success, 1 on usage errors, 2 on data errors (with a
single ``error: ...`` line on stderr).  Runs are pure functions of their
inputs: no hidden state or caches, and the package reads no environment
variable of its own.  NumPy picks its CPU code paths at import and
honours ``NPY_DISABLE_CPU_FEATURES``; see :mod:`autocam360.renderer` for
what that means for rendered bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .director import direct, output_to_document, parse_camera_path
from .renderer import (
    FRAME_NAME,
    ImageFormatError,
    RenderError,
    render_frames_dir,
    write_image,
)
from .synth import ScenarioError, parse_scenario, synth_panorama, synth_scene
from .tracks import TrackFileError, parse_scene, scene_to_document

_DATA_ERRORS = (
    TrackFileError,
    ConfigError,
    ScenarioError,
    ImageFormatError,
    RenderError,
    OSError,
    ValueError,
)

# largest --size width and height: every output pixel gets its own
# sample coordinates, so an unbounded size would end in a MemoryError
MAX_SIZE = 8192


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from None
    if w <= 0 or h <= 0:
        raise argparse.ArgumentTypeError("size components must be positive")
    if w > MAX_SIZE or h > MAX_SIZE:
        raise argparse.ArgumentTypeError(f"size {w}x{h} exceeds {MAX_SIZE} on a side")
    return w, h


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autocam360", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("direct", help="plan a camera path from a track file")
    p.add_argument("--tracks", required=True, help="track file (JSON)")
    p.add_argument("--config", default=None, help="director config file (JSON)")
    p.add_argument("--out", required=True, help="camera-path output file (JSON)")

    p = sub.add_parser("render", help="render perspective frames along a camera path")
    p.add_argument("--frames", required=True, help="directory of frame_%%06d.ppm sources")
    p.add_argument("--path", required=True, help="camera-path file (JSON)")
    p.add_argument("--out", required=True, help="output frame directory")
    p.add_argument(
        "--size", type=_size, default=(960, 540),
        help=f"output WxH, at most {MAX_SIZE} a side (default 960x540)",
    )

    p = sub.add_parser("pipeline", help="direct then render")
    p.add_argument("--tracks", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory (path JSON + frames)")
    p.add_argument("--size", type=_size, default=(960, 540))

    p = sub.add_parser("synth", help="generate a synthetic scene (and panoramas)")
    p.add_argument("--scenario", required=True, help="scenario spec file (JSON)")
    p.add_argument("--out", required=True, help="track-file output path")
    p.add_argument("--frames", default=None, help="optional panorama output directory")

    return parser


def _read_text(path: str | Path, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise TrackFileError(f"{what} file not found: {path}")
    return p.read_text(encoding="utf-8")


def _print_shot_table(output) -> None:
    relaxed = {(r.start, r.end): r.relaxed for r in output.records}
    print(f"{'shot':>4}  {'type':<11} {'range':<16} {'score':>9}  targets")
    for i, shot in enumerate(output.shots):
        targets = ",".join(shot.target_ids) or "-"
        mark = " *" if relaxed.get((shot.start, shot.end)) else ""
        print(
            f"{i:>4}  {shot.shot_type.value:<11} "
            f"[{shot.start:>6},{shot.end:>6}) {shot.score:>9.4f}  {targets}{mark}"
        )


def _direct(args, path_file: Path, make_dir: bool = False) -> None:
    """Plan from ``--tracks`` and ``--config``, write the camera path to
    `path_file` (making its directory first if `make_dir`) and print the
    shot table."""
    scene = parse_scene(_read_text(args.tracks, "tracks"))
    cfg = load_config(args.config)
    output = direct(scene, cfg)
    if make_dir:
        path_file.parent.mkdir(parents=True, exist_ok=True)
    path_file.write_text(output_to_document(output), encoding="utf-8")
    _print_shot_table(output)


def _render(args, path_file: str | Path, out: str | Path) -> None:
    """Render ``--frames`` along the camera path in `path_file` into `out`
    at ``--size``."""
    out_w, out_h = args.size
    document = _read_text(path_file, "camera path")
    _fps, viewports, _shots = parse_camera_path(document, aspect=out_w / out_h)
    count = render_frames_dir(args.frames, out, viewports, out_w, out_h)
    print(f"rendered {count} frames to {out}")


def _cmd_direct(args) -> int:
    _direct(args, Path(args.out))
    return 0


def _cmd_render(args) -> int:
    _render(args, args.path, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    out_dir = Path(args.out)
    path_file = out_dir / "camera_path.json"
    _direct(args, path_file, make_dir=True)
    _render(args, path_file, out_dir)
    return 0


def _cmd_synth(args) -> int:
    spec = parse_scenario(_read_text(args.scenario, "scenario"))
    scene = synth_scene(spec)
    Path(args.out).write_text(scene_to_document(scene), encoding="utf-8")
    print(f"wrote {scene.num_frames}-frame scene with {len(scene.objects)} objects to {args.out}")
    if args.frames is not None:
        frames_dir = Path(args.frames)
        frames_dir.mkdir(parents=True, exist_ok=True)
        for t in range(scene.num_frames):
            write_image(synth_panorama(spec, t), frames_dir / FRAME_NAME.format(t))
        print(f"wrote {scene.num_frames} panoramas to {frames_dir}")
    return 0


_COMMANDS = {
    "direct": _cmd_direct,
    "render": _cmd_render,
    "pipeline": _cmd_pipeline,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
