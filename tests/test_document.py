"""Input that is not readable JSON, fed to all four parsers."""

from __future__ import annotations

import pytest

from autocam360.config import ConfigError, load_config
from autocam360.director import CameraPathError, parse_camera_path
from autocam360.synth import ScenarioError, parse_scenario
from autocam360.tracks import TrackFileError, parse_scene


def _load_config_bytes(document: bytes, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(document)
    return load_config(path)


PARSERS = {
    "tracks": (lambda document, _: parse_scene(document), TrackFileError),
    "scenario": (lambda document, _: parse_scenario(document), ScenarioError),
    "camera_path": (lambda document, _: parse_camera_path(document, 16 / 9), CameraPathError),
    "config": (_load_config_bytes, ConfigError),
}


@pytest.mark.parametrize(
    "document",
    [
        b'"\xff"',
        b"\xff\xfe\x00",  # a UTF-16 byte order mark, then half a code unit
        b'{"fps": \xff}',
        b"[" * 100_000,  # deeper than the JSON decoder may recurse
        b'{"fps": ' + b"9" * 5000 + b"}",  # more digits than int() converts
    ],
    ids=["bad_utf8_string", "truncated_utf16", "bad_utf8_value", "deep_nesting", "long_integer"],
)
@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_unreadable_input_raises_only_the_format_error(tmp_path, parser, document):
    parse, error = PARSERS[parser]
    with pytest.raises(error) as caught:
        parse(document, tmp_path)
    assert type(caught.value) is error
    assert "\n" not in str(caught.value)


# the smallest document each parser accepts
MINIMAL = {
    "tracks": '{"fps": 30, "width": 360, "height": 180, "num_frames": 30, "objects": []}',
    "scenario": '{"duration_s": 1, "fps": 10, "width": 64, "height": 32}',
    "camera_path": '{"fps": 10, "frames": [{"yaw_deg": 0, "pitch_deg": 0, "hfov_deg": 75}]}',
    "config": "{}",
}


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32", "utf-32-be"])
@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_only_utf8_bytes_parse(tmp_path, parser, encoding):
    # the API reads bytes as the command line reads files: UTF-8 only
    parse, error = PARSERS[parser]
    parse(MINIMAL[parser].encode("utf-8"), tmp_path)
    with pytest.raises(error) as caught:
        parse(MINIMAL[parser].encode(encoding), tmp_path)
    assert type(caught.value) is error
