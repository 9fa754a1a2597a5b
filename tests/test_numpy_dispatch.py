"""Golden bytes under NumPy's baseline code paths.

Sample coordinates come from NumPy's ``arctan2`` and ``arcsin``.  On a
CPU with AVX-512, NumPy dispatches them to SIMD code that differs from
its baseline code by up to about 1e-12, so the rendered bytes rest on
which path NumPy takes.  This test runs the golden frame and camera-path
tests again in a child process with NumPy's AVX-512 targets disabled
through ``NPY_DISABLE_CPU_FEATURES``, set only in the child's
environment, so the committed goldens are checked under both paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import autocam360

TESTS = Path(__file__).parent
DISABLED = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# the child refuses to run the goldens if a disabled target is still on
_CHILD = """
import sys

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

still_on = [name for name in sys.argv[1].split(",") if __cpu_features__.get(name)]
if still_on:
    sys.exit(f"NPY_DISABLE_CPU_FEATURES left {still_on} enabled")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def test_goldens_hold_with_numpy_avx512_dispatch_disabled():
    if not any(_cpu_features().get(name) for name in DISABLED):
        warnings.warn(
            f"NumPy has none of {', '.join(DISABLED)} on this CPU, so disabling them has "
            "no effect: the goldens run on the same code paths as in the main run"
        )
    src = str(Path(autocam360.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=",".join(DISABLED),
        PYTHONPATH=src if not path else src + os.pathsep + path,
    )
    files = [str(TESTS / "test_golden_frames.py"), str(TESTS / "test_golden_paths.py")]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, ",".join(DISABLED), *files],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and " skipped" not in proc.stdout, proc.stdout[-2000:]
