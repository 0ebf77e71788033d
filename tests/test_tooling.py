"""The test suite's own set-up: a failing test must not hide the tests after it."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_leaves_the_later_tests_running(tmp_path):
    # hypothesis reports a failure through a helper whose import warns of a
    # deprecation; under the repository's ini (every warning an error) and its
    # conftest, pytest still reports both tests instead of an INTERNALERROR
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    args = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *args, str(probe)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout, proc.stdout
