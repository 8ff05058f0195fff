"""The repo's pytest settings turn every warning into an error.  A failing
property test must still be reported as one failure, and the run must go
on to the tests after it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns; under `error` that warning ended the run with INTERNALERROR
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         os.path.join(ROOT, "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
