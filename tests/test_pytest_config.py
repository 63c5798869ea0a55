"""The suite's own pytest settings: a failing property test is reported like
any other failure, and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """With warnings as errors, hypothesis's failure report once raised a
    DeprecationWarning inside pytest: INTERNALERROR, no shrunk example and
    no later test run."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "test_probe.py"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output
