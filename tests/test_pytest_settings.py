"""The repository's own pytest settings, applied to a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # with filterwarnings = ["error"] alone, the hypothesis plugin's report
    # hook turns a DeprecationWarning into INTERNALERROR and pytest exits 3
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    argv = ["-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_failing.py"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
