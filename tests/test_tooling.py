"""The settings the test run itself is made under."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A failing property test, then a passing test.
FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_run_reporting(tmp_path):
    # While it reports a failing @given test, hypothesis may warn of a
    # deprecation in a module it imports.  Under the run's "error" filter,
    # that warning must not end the session with an internal error (exit 3),
    # which would report no later test.
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    argv = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "-q", "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
