"""The repo's pytest options keep a failing hypothesis test reportable."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_after():
    pass
"""


def test_a_failing_given_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # hypothesis imports libcst to report a failure, and libcst's import
    # warns of a deprecation, which the options must not make an error
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_failing.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-rA", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "PASSED tests/test_failing.py::test_after" in out
    assert proc.returncode == 1
