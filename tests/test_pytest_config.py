"""The test settings in pyproject.toml let a falsified hypothesis test fail on its own."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_falsified_hypothesis_test_fails_alone(tmp_path):
    # hypothesis reports a failing example through libcst, whose import of
    # mypy_extensions.TypedDict warns; made an error by filterwarnings, that
    # warning stopped the pytest run, and the tests after the failing one never ran
    (tmp_path / "test_drawn.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(n):
            assert n < 10

        def test_after_it():
            pass
        """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         "test_drawn.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in done.stdout, output
    assert "INTERNALERROR" not in output
