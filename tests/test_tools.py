"""The repository tools under ``tools/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
OPDIGEST = ROOT / "tools" / "opdigest.py"
LOC = ROOT / "tools" / "loc.py"


def load_tool(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def opdigest():
    return load_tool(OPDIGEST)


class TestOpDigest:
    def test_equal_outputs_share_a_digest(self, opdigest):
        a = {"hit": np.array([True, False]), "point": 0.25, "n": 4}
        b = {"hit": np.array([True, False]), "point": 0.25, "n": 4}
        assert opdigest.digest(a) == opdigest.digest(b)

    @pytest.mark.parametrize("a, b", [
        (0.0, -0.0),  # floats by their hex form
        (1.0, 1),  # type names count
        (np.array([1.0, 2.0]), np.array([1.0, 2.0], dtype=np.float32)),  # dtype
        (np.zeros((2, 3)), np.zeros((3, 2))),  # shape
        (np.array([np.nan]), np.array([-np.nan])),  # bytes, so NaN signs
        ((1, 2), [1, 2]),
    ])
    def test_different_outputs_differ(self, opdigest, a, b):
        assert opdigest.digest(a) != opdigest.digest(b)

    def test_prints_one_line_per_op(self):
        run = subprocess.run(
            [sys.executable, str(OPDIGEST), "--workload", "mc_events", "--seeds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        lines = run.stdout.splitlines()
        assert lines and all(len(line.split()) == 3 for line in lines)
        assert {line.split()[0] for line in lines} == {"1"}
        assert len({line.split()[1] for line in lines}) == len(lines)


LOC_FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


# a comment line
class A:
    """Class docstring."""

    x = 1

    def f(self, a,
          b):
        """Function docstring."""
        s = """a string
that is not a docstring"""
        return math.pi + (a +
                          b)
'''


class TestLoc:
    def test_counts_code_lines_only(self):
        # import, class, x, the def over two lines, s over two lines and
        # the return over two lines: no docstring, comment or blank line
        assert load_tool(LOC).code_lines(LOC_FIXTURE) == 9

    def test_prints_each_file_and_the_total(self, tmp_path):
        (tmp_path / "a.py").write_text(LOC_FIXTURE)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# comment\n")
        run = subprocess.run([sys.executable, str(LOC), str(tmp_path)],
                             capture_output=True, text=True, timeout=60, check=True)
        assert run.stdout.splitlines() == ["9 a.py", "1 sub/b.py", "10 total"]
