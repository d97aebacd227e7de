"""Smoke tests for the example scripts.

Examples are user-facing deliverables; a refactor that breaks one breaks
the README's promises. Every example runs end to end here (each takes
well under a second); the library tests underneath them do not notice an
example that calls a removed name.
"""

import functools
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = [
    "quickstart.py",
    "warehouse_wakeup.py",
    "link_class_dynamics.py",
    "lower_bound_game.py",
    "unknown_network_conditions.py",
    "jammed_band.py",
    "paper_tour.py",
]


@functools.lru_cache(maxsize=None)
def _run_example(name: str, timeout: float = 120.0):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExampleScripts:
    def test_all_examples_exist(self):
        present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert set(EXAMPLES) <= present

    def test_quickstart_runs_and_solves(self):
        result = _run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "solved in" in result.stdout
        assert "solo transmission" in result.stdout

    def test_link_class_dynamics_runs(self):
        result = _run_example("link_class_dynamics.py")
        assert result.returncode == 0, result.stderr
        assert "schedule step achieved" in result.stdout
        assert "solved in" in result.stdout

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_examples_have_docstrings_and_main(self, name):
        source = (EXAMPLES_DIR / name).read_text(encoding="utf-8")
        assert source.lstrip().startswith('"""'), f"{name} lacks a docstring"
        assert 'if __name__ == "__main__":' in source
        result = _run_example(name)
        assert result.returncode == 0, result.stderr
