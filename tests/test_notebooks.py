"""Each notebook script runs to completion and prints its findings.

The notebooks use only the public API, so a renamed or removed name
breaks them; running them here catches that.
"""

import runpy
from pathlib import Path

import pytest

NOTEBOOKS = sorted((Path(__file__).resolve().parent.parent / "notebooks")
                   .glob("*.py"))


def test_notebooks_found():
    assert NOTEBOOKS


@pytest.mark.parametrize("path", NOTEBOOKS, ids=lambda p: p.stem)
def test_notebook_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
