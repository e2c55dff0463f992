import os
from pathlib import Path

import pytest

import flatlab


@pytest.fixture
def cli_env():
    """Environment in which a child interpreter imports this same flatlab."""
    src = str(Path(flatlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
