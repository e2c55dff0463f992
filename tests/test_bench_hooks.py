"""The benchmark names flatlab functions and modules; each must resolve.

``bench/tracer.py`` wraps the functions in its ``TARGETS`` by module and
name, and ``bench/run.py`` times the imports in its ``IMPORT_MODULES``
from ``python -X importtime -c "import flatlab"``, so a rename, a removal
or a dropped import under ``src/`` would break traced benchmark runs.
Each file is loaded as it is, without importing anything else from
``bench/``.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"flatlab_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_tracer_targets_resolve_in_flatlab():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, func, _ in tracer.TARGETS:
        assert module_name.startswith("flatlab.")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func, None)), f"{module_name}.{func}"


def test_tracer_installs_and_restores():
    import flatlab  # noqa: F401  (the tracer wraps loaded flatlab modules)
    import flatlab.verify

    tracer = _load_tracer()
    originals = {(m, f): getattr(importlib.import_module(m), f)
                 for m, f, _ in tracer.TARGETS}
    checks = dict(flatlab.verify.CHECKS)
    t = tracer.Tracer()
    t.install()
    try:
        for (module_name, func), original in originals.items():
            assert getattr(importlib.import_module(module_name), func) is not original
    finally:
        t.uninstall()
    for (module_name, func), original in originals.items():
        assert getattr(importlib.import_module(module_name), func) is original
    assert flatlab.verify.CHECKS == checks


def test_import_flatlab_loads_every_timed_module(cli_env):
    modules = _load("run").IMPORT_MODULES
    assert "flatlab" in modules
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import flatlab"],
        env=cli_env, capture_output=True, text=True, timeout=120, check=True)
    imported = {parts[2].strip() for parts in
                (line.split("|") for line in proc.stderr.splitlines())
                if len(parts) == 3}
    missing = sorted(set(modules) - imported)
    assert not missing, f"import flatlab no longer imports {missing}"
