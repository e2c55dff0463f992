"""The benchmark's tracer names flatlab functions; each name must resolve.

``bench/tracer.py`` wraps the functions in its ``TARGETS`` by module and
name, so a rename or removal under ``src/`` would break traced benchmark
runs. The file is loaded as it is, without importing anything else from
``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("flatlab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
