import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import vmfourier

MODULES = [m.name for m in pkgutil.iter_modules(vmfourier.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"vmfourier.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_bench_traced_names_exist():
    # the benchmark's tracer wraps these names; deleting one breaks its traced runs
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (mod, attr) for _, mod, attr in spans.TRACED
        if not hasattr(importlib.import_module(f"vmfourier.{mod}"), attr)
    ]
    assert spans.TRACED and missing == []
