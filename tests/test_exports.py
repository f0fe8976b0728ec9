import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import vmfourier

MODULES = [m.name for m in pkgutil.iter_modules(vmfourier.__path__)]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"vmfourier.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def _names_used_in_src() -> set[str]:
    # names read or called in the package's code: Name and Attribute nodes,
    # so def/class lines, import lists and __all__ strings do not count
    used = set()
    for path in Path(vmfourier.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    # each exported name is used by the package, documented in the README,
    # or named by the benchmark; anything else is API that nothing reaches
    used = _names_used_in_src()
    text = (ROOT / "README.md").read_text()
    text += "".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    unused = [
        (name, export)
        for name in MODULES
        for export in getattr(importlib.import_module(f"vmfourier.{name}"), "__all__", [])
        if export not in used and not re.search(rf"\b{re.escape(export)}\b", text)
    ]
    assert unused == []


def test_bench_traced_names_exist():
    # the benchmark's tracer wraps these names; deleting one breaks its traced runs
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (mod, attr) for _, mod, attr in spans.TRACED
        if not hasattr(importlib.import_module(f"vmfourier.{mod}"), attr)
    ]
    assert spans.TRACED and missing == []


# each norm's request builder -> the public function that resolves it
BUILDERS = {
    "_lp_nu": "lp_nu_norm",
    "_pp": "Pp_norm",
    "_n_norm": "N_norm",
    "_semi": "semivariation",
    "_p_semi": "p_semivariation",
    "_sup": "ft_sup_norm",
}


def test_norm_requests_built_beside_their_norms():
    # the harness uses the builders and resolves through spaces._resolve
    # only; it builds no request and runs no estimator row step itself
    harness = importlib.import_module("vmfourier.harness")
    for builder, public in BUILDERS.items():
        assert getattr(harness, builder).__module__ == getattr(vmfourier, public).__module__
    steps = {"_estimates", "_sup_rows", "_amplified_rows"}
    assert steps.isdisjoint(vars(harness))


def test_lp_requests_built_by_one_builder(monkeypatch):
    # Pp_norm, p_semivariation and lp_dual_sup state their L^p sups through
    # spaces._lp, the one request builder of the weighted L^q sup at q = p
    built, lp = [], vmfourier.spaces._lp

    def recorded(space, vecs, p):
        built.append(p)
        return lp(space, vecs, p)

    for name in ("spaces", "lpspaces", "measures"):
        monkeypatch.setattr(importlib.import_module(f"vmfourier.{name}"), "_lp", recorded)
    g, space = vmfourier.build_group("cyclic:3"), vmfourier.LinfSpace(2)
    values = np.arange(6.0).reshape(3, 2)
    vmfourier.Pp_norm(vmfourier.VectorFunction(g, space, values), 2.0)
    vmfourier.p_semivariation(vmfourier.VectorMeasure(g, space, values), 3.0)
    vmfourier.lp_dual_sup(space, values, 4.0)
    assert built == [2.0, 3.0, 4.0]


def _harness_tree():
    return ast.parse(Path(vmfourier.harness.__file__).read_text())


def test_harness_names_no_concrete_space_in_isinstance():
    # what a space knows of its dual ball lives in its class (``grid_dual``,
    # ``closed_sup``, ...), so the harness switches on no space class
    concrete, todo = set(), [vmfourier.spaces.CoefficientSpace]
    while todo:
        subs = todo.pop().__subclasses__()
        concrete |= {c.__name__ for c in subs}
        todo += subs
    named = {
        n.id
        for node in ast.walk(_harness_tree())
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        for n in ast.walk(node.args[1])
        if isinstance(n, ast.Name)
    }
    assert concrete and named & concrete == set()


def test_run_config_fields_are_read_by_the_harness():
    # a RunConfig field is a harness setting, read as cfg.<field> (or
    # ctx.cfg.<field>) outside the class body; a field that only the CLI
    # reads belongs to the CLI.  suites is the one exception: it lists what
    # a caller runs, and the callers (the CLI and the benchmark's worker)
    # loop over it
    outside = [
        node for node in _harness_tree().body
        if not (isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    ]
    read = {
        node.attr
        for top in outside
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and (
            getattr(node.value, "id", None) == "cfg" or getattr(node.value, "attr", None) == "cfg"
        )
    }
    fields = {f.name for f in dataclasses.fields(vmfourier.RunConfig)}
    assert fields - read == {"suites"}
