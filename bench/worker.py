"""One benchmark process: runs a workload's verdicts and prints raw results.

Started by ``run.py`` with BLAS threads pinned in its environment and the
checkout's ``src`` on ``PYTHONPATH``.  Two modes:

``worker.py setup WORKLOAD``
    import vmfourier, load the workload config and build its groups, duals
    and spaces, then exit.  ``run.py`` times this from outside as ``setup_s``.

``worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR``
    repeat the workload's verdict (every suite once, then ``emit_report``)
    while another repetition still fits in SECONDS, at least once.  With
    TRACE=1 each repetition is an untraced verdict followed by a traced one.
    Prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from vmfourier import harness
from vmfourier.groups import build_group, unitary_dual
from vmfourier.spaces import space_from_spec

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_DIR = BENCH_DIR / "workloads"


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.cfg"))


def load_workload(name: str, seed: int) -> harness.RunConfig:
    """The workload's config file, read with ``load_config`` and re-seeded the
    way ``vmfourier run --seed`` does."""
    cfg = harness.load_config(WORKLOAD_DIR / f"{name}.cfg")
    cfg.seed = seed
    return cfg


def build_inputs(cfg: harness.RunConfig):
    groups = [(g, unitary_dual(g)) for g in map(build_group, cfg.groups)]
    spaces = [space_from_spec(s) for s in cfg.spaces]
    return groups, spaces


def verdict(cfg: harness.RunConfig, report_path: Path) -> dict:
    """Every suite of the workload once, then the report, as ``vmfourier run``
    does; a suite that raises is recorded and the battery goes on."""
    reports, errors = [], {}
    t0, c0 = time.perf_counter(), time.process_time()
    for name in cfg.suites:
        try:
            reports.append(harness.run_suite(name, cfg))
        except Exception as exc:  # counted as failed instances by run.py
            errors[name] = f"{type(exc).__name__}: {exc}"
    text = harness.emit_report(reports, "json", report_path, seed=cfg.seed)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    doc = json.loads(text)
    report_ok = (
        doc["seed"] == cfg.seed
        and doc["violations"] == sum(r.violations for r in reports)
        and doc["suites"] == [r.to_dict() for r in reports]
    )
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "suites": [r.to_dict() for r in reports],
        "errors": errors,
        "report_ok": report_ok,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    cfg = load_workload(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"report-{workload}-seed{seed}.json"
    if trace:
        from spans import Tracer, layer_metrics, tracing
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        plain.append(verdict(cfg, report_path))
        if trace:
            tracer = Tracer()
            with tracing(tracer):
                traced.append(verdict(cfg, report_path))
            layers.append(layer_metrics(tracer))
            if len(layers) == 1:
                tracer.save(out_dir / f"trace-{workload}-seed{seed}.npz")
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:  # the next one would overrun
            break
    return {
        "verdicts": plain,
        "traced": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vmfourier_file": harness.__file__,
        "numpy": np.__version__,
        "blas": _blas_version(),
    }


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        build_inputs(load_workload(workload, 0))
        return 0
    seed, seconds, trace, out_dir = int(argv[2]), float(argv[3]), argv[4] == "1", Path(argv[5])
    print(json.dumps(run(workload, seed, seconds, trace, out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
