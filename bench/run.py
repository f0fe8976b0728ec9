"""vmfourier battery benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's verdicts run in one child
process (``worker.py``) with BLAS threads pinned to 1 and the checkout's
``src`` on ``PYTHONPATH``; ``setup_s`` is timed over several fresh
interpreters.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced verdict.
Metric names and units come from ``BENCHMARK.json``.  Only the standard
library is used here; the child needs numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SETUP_STARTS = 9  # fresh interpreters timed per run; setup_s is their median
RUN_BUDGET_S = 170.0  # a run must end within 180 s
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TIMING_FIELDS = ("elapsed_s",)


def is_count(metric: str) -> bool:
    """Per-layer metrics that must repeat exactly for one seed."""
    return metric.endswith(".calls") or metric.startswith("spaces.ascent_")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> str:
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def time_setup(workload: str, env: dict[str, str], deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        run_child(["setup", workload], env, deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
    return times


# -- output checks and failure accounting ------------------------------------


def non_timing(verdict: dict) -> list:
    suites = [{k: v for k, v in s.items() if k not in TIMING_FIELDS} for s in verdict["suites"]]
    return [suites, verdict["errors"]]


def account(verdict: dict, reference: dict[str, int]) -> tuple[int, int]:
    """(scheduled, failed) instances of one verdict.  Failed instances are
    certified violations, the scheduled count of every suite that raised, and
    any shortfall against the reference instance count."""
    done = {s["suite"]: s for s in verdict["suites"]}
    failed = 0
    for name, expected in reference.items():
        if name in verdict["errors"]:
            failed += expected
        else:
            s = done[name]
            failed += s["violations"] + max(0, expected - s["instances"])
    return sum(reference.values()), failed


def check(raw: dict, reference: dict[str, int], root: Path) -> list[str]:
    """Problems with the program's outputs; empty when they are correct."""
    problems = []
    verdicts = raw["verdicts"] + raw["traced"]
    if not Path(raw["vmfourier_file"]).resolve().is_relative_to((root / "src").resolve()):
        problems.append(f"vmfourier imported from {raw['vmfourier_file']}, not the checkout")
    for v in verdicts:
        ran = [s["suite"] for s in v["suites"]] + list(v["errors"])
        if sorted(ran) != sorted(reference):
            problems.append(f"suites run {ran} differ from the workload's {list(reference)}")
        if not v["report_ok"]:
            problems.append("emit_report output disagrees with the suite reports")
        bad = [s["suite"] for s in v["suites"] if s["violations"]]
        if bad:
            problems.append(f"certified violations in {bad}")
    first = non_timing(verdicts[0])
    if any(non_timing(v) != first for v in verdicts[1:]):
        problems.append("non-timing report fields differ between verdicts of one seed")
    layers = raw["layers"]
    if layers:
        counts = [{k: v for k, v in m.items() if is_count(k)} for m in layers]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced call or ascent counts differ between verdicts of one seed")
    return problems


# -- metrics -----------------------------------------------------------------


def end_to_end(raw: dict, setup_times: list[float], reference: dict[str, int]) -> dict[str, float]:
    plain = raw["verdicts"]
    first = plain[0]
    wall = statistics.median(v["wall_s"] for v in plain)
    instances = sum(s["instances"] for s in first["suites"])
    near = sum(s["near_misses"] for s in first["suites"])
    scheduled, failed = account(first, reference)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "instances_per_s": instances / wall,
        "cpu_s": statistics.median(v["cpu_s"] for v in plain),
        "peak_rss_mb": raw["peak_rss_mb"],
        "decided_frac": 1.0 - near / instances,
        "ok_frac": 1.0 - failed / scheduled,
    }


def per_layer(raw: dict, suite_names: list[str]) -> dict[str, float]:
    layers = raw["layers"]
    out = {
        k: layers[0][k] if is_count(k) else statistics.median(m[k] for m in layers)
        for k in layers[0]
    }
    for name in suite_names:
        times = [s["elapsed_s"] for v in raw["verdicts"] for s in v["suites"] if s["suite"] == name]
        out[f"harness.suite_s.{name}"] = statistics.median(times) if times else 0.0
    out["trace.overhead_s"] = (
        statistics.median(v["wall_s"] for v in raw["traced"])
        - statistics.median(v["wall_s"] for v in raw["verdicts"])
    )
    return out


# -- provenance --------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    root = Path.cwd()
    try:
        if not (root / "src" / "vmfourier" / "__init__.py").is_file():
            raise BenchError(f"no vmfourier sources under {root / 'src'}; run from a checkout root")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        references = json.loads((BENCH_DIR / "reference.json").read_text())
        if args.workload not in references:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(references)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        reference = references[args.workload]
        env = child_env(root)
        setup_times = [] if args.trace else time_setup(args.workload, env, deadline)
        out_dir = root / ".bench_build"
        raw = json.loads(run_child(
            ["run", args.workload, str(args.seed), str(args.seconds), str(args.trace), str(out_dir)],
            env, deadline - time.monotonic(),
        ).strip().splitlines()[-1])
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    problems = check(raw, reference, root)
    scheduled, failed = map(sum, zip(*(account(v, reference) for v in raw["verdicts"] + raw["traced"])))
    if args.trace:
        all_suites = dict.fromkeys(s for ref in references.values() for s in ref)
        metrics = per_layer(raw, list(all_suites))
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(raw, setup_times, reference)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"benchmark error: metrics {sorted(set(names) ^ set(metrics))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "verdicts": len(raw["verdicts"]),
        "traced_verdicts": len(raw["traced"]),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "blas": raw["blas"],
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(root),
        "src_digest": src_digest(root),
        "run_s": round(time.monotonic() - started, 3),
    }
    print("# " + json.dumps(stamp))
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    for name, err in raw["verdicts"][0]["errors"].items():
        print(f"# suite {name} raised {err}")
    for m in wanted:
        print(f"{m['name']:<48s} {metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": scheduled,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "problems": problems, "setup_times": setup_times,
                    "verdict_walls": [v["wall_s"] for v in raw["verdicts"]],
                    "traced_walls": [v["wall_s"] for v in raw["traced"]],
                    **result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
