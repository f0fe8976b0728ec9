"""Record each workload's per-suite instance counts in ``reference.json``.

    PYTHONPATH=src python3 bench/make_reference.py

Counts depend on the workload config only, not on the seed; the script runs
every workload at two seeds and refuses to write counts that differ.  A suite
that raises is recorded at its scheduled trial count, which ``run.py`` then
counts as failed instances for as long as the suite keeps raising.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from worker import load_workload, verdict, workload_names

SEEDS = (0, 1)


def counts(name: str, seed: int) -> dict[str, int]:
    cfg = load_workload(name, seed)
    v = verdict(cfg, Path(".bench_build") / f"reference-{name}.json")
    out = {s["suite"]: s["instances"] for s in v["suites"]}
    for suite, err in v["errors"].items():
        if cfg.trials is None:
            raise SystemExit(f"{name}: {suite} raised ({err}) and the config sets no trial count")
        print(f"{name}: {suite} raised {err}; recorded at {cfg.trials} scheduled trials")
        out[suite] = cfg.trials
    return {suite: out[suite] for suite in cfg.suites}


def main() -> int:
    Path(".bench_build").mkdir(exist_ok=True)
    reference = {}
    for name in workload_names():
        runs = [counts(name, seed) for seed in SEEDS]
        if any(r != runs[0] for r in runs[1:]):
            raise SystemExit(f"{name}: instance counts depend on the seed: {runs}")
        reference[name] = runs[0]
        print(f"{name}: {sum(runs[0].values())} scheduled instances")
    Path(__file__).with_name("reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
