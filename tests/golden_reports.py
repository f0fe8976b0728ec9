"""Golden report digests: per-suite instances, violations, near misses,
notes and ``max_residual`` of a fixed set of battery runs.

``golden_reports.json`` holds the digests, so a change to any report shows
as a diff of that file; ``tests/test_golden.py`` runs the battery again and
compares.  Rewrite the file after a deliberate report change with

    PYTHONPATH=src python tests/golden_reports.py
"""

import json
import re
from pathlib import Path

import vmfourier as vf
from vmfourier.harness import FAULTS

GOLDEN = Path(__file__).with_name("golden_reports.json")

# the exact-path benchmark workload: 22 suites on spaces with closed-form sups
EXACT_PATH = dict(
    groups=["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:2x2", "dihedral:4", "symmetric:3",
            "symmetric:4", "quaternion8"],
    spaces=["scalar", "linf:2", "linf:4"],
    suites=[s for s in vf.suite_names()
            if s not in ("ft-norm-bounds", "cb-amplification", "calibration")],
)


def runs():
    """Run name -> (config, fault) of every run the golden file covers."""
    out = {"default-seed0": (vf.RunConfig(), None),
           "exact-path-seed0": (vf.RunConfig(**EXACT_PATH), None)}
    for fault in FAULTS:
        out[f"fault-{fault}"] = (vf.RunConfig(trials=40), fault)
    return out


def digest(cfg, fault, reports=None):
    """Suite -> its report's counts, notes (the report's ``detail``, its first
    four) and max_residual (None if NaN), from ``reports`` (suite -> report)
    if given, else from a run.  The rounding-level deviations in
    commutativity-8.5's notes are masked."""
    out = {}
    for name in cfg.suites:
        doc = (reports[name] if reports else vf.run_suite(name, cfg, fault=fault)).to_dict()
        out[name] = {
            "instances": doc["instances"],
            "violations": doc["violations"],
            "near_misses": doc["near_misses"],
            "max_residual": doc["max_residual"],
            "notes": re.sub(r"max deviation \S+", "max deviation *", doc["detail"]),
        }
    return out


if __name__ == "__main__":
    golden = {run: digest(*args) for run, args in runs().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
