"""Command-line front end for the verification harness.

Subcommands: ``list`` the available suites, ``run`` a battery against a
config, ``fixtures`` to dump the built-in group and dual tables.  Exit codes:
0 all checks pass, 1 at least one certified violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .groups import builtin_group_specs, dump_dual_file, dump_group_file
from .harness import (
    FAULTS,
    RunConfig,
    emit_report,
    group_with_dual,
    load_config,
    run_suite,
    suite_names,
)
from .spaces import space_from_spec


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vmfourier",
        description="Run numerical verification suites for group-measure harmonic analysis.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available suites")

    run = sub.add_parser("run", help="run verification suites")
    run.add_argument("--config", type=Path, default=None, help="key-value config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--suite", action="append", default=None, metavar="NAME",
        help="run only this suite (repeatable)",
    )
    run.add_argument("--trials", type=int, default=None, help="override per-suite trial counts")
    run.add_argument("--format", choices=("json", "markdown"), default="json")
    run.add_argument("--out", type=Path, default=None, help="report output path")
    # test instrumentation: switch a deliberately wrong constant into a suite
    run.add_argument("--fault", default=None, choices=FAULTS, help=argparse.SUPPRESS)

    fx = sub.add_parser("fixtures", help="dump built-in group and dual tables")
    fx.add_argument("--out", type=Path, default=None, help="directory for table files")
    return ap


def _report_path(args) -> Path:
    """``--out``, else report.json / report.md in the working directory."""
    return args.out or Path(f"report.{'json' if args.format == 'json' else 'md'}")


def _cmd_list(args) -> int:
    for name in suite_names():
        print(name)
    return 0


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        # replace() reruns RunConfig's validation on the overridden fields
        overrides = {"seed": args.seed, "trials": args.trials, "suites": args.suite}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        for spec in cfg.groups:
            group_with_dual(spec)
        for spec in cfg.spaces:
            space_from_spec(spec)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    reports = []
    for name in cfg.suites:
        rep = run_suite(name, cfg, fault=args.fault)
        status = "FAIL" if rep.violations else "ok"
        print(
            f"{status:4s} {rep.suite:20s} instances={rep.instances:<6d} "
            f"violations={rep.violations:<3d} near_misses={rep.near_misses:<4d} "
            f"max_residual={rep.max_residual:.3g} ({rep.elapsed_s:.2f}s)"
        )
        reports.append(rep)

    out = _report_path(args)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        emit_report(reports, args.format, out, seed=cfg.seed)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    print(f"report written to {out}")
    return 1 if any(r.violations for r in reports) else 0


def _cmd_fixtures(args) -> int:
    for spec in builtin_group_specs():
        g, dual = group_with_dual(spec)
        gtext = dump_group_file(g)
        dtext = dump_dual_file(dual)
        if args.out is None:
            print(f"# group {g.label} ({spec})")
            print(gtext, end="")
            print(f"# dual {g.label}")
            print(dtext, end="")
        else:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"group_{g.label}.txt").write_text(gtext)
            (args.out / f"dual_{g.label}.txt").write_text(dtext)
    if args.out is not None:
        print(f"tables written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return {"list": _cmd_list, "run": _cmd_run, "fixtures": _cmd_fixtures}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
