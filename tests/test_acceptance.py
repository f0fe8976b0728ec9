"""Acceptance battery: every quantitative gate at its stated tolerance.

Each test prints one PASS/FAIL line.  Suites run at their default trial
counts on the default group/space grid, once per session (the
``default_battery`` fixture, which the golden digest reads too); their
elapsed times are summed at the end against the whole-battery budget.
"""

import time

import vmfourier as vf

TOL_EXACT = 1e-10
TOL_BRACKET = 1e-8


def report(n, ok, msg):
    print(f"CRITERION {n:>2}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {n}: {msg}"


def test_criterion_1_dual_validation(default_battery):
    start = time.perf_counter()
    worst = 0.0
    for spec in vf.builtin_group_specs():
        g = vf.build_group(spec)
        dual = vf.unitary_dual(g)
        rep = vf.validate_dual(g, dual)
        worst = max(worst, rep.max_residual)
        assert rep.max_residual <= TOL_EXACT, (spec, rep.residuals())
        assert sum(p.dim**2 for p in dual.irreps) == g.order
    elapsed = time.perf_counter() - start
    ok = worst <= TOL_EXACT and elapsed < 1.0 and default_battery["dual-validation"].violations == 0
    report(1, ok, f"8 duals validated, max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_plancherel_inversion(default_battery):
    rep = default_battery["plancherel"]
    ok = rep.violations == 0 and rep.instances >= 1000 and rep.max_residual <= TOL_EXACT
    report(2, ok, f"{rep.instances} functions, max residual {rep.max_residual:.2e}")


def test_criterion_3_transform_norm_bounds(default_battery):
    rep = default_battery["ft-norm-bounds"]
    # 1000 instances per space family, three bound checks per instance
    ok = rep.violations == 0 and rep.instances >= 4 * 1000
    report(3, ok, f"{rep.instances} bound checks, {rep.violations} certified violations")


def test_criterion_4_cb_amplification(default_battery):
    rep = default_battery["cb-amplification"]
    ok = rep.violations == 0 and rep.instances >= 200
    report(4, ok, f"{rep.instances} matrix instances, {rep.violations} violations")


EXACT_IDENTITY_SUITES = (
    "pairing-compat",
    "density-transform",
    "scalarization",
    "ft-conv-6",
    "ft-conv-8",
    "pettis-product",
    "duality-6.6",
)


def test_criterion_5_exact_identities(default_battery):
    worst = 0.0
    ok = True
    for name in EXACT_IDENTITY_SUITES:
        rep = default_battery[name]
        worst = max(worst, rep.max_residual)
        ok = ok and rep.violations == 0 and rep.instances >= 200 and rep.max_residual <= TOL_EXACT
    report(5, ok, f"7 identity suites at 200 instances, max residual {worst:.2e}")


def test_criterion_6_uniqueness(default_battery):
    rep = default_battery["uniqueness"]
    ok = rep.violations == 0 and rep.max_residual == 0.0
    report(6, ok, f"{rep.instances} kernel computations, all dimensions zero")


YOUNG_SUITES = (
    "young-6.2",
    "young-6.4",
    "young-6.5",
    "young-6.10",
    "young-6.11",
    "young-9.1",
    "young-9.2",
    "young-9.3",
    "young-9.4",
)


def test_criterion_7_young_inequalities(default_battery):
    total = 0
    ok = True
    for name in YOUNG_SUITES:
        rep = default_battery[name]
        total += rep.instances
        ok = ok and rep.violations == 0 and rep.instances >= 1000
    report(7, ok, f"{total} inequality instances across 9 statements, zero violations")


def test_criterion_8_invariance(default_battery):
    rep = default_battery["invariance-5"]
    ok = rep.violations == 0 and rep.instances >= 500
    report(8, ok, f"{rep.instances} invariance checks, {rep.violations} violations")


def test_criterion_9_commutativity(default_battery):
    rep = default_battery["commutativity-8.5"]
    witnesses = rep.detail.count("witness")
    ok = rep.violations == 0 and witnesses >= 3
    report(9, ok, f"witnesses on {witnesses} non-abelian groups; abelian pairs commute")


def test_criterion_10_estimator_calibration(default_battery):
    rep = default_battery["calibration"]
    ok = rep.violations == 0 and rep.instances >= 100
    report(10, ok, f"{rep.instances} bracket calibrations against the phase grid")


def test_criterion_11_fault_injection():
    cfg = vf.RunConfig()
    cfg.groups = ["symmetric:3"]
    cfg.spaces = ["linf:2"]
    cfg.trials = 10
    hits = {
        "drop-dpi-conv6": vf.run_suite("ft-conv-6", cfg, fault="drop-dpi-conv6").violations,
        "drop-dpi-conv8": vf.run_suite("ft-conv-8", cfg, fault="drop-dpi-conv8").violations,
        "drop-inv-dpi-def41": vf.run_suite(
            "ft-conv-6", cfg, fault="drop-inv-dpi-def41"
        ).violations,
    }
    ok = all(v >= 1 for v in hits.values())
    report(11, ok, f"violations within 10 trials: {hits}")


def test_battery_runtime_budget(default_battery):
    # every suite of the registry, each timed by its own run
    assert list(default_battery) == vf.suite_names()
    total = sum(r.violations for r in default_battery.values())
    elapsed = sum(r.elapsed_s for r in default_battery.values())
    ok = total == 0 and elapsed <= 60.0
    report("B", ok, f"full battery: {total} violations, {elapsed:.1f}s (budget 60s)")
