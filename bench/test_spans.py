"""Tests of the benchmark's tracer and failure accounting.

    python3 -m pytest -q bench
"""

import sys

import pytest

import vmfourier
from vmfourier import RunConfig, harness, spaces

from run import account, is_count
from spans import NORMING, Tracer, layer_metrics, tracing
from worker import verdict


def small_config(**overrides):
    base = dict(
        groups=["cyclic:2", "symmetric:3"],
        spaces=["linf:2", "matop:2", "weighted_l1:2"],
        suites=["ft-norm-bounds", "cb-amplification", "young-9.1", "young-6.4"],
        trials=3,
        seed=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def package_bindings():
    """Every attribute of every loaded vmfourier module, and the norming methods."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "vmfourier" or name.startswith("vmfourier.")):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for clsname, _ in NORMING:
        out[(clsname, "norming_dual_many")] = getattr(spaces, clsname).__dict__["norming_dual_many"]
    return out


def traced_verdict(cfg, tmp_path):
    tracer = Tracer()
    with tracing(tracer):
        v = verdict(cfg, tmp_path / "report.json")
    return v, layer_metrics(tracer)


class TestSelfTime:
    def test_nested_calls(self):
        # outer [0, 12] holds inner [1, 5] (holding leaf [2, 4]) and inner [7, 10]
        ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 10.0, 12.0])
        tracer = Tracer(clock=lambda: next(ticks))
        leaf = tracer.wrap("leaf", lambda: None)

        def inner_body(call_leaf):
            if call_leaf:
                leaf()

        inner = tracer.wrap("inner", inner_body)
        outer = tracer.wrap("outer", lambda: (inner(True), inner(False)))
        outer()
        stats = tracer.layer_stats()
        assert stats["outer"]["calls"] == 1
        assert stats["outer"]["total_s"] == pytest.approx(12.0)
        assert stats["outer"]["self_s"] == pytest.approx(5.0)
        assert stats["inner"]["calls"] == 2
        assert stats["inner"]["total_s"] == pytest.approx(7.0)
        assert stats["inner"]["self_s"] == pytest.approx(5.0)
        assert stats["leaf"]["self_s"] == pytest.approx(2.0)
        assert sum(s["self_s"] for s in stats.values()) == pytest.approx(12.0)
        _, parents, *_ = tracer.arrays()
        assert list(parents) == [-1, 0, 1, 0]

    def test_span_closed_when_call_raises(self):
        ticks = iter([0.0, 1.0, 3.0, 6.0])
        tracer = Tracer(clock=lambda: next(ticks))

        def boom():
            raise ValueError("boom")

        inner = tracer.wrap("inner", boom)

        def outer_body():
            with pytest.raises(ValueError):
                inner()

        tracer.wrap("outer", outer_body)()
        stats = tracer.layer_stats()
        assert stats["inner"]["self_s"] == pytest.approx(2.0)
        assert stats["outer"]["self_s"] == pytest.approx(4.0)


class TestInstall:
    def test_every_binding_restored(self, tmp_path):
        before = package_bindings()
        original_ft_vector = harness.ft_vector
        with tracing(Tracer()):
            assert harness.ft_vector is not original_ft_vector
            assert vmfourier.fourier.ft_vector is not original_ft_vector
            verdict(small_config(trials=1), tmp_path / "report.json")
        after = package_bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_restored_when_body_raises(self):
        before = package_bindings()
        with pytest.raises(RuntimeError):
            with tracing(Tracer()):
                raise RuntimeError
        after = package_bindings()
        assert all(after[k] is before[k] for k in before)

    def test_traced_results_equal_untraced(self, tmp_path):
        cfg = small_config()
        plain = verdict(cfg, tmp_path / "report.json")
        traced, _ = traced_verdict(cfg, tmp_path)
        strip = [{k: v for k, v in s.items() if k != "elapsed_s"} for s in plain["suites"]]
        assert strip == [{k: v for k, v in s.items() if k != "elapsed_s"} for s in traced["suites"]]


class TestCounts:
    def test_counts_repeat_for_one_seed(self, tmp_path):
        cfg = small_config()
        _, first = traced_verdict(cfg, tmp_path)
        _, second = traced_verdict(cfg, tmp_path)
        counts = {k: v for k, v in first.items() if is_count(k)}
        assert counts == {k: v for k, v in second.items() if is_count(k)}
        for family in ("linf", "matop", "weighted_l1"):
            assert counts[f"spaces.ascent_steps.{family}"] > 0
            assert counts[f"spaces.ascent_rows.{family}"] > counts[f"spaces.ascent_steps.{family}"]
        assert counts["groups.build.calls"] == 2 * len(cfg.suites) * len(cfg.groups)

    def test_no_ascent_on_closed_form_spaces(self, tmp_path):
        _, m = traced_verdict(small_config(spaces=["scalar", "linf:2"], suites=["young-9.1"]), tmp_path)
        assert m["spaces.dual_ball_sup.calls"] > 0
        assert m["spaces.exact_frac"] == 1.0
        assert all(m[f"spaces.ascent_steps.{f}"] == 0 for f in ("linf", "matop", "weighted_l1"))


class TestFailureAccounting:
    def test_raising_suite_recorded_and_battery_goes_on(self, tmp_path, monkeypatch):
        real = harness.run_suite

        def run_suite(name, cfg, **kw):
            if name == "young-9.1":
                raise ValueError("unsupported")
            return real(name, cfg, **kw)

        monkeypatch.setattr(harness, "run_suite", run_suite)
        v = verdict(small_config(suites=["young-9.1", "young-6.4"]), tmp_path / "report.json")
        assert v["errors"] == {"young-9.1": "ValueError: unsupported"}
        assert [s["suite"] for s in v["suites"]] == ["young-6.4"]
        assert v["report_ok"]
        assert account(v, {"young-9.1": 3, "young-6.4": 3}) == (6, 3)

    def test_violations_and_shortfall_fail(self):
        v = {
            "suites": [
                {"suite": "a", "instances": 10, "violations": 2},
                {"suite": "b", "instances": 7, "violations": 0},
                {"suite": "c", "instances": 12, "violations": 0},
            ],
            "errors": {},
        }
        assert account(v, {"a": 10, "b": 9, "c": 10}) == (29, 4)
