"""Outside-in span tracer for the vmfourier layers.

The tracer wraps the public functions of each package module from the
benchmark's side: every name a ``vmfourier`` module bound to a traced function
(``harness`` does ``from .fourier import ft_vector``, so the wrapper has to
replace ``vmfourier.harness.ft_vector`` as well as ``vmfourier.fourier.ft_vector``)
is rebound to a wrapper for the duration of a ``tracing`` block and restored
afterwards.  The coefficient-space classes' ``norming_dual_many`` methods are
wrapped with counters, one call per ascent iteration.

Spans are kept in memory as parallel arrays (name id, parent index, start,
end).  A span's self time is its duration minus the durations of its direct
children; untraced helpers count towards the nearest traced caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute); several functions may share one span name
TRACED = (
    ("groups.build", "groups", "build_group"),
    ("groups.build", "groups", "unitary_dual"),
    ("spaces.dual_ball_sup", "spaces", "dual_ball_sup"),
    ("spaces.lp_dual_sup", "spaces", "lp_dual_sup"),
    ("spaces.amplified_norm", "spaces", "amplified_norm"),
    ("measures.semivariation", "measures", "semivariation"),
    ("measures.p_semivariation", "measures", "p_semivariation"),
    ("measures.check_semivariation_invariance", "measures", "check_semivariation_invariance"),
    ("lpspaces.lp_nu_norm", "lpspaces", "lp_nu_norm"),
    ("lpspaces.Pp_norm", "lpspaces", "Pp_norm"),
    ("lpspaces.N_norm", "lpspaces", "N_norm"),
    ("fourier.transform", "fourier", "ft_classical"),
    ("fourier.transform", "fourier", "ft_inverse"),
    ("fourier.transform", "fourier", "ft_vector"),
    ("fourier.transform", "fourier", "ft_measure"),
    ("fourier.transform", "fourier", "ft_weak"),
    ("fourier.transform", "fourier", "plancherel_check"),
    ("fourier.ft_sup_norm", "fourier", "ft_sup_norm"),
    ("fourier.uniqueness_rank", "fourier", "uniqueness_rank"),
    ("convolve", "convolve", "conv_classical"),
    ("convolve", "convolve", "conv_weak"),
    ("convolve", "convolve", "conv_vector"),
    ("convolve", "convolve", "conv_measure_sv"),
    ("convolve", "convolve", "conv_measure_vs"),
    ("convolve", "convolve", "conv_function_measure"),
    ("harness.fixture", "harness", "generate_fixture"),
    ("harness.loop", "harness", "run_suite"),
    ("cli.emit_report", "harness", "emit_report"),
)

# the three dual-ball estimators whose results feed exact_frac and bracket widths
ESTIMATORS = ("spaces.dual_ball_sup", "spaces.lp_dual_sup", "spaces.amplified_norm")

# coefficient-space class -> family label of its ascent counters
NORMING = (
    ("ScalarSpace", "scalar"),
    ("LinfSpace", "linf"),
    ("MatOpSpace", "matop"),
    ("WeightedL1Space", "weighted_l1"),
)
FAMILIES = ("linf", "matop", "weighted_l1")


class Tracer:
    """Span and counter store for one traced verdict.  ``clock`` lets a test
    substitute a scripted time source."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.exact = array("b")
        self.rel_width = array("d")  # (upper - lower) / upper of non-exact results
        self.ascent_steps = {label: 0 for _, label in NORMING}
        self.ascent_rows = {label: 0 for _, label in NORMING}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result`` sees each return value."""
        code = self._name_id(name)
        ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def record_estimate(self, est) -> None:
        self.exact.append(1 if est.exact else 0)
        if not est.exact and est.upper > 0:
            self.rel_width.append((est.upper - est.lower) / est.upper)

    def count_norming(self, family: str, method):
        steps, rows = self.ascent_steps, self.ascent_rows

        @functools.wraps(method)
        def counted(space, ys):
            steps[family] += 1
            rows[family] += len(ys)
            return method(space, ys)

        return counted

    # -- aggregation ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end, self time."""
        ids = np.array(self.name_ids, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int64)
        starts = np.array(self.starts, dtype=float)
        ends = np.array(self.ends, dtype=float)
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return ids, parents, starts, ends, dur - child

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds and
        the per-call inclusive durations."""
        ids, _, starts, ends, self_s = self.arrays()
        dur = ends - starts
        out = {}
        for code, name in enumerate(self.names):
            sel = ids == code
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "durations": dur[sel],
            }
        return out

    def save(self, path) -> None:
        ids, parents, starts, ends, self_s = self.arrays()
        np.savez(
            path, names=np.asarray(self.names), name_ids=ids, parents=parents,
            starts=starts, ends=ends, self_s=self_s,
        )


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "vmfourier" or name.startswith("vmfourier."))
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every traced name in every loaded vmfourier module; return the
    (namespace, attribute, original) triples that ``restore`` puts back."""
    import vmfourier  # noqa: F401  (loads every package module)

    modules = _package_modules()
    by_name = {mod.__name__: mod for mod in modules}
    saved = []
    for span, modname, attr in TRACED:
        fn = getattr(by_name[f"vmfourier.{modname}"], attr)
        on_result = tracer.record_estimate if span in ESTIMATORS else None
        wrapper = tracer.wrap(span, fn, on_result)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    saved.append((mod, key, value))
                    setattr(mod, key, wrapper)
    spaces = by_name["vmfourier.spaces"]
    for clsname, family in NORMING:
        cls = getattr(spaces, clsname)
        method = cls.__dict__["norming_dual_many"]
        saved.append((cls, "norming_dual_many", method))
        setattr(cls, "norming_dual_many", tracer.count_norming(family, method))
    return saved


def restore(saved) -> None:
    for obj, attr, value in reversed(saved):
        setattr(obj, attr, value)


@contextmanager
def tracing(tracer: Tracer):
    saved = install(tracer)
    try:
        yield tracer
    finally:
        restore(saved)


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced verdict, keyed by metric name."""
    stats = tracer.layer_stats()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

    def get(name):
        return stats.get(name, empty)

    m: dict[str, float] = {}
    m["groups.build.calls"] = get("groups.build")["calls"]
    m["groups.build.self_s"] = get("groups.build")["self_s"]
    for name in ESTIMATORS:
        s = get(name)
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.self_s"] = s["self_s"]
        m[f"{name}.p50_us"] = 1e6 * _percentile(s["durations"], 50)
        m[f"{name}.p99_us"] = 1e6 * _percentile(s["durations"], 99)
    m["spaces.exact_frac"] = (sum(tracer.exact) / len(tracer.exact)) if tracer.exact else 0.0
    for fam in FAMILIES:
        m[f"spaces.ascent_steps.{fam}"] = tracer.ascent_steps[fam]
    for fam in FAMILIES:
        m[f"spaces.ascent_rows.{fam}"] = tracer.ascent_rows[fam]
    m["spaces.bracket_rel_width.p50"] = _percentile(tracer.rel_width, 50)
    m["spaces.bracket_rel_width.p90"] = _percentile(tracer.rel_width, 90)
    for name in ("measures.semivariation", "measures.p_semivariation",
                 "measures.check_semivariation_invariance",
                 "lpspaces.lp_nu_norm", "lpspaces.Pp_norm", "lpspaces.N_norm",
                 "fourier.transform"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    m["fourier.ft_sup_norm.self_s"] = get("fourier.ft_sup_norm")["self_s"]
    m["fourier.uniqueness_rank.self_s"] = get("fourier.uniqueness_rank")["self_s"]
    m["convolve.calls"] = get("convolve")["calls"]
    m["convolve.self_s"] = get("convolve")["self_s"]
    fx = get("harness.fixture")
    m["harness.fixture.calls"] = fx["calls"]
    m["harness.fixture.self_s"] = fx["self_s"]
    m["harness.fixture.total_s"] = fx["total_s"]
    m["harness.loop.self_s"] = get("harness.loop")["self_s"]
    m["cli.emit_report_s"] = get("cli.emit_report")["total_s"]
    return m

