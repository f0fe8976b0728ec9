import dataclasses
import inspect
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import vmfourier as vf
from vmfourier import GroupMap, RunConfig, harness
from vmfourier.fourier import _sup
from vmfourier.harness import _points_dual_sup
from vmfourier.lpspaces import _lp_nu, _n_norm, _pp
from vmfourier.measures import _p_semi, _semi
from vmfourier.spaces import _known, _resolve, _take

from conftest import grid_dual


def small_config(**overrides):
    base = dict(
        groups=["cyclic:2", "symmetric:3"],
        spaces=["scalar", "linf:2", "matop:2", "weighted_l1:2"],
        trials=6,
        seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestFixtures:
    def test_haar_like_atoms(self, z2, linf2):
        nu = vf.generate_fixture("haar-like", z2, linf2)
        assert np.allclose(nu.atoms, 0.5)
        assert vf.norm(vf.evaluate(nu)) == pytest.approx(1.0)

    def test_point_mass(self, z2, linf2):
        nu = vf.generate_fixture("point-mass", z2, linf2)
        assert np.allclose(nu.atoms[1], 0)
        assert vf.norm(vf.evaluate(nu, [0])) == pytest.approx(1.0)

    def test_random_gaussian_deterministic(self, s3, linf2):
        a = vf.generate_fixture("random-gaussian", s3, linf2, seed=42)
        b = vf.generate_fixture("random-gaussian", s3, linf2, seed=42)
        assert np.array_equal(a.atoms, b.atoms)
        c = vf.generate_fixture("random-gaussian", s3, linf2, seed=43)
        assert not np.allclose(a.atoms, c.atoms)

    @pytest.mark.parametrize("spec", ["scalar", "linf:2", "matop:2", "weighted_l1:2"])
    def test_random_gaussian_unit_variation(self, s3, spec):
        nu = vf.generate_fixture("random-gaussian", s3, vf.space_from_spec(spec), seed=4)
        assert vf.variation(nu) == pytest.approx(1.0, rel=0, abs=1e-12)
        # the variation dominates the semivariation
        assert vf.semivariation(nu).upper <= 1 + 1e-12

    def test_random_gaussian_runs_no_estimator(self, s3, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("fixture ran an estimator")

        monkeypatch.setattr(vf.spaces, "_ascend", boom)
        for spec in ("matop:2", "weighted_l1:2"):
            space = vf.space_from_spec(spec)
            monkeypatch.setattr(type(space), "norming_dual_many", boom)
            for kind in ("haar-like", "translation-invariant", "point-mass", "random-gaussian"):
                vf.generate_fixture(kind, s3, space, seed=9)
            nu = vf.generate_fixture("random-gaussian", s3, space, seed=9)
            rng = harness._Stream(9)
            atoms = rng.standard_normal((s3.order, space.dim)) + 1j * rng.standard_normal(
                (s3.order, space.dim)
            )
            assert np.array_equal(nu.atoms, atoms / space.norm_many(atoms).sum())

    def test_translation_invariant_passes_checker(self, s3, linf2):
        nu = vf.generate_fixture("translation-invariant", s3, linf2, seed=5)
        for t in range(s3.order):
            rep = vf.check_semivariation_invariance(nu, GroupMap.translation(s3, t))
            assert rep.consistent

    def test_unknown_kind(self, z2, linf2):
        with pytest.raises(ValueError):
            vf.generate_fixture("cauchy", z2, linf2)


def verdict(lhs_lower, lhs_upper, rhs_lower, rhs_upper, tol=1e-8):
    """(violations, near misses, max residual, notes) of one check lhs <= rhs
    tallied by ``_Tally.checks``."""
    tally = harness._Tally()
    ends = (np.array([e], dtype=float) for e in (lhs_lower, lhs_upper, rhs_lower, rhs_upper))
    tally.checks(*ends, tol, lambda j: f"check {j}")
    assert tally.instances == 1
    return tally.violations, tally.near_misses, tally.max_residual, tally.notes


class TestClassify:
    """The one verdict rule, ``_Tally.checks``."""

    def test_certified_violation(self):
        lhs = vf.NormEstimate.of_exact(2.0)
        rhs = vf.NormEstimate.bracket(0.5, 1.0)
        assert verdict(lhs.lower, lhs.upper, rhs.lower, rhs.upper) == (1, 0, 1.0, ["check 0"])

    def test_certified_pass(self):
        lhs = vf.NormEstimate.of_exact(1.0)
        rhs = vf.NormEstimate.of_exact(2.0)
        assert verdict(lhs.lower, lhs.upper, rhs.lower, rhs.upper) == (0, 0, 0.0, [])

    def test_overlap_is_near_miss(self):
        lhs = vf.NormEstimate.bracket(1.0, 3.0)
        rhs = vf.NormEstimate.bracket(2.0, 2.5)
        assert verdict(lhs.lower, lhs.upper, rhs.lower, rhs.upper) == (0, 1, 0.0, [])

    def test_nan_is_never_a_pass(self):
        # a NaN residual r, the check [r, r] <= [0, 0], is a violation with
        # its note, and the worst residual stays NaN once a check made it so
        violations, near_misses, worst, notes = verdict(np.nan, np.nan, 0.0, 0.0)
        assert (violations, near_misses, notes) == (1, 0, ["check 0"]) and np.isnan(worst)
        tally = harness._Tally()
        for r, notes in (([1.0, np.nan, 0.0], ["one", "nan", "zero"]), ([2.0], ["two"])):
            r = np.array(r)
            tally.checks(r, r, np.zeros_like(r), np.zeros_like(r), 1e-10, notes.__getitem__)
        assert (tally.instances, tally.violations) == (4, 3)
        assert tally.notes == ["one", "nan", "two"] and np.isnan(tally.max_residual)
        # a NaN end that no violation certifies leaves a near miss
        assert verdict(1.0, np.nan, 2.0, 3.0)[:2] == (0, 1)


class TestOneVerdictRule:
    def test_nan_atom_conv_instances_are_violations(self):
        # a NaN atom makes the residual of ft-conv-8 and ft-conv-6 NaN, which
        # the verdict rule counts as a violation
        g, dual = harness.group_with_dual("symmetric:3")
        nu = harness.generate_fixture("random-gaussian", g, vf.LinfSpace(2), seed=3)
        values = np.ones(g.order, dtype=complex)
        values[2] = np.nan
        f = vf.ScalarFunction(g, values)
        xp = vf.XVector(nu.space, [1.0, 0.0])
        residuals = [
            harness._ft_conv8_residual(vf.VectorMeasure.scalar(g, values), nu, dual),
            harness._ft_conv6_residual(f, vf.ScalarFunction.constant(g), nu, xp, dual),
        ]
        assert np.isnan(residuals).all()
        r = np.array(residuals, dtype=float)
        tally = harness._Tally()
        tally.checks(r, r, np.zeros_like(r), np.zeros_like(r), 1e-10, lambda j: "conv")
        assert tally.violations == 2 and np.isnan(tally.max_residual)

    def test_nan_pairing_residuals_are_violations(self, monkeypatch):
        spec = harness._SUITES["pairing-compat"]
        check = harness._pairing_residual
        assert spec.runner.args[1] is check
        nan = harness._swap_check(spec.runner, lambda *a: check(*a) * np.nan)
        monkeypatch.setitem(
            harness._SUITES, "pairing-compat", dataclasses.replace(spec, runner=nan)
        )
        rep = vf.run_suite("pairing-compat", small_config())
        assert rep.instances == 6 and rep.violations == rep.instances
        assert np.isnan(rep.max_residual) and len(rep.detail.split("; ")) == 4

    def test_every_suite_tallies_through_checks(self, monkeypatch):
        tallied, checks = [], harness._Tally.checks

        def counted(self, lhs_lower, *rest):
            tallied.append(len(lhs_lower))
            return checks(self, lhs_lower, *rest)

        monkeypatch.setattr(harness._Tally, "checks", counted)
        cfg = small_config(spaces=["linf:2", "matop:2"], trials=4)
        for name in vf.suite_names():
            tallied.clear()
            instances = vf.run_suite(name, cfg).instances
            assert sum(tallied) == instances > 0, name
        assert not hasattr(harness, "classify")
        assert not hasattr(harness._Tally, "residual_check")
        assert not hasattr(harness._Tally, "residuals")

    def test_every_suite_reaches_the_claim_loop(self, monkeypatch):
        # every suite draws its instances in _claim_suite, the one instance
        # loop; the suites left outside the table only key rows or add checks
        # that draw nothing
        reached, draw = {}, harness._draw

        def counted(ctx, name, *rest):
            caller = sys._getframe(1).f_code
            assert caller is harness._claim_suite.__code__, caller.co_name
            reached[suite] = reached.get(suite, 0) + 1
            return draw(ctx, name, *rest)

        monkeypatch.setattr(harness, "_draw", counted)
        for suite in harness._SUITES:
            vf.run_suite(suite, small_config())
        assert set(reached) == set(harness._SUITES) and all(reached.values())
        assert sorted(n for n in vars(harness) if n.startswith("_suite_")) == [
            "_suite_commutativity", "_suite_ft_norm_bounds", "_suite_invariance"]

    @pytest.mark.parametrize("name, checks", [("dual-validation", 2 * 2), ("uniqueness", 8 * 3)])
    def test_one_instance_per_cell_whatever_the_trials(self, name, checks):
        # dual-validation: 2 checks on each of 2 groups; uniqueness: 3 kernels
        # on each of 8 (group, space) pairs, both groups having order > 1
        counts = {vf.run_suite(name, small_config(trials=t)).instances for t in (1, 40, None)}
        assert harness._SUITES[name].default_trials is None and counts == {checks}


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            vf.run_suite("nonexistent", small_config())

    def test_suite_names_cover_registry(self):
        names = vf.suite_names()
        assert "plancherel" in names and "young-6.5" in names
        assert "commutativity-8.5" in names

    @pytest.mark.parametrize("name", ["plancherel", "ft-conv-6", "young-6.5", "uniqueness"])
    def test_small_runs_have_no_violations(self, name):
        rep = vf.run_suite(name, small_config())
        assert rep.violations == 0
        assert rep.instances > 0

    @pytest.mark.parametrize("name", vf.suite_names())
    def test_determinism(self, name):
        def report():
            doc = vf.run_suite(name, small_config(trials=3)).to_dict()
            del doc["elapsed_s"]
            return doc

        assert report() == report()

    def test_young_combo_counts(self):
        counts = {thm: len(combos) for thm, (combos, _) in harness._YOUNG.items()}
        assert counts == {
            "young-6.2": 5, "young-6.4": 5, "young-6.5": 15, "young-6.10": 5, "young-6.11": 15,
            "young-9.1": 12, "young-9.2": 13, "young-9.3": 44, "young-9.4": 10,
        }

    def test_instance_streams_are_distinct(self, monkeypatch):
        # no (suite key, index) is drawn twice, and every stream key of the
        # default battery's instances is distinct
        drawn = []
        instance_keys = harness._instance_keys
        monkeypatch.setattr(
            harness, "_instance_keys",
            lambda seed, name, idx: drawn.extend((name, i) for i in np.ravel(idx).tolist())
            or instance_keys(seed, name, idx),
        )
        for name in vf.suite_names():
            vf.run_suite(name, small_config())
        assert len(set(drawn)) == len(drawn)
        cfg = vf.RunConfig()
        names = {name for name, _ in drawn} | {f"ft-norm-bounds:{s}" for s in cfg.spaces} | {
            f"commutativity:{harness.group_with_dual(spec)[0].label}" for spec in cfg.groups}
        keys = np.concatenate([instance_keys(cfg.seed, name, np.arange(1000)) for name in names])
        assert len(np.unique(keys)) == len(keys)

    def test_plancherel_fixtures_differ_across_seeds(self, monkeypatch):
        # the weak variant's fixture comes from the instance stream, so seed
        # 0 instance 35 and seed 32 instance 3 draw different fixtures
        atoms = []
        fixture = harness.generate_fixture
        monkeypatch.setattr(
            harness, "generate_fixture",
            lambda kind, g, space, seed=0: atoms.extend(
                map(bytes, (nu := fixture(kind, g, space, seed)).atoms)) or nu,
        )
        for seed, trials in ((0, 36), (32, 4)):
            vf.run_suite("plancherel", small_config(groups=["cyclic:2"], seed=seed, trials=trials))
        assert len(atoms) == 10 and len(set(atoms)) == 10

    def test_dropped_irrep_is_one_violation_per_group(self):
        # a dual without its last irrep fails completeness alone, once per group
        cfg = small_config(groups=["cyclic:3", "symmetric:3"])
        groups = [harness.group_with_dual(spec) for spec in cfg.groups]
        groups = [(g, vf.UnitaryDual(g, dual.irreps[:-1])) for g, dual in groups]
        tally = harness._Tally()
        ctx = harness._Ctx(cfg, groups, [vf.ScalarSpace()])
        harness._SUITES["dual-validation"].runner(ctx, "dual-validation", None, tally)
        assert (tally.instances, tally.violations) == (4, 2)
        assert tally.notes == ["Z3 completeness", "S3 completeness"]

    def test_commutativity_finds_witness(self):
        cfg = small_config(groups=["symmetric:3", "dihedral:4", "quaternion8"])
        rep = vf.run_suite("commutativity-8.5", cfg)
        assert rep.violations == 0
        assert "witness" in rep.detail

    def test_commutativity_reports_violations_first(self, monkeypatch):
        # an abelian check that fails must name itself in detail, ahead of
        # the witness and abelian summary notes
        conv = harness.conv_measure_vs

        def shifted(nu, mu):
            out = conv(nu, mu)
            return vf.VectorMeasure(out.group, out.space, out.atoms + 1e-6)

        monkeypatch.setattr(harness, "conv_measure_vs", shifted)
        rep = vf.run_suite("commutativity-8.5", small_config(trials=3))
        assert rep.violations == 3
        assert rep.detail.startswith("abelian commute")

    def test_ft_norm_bounds_builds_no_blocks(self, monkeypatch):
        # its sup sides read the transforms' stacks; no per-irrep block is made
        made = []
        block = vf.fourier.MatrixOverX
        monkeypatch.setattr(
            vf.fourier, "MatrixOverX", lambda *a: made.append(1) or block(*a)
        )
        rep = vf.run_suite("ft-norm-bounds", small_config(trials=8))
        assert rep.instances == 8 * 4 * 3 and made == []

    def test_trials_override(self):
        cfg = small_config(trials=3)
        rep = vf.run_suite("pairing-compat", cfg)
        assert rep.instances == 3

    def test_groups_built_once_per_process(self, monkeypatch):
        built = []
        build = harness.build_group
        monkeypatch.setattr(harness, "build_group", lambda spec: built.append(spec) or build(spec))
        harness.group_with_dual.cache_clear()
        cfg = small_config(trials=2)
        vf.run_suite("pairing-compat", cfg)
        vf.run_suite("ft-conv-6", cfg)
        assert built == cfg.groups
        assert harness.group_with_dual("cyclic:2") is harness.group_with_dual("cyclic:2")

    def test_instance_derivation(self, monkeypatch):
        # instance i of a claim-table row draws its fixture on cell i % 4 of
        # the 2 x 2 (group, space) grid: groups vary fastest for the
        # random-gaussian rows, spaces for the translation-invariant ones
        records, levels = [], []
        draw = harness._draw
        monkeypatch.setattr(
            harness, "_draw",
            lambda ctx, name, idx, kind, g, space: records.extend(
                (name, i, kind, g.label, space.label) for i in idx
            ) or draw(ctx, name, idx, kind, g, space),
        )
        n_norm, measure_sv = harness._n_norm, harness._amplified_measure_semivariation
        monkeypatch.setattr(
            harness, "_n_norm", lambda fmat, nu: levels.append((fmat.n, "fn")) or n_norm(fmat, nu)
        )
        monkeypatch.setattr(
            harness, "_amplified_measure_semivariation",
            lambda space, nus: levels.append((len(nus), "meas")) or measure_sv(space, nus),
        )
        cfg = small_config(spaces=["linf:2", "matop:2"], trials=8)
        gs, ss = ["Z2", "S3"], ["linf:2", "matop:2"]
        rows = {
            "young-6.5": ("young-6.5", "translation-invariant", True),
            "pairing-compat": ("pairing-compat", "random-gaussian", False),
            "cb-amplification": ("cb-amplification", "random-gaussian", False),
            "invariance-5": ("invariance-5:B", "translation-invariant", True),
        }
        for suite, (key, kind, spaces_fastest) in rows.items():
            records.clear()
            vf.run_suite(suite, cfg)
            if spaces_fastest:
                cells = [(gs[i // 2 % 2], ss[i % 2]) for i in range(8)]
            else:
                cells = [(gs[i % 2], ss[i // 2 % 2]) for i in range(8)]
            # groups are drawn one after another; each instance exactly once
            assert sorted(records, key=lambda r: r[1]) == [
                (key, i, kind, *cells[i]) for i in range(8)
            ], suite
        # cb's 6 combos and 4 cells put each of the 8 instances in its own
        # check, run by cell and then by combo
        order = sorted(range(8), key=lambda i: (i % 4, i % 6))
        assert levels == [((1, 2, 3)[i % 3], ("fn", "meas")[i % 2]) for i in order]
        # ft-norm-bounds runs one row per space, keyed by the space, with
        # instance i on group i % 2
        records.clear()
        vf.run_suite("ft-norm-bounds", cfg)
        expected = [(f"ft-norm-bounds:{s}", i, gs[i % 2], s) for s in ss for i in range(8)]
        assert sorted((key, i, g, s) for key, i, kind, g, s in records) == expected
        assert {kind for *_, kind, _, _ in records} == {"random-gaussian"}

    def test_checks_run_once_per_group(self, monkeypatch):
        # young-6.5 at 1000 trials: 8 cells and 15 combos make 120 (cell,
        # combo) groups, and the check runs once per group, not per instance
        spec = harness._SUITES["young-6.5"]
        calls, check = [], spec.runner.args[1]
        counted = harness._swap_check(
            spec.runner, lambda combo, nu, *a: calls.append(len(nu.atoms)) or check(combo, nu, *a)
        )
        monkeypatch.setitem(harness._SUITES, "young-6.5", dataclasses.replace(spec, runner=counted))
        rep = vf.run_suite("young-6.5", small_config(trials=1000))
        assert rep.instances == sum(calls) == 1000
        assert len(calls) <= 8 * 15

    def test_stacks_hold_at_most_block_instances(self, monkeypatch):
        # one cell and one combo at trials above _BLOCK: the one group is
        # drawn and checked in stacks of at most _BLOCK instances
        spec = harness._SUITES["scalarization"]
        calls, check = [], spec.runner.args[1]
        counted = harness._swap_check(
            spec.runner, lambda combo, nu, *a: calls.append(len(nu.atoms)) or check(combo, nu, *a)
        )
        monkeypatch.setitem(harness._SUITES, "scalarization", dataclasses.replace(spec, runner=counted))
        trials = harness._BLOCK + 44
        rep = vf.run_suite("scalarization", small_config(groups=["cyclic:2"], spaces=["scalar"],
                                                          trials=trials))
        assert rep.instances == trials
        assert calls == [harness._BLOCK, 44]

    def test_calibration_samples_spaces_without_grid_oracle(self):
        # outside the grid oracle the upper end is checked against sampled
        # dual-ball points; an upper end scaled by 0.5 fails here
        cfg = vf.RunConfig(spaces=["matop:3", "weighted_l1:4"], trials=40)
        rep = vf.run_suite("calibration", cfg)
        assert (rep.instances, rep.violations) == (40, 0)
        rep = vf.run_suite("calibration", vf.RunConfig(spaces=["linf:8"], trials=4))
        assert (rep.instances, rep.violations) == (4, 0)


def ends(ests):
    return [(e.lower, e.upper) for e in ests]


def array_ends(brackets):
    """``ends`` of the (lower, upper) arrays of ``_resolve`` or ``_sides``."""
    return list(zip(*(b.tolist() for b in brackets)))


class TestNormRequests:
    def test_block_equals_single_calls(self, all_spaces):
        # one block mixing every request kind, five spaces and three group
        # orders; f is zero on one element, so that atom has zero weight, and
        # the amplified requests take levels 1 to 3 and a zero matrix
        singles, factors = [], []
        for spec in ("cyclic:2", "cyclic:3", "symmetric:3"):
            g = vf.build_group(spec)
            for space in [*all_spaces, vf.WeightedL1Space.uniform(3)]:
                for seed in range(2):
                    nu = vf.generate_fixture("random-gaussian", g, space, seed=seed)
                    rng = np.random.default_rng(seed)
                    f = harness._draw_function(g, rng)
                    f.values[seed] = 0.0
                    shape = (g.order, space.dim)
                    phi = vf.VectorFunction(
                        g, space, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    )
                    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
                        singles += [vf.lp_nu_norm(f, nu, p), vf.Pp_norm(phi, p)]
                        factors += [_lp_nu(f, nu, p), _pp(phi, p)]
                        if p > 1:
                            singles.append(vf.p_semivariation(nu, p))
                            factors.append(_p_semi(nu, p))
                    singles.append(vf.semivariation(nu))
                    factors.append(_semi(nu))
                    for n in (1, 2, 3):
                        shape = (n, n, space.dim)
                        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                        if (n, seed) == (2, 1):
                            m[:] = 0
                        singles.append(vf.amplified_norm(vf.MatrixOverX(space, m)))
                        factors.append(_sup(space, m, [n]))
                        fmat = vf.MatrixFunction(g, n, rng.standard_normal((g.order, n, n)))
                        singles.append(vf.N_norm(fmat, nu))
                        factors.append(_n_norm(fmat, nu))
        assert not all(e.exact for e in singles)
        assert all(e.exact == (e.lower == e.upper) for e in singles)
        assert array_ends(_resolve(factors)) == ends(singles)
        # a side multiplies its factors in order, then scales; a known
        # bracket passes through
        sides = [harness._product(a, b, scale=0.7) for a, b in zip(factors[::2], factors[1::2])]
        products = [
            (a.lower * b.lower * 0.7, a.upper * b.upper * 0.7)
            for a, b in zip(singles[::2], singles[1::2])
        ]
        known = harness._product(_known(singles[0].lower, singles[0].upper))
        assert array_ends(harness._sides([*sides, known])) == [*products, *ends(singles[:1])]

    def test_sup_sides_equal_ft_sup_norm(self, all_spaces):
        # a sup side over a transform's blocks, in one block of sides over
        # groups with different irrep dimensions, against ft_sup_norm and
        # against the max of its blocks' matrix-level norms; the weak
        # transform's complex blocks count as matrices over the scalars
        sides, singles = [], []
        scalar = vf.ScalarSpace()
        for spec in ("cyclic:4", "symmetric:3", "symmetric:4", "quaternion8"):
            g, dual = harness.group_with_dual(spec)
            rng = np.random.default_rng(g.order)
            f = harness._draw_function(g, rng)
            for space in all_spaces:
                nu = vf.generate_fixture("random-gaussian", g, space, seed=g.order)
                for c in (vf.ft_vector(f, nu, dual), vf.ft_measure(nu, dual)):
                    sides.append(harness._product(_sup(space, c.stack, dual.dims())))
                    singles.append(c)
                weak = vf.ft_weak(f, nu, harness._draw_dual(space, rng), dual).stack
                sides.append(harness._product(_sup(scalar, weak, dual.dims())))
                singles.append(vf.VectorFourierCoefficients(dual, scalar, weak[:, None]))
        blocks = [[vf.amplified_norm(b) for b in c.blocks] for c in singles]
        assert not all(e.exact for bs in blocks for e in bs)
        refs = [(max(e.lower for e in bs), max(e.upper for e in bs)) for bs in blocks]
        assert array_ends(harness._sides(sides)) == refs
        assert ends(vf.ft_sup_norm(c) for c in singles) == refs

    def test_shared_request_runs_one_ascent_row(self, monkeypatch):
        # ft-norm-bounds' fn and weak bounds share one ||f||_{L^1(nu)} request
        g = vf.build_group("symmetric:3")
        nu = vf.generate_fixture("random-gaussian", g, vf.WeightedL1Space.uniform(2), seed=2)
        f = harness._draw_function(g, np.random.default_rng(2))
        single = vf.lp_nu_norm(f, nu, 1.0)
        rows, ascend = [], vf.spaces._ascend
        monkeypatch.setattr(
            vf.spaces, "_ascend", lambda ascent, cap: rows.append(len(cap)) or ascend(ascent, cap)
        )
        request = _lp_nu(f, nu, 1.0)
        sides = harness._sides([harness._product(request), harness._product(request, scale=2.0)])
        assert rows == [1]
        assert array_ends(sides) == [*ends([single]), (single.lower * 2.0, single.upper * 2.0)]
        assert not single.exact

    @pytest.mark.parametrize(
        "name",
        [*harness._YOUNG, "embedding-4.13", "invariance-5", "ft-norm-bounds", "cb-amplification"],
    )
    def test_brackets_equal_alone_and_in_blocks(self, name, monkeypatch):
        # the tallied brackets of a row in blocks of 3 (each group drawn in
        # stacks of at most 3, a partial one included, and decided about 3
        # rows at a time) equal those of whole groups with every request row
        # resolved alone
        draw, matrix = harness._draw_function, harness.MatrixFunction

        def brackets(block, sparse):
            # with ``sparse``, the drawn functions of each instance take turns
            # at a zero at one element, a single nonzero element and no zero,
            # which gives dual-ball rows with zero-weight atoms and with one
            # live atom; S4 has enough atoms for numpy's pairwise sums to
            # group them
            seen, drawn = [], []

            def sparsify(f, axes):
                for v in f.values.reshape(-1, *f.values.shape[-axes:]):
                    if sparse and len(drawn) % 3 < 2:
                        v[np.arange(len(v)) != 0 if len(drawn) % 3 else 0] = 0.0
                    drawn.append(v)
                return f

            monkeypatch.setattr(harness, "_draw_function", lambda g, rng: sparsify(draw(g, rng), 1))
            monkeypatch.setattr(harness, "_BLOCK", block)
            monkeypatch.setattr(
                harness, "MatrixFunction", lambda *args: sparsify(matrix(*args), 3)
            )
            monkeypatch.setattr(
                harness._Tally, "checks",
                lambda self, *ends: seen.extend(zip(*(e.tolist() for e in ends[:4]))),
            )
            groups = ["cyclic:2", "symmetric:4" if sparse else "symmetric:3"]
            vf.run_suite(name, small_config(groups=groups, trials=20))
            return seen

        def one_by_one(requests, *a):
            parts = [resolve([_take(r, [b])], *a) for r in requests for b in range(len(r[3]))]
            return tuple(np.concatenate(x) for x in zip(*parts or [resolve([], *a)]))

        resolve, block = harness._resolve, harness._BLOCK
        blocked = [brackets(3, sparse) for sparse in (False, True)]
        monkeypatch.setattr(harness, "_resolve", one_by_one)
        assert [brackets(block, sparse) for sparse in (False, True)] == blocked
        assert blocked[0] != blocked[1]

    def test_estimator_calls_bounded_by_keys_not_trials(self, monkeypatch):
        # each young-6.5 request is an lp_nu_norm, so the 64 instances, one
        # block, make one batch of dual-ball rows per (space, group order)
        # key in each of the two passes
        calls = {False: 0, True: 0}
        estimates = vf.spaces._estimates

        def counted(rows, ascend=True):
            calls[ascend] += 1
            return estimates(rows, ascend)

        monkeypatch.setattr(vf.spaces, "_estimates", counted)
        cfg = small_config(trials=64)
        vf.run_suite("young-6.5", cfg)
        keys = len(cfg.spaces) * len(cfg.groups)
        assert 0 < calls[False] <= keys and calls[True] <= keys


class TestClaimBuilders:
    def test_claim_requests_get_the_public_checks(self, s3, z2):
        # the builders the claim rows use raise where their public norms do
        nu = vf.generate_fixture("random-gaussian", s3, vf.MatOpSpace(2), seed=1)
        f = harness._draw_function(s3, np.random.default_rng(1))
        with pytest.raises(ValueError, match="p > 1"):
            harness._p_semi(nu, 1.0)
        with pytest.raises(ValueError, match="p must be >= 1"):
            harness._lp_nu(f, nu, 0.5)
        other = harness._draw_function(z2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="group mismatch"):
            harness._lp_nu(other, nu, 1.0)


class TestTwoPasses:
    """Claim rows tally a pair from ascent-free brackets when those pass it
    and resolve the rest in full; the reports equal a tally of full brackets."""

    @staticmethod
    def halved_rhs(runner):
        """A claim row like ``runner`` whose rhs sides are scaled by 0.5."""
        check = runner.args[1]

        def halved(*args):
            out = check(*args)
            pairs = [(lhs, (rhs[0], 0.5 * rhs[1])) for lhs, rhs in (
                out if isinstance(out, list) else [out])]
            return pairs if isinstance(out, list) else pairs[0]

        return harness._swap_check(runner, halved)

    @pytest.mark.parametrize("name", ["young-6.4", "ft-norm-bounds"])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_reports_equal_full_resolution(self, name, scale, monkeypatch):
        cfg = small_config(
            groups=["cyclic:3", "symmetric:3"], spaces=["matop:2", "weighted_l1:2"], trials=64
        )
        if scale != 1.0 and name == "ft-norm-bounds":
            monkeypatch.setattr(
                harness, "_FT_NORM_BOUNDS", self.halved_rhs(harness._FT_NORM_BOUNDS)
            )
        elif scale != 1.0:
            spec = harness._SUITES[name]
            runner = self.halved_rhs(spec.runner)
            monkeypatch.setitem(harness._SUITES, name, dataclasses.replace(spec, runner=runner))

        def fields(rep):
            return (rep.instances, rep.violations, rep.near_misses, rep.max_residual.hex(),
                    rep.detail)

        # the reference tallies every pair from full brackets
        sides = harness._sides
        monkeypatch.setattr(harness, "_sides", lambda s, ascend=True: sides(s))
        reference = vf.run_suite(name, cfg)
        monkeypatch.setattr(harness, "_sides", sides)

        eligible, reached = [], []
        estimates, ascend = vf.spaces._estimates, vf.spaces._ascend

        def counted(rows, ascend=True):
            if not ascend:
                eligible.extend(rows[2])  # the rows an ascent would estimate
            return estimates(rows, ascend)

        monkeypatch.setattr(vf.spaces, "_estimates", counted)
        monkeypatch.setattr(
            vf.spaces, "_ascend",
            lambda ascent, caps: reached.append(len(caps)) or ascend(ascent, caps),
        )
        assert fields(vf.run_suite(name, cfg)) == fields(reference)
        if scale == 1.0:
            assert 4 * sum(reached) < len(eligible)
        else:
            assert reference.violations > 0


class TestInvariancePartA:
    """Part A of invariance-5 on its twisted fixture."""

    def test_compares_unequal_measures_in_every_default_group(self, monkeypatch):
        pairs, push = [], harness.pushforward
        monkeypatch.setattr(
            harness, "pushforward", lambda nu, h: pairs.append((nu, push(nu, h))) or pairs[-1][1]
        )
        vf.run_suite("invariance-5", RunConfig(spaces=["matop:2", "weighted_l1:2"], trials=1))
        unequal = {nu.group.label for nu, nu_h in pairs if not np.array_equal(nu.atoms, nu_h.atoms)}
        assert unequal == {harness.group_with_dual(s)[0].label for s in vf.builtin_group_specs()}

    def test_pushforward_leaving_one_atom_in_place_fails(self, monkeypatch):
        def stuck(nu, h):
            atoms = nu.atoms[h.table]
            atoms[-1] = nu.atoms[-1]
            return vf.VectorMeasure(nu.group, nu.space, atoms)

        cfg = small_config(groups=["cyclic:3", "symmetric:3"], trials=1)
        assert vf.run_suite("invariance-5", cfg).violations == 0
        monkeypatch.setattr(harness, "pushforward", stuck)
        rep = vf.run_suite("invariance-5", cfg)
        assert rep.violations > 0 and rep.detail.startswith("semivar")

    def test_perturbed_irrep_keeps_the_counts(self):
        # chi comes from the unperturbed dual: the fault moves no part A check
        rep = vf.run_suite("invariance-5", RunConfig(trials=40), fault="perturb-irrep")
        assert (rep.instances, rep.violations, rep.near_misses) == (2720, 0, 0)


class TestFaultInjection:
    # each fault must produce a certified violation within 10 trials on a
    # group with a block of dimension 2
    def fault_config(self):
        return small_config(groups=["symmetric:3"], spaces=["linf:2"], trials=10)

    def test_drop_block_dim_factor_conv6(self):
        rep = vf.run_suite("ft-conv-6", self.fault_config(), fault="drop-dpi-conv6")
        assert rep.violations >= 1

    def test_drop_block_dim_factor_conv8(self):
        rep = vf.run_suite("ft-conv-8", self.fault_config(), fault="drop-dpi-conv8")
        assert rep.violations >= 1

    def test_drop_inverse_dim_in_transform(self):
        rep = vf.run_suite("ft-conv-6", self.fault_config(), fault="drop-inv-dpi-def41")
        assert rep.violations >= 1

    def test_perturbed_irrep_breaks_validation(self):
        rep = vf.run_suite("dual-validation", self.fault_config(), fault="perturb-irrep")
        assert rep.violations >= 1

    def test_perturbed_irrep_breaks_plancherel(self):
        rep = vf.run_suite("plancherel", self.fault_config(), fault="perturb-irrep")
        assert rep.violations >= 1

    def test_faults_do_not_fire_without_injection(self):
        rep = vf.run_suite("ft-conv-6", self.fault_config())
        assert rep.violations == 0

    def test_unknown_fault(self):
        with pytest.raises(ValueError):
            vf.run_suite("ft-conv-6", self.fault_config(), fault="bogus")

    def test_fault_reach(self):
        # each fault gives violations in exactly these suites; a fault that
        # swaps a check leaves every other report equal, bit for bit
        cfg = small_config(
            groups=["cyclic:3", "symmetric:3"], spaces=["linf:2", "matop:2"], trials=10
        )

        def reports(fault=None):
            out = {}
            for name in vf.suite_names():
                rep = vf.run_suite(name, cfg, fault=fault)
                out[name] = dict(rep.to_dict(), elapsed_s=0, max_residual=rep.max_residual.hex())
            return out

        reach = {
            "drop-dpi-conv6": {"ft-conv-6"},
            "drop-dpi-conv8": {"ft-conv-8"},
            "drop-inv-dpi-def41": {"ft-conv-6"},
            "perturb-irrep": {"dual-validation", "plancherel", "ft-conv-6", "ft-conv-8"},
        }
        assert set(reach) == set(harness.FAULTS)
        clean = reports()
        assert not any(doc["violations"] for doc in clean.values())
        for fault, suites in reach.items():
            faulted = reports(fault)
            assert {name for name, doc in faulted.items() if doc["violations"]} == suites, fault
            if harness.FAULTS[fault]:
                for name in set(clean) - suites:
                    assert faulted[name] == clean[name], (fault, name)

    def test_checks_take_combo_nu_dual_rng(self):
        # every claim row's check, and every check a fault swaps in, takes
        # (combo, nu, dual, rng) and at most a defaulted dpi
        rows = [harness._FT_NORM_BOUNDS, harness._LP_CONTAINMENT, harness._COMMUTATIVITY] + [
            spec.runner for spec in harness._SUITES.values()
            if getattr(spec.runner, "func", None) is harness._claim_suite
        ]
        swapped = [check for swaps in harness.FAULTS.values() for check in swaps.values()]
        assert len(rows) == 25 and len(swapped) == 3
        for check in [row.args[1] for row in rows] + swapped:
            params = list(inspect.signature(check).parameters.values())
            assert [p.name for p in params[:4]] == ["combo", "nu", "dual", "rng"], check
            assert [(p.name, p.default is p.empty) for p in params[4:]] in ([], [("dpi", False)])


class TestEmitReport:
    def make_reports(self):
        cfg = small_config(trials=2)
        return [vf.run_suite("plancherel", cfg), vf.run_suite("pairing-compat", cfg)]

    def test_empty_reports(self, tmp_path):
        text = vf.emit_report([], "json", tmp_path / "r.json")
        doc = json.loads(text)
        assert doc["violations"] == 0 and doc["suites"] == []

    def test_json_schema_fields(self):
        doc = json.loads(vf.emit_report(self.make_reports(), "json", None, seed=7))
        assert doc["schema"].startswith("vmfourier-report/")
        assert doc["seed"] == 7
        suite = doc["suites"][0]
        assert list(suite) == [
            "suite", "anchor", "instances", "violations", "near_misses",
            "max_residual", "elapsed_s", "detail",
        ]

    def test_markdown_format(self):
        text = vf.emit_report(self.make_reports(), "markdown")
        assert text.startswith("# Verification report")
        assert "| plancherel |" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            vf.emit_report([], "yaml")

    def test_deterministic_modulo_timing(self):
        def strip_elapsed(text):
            return re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', text)

        a = vf.emit_report(self.make_reports(), "json", None, seed=7)
        b = vf.emit_report(self.make_reports(), "json", None, seed=7)
        assert strip_elapsed(a) == strip_elapsed(b)

    def test_nan_residual_is_strict_json_null(self):
        # NaN is no JSON value (RFC 8259): the report writes null
        rep = dataclasses.replace(self.make_reports()[0], max_residual=np.nan)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(vf.emit_report([rep], "json"), parse_constant=reject)
        assert doc["suites"][0]["max_residual"] is None
        assert doc["suites"] == [rep.to_dict()]

    def test_violations_counted(self):
        cfg = small_config(groups=["symmetric:3"], spaces=["linf:2"], trials=10)
        rep = vf.run_suite("ft-conv-6", cfg, fault="drop-dpi-conv6")
        doc = json.loads(vf.emit_report([rep], "json"))
        assert doc["violations"] >= 1


class TestConfigFiles:
    def test_parse_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            """
            # battery configuration
            groups = cyclic:2, symmetric:3
            spaces = scalar, linf:2
            suites = plancherel, uniqueness
            trials = 5
            seed = 99
            """
        )
        cfg = vf.load_config(path)
        assert cfg.groups == ["cyclic:2", "symmetric:3"]
        assert cfg.suites == ["plancherel", "uniqueness"]
        assert cfg.trials == 5 and cfg.seed == 99

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            vf.load_config(path)

    def test_unknown_suite_in_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("suites = nonexistent\n")
        with pytest.raises(ValueError):
            vf.load_config(path)

    def test_unknown_suite_in_run_config(self):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            RunConfig(suites=["bogus"])

    def test_bad_trials(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("trials = 0\n")
        with pytest.raises(ValueError):
            vf.load_config(path)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("key", ["groups", "spaces", "suites"])
    def test_empty_groups_or_spaces_rejected(self, key):
        # the suites take cell i % len(cells), which an empty grid divides by
        # 0; an empty suite list would report a clean run of nothing
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: []})

    @pytest.mark.parametrize("key", ["tol_exact", "tol_bracket", "out_dir"])
    def test_removed_keys_are_unknown(self, tmp_path, key):
        # the verdict tolerances are fixed and the report path is the CLI's
        # --out; a config cannot name them
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = 1e-9\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            vf.load_config(path)

    @pytest.mark.parametrize(
        "key, first, second", [("seed", "1", "2"), ("groups", "cyclic:2", "cyclic:3")]
    )
    def test_repeated_key_rejected(self, tmp_path, key, first, second):
        # a second line must not silently override the first
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {first}\n# comment\n{key} = {second}\n")
        with pytest.raises(ValueError, match=f"cfg.txt:3: repeated key '{key}'"):
            vf.load_config(path)

    def test_config_keys_are_the_fields(self):
        # no setting exists only as a config key or only as a field
        assert set(harness._KEYS) == {f.name for f in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize(
        "key, value", [("trials", 0), ("seed", -1), ("suites", ["nope"])]
    )
    def test_assignment_is_validated(self, key, value):
        # a field set after construction is checked as at construction
        cfg = RunConfig()
        with pytest.raises(ValueError):
            setattr(cfg, key, value)
        cfg.seed = 3
        assert cfg.seed == 3

    @pytest.mark.parametrize("line", ["seed = abc", "seed = -1", "trials = 0"])
    def test_bad_value_names_its_line(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=r"cfg\.txt:1: bad (seed|trials) value"):
            vf.load_config(path)
        out = run_cli("run", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2 and "cfg.txt:1: bad" in out.stderr

    def test_seed_beyond_64_bits_rejected(self, tmp_path):
        # a stream key hashes the seed as a uint64: 2**64 - 1 runs, 2**64 is
        # rejected where it is set, with its config line
        cfg = small_config(seed=2**64 - 1, trials=2)
        assert vf.run_suite("plancherel", cfg).instances == 2
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=2**64)
        with pytest.raises(ValueError, match="seed"):
            cfg.seed = 2**64
        path = tmp_path / "cfg.txt"
        path.write_text(f"seed = {2**64}\n")
        with pytest.raises(ValueError, match=r"cfg\.txt:1: bad seed value"):
            vf.load_config(path)

    def test_config_file_values_are_validated(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = -3\n")
        with pytest.raises(ValueError, match="seed"):
            vf.load_config(path)


class TestGridOracle:
    def test_scalar_grid(self):
        s = vf.ScalarSpace()
        pts = grid_dual(s)
        assert pts.shape == (24, 1)
        assert np.allclose(np.abs(pts), 1.0)

    def test_weighted_grid_within_ball(self):
        s = vf.WeightedL1Space.uniform(2)
        pts = grid_dual(s)
        for p in pts:
            assert s.dual_norm_of(p) <= 1 + 1e-12

    def test_matop_grid_within_ball(self):
        s = vf.MatOpSpace(2)
        pts = grid_dual(s)
        for p in pts[:50]:
            assert s.dual_norm_of(p) <= 1 + 1e-9

    @pytest.mark.parametrize("spec", ["matop:2", "weighted_l1:3"])
    def test_sliced_grid_equals_one_pass(self, spec):
        # the oracle walks the grid in slices; its value is the one-pass max
        s = vf.space_from_spec(spec)
        pts = grid_dual(s)
        assert len(pts) > harness._POINT_SLICE
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 2.0, 4)
        vecs = rng.standard_normal((4, s.dim)) + 1j * rng.standard_normal((4, s.dim))
        one_pass = float((np.abs(s.pair_many(vecs, pts)) @ weights).max())
        assert _points_dual_sup(s, weights, vecs, pts) == one_pass

    def test_grid_value_below_exact(self, linf2):
        rng = np.random.default_rng(0)
        vecs = np.array([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)])
        exact = vf.dual_ball_sup(linf2, np.ones(3), vecs)
        grid = _points_dual_sup(linf2, np.ones(3), vecs, grid_dual(linf2))
        assert grid <= exact.lower + 1e-12


def run_cli(*args, env=None):
    import os
    from pathlib import Path

    full_env = dict(os.environ)
    # the child imports the same package as this process
    src = str(Path(vf.__file__).resolve().parents[1])
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "vmfourier.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestCli:
    def test_list(self):
        out = run_cli("list")
        assert out.returncode == 0
        assert "plancherel" in out.stdout

    def test_run_small_battery(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "groups = cyclic:2\nspaces = scalar, linf:2\n"
            "suites = plancherel, ft-conv-6\ntrials = 4\n"
        )
        report = tmp_path / "out.json"
        out = run_cli("run", "--config", str(cfg), "--out", str(report))
        assert out.returncode == 0, out.stderr
        doc = json.loads(report.read_text())
        assert doc["violations"] == 0

    def test_run_markdown(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("groups = cyclic:2\nspaces = scalar\nsuites = plancherel\ntrials = 3\n")
        report = tmp_path / "out.md"
        out = run_cli(
            "run", "--config", str(cfg), "--format", "markdown", "--out", str(report)
        )
        assert out.returncode == 0
        assert report.read_text().startswith("# Verification report")

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense\n")
        out = run_cli("run", "--config", str(cfg))
        assert out.returncode == 2

    @pytest.mark.parametrize("line", [
        "spaces = matop:0", "groups = nosuch:3", "spaces = weighted_l1:0",
        "groups =", "spaces = ,", "suites =", "seed = 1\nseed = 2",
        "groups = dihedral:1000",
    ])
    def test_bad_spec_in_config_exits_2(self, tmp_path, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert out.stderr.startswith("configuration error:")
        assert out.stdout == ""  # rejected before any suite runs

    def test_unknown_suite_exits_2(self, tmp_path):
        out = run_cli("run", "--suite", "bogus", "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2

    def test_negative_seed_exits_2(self, tmp_path):
        out = run_cli("run", "--seed", "-1", "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert out.stderr.startswith("configuration error:")
        assert out.stdout == ""  # rejected before any suite runs

    def test_seed_beyond_64_bits_exits_2(self, tmp_path):
        out = run_cli("run", "--seed", str(2**64), "--suite", "plancherel",
                      "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert out.stderr.startswith("configuration error:") and "seed" in out.stderr
        assert out.stdout == ""  # rejected before any suite runs

    def test_zero_trials_exits_2(self, tmp_path):
        out = run_cli("run", "--trials", "0", "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert out.stderr.startswith("configuration error:")
        assert out.stdout == ""  # rejected before any suite runs

    def test_seed_and_suite_flags(self, tmp_path):
        report = tmp_path / "r.json"
        out = run_cli(
            "run", "--suite", "uniqueness", "--seed", "3", "--trials", "2",
            "--out", str(report),
        )
        assert out.returncode == 0
        doc = json.loads(report.read_text())
        assert doc["seed"] == 3 and doc["suites"][0]["suite"] == "uniqueness"

    def test_report_path_precedence(self, monkeypatch):
        # --out, else report.json / report.md in the cwd; no variable moves it
        from argparse import Namespace
        from pathlib import Path

        from vmfourier import cli

        def path(out, fmt="json"):
            return cli._report_path(Namespace(out=out, format=fmt))

        monkeypatch.setenv("VMFOURIER_OUT", "env")
        assert path(Path("x.json")) == Path("x.json")
        assert path(Path("x.md"), "markdown") == Path("x.md")
        assert path(None) == Path("report.json")
        assert path(None, "markdown") == Path("report.md")

    def test_injected_fault_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "groups = symmetric:3\nspaces = linf:2\nsuites = dual-validation\n"
        )
        report = tmp_path / "r.json"
        out = run_cli(
            "run", "--config", str(cfg), "--fault", "perturb-irrep",
            "--out", str(report),
        )
        assert out.returncode == 1
        assert json.loads(report.read_text())["violations"] >= 1

    def test_fixtures_to_directory(self, tmp_path):
        out = run_cli("fixtures", "--out", str(tmp_path / "tables"))
        assert out.returncode == 0
        files = sorted(p.name for p in (tmp_path / "tables").iterdir())
        assert "group_S4.txt" in files and "dual_Q8.txt" in files
        # the dumped tables load back and validate
        g = vf.load_group_file(tmp_path / "tables" / "group_S3.txt")
        dual = vf.load_dual_file(tmp_path / "tables" / "dual_S3.txt", g)
        assert vf.validate_dual(g, dual).max_residual <= 1e-10
