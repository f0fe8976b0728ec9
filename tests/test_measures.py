import numpy as np
import pytest

import vmfourier as vf
from vmfourier import GroupMap, VectorMeasure, XVector

from conftest import random_measure


class TestEvaluate:
    def test_empty_set(self, F3):
        assert np.allclose(vf.evaluate(F3, []).coords, 0)

    def test_whole_group(self, F3):
        assert np.allclose(vf.evaluate(F3).coords, [1, 1])

    def test_haar_total_mass(self, z2):
        nu = VectorMeasure.haar_scalar(z2)
        assert vf.evaluate(nu).coords[0] == pytest.approx(1.0)

    def test_additivity(self, F3):
        whole = vf.evaluate(F3, [0, 1]).coords
        split = vf.evaluate(F3, [0]).coords + vf.evaluate(F3, [1]).coords
        assert np.allclose(whole, split)


class TestSpaceMismatch:
    def test_dual_vector_from_another_space_rejected(self, F3):
        xp = XVector(vf.LinfSpace(3), [1, 0, 0])
        with pytest.raises(ValueError, match="space mismatch"):
            vf.radon_nikodym(F3, xp)


class TestVariationSemivariation:
    def test_zero_measure(self, z2, linf2):
        nu = VectorMeasure.zero(z2, linf2)
        assert vf.variation(nu) == 0.0
        assert vf.semivariation(nu).upper == 0.0

    def test_f3_values(self, F3):
        assert vf.variation(F3) == pytest.approx(2.0)
        sv = vf.semivariation(F3)
        assert sv.exact and sv.lower == pytest.approx(1.0)

    def test_scalar_semivariation_equals_variation(self, z2):
        nu = VectorMeasure.scalar(z2, [0.5, -0.25j])
        sv = vf.semivariation(nu)
        assert sv.exact and sv.lower == pytest.approx(vf.variation(nu))

    def test_single_atom(self, z2, linf2):
        nu = VectorMeasure(z2, linf2, [[2, 1], [0, 0]])
        sv = vf.semivariation(nu, [0])
        assert sv.lower == pytest.approx(2.0)

    def test_sandwich(self, builtin_groups, all_spaces):
        for k, (g, _) in enumerate(builtin_groups[:4]):
            for si, space in enumerate(all_spaces):
                nu = random_measure(g, space, seed=10 * k + si)
                sv = vf.semivariation(nu)
                assert vf.norm(vf.evaluate(nu)) <= sv.lower + 1e-9
                assert sv.upper <= vf.variation(nu) + 1e-9

    def test_phase_sup_characterization(self, z2, all_spaces):
        # independent oracle: sup over |eps_t| <= 1 of ||sum eps_t x_t|| on a
        # dense phase grid never exceeds the semivariation bracket
        for si, space in enumerate(all_spaces):
            nu = random_measure(z2, space, seed=40 + si)
            sv = vf.semivariation(nu)
            grid = np.exp(2j * np.pi * np.arange(24) / 24)
            best = 0.0
            for e0 in grid:
                for e1 in grid:
                    v = e0 * nu.atoms[0] + e1 * nu.atoms[1]
                    best = max(best, space.norm_of(v))
            assert best <= sv.upper + 1e-9
            if space.exact_dual_sup:
                assert best <= sv.lower + 1e-9


class TestPSemivariation:
    @pytest.mark.parametrize("p", [1.0, 0.5, np.nan])
    def test_p_not_above_one_rejected(self, F3, p):
        with pytest.raises(ValueError):
            vf.p_semivariation(F3, p)

    def test_f3_p2(self, F3):
        est = vf.p_semivariation(F3, 2)
        assert est.exact and est.lower == pytest.approx(np.sqrt(2))

    def test_f3_infinity_subset_scan(self, F3, z2):
        est = vf.p_semivariation(F3, np.inf)
        assert est.lower == pytest.approx(2.0)
        # exhaustive oracle over nonempty subsets of ||nu(A)|| / m(A)
        best = 0.0
        for mask in range(1, 4):
            subset = [t for t in range(2) if mask >> t & 1]
            best = max(
                best, vf.norm(vf.evaluate(F3, subset)) * z2.order / len(subset)
            )
        assert est.lower == pytest.approx(best)

    def test_zero_measure(self, z2, linf2):
        assert vf.p_semivariation(VectorMeasure.zero(z2, linf2), 3).upper == 0.0

    def test_p_at_most_one_rejected(self, F3):
        with pytest.raises(ValueError):
            vf.p_semivariation(F3, 1.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sphere_sampling_oracle(self, s3, all_spaces, p):
        # random points of the L^{p'} unit sphere give operator values below
        # the bracket; for exact variants they stay below the exact value
        q = p / (p - 1)
        rng = np.random.default_rng(5)
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=60 + si)
            est = vf.p_semivariation(nu, p)
            best = 0.0
            for _ in range(300):
                alpha = rng.standard_normal(s3.order) + 1j * rng.standard_normal(s3.order)
                alpha /= np.mean(np.abs(alpha) ** q) ** (1 / q)
                best = max(best, vf.norm(vf.integrate(alpha, nu)))
            assert best <= est.upper + 1e-9
            if space.exact_dual_sup:
                assert best <= est.lower + 1e-9
                assert best >= 0.5 * est.lower  # sampling is not vacuous


class TestRadonNikodym:
    def test_haar_density_is_one(self, z2):
        nu = VectorMeasure.haar_scalar(z2)
        h = vf.radon_nikodym(nu, XVector(vf.ScalarSpace(), [1]))
        assert np.allclose(h, 1.0)

    def test_f3_coordinate(self, F3, linf2):
        h = vf.radon_nikodym(F3, XVector(linf2, [1, 0]))
        assert np.allclose(h, [2, 0])

    def test_zero_measure_density(self, z2, linf2):
        nu = VectorMeasure.zero(z2, linf2)
        h = vf.radon_nikodym(nu, XVector(linf2, [1, 1]))
        assert np.allclose(h, 0)

    def test_reintegration_recovers_scalarization(self, s3, all_spaces):
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=80 + si)
            xp = XVector(space, space.sample_dual(np.random.default_rng(si), 1)[0])
            h = vf.radon_nikodym(nu, xp)
            expected = space.pair_many(nu.atoms, xp.coords[None, :])[0]
            assert np.allclose(h / s3.order, expected, atol=1e-12)


class TestPushforward:
    def test_identity_map(self, F3):
        out = vf.pushforward(F3, GroupMap.identity(F3.group))
        assert np.allclose(out.atoms, F3.atoms)

    def test_inversion_on_z2_fixes_atoms(self, F3):
        out = vf.pushforward(F3, GroupMap.inversion(F3.group))
        assert np.allclose(out.atoms, F3.atoms)

    def test_translation_swaps_atoms(self, F3):
        out = vf.pushforward(F3, GroupMap.translation(F3.group, 1))
        assert np.allclose(out.atoms, [[0, 1], [1, 0]])

    def test_map_then_inverse_is_identity(self, s3, linf2):
        nu = random_measure(s3, linf2, seed=3)
        for t in range(s3.order):
            h = GroupMap.translation(s3, t)
            back = vf.pushforward(vf.pushforward(nu, h), h.inverse())
            assert np.allclose(back.atoms, nu.atoms)

    def test_group_mismatch(self, F3, s3):
        with pytest.raises(ValueError):
            vf.pushforward(F3, GroupMap.identity(s3))


class TestInvarianceChecker:
    def test_haar_like_consistent_under_translations(self, z2, linf2):
        nu = vf.generate_fixture("haar-like", z2, linf2)
        for t in range(z2.order):
            rep = vf.check_semivariation_invariance(nu, GroupMap.translation(z2, t))
            assert rep.consistent and rep.max_discrepancy == 0.0

    def test_f3_translation_consistent(self, F3):
        rep = vf.check_semivariation_invariance(F3, GroupMap.translation(F3.group, 1))
        assert rep.consistent

    def test_refuted_example(self, z2, linf2):
        # atoms (2,0) and (0,1): translating swaps them, and the indicator of
        # the identity sees semivariation 2 on one side and 1 on the other
        nu = VectorMeasure(z2, linf2, [[2, 0], [0, 1]])
        rep = vf.check_semivariation_invariance(nu, GroupMap.translation(z2, 1))
        assert rep.refuted
        assert rep.max_discrepancy >= 1.0 - 1e-9


    @staticmethod
    def per_density_loop(nu, h, trials, seed):
        """The checker as one semivariation call per density and side."""
        rng = np.random.default_rng(seed)
        n = nu.group.order
        densities = [np.eye(n)[t] for t in range(n)]
        densities += [rng.integers(0, 2, size=n).astype(float) for _ in range(min(trials, 4))]
        densities += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(trials)]
        gaps = []
        for phi in densities:
            a = vf.semivariation(vf.measure_from_density(nu, phi))
            b = vf.semivariation(vf.measure_from_density(vf.pushforward(nu, h), phi))
            gaps.append(max(0.0, a.lower - b.upper, b.lower - a.upper))
        return vf.InvarianceReport(max(gaps) > 0, max(gaps), len(densities))

    @pytest.mark.parametrize("space_spec", ["matop:2", "weighted_l1:2", "linf:2"])
    def test_batched_equals_per_density_loop(self, space_spec):
        # the invariance-5 fixtures (haar-like, trials=2) and a random measure
        # whose translates are not all alike
        space = vf.space_from_spec(space_spec)
        for spec in ("cyclic:4", "symmetric:3"):
            g = vf.build_group(spec)
            maps = [GroupMap.translation(g, t) for t in range(g.order)] + [GroupMap.inversion(g)]
            for kind in ("haar-like", "random-gaussian"):
                nu = vf.generate_fixture(kind, g, space, seed=5)
                for h in maps:
                    rep = vf.check_semivariation_invariance(nu, h, trials=2, seed=0)
                    assert rep == self.per_density_loop(nu, h, 2, 0)


class TestDensitiesAndIntegrals:
    def test_density_one_is_identity(self, F3):
        out = vf.measure_from_density(F3, np.ones(2))
        assert np.allclose(out.atoms, F3.atoms)

    def test_density_indicator(self, F3):
        out = vf.measure_from_density(F3, [1, 0])
        assert np.allclose(out.atoms, [[1, 0], [0, 0]])

    def test_density_signs(self, F3):
        out = vf.measure_from_density(F3, [1, -1])
        assert np.allclose(out.atoms, [[1, 0], [0, -1]])

    def test_density_norm_identity(self, s3, all_spaces):
        # the semivariation of nu_f matches the weighted one-norm of f
        rng = np.random.default_rng(11)
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=90 + si)
            f = rng.standard_normal(s3.order) + 1j * rng.standard_normal(s3.order)
            a = vf.semivariation(vf.measure_from_density(nu, f))
            b = vf.lp_nu_norm(vf.ScalarFunction(s3, f), nu, 1)
            if space.exact_dual_sup:
                assert a.lower == pytest.approx(b.lower, abs=1e-10)
            else:
                gap = max(0.0, a.lower - b.upper, b.lower - a.upper)
                assert gap <= 1e-9

    def test_integrate_indicator_is_evaluate(self, F3):
        out = vf.integrate(np.array([1.0, 0.0]), F3)
        assert np.allclose(out.coords, vf.evaluate(F3, [0]).coords)

    def test_integrate_signs(self, F3):
        assert np.allclose(vf.integrate(np.array([1, -1]), F3).coords, [1, -1])
