import numpy as np
import pytest

import vmfourier as vf
from vmfourier import ScalarFunction, VectorMeasure, XVector

from conftest import random_function, random_measure


class TestConvClassical:
    def test_scaled_point_mass_is_identity(self, s3):
        f = random_function(s3, 1)
        delta = ScalarFunction(s3, s3.order * vf.ScalarFunction.indicator(s3, [s3.identity]).values)
        out = vf.conv_classical(f, delta)
        assert np.allclose(out.values, f.values, atol=1e-12)

    def test_sign_character_squares(self, z2):
        chi = ScalarFunction(z2, [1, -1])
        assert np.allclose(vf.conv_classical(chi, chi).values, [1, -1])

    def test_constants(self, z2):
        one = ScalarFunction.constant(z2)
        assert np.allclose(vf.conv_classical(one, one).values, 1.0)

    def test_group_mismatch(self, z2, s3):
        with pytest.raises(ValueError):
            vf.conv_classical(ScalarFunction.constant(z2), ScalarFunction.constant(s3))


class TestConvWeak:
    def test_zero_functional(self, F3, linf2):
        one = ScalarFunction.constant(F3.group)
        out = vf.conv_weak(one, one, F3, XVector(linf2, [0, 0]))
        assert np.allclose(out.values, 0)

    def test_haar_scalar_reduces_to_classical(self, s3):
        nu = VectorMeasure.haar_scalar(s3)
        f, g = random_function(s3, 2), random_function(s3, 3)
        out = vf.conv_weak(f, g, nu, XVector(vf.ScalarSpace(), [1]))
        assert np.allclose(out.values, vf.conv_classical(f, g).values, atol=1e-12)

    def test_f3_constant(self, F3, linf2):
        one = ScalarFunction.constant(F3.group)
        out = vf.conv_weak(one, one, F3, XVector(linf2, [1, 0]))
        assert np.allclose(out.values, 1.0)


class TestConvVector:
    def test_point_mass_filter(self, F3):
        f = ScalarFunction(F3.group, [2, 0])
        one = ScalarFunction.constant(F3.group)
        out = vf.conv_vector(f, one, F3)
        assert np.allclose(out.values, [[2, 0], [0, 2]])

    def test_zero_function(self, F3):
        one = ScalarFunction.constant(F3.group)
        zero = ScalarFunction.constant(F3.group, 0.0)
        assert np.allclose(vf.conv_vector(one, zero, F3).values, 0)

    def test_scalar_haar_collapse(self, s3):
        nu = VectorMeasure.haar_scalar(s3)
        f, g = random_function(s3, 4), random_function(s3, 5)
        out = vf.conv_vector(f, g, nu)
        assert np.allclose(out.values[:, 0], vf.conv_classical(f, g).values, atol=1e-12)

    def test_scalarization_identity(self, builtin_groups, all_spaces):
        # pairing the vector convolution with any functional gives the weak one
        for k, (g, _) in enumerate(builtin_groups[:5]):
            for si, space in enumerate(all_spaces):
                nu = random_measure(g, space, seed=5 * k + si)
                f, h = random_function(g, k + si), random_function(g, 40 + k + si)
                rng = np.random.default_rng(k * si + 1)
                xp = XVector(space, 0.8 * space.sample_dual(rng, 1)[0])
                vec = vf.conv_vector(f, h, nu)
                weak = vf.conv_weak(f, h, nu, xp)
                paired = space.pair_many(vec.values, xp.coords[None, :])[0]
                assert np.allclose(paired, weak.values, atol=1e-10)


class TestMeasureConvolutions:
    def test_identity_point_mass(self, F3, z2):
        delta_e = VectorMeasure.scalar(z2, [1, 0])
        assert np.allclose(vf.conv_measure_sv(delta_e, F3).atoms, F3.atoms)
        assert np.allclose(vf.conv_measure_vs(F3, delta_e).atoms, F3.atoms)

    def test_delta_translation(self, F3, z2):
        delta_a = VectorMeasure.scalar(z2, [0, 1])
        out = vf.conv_measure_sv(delta_a, F3)
        assert np.allclose(out.atoms, [[0, 1], [1, 0]])

    def test_zero_measure(self, F3, z2):
        zero = VectorMeasure.scalar(z2, [0, 0])
        assert np.allclose(vf.conv_measure_sv(zero, F3).atoms, 0)

    def test_abelian_commutes(self, z2, all_spaces):
        for si, space in enumerate(all_spaces):
            for seed in range(10):
                rng = np.random.default_rng(100 * si + seed)
                mu = VectorMeasure.scalar(z2, rng.standard_normal(2) + 1j * rng.standard_normal(2))
                nu = random_measure(z2, space, seed=seed + si)
                a = vf.conv_measure_sv(mu, nu)
                b = vf.conv_measure_vs(nu, mu)
                assert np.abs(a.atoms - b.atoms).max() < 1e-12

    def test_nonabelian_witness(self, s3, linf2):
        # point masses at non-commuting elements transport the atom to ts
        # on one side and st on the other
        t, s = next(
            (t, s)
            for t in range(6)
            for s in range(6)
            if s3.mul(t, s) != s3.mul(s, t)
        )
        mu_vals = np.zeros(6)
        mu_vals[t] = 1.0
        mu = VectorMeasure.scalar(s3, mu_vals)
        atoms = np.zeros((6, 2), dtype=complex)
        atoms[s] = [1, 1]
        nu = VectorMeasure(s3, linf2, atoms)
        a = vf.conv_measure_sv(mu, nu)
        b = vf.conv_measure_vs(nu, mu)
        assert np.abs(a.atoms[s3.mul(t, s)]).max() == pytest.approx(1.0)
        assert np.abs(b.atoms[s3.mul(s, t)]).max() == pytest.approx(1.0)
        assert np.abs(a.atoms - b.atoms).max() >= 0.5

    def test_semivariation_submultiplicative(self, s3, all_spaces):
        for si, space in enumerate(all_spaces):
            rng = np.random.default_rng(si)
            mu = VectorMeasure.scalar(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
            nu = random_measure(s3, space, seed=200 + si)
            lhs = vf.semivariation(vf.conv_measure_sv(mu, nu))
            bound = vf.variation(mu) * vf.semivariation(nu).upper
            assert lhs.lower <= bound + 1e-9


class TestConvFunctionMeasure:
    def test_scaled_point_mass(self, F3):
        f = ScalarFunction(F3.group, [2, 0])
        out = vf.conv_function_measure(f, F3)
        assert np.allclose(out.values, [[2, 0], [0, 2]])

    def test_constant_gives_total_mass(self, s3, linf2):
        nu = random_measure(s3, linf2, seed=8)
        out = vf.conv_function_measure(ScalarFunction.constant(s3), nu)
        total = vf.evaluate(nu).coords
        assert np.allclose(out.values, np.tile(total, (6, 1)), atol=1e-12)

    def test_zero(self, F3):
        out = vf.conv_function_measure(ScalarFunction.constant(F3.group, 0.0), F3)
        assert np.allclose(out.values, 0)

    def test_matches_vector_convolution_with_one(self, s3, linf2):
        nu = random_measure(s3, linf2, seed=12)
        f = random_function(s3, 12)
        a = vf.conv_function_measure(f, nu)
        b = vf.conv_vector(f, ScalarFunction.constant(s3), nu)
        assert np.allclose(a.values, b.values)


class TestFourierIdentities:
    def test_weak_convolution_transform(self, builtin_groups, all_spaces):
        from vmfourier.harness import _ft_conv6_residual

        for k, (g, dual) in enumerate(builtin_groups):
            space = all_spaces[k % len(all_spaces)]
            nu = random_measure(g, space, seed=300 + k)
            f, h = random_function(g, k), random_function(g, 30 + k)
            rng = np.random.default_rng(k)
            xp = XVector(space, space.sample_dual(rng, 1)[0])
            assert _ft_conv6_residual(f, h, nu, xp, dual) < 1e-10

    def test_measure_convolution_transform(self, builtin_groups, all_spaces):
        from vmfourier.harness import _ft_conv8_residual

        for k, (g, dual) in enumerate(builtin_groups):
            space = all_spaces[(k + 1) % len(all_spaces)]
            rng = np.random.default_rng(k)
            mu = VectorMeasure.scalar(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
            nu = random_measure(g, space, seed=400 + k)
            assert _ft_conv8_residual(mu, nu, dual) < 1e-10

    def test_pettis_product_formula(self, s3, all_spaces):
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=500 + si)
            f, h = random_function(s3, si), random_function(s3, 60 + si)
            lhs = vf.pettis_integral(vf.conv_vector(f, h, nu))
            rhs = complex(np.mean(f.values)) * vf.integrate(h.values, nu).coords
            assert np.abs(lhs.coords - rhs).max() < 1e-10

    def test_duality_formula(self, s3, all_spaces):
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=600 + si)
            f, h, phi = (random_function(s3, 70 + si), random_function(s3, 80 + si),
                         random_function(s3, 90 + si))
            rng = np.random.default_rng(si)
            xp = XVector(space, space.sample_dual(rng, 1)[0])
            weak = vf.conv_weak(f, h, nu, xp)
            lhs = complex(np.mean(weak.values * phi.values))
            inner = vf.conv_classical(vf.reflect(f), phi)
            rhs = vf.pair(vf.integrate(inner.values * h.values, nu), xp)
            assert abs(lhs - rhs) < 1e-10


class TestYoungSpotChecks:
    # direct instances of the convolution norm inequalities on exact spaces,
    # independent of the harness machinery
    def test_weak_convolution_haar_bound(self, s3, linf2):
        nu = vf.generate_fixture("haar-like", s3, linf2)
        for seed in range(5):
            f, g = random_function(s3, seed), random_function(s3, seed + 50)
            rng = np.random.default_rng(seed)
            xp = XVector(linf2, 1.5 * linf2.sample_dual(rng, 1)[0])
            for p in (1, 2, 3):
                lhs = vf.lp_norm_haar(vf.conv_weak(f, g, nu, xp), p)
                rhs = (
                    vf.lp_norm_haar(f, p)
                    * vf.lp_nu_norm(g, nu, 1).lower
                    * vf.dual_norm(xp)
                )
                assert lhs <= rhs + 1e-9

    def test_classical_convolution_nu_bound(self, s3, linf2):
        nu = vf.generate_fixture("haar-like", s3, linf2)
        for seed in range(5):
            f, g = random_function(s3, seed + 200), random_function(s3, seed + 300)
            for p in (1, 1.5, 2, 4):
                lhs = vf.lp_nu_norm(vf.conv_classical(f, g), nu, p).lower
                rhs = vf.lp_nu_norm(f, nu, p).lower * vf.lp_norm_haar(g, 1)
                assert lhs <= rhs + 1e-9

    def test_integration_embedding_bound(self, s3, all_spaces):
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=700 + si)
            for seed in range(4):
                f = random_function(s3, 700 + seed)
                for p in (1.5, 2, 3):
                    lhs = vf.norm(vf.integrate(f.values, nu))
                    rhs = vf.p_semivariation(nu, p).upper * vf.lp_norm_haar(
                        f, p / (p - 1)
                    )
                    assert lhs <= rhs + 1e-9
