import numpy as np
import pytest

import vmfourier as vf
from vmfourier import GroupMap, ScalarFunction, VectorFunction, XVector

from conftest import random_function, random_measure


class TestLpNormHaar:
    def test_constant_any_p(self, z2):
        f = ScalarFunction.constant(z2, 1.0)
        for p in (1, 2, 3.5, np.inf):
            assert vf.lp_norm_haar(f, p) == pytest.approx(1.0)

    def test_indicator(self, z2):
        f = ScalarFunction.indicator(z2, [0])
        assert vf.lp_norm_haar(f, 1) == pytest.approx(0.5)

    def test_sign_character_l2(self, z2):
        f = ScalarFunction(z2, [1, -1])
        assert vf.lp_norm_haar(f, 2) == pytest.approx(1.0)

    def test_p_below_one_rejected(self, z2):
        with pytest.raises(ValueError):
            vf.lp_norm_haar(ScalarFunction.constant(z2), 0.5)

    def test_nan_p_rejected(self, z2):
        with pytest.raises(ValueError):
            vf.lp_norm_haar(ScalarFunction.constant(z2), np.nan)

    def test_monotone_in_p(self, s3):
        f = random_function(s3, 1)
        norms = [vf.lp_norm_haar(f, p) for p in (1, 1.5, 2, 3, 4, np.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


class TestLpNuNorm:
    def test_nan_p_rejected(self, F3):
        with pytest.raises(ValueError):
            vf.lp_nu_norm(ScalarFunction.constant(F3.group), F3, np.nan)

    def test_zero_function(self, F3):
        f = ScalarFunction.constant(F3.group, 0.0)
        assert vf.lp_nu_norm(f, F3, 1).upper == 0.0

    def test_constant_one_equals_semivariation(self, F3):
        est = vf.lp_nu_norm(ScalarFunction.constant(F3.group), F3, 1)
        assert est.exact and est.lower == pytest.approx(1.0)

    def test_indicator_single_column(self, F3):
        est = vf.lp_nu_norm(ScalarFunction.indicator(F3.group, [0]), F3, 1)
        assert est.exact and est.lower == pytest.approx(1.0)

    def test_p_infinity_excludes_null_atoms(self, z2, linf2):
        nu = vf.VectorMeasure(z2, linf2, [[1, 1], [0, 0]])
        f = ScalarFunction(z2, [1, 100])
        est = vf.lp_nu_norm(f, nu, np.inf)
        assert est.exact and est.lower == pytest.approx(1.0)

    def test_hoelder_consistency(self, s3, all_spaces):
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1)
            for si, space in enumerate(all_spaces):
                if not space.exact_dual_sup:
                    continue
                nu = random_measure(s3, space, seed=20 + si)
                f, g = random_function(s3, si), random_function(s3, 100 + si)
                lhs = vf.lp_nu_norm(f * g, nu, 1).lower
                rhs = vf.lp_nu_norm(f, nu, p).lower * vf.lp_nu_norm(g, nu, q).lower
                assert lhs <= rhs + 1e-9


class TestMatrixNorms:
    def test_n_norm_level_one_collapse(self, F3):
        f = random_function(F3.group, 2)
        F = vf.MatrixFunction(F3.group, 1, f.values[:, None, None])
        a = vf.N_norm(F, F3)
        b = vf.lp_nu_norm(f, F3, 1)
        assert a.lower == pytest.approx(b.lower) and a.upper == pytest.approx(b.upper)

    def test_n_norm_unitary_integrand(self, s3, s3_dual, all_spaces):
        # ||pi(t)^*|| = 1 pointwise, so the norm equals the semivariation
        two = next(p for p in s3_dual.irreps if p.dim == 2)
        F = vf.MatrixFunction(s3, 2, two.matrices.conj().transpose(0, 2, 1))
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=30 + si)
            a = vf.N_norm(F, nu)
            b = vf.semivariation(nu)
            assert a.lower == pytest.approx(b.lower, abs=1e-9)
            assert a.upper == pytest.approx(b.upper, abs=1e-9)

    def test_n_norm_zero(self, s3, linf2):
        F = vf.MatrixFunction(s3, 2, np.zeros((6, 2, 2)))
        nu = random_measure(s3, linf2, seed=4)
        assert vf.N_norm(F, nu).upper == 0.0


class TestPpNorm:
    def test_rank_one_factorization(self, s3, all_spaces):
        f = random_function(s3, 7)
        for si, space in enumerate(all_spaces):
            if not space.exact_dual_sup:
                continue
            rng = np.random.default_rng(si)
            x0 = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            phi = VectorFunction(s3, space, f.values[:, None] * x0[None, :])
            for p in (1, 2, 3):
                est = vf.Pp_norm(phi, p)
                expected = vf.lp_norm_haar(f, p) * space.norm_of(x0)
                assert est.lower == pytest.approx(expected, abs=1e-10)

    def test_coordinate_indicators(self, z2, linf2):
        phi = VectorFunction(z2, linf2, np.array([[1, 0], [0, 1]], dtype=complex))
        est = vf.Pp_norm(phi, 1)
        assert est.exact and est.lower == pytest.approx(0.5)

    def test_zero_function(self, z2, linf2):
        phi = VectorFunction(z2, linf2, np.zeros((2, 2)))
        assert vf.Pp_norm(phi, 2).upper == 0.0

    def test_rejects_p_below_one(self, z2, linf2):
        phi = VectorFunction(z2, linf2, np.ones((2, 2)))
        with pytest.raises(ValueError, match="p must be"):
            vf.Pp_norm(phi, 0.5)

    def test_monotone_in_p(self, s3, all_spaces):
        rng = np.random.default_rng(9)
        for space in all_spaces:
            vals = rng.standard_normal((6, space.dim)) + 1j * rng.standard_normal((6, space.dim))
            phi = VectorFunction(s3, space, vals)
            prev = 0.0
            for p in (1, 1.5, 2, 3):
                est = vf.Pp_norm(phi, p)
                assert est.upper >= prev - 1e-9
                prev = est.lower


class TestPettisIntegral:
    def test_constant(self, z2, linf2):
        phi = VectorFunction(z2, linf2, np.tile([2.0, 3.0], (2, 1)))
        assert np.allclose(vf.pettis_integral(phi).coords, [2, 3])

    def test_coordinate_average(self, z2, linf2):
        phi = VectorFunction(z2, linf2, np.array([[1, 0], [0, 1]], dtype=complex))
        assert np.allclose(vf.pettis_integral(phi).coords, [0.5, 0.5])

    def test_empty_subset(self, z2, linf2):
        phi = VectorFunction(z2, linf2, np.ones((2, 2)))
        assert np.allclose(vf.pettis_integral(phi, []).coords, 0)

    def test_commutes_with_scalarization(self, s3, all_spaces):
        rng = np.random.default_rng(14)
        for si, space in enumerate(all_spaces):
            vals = rng.standard_normal((6, space.dim)) + 1j * rng.standard_normal((6, space.dim))
            phi = VectorFunction(s3, space, vals)
            xp = XVector(space, space.sample_dual(rng, 1)[0])
            subset = [0, 2, 5]
            lhs = vf.pair(vf.pettis_integral(phi, subset), xp)
            rhs = sum(
                space.pair_many(vals[t][None, :], xp.coords[None, :])[0, 0] for t in subset
            ) / s3.order
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPushforwardFunctions:
    def test_identity(self, s3):
        f = random_function(s3, 15)
        out = vf.function_pushforward(f, GroupMap.identity(s3))
        assert np.allclose(out.values, f.values)

    def test_translate_indicator(self, z2):
        f = ScalarFunction.indicator(z2, [0])
        out = vf.function_pushforward(f, GroupMap.translation(z2, 1))
        assert np.allclose(out.values, [0, 1])

    def test_reflect_on_involutive_group(self, z2):
        f = ScalarFunction(z2, [3, 7])
        assert np.allclose(vf.reflect(f).values, f.values)

    def test_translation_formula(self, s3):
        # (tau_t f)(s) = f(s t^{-1})
        f = random_function(s3, 16)
        for t in range(s3.order):
            out = vf.function_pushforward(f, GroupMap.translation(s3, t))
            for s in range(s3.order):
                assert out.values[s] == pytest.approx(
                    f.values[s3.mul(s, s3.inv(t))]
                )

    def test_group_mismatch(self, z2, s3):
        with pytest.raises(ValueError):
            vf.function_pushforward(
                ScalarFunction.constant(z2), GroupMap.identity(s3)
            )
