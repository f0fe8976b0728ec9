import numpy as np
import pytest

import vmfourier as vf
from vmfourier import ScalarFunction, VectorMeasure, XVector

from conftest import random_function, random_measure


class TestClassicalTransform:
    def test_constant_on_z2(self, z2, z2_dual):
        c = vf.ft_classical(ScalarFunction.constant(z2), z2_dual)
        assert c.blocks[0][0, 0] == pytest.approx(1.0)
        assert abs(c.blocks[1][0, 0]) < 1e-14

    def test_sign_character_on_z2(self, z2, z2_dual):
        c = vf.ft_classical(ScalarFunction(z2, [1, -1]), z2_dual)
        assert abs(c.blocks[0][0, 0]) < 1e-14
        assert c.blocks[1][0, 0] == pytest.approx(1.0)

    def test_zero_function(self, s3, s3_dual):
        c = vf.ft_classical(ScalarFunction.constant(s3, 0.0), s3_dual)
        assert all(np.abs(b).max() == 0 for b in c.blocks)

    def test_convolution_theorem(self, s3, s3_dual):
        # transform of f * g is d times (g-hat)(f-hat), blockwise
        f, g = random_function(s3, 1), random_function(s3, 2)
        c = vf.ft_classical(vf.conv_classical(f, g), s3_dual)
        fh = vf.ft_classical(f, s3_dual)
        gh = vf.ft_classical(g, s3_dual)
        for r, p in enumerate(s3_dual.irreps):
            assert np.allclose(c.blocks[r], p.dim * gh.blocks[r] @ fh.blocks[r], atol=1e-12)


def _adjoints(p):
    return p.matrices.conj().transpose(0, 2, 1)


class TestAgainstPerIrrepFormulas:
    """The cached-matrix transforms against the per-irrep einsum formulas,
    entry by entry, on every built-in group (blocks of size 1, 2 and 3)."""

    def test_classical(self, builtin_groups):
        for k, (g, dual) in enumerate(builtin_groups):
            f = random_function(g, 200 + k)
            c = vf.ft_classical(f, dual)
            for p, b in zip(dual.irreps, c.blocks):
                ref = np.einsum("t,tab->ab", f.values, _adjoints(p)) / (p.dim * g.order)
                assert np.abs(b - ref).max() < 1e-12

    def test_vector_and_measure(self, builtin_groups, all_spaces):
        for k, (g, dual) in enumerate(builtin_groups):
            for si, space in enumerate(all_spaces):
                nu = random_measure(g, space, seed=300 + 10 * k + si)
                f = random_function(g, 400 + 10 * k + si)
                vec, meas = vf.ft_vector(f, nu, dual), vf.ft_measure(nu, dual)
                for p, bv, bm in zip(dual.irreps, vec.blocks, meas.blocks):
                    adj = _adjoints(p) / p.dim
                    ref_v = np.einsum("tij,tc->ijc", f.values[:, None, None] * adj, nu.atoms)
                    ref_m = np.einsum("tij,tc->ijc", adj, nu.atoms)
                    assert np.abs(bv.entries - ref_v).max() < 1e-12
                    assert np.abs(bm.entries - ref_m).max() < 1e-12

    def test_inverse(self, builtin_groups):
        rng = np.random.default_rng(5)
        for g, dual in builtin_groups:
            blocks = [
                rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim))
                for p in dual.irreps
            ]
            stack = np.concatenate([b.reshape(-1) for b in blocks])
            back = vf.ft_inverse(vf.FourierCoefficients(dual, stack))
            ref = sum(
                p.dim**2 * np.einsum("ab,tba->t", b, p.matrices)
                for p, b in zip(dual.irreps, blocks)
            )
            assert np.abs(back.values - ref).max() < 1e-12

    def test_coefficients_are_cached_and_read_only(self, s3_dual):
        c = s3_dual.coefficients
        assert c is s3_dual.coefficients
        assert c.shape == (sum(d * d for d in s3_dual.dims()), 6)
        with pytest.raises(ValueError):
            c[0, 0] = 1.0


class TestContainers:
    def test_constructors_reject_wrong_stack(self, s3_dual, linf2):
        rows = len(s3_dual.coefficients)
        for stack in (np.zeros(rows - 1), np.zeros(rows + 1), np.zeros((rows, 1))):
            with pytest.raises(ValueError):
                vf.FourierCoefficients(s3_dual, stack)
        for stack in (np.zeros((rows - 1, 2)), np.zeros((rows, 3)), np.zeros(rows * 2)):
            with pytest.raises(ValueError):
                vf.VectorFourierCoefficients(s3_dual, linf2, stack)

    def test_blocks_are_views_of_the_stack(self, s3, s3_dual, linf2):
        f = random_function(s3, 3)
        c = vf.ft_classical(f, s3_dual)
        vec = vf.ft_vector(f, random_measure(s3, linf2, seed=3), s3_dual)
        assert [b.shape for b in c.blocks] == [(d, d) for d in s3_dual.dims()]
        assert all(np.shares_memory(b, c.stack) for b in c.blocks)
        assert [b.level for b in vec.blocks] == s3_dual.dims()
        assert all(np.shares_memory(b.entries, vec.stack) for b in vec.blocks)
        assert vec.blocks is vec.blocks


class TestInversionPlancherel:
    def test_roundtrip_sign_character(self, z2, z2_dual):
        f = ScalarFunction(z2, [1, -1])
        back = vf.ft_inverse(vf.ft_classical(f, z2_dual))
        assert np.allclose(back.values, f.values, atol=1e-12)

    def test_zero_blocks(self, z2, z2_dual):
        c = vf.FourierCoefficients(z2_dual, np.zeros(2))
        assert np.allclose(vf.ft_inverse(c).values, 0)

    def test_delta_block_gives_constant(self, z2, z2_dual):
        c = vf.FourierCoefficients(z2_dual, [1.0, 0.0])
        assert np.allclose(vf.ft_inverse(c).values, 1.0)

    def test_plancherel_sign_character(self, z2, z2_dual):
        lhs, rhs = vf.plancherel_check(ScalarFunction(z2, [1, -1]), z2_dual)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_random_functions_all_groups(self, builtin_groups):
        for k, (g, dual) in enumerate(builtin_groups):
            for trial in range(6):
                f = random_function(g, 31 * k + trial)
                lhs, rhs = vf.plancherel_check(f, dual)
                assert lhs == pytest.approx(rhs, abs=1e-10)
                back = vf.ft_inverse(vf.ft_classical(f, dual))
                assert np.abs(back.values - f.values).max() < 1e-10


class TestVectorTransform:
    def test_f3_blocks(self, F3, z2_dual):
        c = vf.ft_vector(ScalarFunction.constant(F3.group), F3, z2_dual)
        assert np.allclose(c.blocks[0].entries[0, 0], [1, 1])
        assert np.allclose(c.blocks[1].entries[0, 0], [1, -1])

    def test_zero_function(self, F3, z2_dual):
        c = vf.ft_vector(ScalarFunction.constant(F3.group, 0.0), F3, z2_dual)
        assert all(np.abs(b.entries).max() == 0 for b in c.blocks)

    def test_scalar_haar_reduces_to_classical(self, s3, s3_dual):
        nu = VectorMeasure.haar_scalar(s3)
        f = random_function(s3, 3)
        vec = vf.ft_vector(f, nu, s3_dual)
        cls = vf.ft_classical(f, s3_dual)
        for r in range(len(s3_dual.irreps)):
            assert np.allclose(vec.blocks[r].entries[:, :, 0], cls.blocks[r], atol=1e-12)

    def test_trivial_block_is_integral(self, s3, s3_dual, linf2):
        nu = random_measure(s3, linf2, seed=9)
        f = random_function(s3, 9)
        vec = vf.ft_vector(f, nu, s3_dual)
        assert np.allclose(
            vec.blocks[0].entries[0, 0], vf.integrate(f.values, nu).coords, atol=1e-12
        )

    def test_group_mismatch(self, F3, s3_dual):
        with pytest.raises(ValueError):
            vf.ft_vector(ScalarFunction.constant(F3.group), F3, s3_dual)


class TestMeasureTransform:
    def test_f3(self, F3, z2_dual):
        c = vf.ft_measure(F3, z2_dual)
        assert np.allclose(c.blocks[0].entries[0, 0], [1, 1])
        assert np.allclose(c.blocks[1].entries[0, 0], [1, -1])

    def test_point_mass_blocks(self, s3, s3_dual, linf2):
        nu = vf.generate_fixture("point-mass", s3, linf2)
        x0 = nu.atoms[s3.identity]
        c = vf.ft_measure(nu, s3_dual)
        for r, p in enumerate(s3_dual.irreps):
            expected = np.einsum("ab,c->abc", np.eye(p.dim) / p.dim, x0)
            assert np.allclose(c.blocks[r].entries, expected, atol=1e-12)

    def test_scalar_point_mass_character_value(self, z2, z2_dual):
        mu = VectorMeasure.scalar(z2, [0, 1])
        c = vf.ft_measure(mu, z2_dual)
        assert c.blocks[1].entries[0, 0, 0] == pytest.approx(-1.0)


class TestWeakTransform:
    def test_zero_functional(self, F3, z2_dual, linf2):
        c = vf.ft_weak(
            ScalarFunction.constant(F3.group), F3, XVector(linf2, [0, 0]), z2_dual
        )
        assert all(np.abs(b).max() == 0 for b in c.blocks)

    def test_haar_scalar_with_unit_functional(self, s3, s3_dual):
        nu = VectorMeasure.haar_scalar(s3)
        f = random_function(s3, 21)
        weak = vf.ft_weak(f, nu, XVector(vf.ScalarSpace(), [1]), s3_dual)
        cls = vf.ft_classical(f, s3_dual)
        assert weak.max_abs_diff(cls) < 1e-12

    def test_f3_first_coordinate(self, F3, z2_dual, linf2):
        c = vf.ft_weak(
            ScalarFunction.constant(F3.group), F3, XVector(linf2, [1, 0]), z2_dual
        )
        assert c.blocks[1][0, 0] == pytest.approx(1.0)

    def test_pairing_compatibility(self, builtin_groups, all_spaces):
        # pairing each entry of the vector transform's blocks with a
        # functional gives the weak transform, entry by entry
        for k, (g, dual) in enumerate(builtin_groups[:5]):
            for si, space in enumerate(all_spaces):
                nu = random_measure(g, space, seed=7 * k + si)
                f = random_function(g, 50 + k + si)
                rng = np.random.default_rng(k + si)
                xp = XVector(space, 1.3 * space.sample_dual(rng, 1)[0])
                vec = vf.ft_vector(f, nu, dual)
                weak = vf.ft_weak(f, nu, xp, dual)
                for vb, wb in zip(vec.blocks, weak.blocks):
                    flat = vb.entries.reshape(-1, space.dim)
                    paired = space.pair_many(flat, xp.coords[None, :])[0].reshape(wb.shape)
                    assert np.allclose(paired, wb, atol=1e-10)

    def test_density_measure_identity(self, s3, s3_dual, all_spaces):
        # transforming f against nu equals transforming the density measure
        for si, space in enumerate(all_spaces):
            nu = random_measure(s3, space, seed=60 + si)
            f = random_function(s3, 70 + si)
            a = vf.ft_vector(f, nu, s3_dual)
            b = vf.ft_measure(vf.measure_from_density(nu, f.values), s3_dual)
            assert a.max_abs_diff(b) < 1e-12


class TestSupNormBounds:
    def test_zero_coefficients(self, F3, z2_dual):
        c = vf.ft_measure(VectorMeasure.zero(F3.group, F3.space), z2_dual)
        assert vf.ft_sup_norm(c).upper == 0.0

    def test_f3_sup_norm(self, F3, z2_dual):
        est = vf.ft_sup_norm(vf.ft_measure(F3, z2_dual))
        assert est.exact and est.lower == pytest.approx(1.0)

    def test_scalar_measure_variation_bound(self, s3, s3_dual):
        for seed in range(5):
            nu = random_measure(s3, vf.ScalarSpace(), seed=seed)
            est = vf.ft_sup_norm(vf.ft_measure(nu, s3_dual))
            assert est.lower <= vf.variation(nu) + 1e-10

    def test_function_transform_bound(self, builtin_groups, all_spaces):
        for k, (g, dual) in enumerate(builtin_groups):
            for si, space in enumerate(all_spaces):
                nu = random_measure(g, space, seed=3 * k + si)
                f = random_function(g, 80 + k + si)
                lhs = vf.ft_sup_norm(vf.ft_vector(f, nu, dual))
                rhs = vf.lp_nu_norm(f, nu, 1)
                assert lhs.lower <= rhs.upper + 1e-8


class TestUniqueness:
    def test_measure_transform_kernel_zero(self, builtin_groups, all_spaces):
        for g, dual in builtin_groups:
            for space in all_spaces:
                assert vf.uniqueness_rank(dual, space) == 0

    def test_function_transform_kernel_zero(self, F3, z2_dual):
        assert vf.uniqueness_rank(z2_dual, F3) == 0

    def test_null_atom_restriction(self, z2, z2_dual, linf2):
        nu = VectorMeasure(z2, linf2, [[1, 1], [0, 0]])
        assert vf.uniqueness_rank(z2_dual, nu) == 0

    def test_zero_measure_has_trivial_domain(self, z2, z2_dual, linf2):
        assert vf.uniqueness_rank(z2_dual, VectorMeasure.zero(z2, linf2)) == 0
