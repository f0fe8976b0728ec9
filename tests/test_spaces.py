import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfourier import (
    LinfSpace,
    MatOpSpace,
    MatrixOverX,
    NormEstimate,
    ScalarSpace,
    WeightedL1Space,
    XVector,
    amplified_norm,
    dual_ball_sup,
    dual_norm,
    matrix_pair,
    norm,
    pair,
)
from vmfourier.harness import grid_dual_points, grid_dual_sup
from vmfourier.spaces import ASCENT_TOL, _ascend, _top_singular_pairs

SPACES = [ScalarSpace(), LinfSpace(2), MatOpSpace(2), WeightedL1Space.uniform(2)]


def xv(space, coords):
    return XVector(space, np.asarray(coords, dtype=complex))


class TestNorms:
    def test_scalar_zero(self):
        assert norm(xv(ScalarSpace(), [0])) == 0.0

    def test_linf_max_of_moduli(self):
        assert norm(xv(LinfSpace(2), [1, -1])) == 1.0

    def test_matop_nilpotent(self):
        # A = [[0,1],[0,0]]: A^H A = diag(0,1), singular values {0, 1}
        assert norm(xv(MatOpSpace(2), [0, 1, 0, 0])) == pytest.approx(1.0, abs=1e-14)

    def test_weighted_l1(self):
        w = WeightedL1Space([0.5, 0.25])
        assert norm(xv(w, [2, 4])) == pytest.approx(0.5 * 2 + 0.25 * 4)

    def test_dual_norms(self):
        assert dual_norm(xv(LinfSpace(2), [1, -2j])) == pytest.approx(3.0)
        # nuclear norm of the identity is 2
        assert dual_norm(xv(MatOpSpace(2), [1, 0, 0, 1])) == pytest.approx(2.0)
        assert dual_norm(xv(WeightedL1Space([0.5, 0.25]), [1, 1])) == pytest.approx(4.0)


class TestPair:
    def test_scalar_product(self):
        assert pair(xv(ScalarSpace(), [3]), xv(ScalarSpace(), [2])) == pytest.approx(6)

    def test_linf_disjoint_support(self):
        s = LinfSpace(2)
        assert pair(xv(s, [1, 0]), xv(s, [0, 1])) == 0

    def test_matop_trace(self):
        s = MatOpSpace(2)
        assert pair(xv(s, [1, 0, 0, 1]), xv(s, [1, 0, 0, 1])) == pytest.approx(2)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 3),
        st.lists(st.floats(-3, 3), min_size=8, max_size=8),
        st.lists(st.floats(-3, 3), min_size=8, max_size=8),
    )
    def test_pairing_bound(self, si, re_im_x, re_im_p):
        space = SPACES[si]
        d = space.dim
        x = xv(space, np.array(re_im_x[:d]) + 1j * np.array(re_im_x[4 : 4 + d]))
        xp = xv(space, np.array(re_im_p[:d]) + 1j * np.array(re_im_p[4 : 4 + d]))
        assert abs(pair(x, xp)) <= norm(x) * dual_norm(xp) + 1e-9


class TestNormAxioms:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 3),
        st.lists(st.floats(-3, 3), min_size=8, max_size=8),
        st.lists(st.floats(-3, 3), min_size=8, max_size=8),
        st.floats(-4, 4),
    )
    def test_homogeneity_and_triangle(self, si, a, b, scale):
        space = SPACES[si]
        d = space.dim
        x = xv(space, np.array(a[:d]) + 1j * np.array(a[4 : 4 + d]))
        y = xv(space, np.array(b[:d]) + 1j * np.array(b[4 : 4 + d]))
        assert norm(scale * x) == pytest.approx(abs(scale) * norm(x), abs=1e-9)
        assert norm(x + y) <= norm(x) + norm(y) + 1e-9


def random_atoms(space, rng, m, low=0.1):
    """m weights in [low, 2) and m random vectors, drawn atom by atom."""
    weights = np.zeros(m)
    vecs = np.zeros((m, space.dim), dtype=complex)
    for t in range(m):
        weights[t] = rng.uniform(low, 2)
        vecs[t] = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return weights, vecs


class TestDualBallSup:
    def test_scalar_moduli_sum(self):
        est = dual_ball_sup(ScalarSpace(), [1.0, 1.0], [[1], [-1]])
        assert est.exact and est.lower == pytest.approx(2.0)

    def test_linf_column_sums(self):
        s = LinfSpace(2)
        weights, vecs = [1.0, 1.0], [[1, 0], [0, 1]]
        est = dual_ball_sup(s, weights, vecs)
        assert est.exact and est.lower == pytest.approx(1.0)
        # the independent phase-grid search agrees within its resolution
        bf = grid_dual_sup(s, weights, vecs)
        assert bf == pytest.approx(1.0, rel=0.02)

    def test_matop_single_atom_collapses(self):
        est = dual_ball_sup(MatOpSpace(2), [1.0], [[1, 0, 0, 1]])
        assert est.lower == pytest.approx(1.0) and est.upper == pytest.approx(1.0)

    def test_empty_atoms(self):
        est = dual_ball_sup(MatOpSpace(2), np.zeros(0), np.zeros((0, 4)))
        assert est.exact and est.upper == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            dual_ball_sup(ScalarSpace(), [-1.0], [[1]])

    def test_wrong_shape_rejected(self):
        # two atoms packed in one row (reshape alone would accept it), a wrong
        # width, a count mismatch and 2-d weights
        cases = [
            ([1.0, 1.0], [[1, 0, 0, 1]]),
            ([1.0, 1.0], [[1], [1]]),
            ([1.0, 1.0], [[1, 0]]),
            ([[1.0]], [[1, 0]]),
        ]
        for weights, vecs in cases:
            with pytest.raises(ValueError):
                dual_ball_sup(LinfSpace(2), weights, vecs)

    @pytest.mark.parametrize("si", range(4))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bracket_contains_grid_value(self, si, seed):
        space = SPACES[si]
        rng = np.random.default_rng(seed)
        weights, vecs = random_atoms(space, rng, int(rng.integers(1, 5)))
        est = dual_ball_sup(space, weights, vecs)
        bf = grid_dual_sup(space, weights, vecs)
        assert est.lower <= est.upper + 1e-12
        assert bf <= est.upper + 1e-8
        # ascent may exceed the finite grid only by its phase resolution
        assert est.lower <= 1.02 * bf + 1e-8
        if space.exact_dual_sup:
            assert bf == pytest.approx(est.lower, rel=0.02)

    @pytest.mark.parametrize("si", [0, 1])
    def test_monotone_in_atoms_exact(self, si):
        space = SPACES[si]
        weights, vecs = random_atoms(space, np.random.default_rng(7), 6, low=0)
        prev = 0.0
        for k in range(1, 7):
            est = dual_ball_sup(space, weights[:k], vecs[:k])
            assert est.lower >= prev - 1e-12
            prev = est.lower

    @pytest.mark.parametrize("si", [2, 3])
    def test_upper_monotone_in_atoms(self, si):
        space = SPACES[si]
        weights, vecs = random_atoms(space, np.random.default_rng(8), 6, low=0)
        prev = 0.0
        for k in range(1, 7):
            est = dual_ball_sup(space, weights[:k], vecs[:k])
            assert est.upper >= prev - 1e-12
            assert est.lower >= norm(xv(space, weights[:k] @ vecs[:k])) - 1e-9
            prev = est.upper


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestAmplified:
    def test_level_one_collapse(self):
        for space in SPACES:
            rng = np.random.default_rng(3)
            v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            m = MatrixOverX(space, v[None, None, :])
            est = amplified_norm(m)
            assert est.exact and est.lower == pytest.approx(norm(xv(space, v)))

    def test_matop1_identity(self):
        # n=2 over 1x1 matrices: the block matrix is the 2x2 identity
        s = MatOpSpace(1)
        entries = np.zeros((2, 2, 1), dtype=complex)
        entries[0, 0, 0] = 1
        entries[1, 1, 0] = 1
        assert amplified_norm(MatrixOverX(s, entries)).lower == pytest.approx(1.0)

    def test_linf_coordinatewise(self):
        s = LinfSpace(2)
        m = MatrixOverX(s, np.array([[[1, -1]]], dtype=complex))
        est = amplified_norm(m)
        assert est.exact and est.lower == pytest.approx(1.0)
        # cross-check by sampling dual functionals: never exceeds the value
        rng = np.random.default_rng(0)
        for xp in s.sample_dual(rng, 200):
            val = abs(np.vdot(np.conj(m.entries[0, 0]), xp))
            assert val <= est.lower + 1e-9

    def test_linf_level_two_dominates_dual_samples(self):
        # the coordinatewise value is the sup over the whole dual ball: random
        # interior points of the l1 ball never beat it
        s = LinfSpace(2)
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        m = MatrixOverX(s, entries)
        value = amplified_norm(m).lower
        for _ in range(300):
            w = rng.dirichlet([1, 1])
            xp = w * np.exp(2j * np.pi * rng.random(2))
            paired = entries @ xp
            assert np.linalg.norm(paired, 2) <= value + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_linf_closed_form_matches_grid(self, k, n):
        # extreme dual points are phases times e_c, all on the phase grid
        s = LinfSpace(k)
        rng = np.random.default_rng(10 * k + n)
        entries = rng.standard_normal((n, n, k)) + 1j * rng.standard_normal((n, n, k))
        est = amplified_norm(MatrixOverX(s, entries))
        paired = s.pair_many(entries.reshape(n * n, k), grid_dual_points(s))
        brute = np.linalg.svd(paired.reshape(-1, n, n), compute_uv=False)[:, 0].max()
        assert est.exact and est.lower == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("si", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entry_bounds(self, si, n):
        space = SPACES[si]
        rng = np.random.default_rng(10 * si + n)
        entries = rng.standard_normal((n, n, space.dim)) + 1j * rng.standard_normal(
            (n, n, space.dim)
        )
        m = MatrixOverX(space, entries)
        est = amplified_norm(m)
        entry_norms = [norm(m.entry(i, j)) for i in range(n) for j in range(n)]
        assert est.lower >= max(entry_norms) - 1e-9
        assert est.upper <= n * max(entry_norms) + 1e-9

    @pytest.mark.parametrize("si", [0, 1, 2])
    def test_diagonal_embedding_max_rule(self, si):
        space = SPACES[si]
        rng = np.random.default_rng(si)
        a = rng.standard_normal((2, 2, space.dim)) + 1j * rng.standard_normal((2, 2, space.dim))
        b = rng.standard_normal((1, 1, space.dim)) + 1j * rng.standard_normal((1, 1, space.dim))
        big = np.zeros((3, 3, space.dim), dtype=complex)
        big[:2, :2] = a
        big[2:, 2:] = b
        na = amplified_norm(MatrixOverX(space, a)).lower
        nb = amplified_norm(MatrixOverX(space, b)).lower
        nd = amplified_norm(MatrixOverX(space, big)).lower
        assert nd == pytest.approx(max(na, nb), abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_weighted_majorant_above_grid_and_samples(self, k, n):
        s = WeightedL1Space(np.linspace(1.0, 2.0, k))
        rng = np.random.default_rng(20 * k + n)
        entries = cplx(rng, n, n, k)
        upper = amplified_norm(MatrixOverX(s, entries)).upper
        inside = rng.random((200, k)) * s.sample_dual(rng, 200)
        points = np.concatenate([grid_dual_points(s), inside])
        paired = s.pair_many(entries.reshape(n * n, k), points).reshape(-1, n, n)
        assert np.linalg.svd(paired, compute_uv=False)[:, 0].max() <= upper * (1 + 1e-12)

    def test_weighted_single_slice_bracket_closes(self):
        # one nonzero coordinate slice A_c: the norm is w_c ||A_c||_op, the majorant
        s = WeightedL1Space([0.25, 0.75])
        entries = np.zeros((3, 3, 2), dtype=complex)
        entries[:, :, 1] = cplx(np.random.default_rng(4), 3, 3)
        est = amplified_norm(MatrixOverX(s, entries))
        exact = 0.75 * np.linalg.norm(entries[:, :, 1], 2)
        assert est.upper == pytest.approx(exact, rel=1e-12)
        assert est.lower == pytest.approx(exact, rel=1e-9)


def two_by_two_stacks():
    rng = np.random.default_rng(7)
    base = cplx(rng, 20, 2, 2)
    stacks = {
        "random": cplx(rng, 50, 2, 2),
        "rank-one": cplx(rng, 20, 2, 1) * cplx(rng, 20, 1, 2),
        "zero": np.zeros((3, 2, 2), dtype=complex),
        # equal singular values: every unit vector is a top singular vector
        "unitary-multiple": np.linalg.qr(cplx(rng, 20, 2, 2))[0] * cplx(rng, 20, 1, 1),
    }
    # 1e+-170 squared leaves the double range: only the per-matrix scaling saves them
    for scale in (1e-170, 1e-150, 1e150, 1e170):
        stacks[f"scaled-{scale:g}"] = scale * base
    return stacks


class TestTopSingularPairs:
    @pytest.mark.parametrize("kind", sorted(two_by_two_stacks()))
    def test_closed_form_matches_lapack(self, kind):
        mats = two_by_two_stacks()[kind]
        u1, s1, v1 = _top_singular_pairs(mats)
        lapack = np.linalg.svd(mats, compute_uv=False)[:, 0]
        assert np.allclose(s1, lapack, rtol=1e-12, atol=0)
        assert np.allclose(np.linalg.norm(u1, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(np.linalg.norm(v1, axis=1), 1.0, rtol=0, atol=1e-14)
        attained = np.abs(np.einsum("ri,rij,rj->r", np.conj(u1), mats, v1))
        assert np.allclose(attained, s1, rtol=1e-12, atol=0)

    def test_matop2_norming_rows_pair_to_norm(self):
        s = MatOpSpace(2)
        ys = cplx(np.random.default_rng(8), 40, 4)
        ys[::7] = 0
        ys[3] = [2, 0, 0, 2j]  # equal singular values
        xps = s.norming_dual_many(ys)
        trace_norms = np.linalg.svd(xps.reshape(-1, 2, 2), compute_uv=False).sum(axis=1)
        assert np.all(trace_norms <= 1 + 1e-12)
        paired = np.diag(s.pair_many(ys, xps))
        assert np.allclose(paired, s.norm_many(ys), rtol=1e-12, atol=0)


class TestMatrixPair:
    def test_level_one(self):
        s = LinfSpace(2)
        m = MatrixOverX(s, np.array([[[1, 2]]], dtype=complex))
        mp = MatrixOverX(s, np.array([[[1, 1]]], dtype=complex))
        out = matrix_pair(m, mp)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(3)

    def test_identity_dual_recovers_scalar_entries(self):
        s = ScalarSpace()
        entries = np.arange(4, dtype=complex).reshape(2, 2, 1)
        m = MatrixOverX(s, entries)
        mp = MatrixOverX(s, np.ones((1, 1, 1), dtype=complex))
        assert np.allclose(matrix_pair(m, mp), entries[:, :, 0])

    def test_linf_coordinate_extraction(self):
        s = LinfSpace(2)
        rng = np.random.default_rng(0)
        entries = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        m = MatrixOverX(s, entries)
        mp = MatrixOverX(s, np.array([[[1, 0]]], dtype=complex))
        assert np.allclose(matrix_pair(m, mp), entries[:, :, 0])

    def test_block_layout(self):
        # block (i, j) of the result is the m x m pairing matrix of entry (i, j)
        s = ScalarSpace()
        m = MatrixOverX(s, np.array([[[1], [2]], [[3], [4]]], dtype=complex))
        mp = MatrixOverX(s, np.array([[[1], [10]], [[100], [1000]]], dtype=complex))
        out = matrix_pair(m, mp)
        assert out.shape == (4, 4)
        assert np.allclose(out[:2, :2], np.array([[1, 10], [100, 1000]]))
        assert np.allclose(out[:2, 2:], 2 * np.array([[1, 10], [100, 1000]]))


class TestNormEstimate:
    def test_invariants(self):
        e = NormEstimate.of_exact(2.0)
        assert e.lower == e.upper == 2.0 and e.exact
        b = NormEstimate.bracket(3.0, 2.0)  # clamped
        assert b.lower <= b.upper

    def test_rooted_and_scaled(self):
        b = NormEstimate.bracket(4.0, 9.0)
        r = b.rooted(2.0)
        assert r.lower == pytest.approx(2.0) and r.upper == pytest.approx(3.0)
        s = b.scaled(0.5)
        assert s.lower == pytest.approx(2.0) and s.upper == pytest.approx(4.5)
        with pytest.raises(ValueError):
            b.scaled(-1.0)

    def test_max_of(self):
        a = NormEstimate.of_exact(1.0)
        b = NormEstimate.bracket(0.5, 2.0)
        m = NormEstimate.max_of([a, b])
        assert m.lower == 1.0 and m.upper == 2.0 and not m.exact


def scripted(values, updates):
    """An ascent that yields ``values`` in turn and logs each update half-step."""
    for i, v in enumerate(values):
        yield v
        updates.append(i)


class TestAscend:
    def test_stops_after_three_steps_without_gain(self):
        updates = []
        values = [1.0, 2.0, 2.0 + 0.5 * ASCENT_TOL, 2.0, 1.5, 9.0]
        assert _ascend(scripted(values, updates), cap=np.inf) == 2.0 + 0.5 * ASCENT_TOL
        assert updates == [0, 1, 2, 3]

    def test_stops_at_cap(self):
        updates = []
        assert _ascend(scripted([1.0, 3.0 - 0.5 * ASCENT_TOL, 4.0], updates), cap=3.0) == (
            3.0 - 0.5 * ASCENT_TOL
        )
        assert updates == [0]

    def test_runs_out_at_iteration_cap(self):
        # the last update still runs, as in a loop that ends at its cap
        updates = []
        assert _ascend(scripted([1.0, 2.0, 3.0], updates), cap=np.inf) == 3.0
        assert updates == [0, 1, 2]
