import dataclasses

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
    norm,
    pair,
)
from vmfourier import spaces
from vmfourier.fourier import _sup
from vmfourier.harness import _points_dual_sup, _product, _sides
from vmfourier.spaces import (
    ASCENT_ITERS,
    ASCENT_RESTARTS,
    ASCENT_TOL,
    _ascend,
    _resolve,
    _top_singular_pairs,
    lp_dual_sup,
    space_from_spec,
)

from conftest import grid_dual

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


class TestGridDual:
    """``grid_dual``, the calibration oracle's deterministic points."""

    @pytest.mark.parametrize("space", [
        *map(space_from_spec, [
            "scalar", "linf:1", "linf:2", "linf:4", "weighted_l1:1", "weighted_l1:2",
            "weighted_l1:3", "matop:1", "matop:2",
        ]),
        pytest.param(WeightedL1Space([0.5, 1.0, 2.0]), id="weighted_l1:0.5,1,2"),
    ], ids=str)
    def test_points_have_dual_norm_one(self, space):
        # every point lies on the dual unit sphere, at an extreme point of the ball
        pts = grid_dual(space)
        assert pts.ndim == 2 and pts.shape[1] == space.dim and len(pts) > 0
        if space == MatOpSpace(2):  # the trace norms of all 97,344 points in one batch
            norms = np.linalg.svd(pts.reshape(-1, 2, 2), compute_uv=False).sum(axis=1)
        else:
            norms = np.array([space.dual_norm_of(p) for p in pts])
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_none_exactly_past_the_grid_sizes(self):
        # weighted_l1:k takes P^k points and matop:2 (13 P)^2: past k = 3 and
        # d = 2 the space has no grid
        for k in range(1, 7):
            assert (grid_dual(WeightedL1Space.uniform(k)) is None) == (k > 3)
            assert grid_dual(LinfSpace(k)) is not None
        for d in range(1, 5):
            assert (grid_dual(MatOpSpace(d)) is None) == (d > 2)
        assert grid_dual(ScalarSpace()) is not None
        assert spaces.CoefficientSpace().grid_dual(np.ones(3)) is None


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
        assert norm(xv(space, scale * x.coords)) == pytest.approx(abs(scale) * norm(x), abs=1e-9)
        assert norm(xv(space, x.coords + y.coords)) <= norm(x) + norm(y) + 1e-9

    def test_matop2_subnormal_entries(self):
        # a subnormal largest modulus must scale without overflowing
        tiny = 2.2250738585e-313
        x = xv(MatOpSpace(2), [0, 0, 0, tiny])
        assert norm(x) == pytest.approx(tiny, rel=1e-12)


def random_atoms(space, rng, m, low=0.1):
    """m weights in [low, 2) and m random vectors, drawn atom by atom."""
    weights = np.zeros(m)
    vecs = np.zeros((m, space.dim), dtype=complex)
    for t in range(m):
        weights[t] = rng.uniform(low, 2)
        vecs[t] = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return weights, vecs


def grid_sup(space, weights, vecs):
    """Brute-force max of sum_t w_t |<v_t, xp>| over the phase-grid points."""
    weights, vecs = np.asarray(weights, dtype=float), np.asarray(vecs, dtype=complex)
    return _points_dual_sup(space, weights, vecs, grid_dual(space))


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
        bf = grid_sup(s, weights, vecs)
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
        bf = grid_sup(space, weights, vecs)
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


class TestMatOpNorm2:
    """``MatOpSpace(2).norm_many``'s closed form against LAPACK's top singular
    value.  Without the max-modulus scaling the squares overflow at 1e170
    and underflow at 1e-170; at 1e+-150 they still fit."""

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e170, 1e-170, 1e300, 1e-300])
    def test_against_svd(self, scale):
        rng = np.random.default_rng(5)
        B = 2000
        u, v = cplx(rng, B, 2), cplx(rng, B, 2)
        phases = rng.uniform(0.1, 10.0, B) * np.exp(2j * np.pi * rng.random(B))
        stacks = {
            "random": cplx(rng, B, 2, 2),
            "rank one": u[:, :, None] * np.conj(v)[:, None, :],
            "zero": np.zeros((3, 2, 2), dtype=complex),
            # two equal singular values
            "unitary multiples": np.linalg.qr(cplx(rng, B, 2, 2))[0] * phases[:, None, None],
        }
        for name, mats in stacks.items():
            mats = scale * mats
            ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
            got = MatOpSpace(2).norm_many(mats.reshape(-1, 4))
            assert np.all(np.abs(got - ref) <= 1e-15 * ref), name


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
        paired = s.pair_many(entries.reshape(n * n, k), grid_dual(s))
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
        entry_norms = [norm(XVector(space, m.entries[i, j])) for i in range(n) for j in range(n)]
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
        points = np.concatenate([grid_dual(s), inside])
        paired = s.pair_many(entries.reshape(n * n, k), points).reshape(-1, n, n)
        assert np.linalg.svd(paired, compute_uv=False)[:, 0].max() <= upper * (1 + 1e-12)

    @pytest.mark.parametrize("spec", ["scalar", "linf:2", "matop:2", "weighted_l1:2", "weighted_l1:3"])
    def test_upper_end_without_ascent(self, spec, monkeypatch):
        # the upper ends of a stack per level equal amplified_norm's bit for
        # bit, and run no ascent
        s = space_from_spec(spec)
        rng = np.random.default_rng(8)
        mats = [cplx(rng, n, n, s.dim) for n in (1, 2, 3)] + [np.zeros((2, 2, s.dim))]
        expected = [amplified_norm(MatrixOverX(s, e)).upper for e in mats]

        def boom(*args, **kwargs):
            raise AssertionError("upper end ran an ascent")

        monkeypatch.setattr(spaces, "_ascend", boom)
        uppers = {
            n: iter(spaces._amplified_upper(s, np.array([e for e in mats if len(e) == n]))[0])
            for n in (1, 2, 3)
        }
        assert [next(uppers[len(e)]) for e in mats] == expected

    def test_weighted_single_slice_bracket_closes(self):
        # one nonzero coordinate slice A_c: the norm is w_c ||A_c||_op, the majorant
        s = WeightedL1Space([0.25, 0.75])
        entries = np.zeros((3, 3, 2), dtype=complex)
        entries[:, :, 1] = cplx(np.random.default_rng(4), 3, 3)
        est = amplified_norm(MatrixOverX(s, entries))
        exact = 0.75 * np.linalg.norm(entries[:, :, 1], 2)
        assert est.upper == pytest.approx(exact, rel=1e-12)
        assert est.lower == pytest.approx(exact, rel=1e-9)


def singular_stacks(n):
    rng = np.random.default_rng(7)
    base = cplx(rng, 20, n, n)
    stacks = {
        "random": cplx(rng, 50, n, n),
        "rank-one": cplx(rng, 20, n, 1) * cplx(rng, 20, 1, n),
        "zero": np.zeros((3, n, n), dtype=complex),
        # equal singular values: every unit vector is a top singular vector
        "unitary-multiple": np.linalg.qr(cplx(rng, 20, n, n))[0] * cplx(rng, 20, 1, 1),
    }
    # 1e+-170 squared leaves the double range: only the per-matrix scaling saves them
    for scale in (1e-170, 1e-150, 1e150, 1e170):
        stacks[f"scaled-{scale:g}"] = scale * base
    if n == 3:
        stacks["identity"] = np.tile(np.eye(3, dtype=complex), (3, 1, 1))
        stacks["diag-1-1-0.5"] = np.tile(np.diag([1, 1, 0.5]).astype(complex), (3, 1, 1))
        # distinct values, where two of the three row cross products vanish
        stacks["diag-0.5-1-0.25"] = np.tile(np.diag([0.5, 1, 0.25]).astype(complex), (3, 1, 1))
        # a top singular value repeated, split within the LAPACK band, and split outside it
        u = np.linalg.qr(cplx(rng, 20, 3, 3))[0]
        wh = np.conj(np.linalg.qr(cplx(rng, 20, 3, 3))[0].swapaxes(1, 2))
        for gap in (0.0, 1e-7, 1e-3):
            stacks[f"rotated-diag-gap-{gap:g}"] = u @ (np.array([1, 1 - gap, 0.5])[:, None] * wh)
    return stacks


def assert_top_pairs_match_lapack(mats):
    u1, s1, v1 = _top_singular_pairs(mats)
    lapack = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert np.allclose(s1, lapack, rtol=1e-12, atol=0)
    assert np.allclose(np.linalg.norm(u1, axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.allclose(np.linalg.norm(v1, axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.allclose(np.einsum("rij,rj->ri", mats, v1), s1[:, None] * u1,
                       rtol=0, atol=1e-13 * lapack.max())
    attained = np.abs(np.einsum("ri,rij,rj->r", np.conj(u1), mats, v1))
    assert np.allclose(attained, s1, rtol=1e-12, atol=0)


class TestTopSingularPairs:
    @pytest.mark.parametrize("kind", sorted(singular_stacks(2)))
    def test_closed_form_matches_lapack(self, kind):
        assert_top_pairs_match_lapack(singular_stacks(2)[kind])

    @pytest.mark.parametrize("kind", sorted(singular_stacks(3)))
    def test_closed_form_3x3_matches_lapack(self, kind):
        assert_top_pairs_match_lapack(singular_stacks(3)[kind])

    def test_3x3_closed_form_serves_separated_values(self):
        # only a near-repeated top singular value falls back to LAPACK
        stacks = singular_stacks(3)
        for kind, expect in (("random", False), ("rank-one", False),
                             ("rotated-diag-gap-0.001", False), ("rotated-diag-gap-1e-07", True)):
            m = stacks[kind]
            _, close = spaces._top_eigvec3(m)
            assert np.all(close == expect), kind

    def test_matop2_norming_rows_pair_to_norm(self):
        ys = cplx(np.random.default_rng(8), 40, 4)
        ys[::7] = 0
        ys[3] = [2, 0, 0, 2j]  # equal singular values
        assert_norming_rows_pair_to_norm(MatOpSpace(2), ys)

    def test_matop3_norming_rows_pair_to_norm(self):
        ys = cplx(np.random.default_rng(8), 40, 9)
        ys[::7] = 0
        ys[3] = 2j * np.eye(3).ravel()  # equal singular values
        ys[5] = np.diag([2, 2j, 0.5]).ravel()  # a repeated top singular value
        assert_norming_rows_pair_to_norm(MatOpSpace(3), ys)


def assert_norming_rows_pair_to_norm(s, ys):
    xps = s.norming_dual_many(ys)
    trace_norms = np.linalg.svd(xps.reshape(-1, s.d, s.d), compute_uv=False).sum(axis=1)
    assert np.all(trace_norms <= 1 + 1e-12)
    paired = np.diag(s.pair_many(ys, xps))
    assert np.allclose(paired, s.norm_many(ys), rtol=1e-12, atol=0)


class TestNormEstimate:
    def test_invariants(self):
        e = NormEstimate.of_exact(2.0)
        assert e.lower == e.upper == 2.0 and e.exact
        b = NormEstimate.bracket(3.0, 2.0)  # clamped
        assert b.lower <= b.upper

    def test_two_ends_and_exact_when_they_meet(self):
        assert [f.name for f in dataclasses.fields(NormEstimate)] == ["lower", "upper"]
        assert NormEstimate.bracket(3.0, 2.0).exact and not NormEstimate.bracket(2.0, 3.0).exact
        for name in ("scaled", "rooted", "times", "max_of"):
            assert not hasattr(NormEstimate, name)

    @pytest.mark.parametrize("ends", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
    def test_nan_end_rejected(self, ends):
        # a NaN end clamped to 0 would be an unsound upper end
        with pytest.raises(ValueError):
            NormEstimate(*ends)

    def test_nan_scale_and_exact_value_rejected(self):
        # claim sides carry the scale factors
        for scale in (np.nan, -1.0):
            with pytest.raises(ValueError, match="nonnegative"):
                _sides([_product(spaces._known(1.0, 2.0), scale=scale)])
        with pytest.raises(ValueError):
            NormEstimate.of_exact(np.nan)

    def test_negative_ends_raised_to_zero(self):
        assert NormEstimate.of_exact(-1.0) == NormEstimate(0.0, 0.0)
        assert NormEstimate.bracket(-2.0, -1.0) == NormEstimate(0.0, 0.0)

    @pytest.mark.parametrize("space", [LinfSpace(4), MatOpSpace(2)], ids=lambda s: s.label)
    def test_nan_exponent_rejected_by_lp_dual_sup(self, space):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((3, space.dim)) + 1j * rng.standard_normal((3, space.dim))
        with pytest.raises(ValueError):
            lp_dual_sup(space, vecs, np.nan)


def scripted(table, updates):
    """A batched ascent whose row r yields ``table[r][k]`` at iteration k while
    it is active; logs each update half-step as (row, k)."""
    table = np.asarray(table, dtype=float)
    rows = np.arange(len(table))
    for k in range(table.shape[1]):
        go = yield table[rows, k]
        rows = rows[go]
        updates.extend((int(r), k) for r in rows)


class TestAscend:
    def test_stops_after_three_steps_without_gain(self):
        updates = []
        values = [1.0, 2.0, 2.0 + 0.5 * ASCENT_TOL, 2.0, 1.5, 9.0]
        assert _ascend(scripted([values], updates), [np.inf]) == [2.0 + 0.5 * ASCENT_TOL]
        assert updates == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_stops_at_cap(self):
        updates = []
        best = _ascend(scripted([[1.0, 3.0 - 0.5 * ASCENT_TOL, 4.0]], updates), [3.0])
        assert best == [3.0 - 0.5 * ASCENT_TOL]
        assert updates == [(0, 0)]

    def test_runs_out_at_iteration_cap(self):
        # a generator that ends does its last update; a row that reaches
        # ASCENT_ITERS stops before its pending update
        updates = []
        assert _ascend(scripted([[1.0, 2.0, 3.0]], updates), [np.inf]) == [3.0]
        assert updates == [(0, 0), (0, 1), (0, 2)]
        updates = []
        rising = np.arange(1.0, ASCENT_ITERS + 6)
        assert _ascend(scripted([rising], updates), [np.inf]) == [float(ASCENT_ITERS)]
        assert updates == [(0, k) for k in range(ASCENT_ITERS - 1)]

    def test_rows_stop_independently(self):
        # row 0 stalls after iteration 3, row 1 reaches its cap at iteration 1,
        # row 2 rises until ASCENT_ITERS; each row sees only its own values
        width = ASCENT_ITERS + 2
        stalled = [1.0, 2.0, 2.0, 2.0, 2.0] + [50.0] * (width - 5)
        capped = [1.0, 5.0] + [60.0] * (width - 2)
        rising = np.arange(1.0, width + 1)
        updates = []
        best = _ascend(scripted([stalled, capped, rising], updates), [np.inf, 5.0, np.inf])
        assert list(best) == [2.0, 5.0, float(ASCENT_ITERS)]
        per_row = [[k for r, k in updates if r == row] for row in range(3)]
        assert per_row == [[0, 1, 2, 3], [0], list(range(ASCENT_ITERS - 1))]


BATCH_SPECS = ["scalar", "linf:2", "matop:2", "matop:3", "weighted_l1:2", "weighted_l1:4"]


def bits(est):
    return (est.lower.hex(), est.upper.hex(), est.exact)


def estimates(brackets):
    """The (lower, upper) arrays of ``_resolve`` or ``_estimates`` as one
    ``NormEstimate`` per row, as the public norms wrap them."""
    return [NormEstimate(lo, hi) for lo, hi in zip(*(b.tolist() for b in brackets))]


def scaled_rows(rng, space, B, *shape):
    """B random stacks of the given shape, row b scaled by 10**u, u in [-3, 3]."""
    scales = 10.0 ** rng.uniform(-3, 3, B)
    return scales.reshape((B,) + (1,) * (len(shape) + 1)) * cplx(rng, B, *shape, space.dim)


def record_norming(monkeypatch, space):
    """Row counts of every norming step the space takes from now on."""
    sizes = []
    method = type(space).norming_dual_many

    def counted(self, ys):
        sizes.append(len(ys))
        return method(self, ys)

    monkeypatch.setattr(type(space), "norming_dual_many", counted)
    return sizes


class TestBatched:
    """Blocks of norm requests through ``_resolve`` against a Python loop of
    single calls, bit for bit."""

    @pytest.mark.parametrize("spec", BATCH_SPECS)
    def test_dual_ball_sups_equal_single_calls(self, spec, monkeypatch):
        space = space_from_spec(spec)
        rng = np.random.default_rng(11)
        B, T = 56, 12
        vecs = scaled_rows(rng, space, B, T)
        weights = rng.uniform(0.1, 2.0, (B, T))
        weights[0] = 0  # all-zero row
        weights[1, 1:] = 0  # one kept atom
        for b in range(2, 8):  # mixed kept atom counts
            weights[b, rng.random(T) < 0.4] = 0
        sizes = record_norming(monkeypatch, space)
        requests = [spaces._request(space, 1, w, v, None) for w, v in zip(weights, vecs)]
        batched = estimates(_resolve(requests))
        singles = [dual_ball_sup(space, w, v) for w, v in zip(weights, vecs)]
        assert [bits(e) for e in batched] == [bits(e) for e in singles]
        assert batched[0].exact and batched[0].upper == 0.0
        if not space.exact_dual_sup:
            # the full-T bucket spans more than one chunk, and its rows leave
            # the active set at different iterations
            assert B - 8 > spaces._CHUNK_ENTRIES // (ASCENT_RESTARTS * T * space.dim)
            assert len(set(sizes)) > 3

    @pytest.mark.parametrize("spec", BATCH_SPECS)
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_lp_dual_sups_equal_single_calls(self, spec, p):
        space = space_from_spec(spec)
        rng = np.random.default_rng(12)
        for T in (1, 7):
            vecs = scaled_rows(rng, space, 30, T)
            vecs[0] = 0
            batched = estimates(_resolve([spaces._lp(space, v, p) for v in vecs]))
            singles = [lp_dual_sup(space, v, p) for v in vecs]
            assert [bits(e) for e in batched] == [bits(e) for e in singles]

    @pytest.mark.parametrize("spec", BATCH_SPECS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amplified_norms_equal_single_calls(self, spec, n):
        space = space_from_spec(spec)
        rng = np.random.default_rng(13)
        entries = scaled_rows(rng, space, 40, n, n)
        entries[0] = 0
        entries[1:5, :, :, 1:] = 0  # a single nonzero coordinate slice
        batched = estimates(_resolve([_sup(space, e, [n]) for e in entries]))
        singles = [amplified_norm(MatrixOverX(space, e)) for e in entries]
        assert [bits(e) for e in batched] == [bits(e) for e in singles]

    def test_batched_shapes_rejected(self):
        s = MatOpSpace(2)
        with pytest.raises(ValueError):
            spaces._sup_rows(s, np.ones(3), np.zeros((3, 4)), 1)
        with pytest.raises(ValueError):
            spaces._sup_rows(s, np.ones((1, 3)), np.zeros((3, 4)), 2.0)
        with pytest.raises(ValueError):
            spaces._amplified_rows(s, np.zeros((3, 2, 3, 4)))

    def test_lp_p_checked_before_empty_rows(self):
        # rows without atoms are exact zeros only for a valid p
        with pytest.raises(ValueError, match="p must be"):
            lp_dual_sup(MatOpSpace(2), np.zeros((0, 4)), 0.5)


class TestEstimates:
    """The shared row-to-bracket core, driven by a scripted ascent."""

    def test_rows_to_brackets(self, monkeypatch):
        # rows whose first array has 3 entries go two to a chunk; the second
        # array is larger and must not set the chunk size
        monkeypatch.setattr(spaces, "_CHUNK_ENTRIES", 8 * ASCENT_RESTARTS)
        caps, chunks = [], []

        def capped(ascent, c):
            caps.append(list(c))
            return _ascend(ascent, c)

        def ascent(table, pad):
            chunks.append(table.tolist())
            return scripted(table, [])

        monkeypatch.setattr(spaces, "_ascend", capped)
        # rows 1, 5 and 7 are known: a value, a bracket and a negative
        # lower end; the other five are estimated, their arrays in row order
        # and their floors the lower ends
        upper = np.array([5.0, 7.0, 2.5, 6.0, 9.0, 2.0, 8.0, 3.0])
        lower = np.array([0.0, 7.0, 0.0, 4.0, 1.5, 1.0, 0.0, -1.0])
        todo = np.array([0, 2, 3, 4, 6])
        table = np.array([
            [1.0, 2.0, 3.0],
            [1.0, 2.5, 9.0],  # stops at its cap
            [1.0, 2.0, 3.0],  # floor above the ascent
            [2.0, 1.0, 1.0],
            [3.0, 2.0, 1.0],
        ])
        floor = lower[todo].tolist()
        rows = (lower, upper, todo, (table, np.zeros((5, 50))), ascent)
        # without an ascent each estimated row gets bracket(floor, upper)
        lo, hi = spaces._estimates(rows, ascend=False)
        assert lo.tolist() == [0.0, 7.0, 0.0, 4.0, 1.5, 1.0, 0.0, 0.0]
        assert hi.tolist() == upper.tolist()
        assert caps == chunks == []
        lo, hi = spaces._estimates(rows)
        assert lo.tolist() == [3.0, 7.0, 2.5, 4.0, 2.0, 1.0, 3.0, 0.0]
        assert hi.tolist() == upper.tolist()
        assert lower[todo].tolist() == floor  # the input is left as it was
        # the estimated rows in chunks of two, each capped at its upper ends
        assert chunks == [table[0:2].tolist(), table[2:4].tolist(), table[4:].tolist()]
        assert caps == [[5.0, 2.5], [6.0, 9.0], [8.0]]


CONTAIN_SPECS = ["scalar", "linf:2", "matop:2", "weighted_l1:2", "matop:3", "weighted_l1:3"]
# the phase grid's best value lies within this factor of the dual-ball sup,
# the allowance calibration grants the full lower ends
GRID_SLACK = 1.02


def grid_best(space, value):
    """The largest ``value`` of the [P, ...] pairings over the phase grid."""
    return float(value(grid_dual(space)).max())


class TestAscentFree:
    """Each ascent-free bracket contains the full one: its lower end is no
    higher, its upper end the same, and it is a value some dual-ball point
    attains (within the grid's resolution)."""

    def assert_contains(self, quick, full):
        assert all(q.lower <= f.lower for q, f in zip(quick, full))
        assert [q.upper for q in quick] == [f.upper for f in full]

    @pytest.mark.parametrize("spec", CONTAIN_SPECS)
    def test_dual_ball_sups(self, spec):
        space = space_from_spec(spec)
        rng = np.random.default_rng(21)
        vecs = scaled_rows(rng, space, 12, 5)
        weights = rng.uniform(0.1, 2.0, (12, 5))
        weights[0] = 0  # a zero row
        weights[1, 1:] = 0  # a one-atom row
        rows = spaces._sup_rows(space, weights, vecs, 1)
        quick = estimates(spaces._estimates(rows, ascend=False))
        self.assert_contains(quick, [dual_ball_sup(space, w, v) for w, v in zip(weights, vecs)])
        for q, w, v in zip(quick, weights, vecs):
            # the all-aligned start dominates ||sum_t w_t v_t||
            assert q.lower >= (1 - 1e-12) * space.norm_of(w @ v)
            if grid_dual(space) is not None:
                assert q.lower <= GRID_SLACK * grid_sup(space, w, v)

    @pytest.mark.parametrize("spec", CONTAIN_SPECS)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_lp_dual_sups(self, spec, p):
        space = space_from_spec(spec)
        rng = np.random.default_rng(22)
        vecs = scaled_rows(rng, space, 12, 5)
        vecs[0] = 0
        vecs[1, 1:] = 0
        quick = estimates(_resolve([spaces._lp(space, v, p) for v in vecs], ascend=False))
        self.assert_contains(quick, [lp_dual_sup(space, v, p) for v in vecs])
        if grid_dual(space) is not None:
            for q, v in zip(quick, vecs):
                best = grid_best(
                    space, lambda xp: np.mean(np.abs(space.pair_many(v, xp)) ** p, axis=1)
                ) ** (1.0 / p)
                assert q.lower <= GRID_SLACK * best

    @pytest.mark.parametrize("spec", CONTAIN_SPECS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amplified_norms(self, spec, n):
        space = space_from_spec(spec)
        rng = np.random.default_rng(23)
        entries = scaled_rows(rng, space, 12, n, n)
        entries[0] = 0
        entries[1, 1:] = 0
        entries[1, 0, 1:] = 0  # a single nonzero entry
        quick = estimates(spaces._estimates(spaces._amplified_rows(space, entries), ascend=False))
        self.assert_contains(quick, [amplified_norm(MatrixOverX(space, e)) for e in entries])
        # on a matrix space the matrix norm is the block operator norm, not a
        # sup over dual-ball points
        if grid_dual(space) is not None and not isinstance(space, MatOpSpace):
            for q, e in zip(quick, entries):
                best = grid_best(space, lambda xp: np.linalg.svd(
                    space.pair_many(e.reshape(n * n, -1), xp).reshape(-1, n, n),
                    compute_uv=False,
                )[:, 0])
                assert q.lower <= GRID_SLACK * best


class TestWeightedLqSup:
    """The one weighted L^q sup, sum_t w_t |<v_t, xp>|^q, at q > 1."""

    @pytest.mark.parametrize("spec", ["weighted_l1:2", "matop:2"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_lp_lower_end_reaches_the_grid(self, spec, p):
        # the ascent's Hoelder step |h_t|^(p-1) finds the L^p sup; a step
        # with |h_t|^p stops short of the phase grid's best value
        space = space_from_spec(spec)
        points = grid_dual(space)
        rng = np.random.default_rng(31)
        for _ in range(40):
            v = cplx(rng, 6, space.dim)
            grid = np.mean(np.abs(space.pair_many(v, points)) ** p, axis=1).max() ** (1.0 / p)
            assert lp_dual_sup(space, v, p).lower >= (1 - 1e-9) * grid

    @pytest.mark.parametrize("spec", ["matop:2", "matop:3", "weighted_l1:2", "weighted_l1:4"])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_one_live_atom_is_exact(self, spec, q):
        space = space_from_spec(spec)
        v = cplx(np.random.default_rng(32), 3, space.dim)
        est = lp_dual_sup(space, v[:1], q)
        assert est.exact and est.upper == pytest.approx(space.norm_of(v[0]), rel=1e-12)
        # zero-weight atoms stay in place and add nothing
        weights = np.array([[0.0, 0.5, 0.0]])
        lower, upper, todo, _, _ = spaces._sup_rows(space, weights, v[None], q)
        assert len(todo) == 0 and lower == upper
        assert upper[0] == pytest.approx(0.5 * space.norm_of(v[1]) ** q, rel=1e-12)
