import itertools
import tracemalloc

import numpy as np
import pytest

import vmfourier as vf
from vmfourier.groups import UnitaryDual, UnitaryIrrep

# S4's character table, rows the irreps (trivial, sign, two-dimensional,
# standard, sign x standard), columns the cycle types of S4_CYCLE_TYPES
S4_CYCLE_TYPES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_CHARACTERS = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, -1, 1, 1, -1],
        [2, 0, 2, -1, 0],
        [3, 1, -1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
)


def _cycle_type(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        k = 0
        while start not in seen:
            seen.add(start)
            start = p[start]
            k += 1
        if k:
            lengths.append(k)
    return tuple(sorted(lengths, reverse=True))


def _sl23_group():
    """SL(2,3) from its 24 integer matrices mod 3, as a bare Cayley table."""
    mats = np.array(
        [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    ).reshape(-1, 2, 2)
    code = np.full(81, -1)
    code[mats.reshape(-1, 4) @ [27, 9, 3, 1]] = np.arange(len(mats))
    prods = np.einsum("aij,bjk->abik", mats, mats) % 3
    cayley = code[prods.reshape(len(mats), len(mats), 4) @ [27, 9, 3, 1]]
    e = int(code[np.array([1, 0, 0, 1]) @ [27, 9, 3, 1]])
    return vf.FiniteGroup(len(mats), cayley, e, np.argmax(cayley == e, axis=1), "SL(2,3)")


def _frobenius_schur(g, p):
    return float(p.characters()[g.cayley[np.arange(g.order), np.arange(g.order)]].mean().real)


class TestBuildGroup:
    def test_trivial_group(self):
        g = vf.build_group("cyclic:1")
        assert g.order == 1 and g.identity == 0

    def test_z2_table(self):
        g = vf.build_group("cyclic:2")
        assert g.cayley.tolist() == [[0, 1], [1, 0]]
        assert g.inverses.tolist() == [0, 1]

    def test_s3_nonabelian_witness(self):
        g = vf.build_group("symmetric:3")
        assert g.order == 6
        # exhaustive commutativity scan of the built table
        witnesses = [
            (s, t)
            for s in range(6)
            for t in range(6)
            if g.mul(s, t) != g.mul(t, s)
        ]
        assert witnesses and not g.is_abelian

    def test_product_of_cyclics(self):
        g = vf.build_group("cyclic:2x3")
        assert g.order == 6 and g.is_abelian

    def test_quaternion_relations(self):
        g = vf.build_group("quaternion8")
        # i * j = k, j * i = -k with the element order 1,-1,i,-i,j,-j,k,-k
        i, j, k, minus_k = 2, 4, 6, 7
        assert g.mul(i, j) == k
        assert g.mul(j, i) == minus_k

    @pytest.mark.parametrize(
        "bad", ["symmetric:5", "dihedral:13", "cyclic:0", "frobenius:20", "cyclic:5x6"]
    )
    def test_unsupported_specs(self, bad):
        with pytest.raises(ValueError):
            vf.build_group(bad)

    @pytest.mark.parametrize("spec, order", [("cyclic:40x40", 1600), ("dihedral:800", 1600)])
    def test_oversized_spec_rejected_before_its_table(self, spec, order):
        # the order comes from the spec, so no order^2 Cayley table is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"order {order} exceeds"):
                vf.build_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_all_builtins_satisfy_axioms(self, builtin_groups):
        # construction already validates; re-check associativity independently
        for g, _ in builtin_groups:
            n = g.order
            trips = list(itertools.product(range(min(n, 6)), repeat=3))
            for a, b, c in trips:
                assert g.mul(a, g.mul(b, c)) == g.mul(g.mul(a, b), c)


class TestTablesEqualTheLoops:
    """The vectorised Cayley tables against the element-by-element loops
    they replaced, kept here as references."""

    def test_quaternion(self):
        mats = vf.groups._quaternion_matrices()
        table = np.zeros((8, 8), dtype=np.int64)
        for a in range(8):
            for b in range(8):
                prod = mats[a] @ mats[b]
                table[a, b] = [c for c in range(8) if np.allclose(prod, mats[c])][0]
        assert np.array_equal(vf.build_group("quaternion8").cayley, table)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12])
    def test_dihedral(self, n):
        table = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                table[a, b] = (a + b) % n
                table[a, n + b] = n + (b - a) % n
                table[n + a, b] = n + (a + b) % n
                table[n + a, n + b] = (b - a) % n
        assert np.array_equal(vf.build_group(f"dihedral:{n}").cayley, table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric(self, n):
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
        assert np.array_equal(vf.build_group(f"symmetric:{n}").cayley, table)


class TestDuals:
    def test_z2_characters(self, z2, z2_dual):
        vals = [p.matrices[:, 0, 0] for p in z2_dual.irreps]
        assert np.allclose(vals[0], [1, 1])
        assert np.allclose(vals[1], [1, -1])

    def test_dimension_profiles(self, builtin_groups):
        profile = {g.label: sorted(d.dims()) for g, d in builtin_groups}
        assert profile["S3"] == [1, 1, 2]
        assert profile["Q8"] == [1, 1, 1, 1, 2]
        assert profile["D4"] == [1, 1, 1, 1, 2]
        assert profile["S4"] == [1, 1, 2, 3, 3]

    def test_completeness_sum_of_squares(self, builtin_groups):
        for g, d in builtin_groups:
            assert sum(p.dim**2 for p in d.irreps) == g.order

    def test_abelian_duals_are_one_dimensional(self, builtin_groups):
        for g, d in builtin_groups:
            if g.is_abelian:
                assert all(p.dim == 1 for p in d.irreps)

    @pytest.mark.parametrize("spec", ["symmetric:3", "quaternion8", "dihedral:4"])
    def test_schur_orthogonality_direct_sums(self, spec):
        # independent orthogonality oracle: plain einsum over the matrices
        g = vf.build_group(spec)
        dual = vf.unitary_dual(g)
        n = g.order
        for a, p in enumerate(dual.irreps):
            for b, q in enumerate(dual.irreps):
                gram = np.einsum("tij,tkl->ijkl", p.matrices, q.matrices.conj()) / n
                if a != b:
                    assert np.abs(gram).max() < 1e-12
                else:
                    target = (
                        np.einsum("ik,jl->ijkl", np.eye(p.dim), np.eye(p.dim)) / p.dim
                    )
                    assert np.abs(gram - target).max() < 1e-12

    def test_validation_passes_builtins(self, builtin_groups):
        for g, d in builtin_groups:
            rep = vf.validate_dual(g, d)
            assert rep.max_residual <= 1e-10, (g.label, rep.residuals())

    def test_perturbed_irrep_fails(self, s3, s3_dual):
        irreps = []
        for r, p in enumerate(s3_dual.irreps):
            mats = p.matrices.copy()
            if p.dim == 2:
                mats[1, 0, 0] += 1e-3
            irreps.append(UnitaryIrrep(p.dim, mats, p.label))
        bad = UnitaryDual(s3, irreps)
        rep = vf.validate_dual(s3, bad)
        assert not rep.max_residual <= 1e-10
        assert rep.homomorphism == pytest.approx(1e-3, rel=0.9)

    def test_nan_entry_fails(self, s3, s3_dual, monkeypatch):
        # a NaN residual must fail, not drop out of the max
        *irreps, last = s3_dual.irreps
        mats = last.matrices.copy()
        mats[1, 0, 0] = np.nan
        bad = UnitaryDual(s3, [*irreps, UnitaryIrrep(last.dim, mats, last.label)])
        rep = vf.validate_dual(s3, bad)
        assert np.isnan(rep.max_residual) and not rep.max_residual <= 1e-10
        # and the dual-validation suite counts it as a violation
        monkeypatch.setattr(vf.harness, "group_with_dual", lambda spec: (s3, bad))
        report = vf.run_suite("dual-validation", vf.RunConfig(groups=["symmetric:3"]))
        assert report.violations == 1 and np.isnan(report.max_residual)

    def test_structural_mismatch_raises(self, s3, z2_dual):
        with pytest.raises(ValueError):
            vf.validate_dual(s3, z2_dual)

    def test_dual_of_loaded_group(self, tmp_path):
        # SL(2,3) is no built-in family: its dual comes from the table alone
        path = tmp_path / "sl23.txt"
        path.write_text(vf.dump_group_file(_sl23_group()))
        g = vf.load_group_file(path)
        dual = vf.unitary_dual(g)
        rep = vf.validate_dual(g, dual)
        assert rep.max_residual <= 1e-13, rep.residuals()
        assert dual.dims() == [1, 1, 1, 2, 2, 2, 3]
        # complex (0) and quaternionic (-1) types, both among the 2-dim irreps
        indicators = {round(_frobenius_schur(g, p)) for p in dual.irreps if p.dim == 2}
        assert {0, -1} <= indicators

    def test_dihedral_family_duals(self):
        specs = [f"dihedral:{n}" for n in (2, 3, 5, 6, 12)]
        for spec in specs + ["cyclic:1", "cyclic:2x3x4", "cyclic:24"]:
            g = vf.build_group(spec)
            rep = vf.validate_dual(g, vf.unitary_dual(g))
            assert rep.max_residual <= 1e-13, (spec, rep.residuals())

    def test_s4_characters_match_the_table(self):
        g = vf.build_group("symmetric:4")
        perms = itertools.permutations(range(4))
        classes = [S4_CYCLE_TYPES.index(_cycle_type(p)) for p in perms]
        expected = S4_CHARACTERS[:, classes]
        chars = np.array([p.characters() for p in vf.unitary_dual(g).irreps])
        match = np.abs(chars[:, None, :] - expected[None, :, :]).max(axis=2) < 1e-12
        # a one-to-one match: equal up to the order of the irreps
        assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()

    @pytest.mark.parametrize(
        "spec", vf.builtin_group_specs() + ["dihedral:6", "cyclic:2x3x4", "cyclic:1"]
    )
    def test_dual_is_deterministic_and_ordered(self, spec):
        g = vf.build_group(spec)
        first, second = vf.unitary_dual(g), vf.unitary_dual(g)
        for a, b in zip(first.irreps, second.irreps, strict=True):
            assert np.array_equal(a.matrices, b.matrices)
        assert np.abs(first.irreps[0].matrices - 1).max() < 1e-12
        assert first.dims() == sorted(first.dims())


class TestMatrixCoefficients:
    """The coefficient functions t -> pi(t)_{ij} of the built-in duals."""

    def test_trivial_character(self, z2, z2_dual):
        assert np.allclose(z2_dual.irreps[0].matrices[:, 0, 0], [1, 1])

    def test_sign_character(self, z2_dual):
        assert np.allclose(z2_dual.irreps[1].matrices[:, 0, 0], [1, -1])

    def test_s3_offdiagonal_mass(self, s3, s3_dual):
        two = next(p for p in s3_dual.irreps if p.dim == 2)
        coeff = two.matrices[:, 0, 1]
        # Schur orthogonality: sum of |pi_ij|^2 over the group is |G| / d
        assert np.sum(np.abs(coeff) ** 2) == pytest.approx(s3.order / 2)

    def test_values_bounded_by_one(self, builtin_groups):
        for _, d in builtin_groups:
            for p in d.irreps:
                for i in range(p.dim):
                    for j in range(p.dim):
                        assert np.abs(p.matrices[:, i, j]).max() <= 1 + 1e-12


class TestTableFiles:
    def test_group_roundtrip(self, tmp_path, s3):
        path = tmp_path / "s3.txt"
        path.write_text(vf.dump_group_file(s3))
        loaded = vf.load_group_file(path, "S3-loaded")
        assert loaded.order == s3.order
        assert np.array_equal(loaded.cayley, s3.cayley)
        assert loaded.identity == s3.identity

    def test_dual_roundtrip(self, tmp_path, s3, s3_dual):
        path = tmp_path / "s3dual.txt"
        path.write_text(vf.dump_dual_file(s3_dual))
        loaded = vf.load_dual_file(path, s3)
        assert [p.dim for p in loaded.irreps] == [p.dim for p in s3_dual.irreps]
        for a, b in zip(loaded.irreps, s3_dual.irreps):
            assert np.allclose(a.matrices, b.matrices)
        assert vf.validate_dual(s3, loaded).max_residual <= 1e-10

    def test_bad_group_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        with pytest.raises(ValueError):
            vf.load_group_file(path)

    def test_empty_group_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n  \n")
        with pytest.raises(ValueError, match="empty"):
            vf.load_group_file(path)

    def test_dual_dim_line_without_integer(self, tmp_path, z2):
        path = tmp_path / "dual.txt"
        path.write_text("dim\n1+0i\n1+0i\n")
        with pytest.raises(ValueError, match="dim"):
            vf.load_dual_file(path, z2)

    def test_complex_literals(self):
        from vmfourier.groups import format_complex, parse_complex

        for z in (1 + 2j, -0.5 - 0.25j, 0j, 3.0 + 0j):
            assert parse_complex(format_complex(z)) == pytest.approx(z)
        assert parse_complex("2") == 2.0
