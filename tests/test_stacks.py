"""Stacked values: a leading instance axis through the value types, the
library functions the claim rows call, and the claim rows themselves."""

import numpy as np
import pytest

import vmfourier as vf
from vmfourier import harness

B = 5
SPECS = ["scalar", "linf:2", "matop:2", "matop:3", "weighted_l1:2", "weighted_l1:4"]


def close(stacked, singles, name):
    # within 1e-15 relative to each instance's largest entry
    for a, b in zip(np.asarray(stacked), singles):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), name


@pytest.mark.parametrize("spec", SPECS)
def test_sample_dual_takes_draws_with_leading_axes(spec):
    space = vf.space_from_spec(spec)
    stacked = space.sample_dual(harness._Stream([3, 4]), 1)
    singles = [space.sample_dual(harness._Stream(s), 1) for s in (3, 4)]
    assert stacked.shape == (2, 1, space.dim)
    assert np.array_equal(stacked, np.array(singles))


@pytest.mark.parametrize("spec", SPECS)
def test_batched_functions_equal_single_calls(spec, s3, s3_dual):
    space = vf.space_from_spec(spec)
    rng = harness._Stream(np.arange(B))
    nu = harness.generate_fixture("random-gaussian", s3, space, rng)
    f, h = harness._draw_function(s3, rng), harness._draw_function(s3, rng)
    xp = harness._draw_dual(space, rng)
    mu = vf.VectorMeasure.scalar(s3, h.values)

    def one(b):
        nub = vf.VectorMeasure(s3, space, nu.atoms[b])
        fb, hb = vf.ScalarFunction(s3, f.values[b]), vf.ScalarFunction(s3, h.values[b])
        xpb = vf.XVector(space, xp.coords[b])
        return nub, fb, hb, xpb, vf.VectorMeasure.scalar(s3, h.values[b])

    singles = [one(b) for b in range(B)]
    for b in range(B):  # each fixture of the stack is that of its key alone
        alone = vf.generate_fixture("random-gaussian", s3, space, seed=b)
        assert np.array_equal(nu.atoms[b], alone.atoms)
    calls = {
        "conv_classical": lambda n, f, h, x, m: vf.conv_classical(f, h).values,
        "conv_weak": lambda n, f, h, x, m: vf.conv_weak(f, h, n, x).values,
        "conv_vector": lambda n, f, h, x, m: vf.conv_vector(f, h, n).values,
        "conv_function_measure": lambda n, f, h, x, m: vf.conv_function_measure(f, n).values,
        "conv_measure_sv": lambda n, f, h, x, m: vf.conv_measure_sv(m, n).atoms,
        "conv_measure_vs": lambda n, f, h, x, m: vf.conv_measure_vs(n, m).atoms,
        "measure_from_density": lambda n, f, h, x, m: vf.measure_from_density(n, f.values).atoms,
        "radon_nikodym": lambda n, f, h, x, m: vf.radon_nikodym(n, x),
        "evaluate": lambda n, f, h, x, m: vf.evaluate(n).coords,
        "integrate": lambda n, f, h, x, m: vf.integrate(f.values, n).coords,
        "pettis_integral": lambda n, f, h, x, m: vf.pettis_integral(vf.VectorFunction(
            s3, n.space, n.atoms)).coords,
        "reflect": lambda n, f, h, x, m: vf.reflect(f).values,
        "lp_norm_haar": lambda n, f, h, x, m: [vf.lp_norm_haar(f, p) for p in (1.0, 3.0, np.inf)],
        "norm": lambda n, f, h, x, m: vf.norm(vf.evaluate(n)),
        "dual_norm": lambda n, f, h, x, m: vf.dual_norm(x),
        "pair": lambda n, f, h, x, m: vf.pair(vf.evaluate(n), x),
        "ft_classical": lambda n, f, h, x, m: vf.ft_classical(f, s3_dual).stack,
        "ft_vector": lambda n, f, h, x, m: vf.ft_vector(f, n, s3_dual).stack,
        "ft_measure": lambda n, f, h, x, m: vf.ft_measure(n, s3_dual).stack,
        "ft_weak": lambda n, f, h, x, m: vf.ft_weak(f, n, x, s3_dual).stack,
        "plancherel_check": lambda n, f, h, x, m: vf.plancherel_check(f, s3_dual),
    }
    for name, call in calls.items():
        stacked = call(nu, f, h, xp, mu)
        if name in ("lp_norm_haar", "plancherel_check"):
            stacked = np.transpose(stacked)
        close(stacked, [call(*args) for args in singles], name)


@pytest.mark.parametrize("spec", SPECS)
def test_batched_requests_equal_single_norms(spec, s3):
    # the request builders over a stack against the public single-call norms
    space = vf.space_from_spec(spec)
    rng = harness._Stream(10 + np.arange(B))
    nu = harness.generate_fixture("random-gaussian", s3, space, rng)
    f = harness._draw_function(s3, rng)
    phi = vf.conv_vector(f, f, nu)
    nus = [vf.VectorMeasure(s3, space, a) for a in nu.atoms]
    fs = [vf.ScalarFunction(s3, v) for v in f.values]
    requests, singles = [], []
    for p in (1.0, 2.0, 3.0, np.inf):
        requests += [vf.lpspaces._lp_nu(f, nu, p), vf.lpspaces._pp(phi, p)]
        singles += [[vf.lp_nu_norm(fb, nb, p) for fb, nb in zip(fs, nus)],
                    [vf.Pp_norm(vf.VectorFunction(s3, space, v), p) for v in phi.values]]
        if p > 1:
            requests.append(vf.measures._p_semi(nu, p))
            singles.append([vf.p_semivariation(nb, p) for nb in nus])
    requests.append(vf.measures._semi(nu))
    singles.append([vf.semivariation(nb) for nb in nus])
    lower, upper = vf.spaces._resolve(requests)
    expected = [(e.lower, e.upper) for es in singles for e in es]
    assert list(zip(lower.tolist(), upper.tolist())) == expected


ROWS = {
    "young-6.5": "young-6.5",
    "young-9.3": "young-9.3",
    "ft-norm-bounds": "ft-norm-bounds",
    "cb-amplification": "cb-amplification",
    "invariance-5:B": None,
    "ft-conv-6": "ft-conv-6",
}


@pytest.mark.parametrize("row", ROWS)
def test_results_depend_only_on_seed_suite_and_index(row, monkeypatch):
    # instances 0-39 of a row tally the same brackets and verdicts whether
    # the row runs 40 or 97 trials, though their (cell, combo) groups differ
    def tallied(trials):
        calls = []
        monkeypatch.setattr(
            harness._Tally, "checks",
            lambda self, *ends_tol_note: calls.append(np.array(ends_tol_note[:5])),
        )
        cfg = vf.RunConfig(groups=["cyclic:3", "symmetric:3"], spaces=["linf:2", "matop:2"],
                           trials=trials, seed=5)
        if ROWS[row] is None:  # part B of invariance-5 alone
            harness._LP_CONTAINMENT(harness._build_ctx(cfg, None), row, trials, harness._Tally())
        else:
            vf.run_suite(row, cfg)
        return calls

    short, long = tallied(40), tallied(97)
    assert len(short) == len(long) > 0
    for a, b in zip(short, long):
        per = a.shape[1] // 40  # checks per instance
        b = b[:, : a.shape[1]]
        assert a.shape[1] == 40 * per and b.shape == a.shape
        ends, tol = a[:4], a[4]
        assert np.all(np.abs(ends - b[:4]) <= 1e-15 * np.abs(b[:4])), row

        def verdicts(e):
            violation = ~(e[0] <= e[3] + tol)
            return violation, ~violation & ~(e[1] <= e[2] + tol)

        assert all(np.array_equal(x, y) for x, y in zip(verdicts(ends), verdicts(b[:4])))
