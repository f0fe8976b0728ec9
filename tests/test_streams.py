"""The counter-based instance streams: stack independence, the statistics of
their draws, and the modules that a battery run leaves unloaded."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np

import vmfourier as vf
from vmfourier.harness import _instance_keys, _Stream

N = 100_000


def draws(rng, space, s3):
    # every method the library calls, then a fixture
    nu = vf.generate_fixture("random-gaussian", s3, space, rng)
    return [rng.standard_normal((3, 2)), rng.random(5), rng.uniform(0.25, 2.0),
            rng.integers(1, 5), rng.integers(0, 7, size=4), space.sample_dual(rng, 2), nu.atoms]


def test_draws_equal_alone_and_in_a_stack(s3):
    keys = _instance_keys(0, "young-6.5", np.arange(97))
    space = vf.MatOpSpace(2)
    stacked = draws(_Stream(keys), space, s3)
    for i in (0, 1, 50, 96):
        for a, b in zip(stacked, draws(_Stream(keys[i]), space, s3)):
            assert np.array_equal(a[i], b)
    # a sub-stack goes on from its stack's position
    rng = _Stream(keys)
    rng.random(3)
    assert np.array_equal(rng[[5, 9]].standard_normal(4), rng.standard_normal(4)[[5, 9]])


def test_values_go_with_their_streams():
    # no reference cycle holds a stack's values until the cyclic collector
    # runs: a battery's memory would grow from one suite to the next
    gc.disable()
    try:
        rng = _Stream(np.arange(4))
        rng[1:].standard_normal(3)
        values = weakref.ref(rng._values["normal"])
        del rng
        assert values() is None
    finally:
        gc.enable()


def test_normal_moments():
    z = _Stream(_instance_keys(0, "moments", np.arange(1))).standard_normal(N)[0]
    assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.01


def test_random_and_integers_ranges():
    rng = _Stream(_instance_keys(0, "ranges", np.arange(1)))
    u = rng.random(N)
    assert u.min() >= 0.0 and u.max() < 1.0 and abs(u.mean() - 0.5) < 0.01
    k = rng.integers(2**32, size=N)
    assert k.min() >= 0 and k.max() < 2**32
    assert k.min() < 2**32 // 1000 and k.max() > 2**32 - 2**32 // 1000
    assert set(rng.integers(1, 5, size=1000).ravel().tolist()) == {1, 2, 3, 4}


def test_adjacent_keys_uncorrelated():
    z = _Stream(_instance_keys(0, "young-6.5", np.arange(1000))).standard_normal(100)
    assert abs(np.corrcoef(z[:-1].ravel(), z[1:].ravel())[0, 1]) < 0.01
    u = _Stream(np.arange(1000)).random(100)  # adjacent raw keys, as generate_fixture takes them
    assert abs(np.corrcoef(u[:-1].ravel(), u[1:].ravel())[0, 1]) < 0.01


def run_child(code):
    env = dict(os.environ)
    src = str(Path(vf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


UNLOADED = "print(*[m for m in ('numpy.random', 'hashlib', 'secrets') if m in sys.modules])"


def test_setup_loads_no_random_or_hashing_modules():
    # what a benchmark's setup does: import the harness, build groups, duals and spaces
    assert run_child(
        "import sys\n"
        "from vmfourier.harness import RunConfig, group_with_dual, space_from_spec\n"
        "cfg = RunConfig()\n"
        "[group_with_dual(spec) for spec in cfg.groups]\n"
        "[space_from_spec(spec) for spec in cfg.spaces]\n" + UNLOADED
    ) == []


def test_exact_path_suites_load_no_numpy_random():
    # suites whose sups all have closed forms draw every instance from the streams
    assert run_child(
        "import sys\n"
        "from vmfourier.harness import RunConfig, run_suite, suite_names\n"
        "cfg = RunConfig(spaces=['scalar', 'linf:2'], trials=8)\n"
        "for name in suite_names():\n"
        "    if name not in ('ft-norm-bounds', 'cb-amplification', 'calibration'):\n"
        "        assert run_suite(name, cfg).violations == 0, name\n" + UNLOADED
    ) == []
