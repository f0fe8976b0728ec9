import numpy as np
import pytest

import vmfourier as vf
from vmfourier.harness import GRID_PHASES


@pytest.fixture(scope="session")
def z2():
    return vf.build_group("cyclic:2")


@pytest.fixture(scope="session")
def z2_dual(z2):
    return vf.unitary_dual(z2)


@pytest.fixture(scope="session")
def s3():
    return vf.build_group("symmetric:3")


@pytest.fixture(scope="session")
def s3_dual(s3):
    return vf.unitary_dual(s3)


@pytest.fixture(scope="session")
def builtin_groups():
    out = []
    for spec in vf.builtin_group_specs():
        g = vf.build_group(spec)
        out.append((g, vf.unitary_dual(g)))
    return out


@pytest.fixture(scope="session")
def all_spaces():
    return [vf.ScalarSpace(), vf.LinfSpace(2), vf.MatOpSpace(2), vf.WeightedL1Space.uniform(2)]


@pytest.fixture(scope="session")
def default_battery():
    """Suite -> the report of every suite at its default trials on
    ``RunConfig()`` (seed 0), run once per session for the acceptance
    criteria and the golden digest."""
    cfg = vf.RunConfig()
    return {name: vf.run_suite(name, cfg) for name in cfg.suites}


@pytest.fixture
def linf2():
    return vf.LinfSpace(2)


@pytest.fixture
def F3(z2, linf2):
    # two atoms in linf(2): e -> (1, 0), a -> (0, 1)
    return vf.VectorMeasure(z2, linf2, np.array([[1, 0], [0, 1]], dtype=complex))


def random_measure(group, space, seed):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((group.order, space.dim)) + 1j * rng.standard_normal(
        (group.order, space.dim)
    )
    return vf.VectorMeasure(group, space, atoms)


def random_function(group, seed):
    rng = np.random.default_rng(seed)
    return vf.ScalarFunction(
        group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    )


def grid_dual(space):
    """The space's calibration grid, ``grid_dual`` on ``GRID_PHASES`` phases,
    or None."""
    return space.grid_dual(np.exp(2j * np.pi * np.arange(GRID_PHASES) / GRID_PHASES))
