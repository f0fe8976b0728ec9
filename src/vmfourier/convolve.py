"""Convolution products on a finite group: the classical function convolution
for normalized counting measure, its weak and vector-valued liftings against a
vector measure, both measure-measure convolutions, and the function-measure
convolution density.

Integrability provisos from the continuous theory are vacuous here: every
finite sum exists, so all products are total.
"""

from __future__ import annotations

import numpy as np

from .groups import require_same_group
from .lpspaces import ScalarFunction, VectorFunction
from .measures import VectorMeasure, radon_nikodym
from .spaces import ScalarSpace, XVector

__all__ = [
    "conv_classical",
    "conv_weak",
    "conv_vector",
    "conv_measure_sv",
    "conv_measure_vs",
    "conv_function_measure",
]


def conv_classical(f: ScalarFunction, g: ScalarFunction) -> ScalarFunction:
    """(f * g)(t) = average over s of f(t s^-1) g(s)."""
    require_same_group(f.group, g.group)
    q = f.group.right_quotient_table()  # q[t, s] = t s^-1
    vals = (f.values[..., q] @ g.values[..., None])[..., 0] / f.group.order
    return ScalarFunction(f.group, vals)


def conv_weak(
    f: ScalarFunction, g: ScalarFunction, nu: VectorMeasure, xp: XVector
) -> ScalarFunction:
    """Weak convolution at a dual functional: f convolved with g times the
    scalarized density of nu."""
    require_same_group(f.group, nu.group)
    h = radon_nikodym(nu, xp)
    return conv_classical(f, ScalarFunction(g.group, g.values * h))


def conv_vector(
    f: ScalarFunction, g: ScalarFunction, nu: VectorMeasure
) -> VectorFunction:
    """Vector-valued convolution: value at t is sum_s f(t s^-1) g(s) x_s.

    Pairing the value with any dual vector recovers the weak convolution at
    that functional.
    """
    require_same_group(f.group, g.group)
    require_same_group(f.group, nu.group)
    q = f.group.right_quotient_table()
    vals = np.einsum("...ts,...s,...sc->...tc", f.values[..., q], g.values, nu.atoms)
    return VectorFunction(f.group, nu.space, vals)


def conv_measure_sv(mu: VectorMeasure, nu: VectorMeasure) -> VectorMeasure:
    """Scalar-by-vector measure convolution: atom at s is
    sum_t mu({s t^-1}) x_t."""
    if not isinstance(mu.space, ScalarSpace):
        raise ValueError("left factor must be a scalar measure")
    require_same_group(mu.group, nu.group)
    q = mu.group.right_quotient_table()
    atoms = np.einsum("...st,...tc->...sc", mu.atoms[..., 0][..., q], nu.atoms)
    return VectorMeasure(nu.group, nu.space, atoms)


def conv_measure_vs(nu: VectorMeasure, mu: VectorMeasure) -> VectorMeasure:
    """Vector-by-scalar measure convolution: atom at s is
    sum_t x_{s t^-1} mu({t})."""
    if not isinstance(mu.space, ScalarSpace):
        raise ValueError("right factor must be a scalar measure")
    require_same_group(mu.group, nu.group)
    q = nu.group.right_quotient_table()
    atoms = np.einsum("...stc,...t->...sc", nu.atoms[..., q, :], mu.atoms[..., 0])
    return VectorMeasure(nu.group, nu.space, atoms)


def conv_function_measure(f: ScalarFunction, nu: VectorMeasure) -> VectorFunction:
    """Density of the convolution of f (as a Haar density) with nu:
    t -> sum_s f(t s^-1) x_s; equals the vector convolution of f with 1."""
    require_same_group(f.group, nu.group)
    q = f.group.right_quotient_table()
    vals = np.einsum("...ts,...sc->...tc", f.values[..., q], nu.atoms)
    return VectorFunction(f.group, nu.space, vals)
