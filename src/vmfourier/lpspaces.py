"""Function-space norms: Lebesgue norms for Haar measure, measure-weighted
norms, matrix-level integrand norms and the weak (dual-ball) p-norms of
vector-valued functions.

All functions on a finite group are simple, so the spaces that differ only
through approximation or weak-vs-strong integrability in general collapse
here; each pair is exposed through a single norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, require_same_group
from .measures import GroupMap, VectorMeasure, _subset_indices
from .spaces import CoefficientSpace, NormEstimate, XVector, _known, _lp, _request, _resolve_one

__all__ = [
    "ScalarFunction",
    "VectorFunction",
    "MatrixFunction",
    "lp_norm_haar",
    "lp_nu_norm",
    "N_norm",
    "Pp_norm",
    "pettis_integral",
    "function_pushforward",
    "reflect",
]


@dataclass(eq=False)
class ScalarFunction:
    """A complex function on a finite group, tabulated per element, or a
    stack of them: values [..., order]."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if v.shape[-1] != self.group.order:
            raise ValueError("value count must equal the group order")
        self.values = v

    @staticmethod
    def constant(group: FiniteGroup, z: complex = 1.0) -> "ScalarFunction":
        return ScalarFunction(group, np.full(group.order, complex(z)))

    @staticmethod
    def indicator(group: FiniteGroup, subset) -> "ScalarFunction":
        v = np.zeros(group.order, dtype=complex)
        v[list(subset)] = 1.0
        return ScalarFunction(group, v)

    def __mul__(self, other: "ScalarFunction") -> "ScalarFunction":
        require_same_group(self.group, other.group)
        return ScalarFunction(self.group, self.values * other.values)


@dataclass(eq=False)
class VectorFunction:
    """A coefficient-space-valued function on a finite group, or a stack of them."""

    group: FiniteGroup
    space: CoefficientSpace
    values: np.ndarray  # [..., order, dim]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape[-2:] != (self.group.order, self.space.dim):
            raise ValueError("values must have shape [order, space.dim]")
        self.values = v


@dataclass(eq=False)
class MatrixFunction:
    """A matrix-valued function on a finite group, one n x n block per
    element, or a stack of them."""

    group: FiniteGroup
    n: int
    values: np.ndarray  # [..., order, n, n]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape[-3:] != (self.group.order, self.n, self.n):
            raise ValueError("values must have shape [order, n, n]")
        self.values = v

    def entry(self, i: int, j: int) -> ScalarFunction:
        return ScalarFunction(self.group, self.values[..., i, j].copy())


def lp_norm_haar(f: ScalarFunction, p: float) -> float:
    """L^p norm against normalized counting measure; p = inf gives the max.
    An array of norms over a stack."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    a = np.abs(f.values)
    if np.isinf(p):
        return a.max(axis=-1)[()]
    return (np.mean(a**p, axis=-1) ** (1.0 / p))[()]


def lp_nu_norm(f: ScalarFunction, nu: VectorMeasure, p: float = 1.0) -> NormEstimate:
    """The measure-weighted p-norm |||f|^p||_nu^{1/p}.

    The p = 1 case is the dual-ball sup of the scalarized integrals of |f|;
    p = inf is the exact max of |f| over atoms where the measure is nonzero
    (atoms with x_t = 0 are null and excluded).
    """
    return _resolve_one(_lp_nu(f, nu, p))


def _lp_nu(f: ScalarFunction, nu: VectorMeasure, p: float):
    """The norm request of ``lp_nu_norm(f, nu, p)``."""
    require_same_group(f.group, nu.group)
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if np.isinf(p):  # the max of |f| over the live atoms, 0 without one
        live = nu.space.norm_many(nu.atoms) > 0
        return _known(np.where(live, np.abs(f.values), 0.0).max(axis=-1))
    return _request(nu.space, 1, np.abs(f.values) ** p, nu.atoms, p)


def N_norm(F: MatrixFunction, nu: VectorMeasure) -> NormEstimate:
    """Matrix-level integrand norm: the dual-ball sup of the scalarized
    integrals of t -> ||F(t)||_op; collapses to ``lp_nu_norm`` at level 1."""
    return _resolve_one(_n_norm(F, nu))


def _n_norm(F: MatrixFunction, nu: VectorMeasure):
    """The norm request of ``N_norm(F, nu)``."""
    require_same_group(F.group, nu.group)
    opnorms = np.linalg.svd(F.values, compute_uv=False)[..., 0] if F.n > 1 else np.abs(
        F.values[..., 0, 0]
    )
    return _request(nu.space, 1, opnorms, nu.atoms, None)


def Pp_norm(phi: VectorFunction, p: float) -> NormEstimate:
    """Weak p-norm of a vector-valued function: sup over the dual ball of the
    L^p(Haar) norm of the scalarized function.  Exact for the closed-form
    spaces; otherwise bracketed above by the L^p norm of t -> ||phi(t)||."""
    return _resolve_one(_pp(phi, p))


def _pp(phi: VectorFunction, p: float):
    """The norm request of ``Pp_norm(phi, p)``."""
    return _lp(phi.space, phi.values, p)


def pettis_integral(phi: VectorFunction, subset=None) -> XVector:
    """Vector-valued integral over A against normalized counting measure.

    Weak and strong integrals agree here; pairing the result with any dual
    vector equals the scalar integral of the paired function.
    """
    idx = _subset_indices(phi.group, subset)
    return XVector(phi.space, phi.values[..., idx, :].sum(axis=-2) / phi.group.order)


def function_pushforward(f: ScalarFunction, h: GroupMap) -> ScalarFunction:
    """f_h = f composed with the inverse map: f_h(t) = f(h^{-1}(t))."""
    require_same_group(f.group, h.group)
    return ScalarFunction(f.group, f.values[..., h.inverse().table])


def reflect(f: ScalarFunction) -> ScalarFunction:
    """Argument inversion: f~(t) = f(t^{-1})."""
    return function_pushforward(f, GroupMap.inversion(f.group))
