"""Atomic vector measures on a finite group.

Every measure on a finite group is a finite family of atoms, is regular, has
bounded variation and is absolutely continuous with respect to the normalized
counting measure, so the usual measure-class distinctions all collapse here;
no separate regularity or absolute-continuity predicates exist.

Atoms are stored as a dense [order, dim] coordinate array: ``atoms[t]`` is the
measure of the singleton {t} as an element of the coefficient space.  The
normalized counting (Haar) measure of a singleton is 1/|G| throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .groups import FiniteGroup, require_same_group
from .spaces import (
    CoefficientSpace,
    NormEstimate,
    ScalarSpace,
    XVector,
    _lp,
    _request,
    _require_same_space,
    _resolve,
    _resolve_one,
)

__all__ = [
    "VectorMeasure",
    "GroupMap",
    "InvarianceReport",
    "evaluate",
    "variation",
    "semivariation",
    "p_semivariation",
    "radon_nikodym",
    "pushforward",
    "check_semivariation_invariance",
    "measure_from_density",
    "integrate",
]


@dataclass(eq=False)
class VectorMeasure:
    """A coefficient-space-valued measure given by its atoms (or a stack)."""

    group: FiniteGroup
    space: CoefficientSpace
    atoms: np.ndarray  # [..., order, dim]

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=complex)
        if a.shape[-2:] != (self.group.order, self.space.dim):
            raise ValueError(
                f"atoms must have shape ({self.group.order}, {self.space.dim}), got {a.shape}"
            )
        self.atoms = a

    @staticmethod
    def zero(group: FiniteGroup, space: CoefficientSpace) -> "VectorMeasure":
        return VectorMeasure(group, space, np.zeros((group.order, space.dim), dtype=complex))

    @staticmethod
    def scalar(group: FiniteGroup, values) -> "VectorMeasure":
        """A scalar measure: atoms are plain complex masses ([..., order] values)."""
        v = np.atleast_1d(np.asarray(values, dtype=complex))[..., None]
        return VectorMeasure(group, ScalarSpace(), v)

    @staticmethod
    def haar_scalar(group: FiniteGroup) -> "VectorMeasure":
        return VectorMeasure.scalar(group, np.full(group.order, 1.0 / group.order))


@dataclass(eq=False)
class GroupMap:
    """A bijection of group elements (translation, inversion)."""

    group: FiniteGroup
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if sorted(t.tolist()) != list(range(self.group.order)):
            raise ValueError("map table is not a bijection")
        self.table = t

    @staticmethod
    def identity(group: FiniteGroup) -> "GroupMap":
        return GroupMap(group, np.arange(group.order))

    @staticmethod
    def translation(group: FiniteGroup, t: int) -> "GroupMap":
        """Right translation s -> s t."""
        return GroupMap(group, group.cayley[:, t])

    @staticmethod
    def inversion(group: FiniteGroup) -> "GroupMap":
        return GroupMap(group, group.inverses.copy())

    def inverse(self) -> "GroupMap":
        return GroupMap(self.group, np.argsort(self.table))


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def _subset_indices(g: FiniteGroup, subset: Iterable[int] | None) -> np.ndarray:
    if subset is None:
        return np.arange(g.order)
    idx = np.asarray(sorted(set(int(t) for t in subset)), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= g.order):
        raise ValueError("subset contains indices outside the group")
    return idx


def evaluate(nu: VectorMeasure, subset: Iterable[int] | None = None) -> XVector:
    """nu(A) = sum of the atoms over A (all of G when A is omitted)."""
    idx = _subset_indices(nu.group, subset)
    return XVector(nu.space, nu.atoms[..., idx, :].sum(axis=-2))


def variation(nu: VectorMeasure, subset: Iterable[int] | None = None) -> float:
    """|nu|(A): on a finite group the partition sup is attained at singletons."""
    idx = _subset_indices(nu.group, subset)
    if idx.size == 0:
        return 0.0
    return float(nu.space.norm_many(nu.atoms[idx]).sum())


def semivariation(nu: VectorMeasure, subset: Iterable[int] | None = None) -> NormEstimate:
    """||nu||(A): sup over the dual ball of the scalarized total variation.

    Sandwiched between ||nu(A)|| and |nu|(A); exact for scalar / max-norm
    coefficient spaces, a certified bracket otherwise.
    """
    return _resolve_one(_semi(nu, subset))


def _semi(nu: VectorMeasure, subset: Iterable[int] | None = None):
    """The norm request of ``semivariation(nu, subset)``."""
    idx = _subset_indices(nu.group, subset)
    atoms = nu.atoms[..., idx, :]
    return _request(nu.space, 1, np.ones(atoms.shape[:-1]), atoms, None)


def p_semivariation(nu: VectorMeasure, p: float) -> NormEstimate:
    """Operator norm of f -> integral of f against nu, from L^{p'}(G) to X.

    For p = inf this is the exact max over singletons of ||nu({t})|| / m_G({t});
    averaging makes larger sets never better.  For 1 < p < inf it equals the
    dual-ball sup of the L^p norm of the scalarized densities, exact for the
    closed-form spaces and a bracket otherwise (the upper end is the L^p norm
    of t -> |G| ||nu({t})||, a pointwise majorant of every density).
    """
    return _resolve_one(_p_semi(nu, p))


def _p_semi(nu: VectorMeasure, p: float):
    """The norm request of ``p_semivariation(nu, p)``."""
    if not p > 1:
        raise ValueError("p-semivariation requires p > 1")
    return _lp(nu.space, nu.group.order * nu.atoms, p)


def radon_nikodym(nu: VectorMeasure, xp: XVector) -> np.ndarray:
    """Density of <nu, xp> against normalized counting measure: t -> |G| <x_t, xp>."""
    _require_same_space(nu.space, xp.space)
    return nu.group.order * nu.space.pair_many(nu.atoms, xp.coords[..., None, :])[..., 0, :]


def pushforward(nu: VectorMeasure, h: GroupMap) -> VectorMeasure:
    """nu_h(A) = nu(h(A)); atomically (nu_h)({t}) = nu({h(t)})."""
    require_same_group(nu.group, h.group)
    return VectorMeasure(nu.group, nu.space, nu.atoms[h.table])


def measure_from_density(nu: VectorMeasure, f: np.ndarray) -> VectorMeasure:
    """nu_f(A) = integral of f over A against nu; atoms f(t) x_t."""
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    if f.shape[-1] != nu.group.order:
        raise ValueError("density length must equal the group order")
    return VectorMeasure(nu.group, nu.space, f[..., None] * nu.atoms)


def integrate(f: np.ndarray, nu: VectorMeasure) -> XVector:
    """integral of a scalar function against nu: sum_t f(t) x_t."""
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    if f.shape[-1] != nu.group.order:
        raise ValueError("function length must equal the group order")
    return XVector(nu.space, (f[..., None, :] @ nu.atoms)[..., 0, :])


# ---------------------------------------------------------------------------
# semivariation invariance
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Outcome of sampling-based semivariation invariance checking.

    ``refuted`` means some test density produced disjoint semivariation
    brackets for nu and the pushforward; ``max_discrepancy`` is the largest
    certified gap between brackets (0 when every pair overlaps).
    """

    refuted: bool
    max_discrepancy: float
    functions_tested: int

    @property
    def consistent(self) -> bool:
        return not self.refuted


def check_semivariation_invariance(
    nu: VectorMeasure,
    h: GroupMap,
    trials: int = 8,
    seed: int = 0,
) -> InvarianceReport:
    """Compare ||(nu_h)_phi|| against ||nu_phi|| over sampled simple functions.

    Tests every singleton indicator, a few random subset indicators and
    ``trials`` random complex densities.  Sampling can refute invariance but
    never prove it; a consistent report means no certified discrepancy.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = nu.group.order
    nu_h = pushforward(nu, h)
    densities = [
        *np.eye(n),
        *(rng.integers(0, 2, size=n).astype(float) for _ in range(min(trials, 4))),
        *(rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(trials)),
    ]
    # the semivariations of every nu_phi, then of every (nu_h)_phi, in one batch
    lo, hi = _resolve([_semi(measure_from_density(m, np.array(densities))) for m in (nu, nu_h)])
    k = len(densities)
    worst = float(np.maximum(np.maximum(lo[:k] - hi[k:], lo[k:] - hi[:k]), 0.0).max())
    return InvarianceReport(worst > 0, worst, k)
