"""Fourier transforms on finite groups: the classical transform of scalar
functions, the transform of functions against a vector measure, the weak
(functional-by-functional) transform, and the transform of vector measures.

All transforms use the block normalization with a 1/d factor per irrep block;
the inversion and energy identities carry the compensating d^2 and d^3
constants.  On a trivial one-dimensional block the constants all reduce to
the familiar abelian formulas.  Each transform is one product with the dual's
cached coefficient matrix (``UnitaryDual.coefficients``), whose rows are the
block entries' linear functionals.

Blocks are basis-dependent: every identity here compares both sides through
one fixed dual object, which pins the orthonormal basis per irrep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .groups import UnitaryDual, require_same_group
from .lpspaces import ScalarFunction
from .measures import VectorMeasure, radon_nikodym
from .spaces import _AMP, CoefficientSpace, MatrixOverX, NormEstimate, XVector, _resolve_one

__all__ = [
    "FourierCoefficients",
    "VectorFourierCoefficients",
    "ft_classical",
    "ft_inverse",
    "plancherel_check",
    "ft_vector",
    "ft_measure",
    "ft_weak",
    "ft_sup_norm",
    "uniqueness_rank",
]

_RANK_TOL = 1e-8  # uniqueness_rank's singular-value cutoff, relative to the largest


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Complex coefficients as one [..., sum d^2] stack (leading axes stack
    several), in the row order of ``dual.coefficients``; ``blocks`` views it
    as one [..., d, d] matrix per irrep."""

    dual: UnitaryDual
    stack: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stack", np.asarray(self.stack, dtype=complex))
        shape = (len(self.dual.coefficients),)
        if self.stack.shape[-1:] != shape:
            raise ValueError(f"stack must have shape {shape}, got {self.stack.shape}")

    @functools.cached_property
    def blocks(self) -> list[np.ndarray]:
        return _blocks(self.dual, self.stack, -1)

    def max_abs_diff(self, other: "FourierCoefficients") -> float:
        return np.abs(self.stack - other.stack).max(axis=-1)[()]


@dataclass(frozen=True, eq=False)
class VectorFourierCoefficients:
    """Coefficients valued in a coefficient space as one [..., sum d^2, dim]
    stack (leading axes stack several), in the row order of
    ``dual.coefficients``; ``blocks`` views an unstacked one as one d-level
    matrix over X per irrep."""

    dual: UnitaryDual
    space: CoefficientSpace
    stack: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stack", np.asarray(self.stack, dtype=complex))
        shape = (len(self.dual.coefficients), self.space.dim)
        if self.stack.shape[-2:] != shape:
            raise ValueError(f"stack must have shape {shape}, got {self.stack.shape}")

    @functools.cached_property
    def blocks(self) -> list[MatrixOverX]:
        return [MatrixOverX(self.space, b) for b in _blocks(self.dual, self.stack)]

    def max_abs_diff(self, other: "VectorFourierCoefficients") -> float:
        return np.abs(self.stack - other.stack).max(axis=(-2, -1))[()]


def _blocks(dual: UnitaryDual, stack: np.ndarray, axis: int = 0) -> list[np.ndarray]:
    """Split a stack along ``axis``, of [sum d^2] rows in the row order of
    ``dual.coefficients``, into one view per irrep with [d, d] in its place."""
    out, start, axis = [], 0, axis % stack.ndim
    for d in dual.dims():
        rows = stack[(slice(None),) * axis + (slice(start, start + d * d),)]
        out.append(rows.reshape(*stack.shape[:axis], d, d, *stack.shape[axis + 1 :]))
        start += d * d
    return out


def ft_classical(f: ScalarFunction, dual: UnitaryDual) -> FourierCoefficients:
    """Block at an irrep: the Haar average of f(t) pi(t)^*, scaled by 1/d."""
    require_same_group(dual.group, f.group)
    stack = (dual.coefficients @ f.values[..., None])[..., 0]
    return FourierCoefficients(dual, stack / f.group.order)


def ft_inverse(c: FourierCoefficients) -> ScalarFunction:
    """Pointwise reconstruction f(t) = sum over irreps of d^2 tr(block pi(t));
    exact on a finite group."""
    dims = np.array(c.dual.dims())
    weighted = np.repeat(dims**3, dims**2) * c.stack
    return ScalarFunction(c.dual.group, weighted @ c.dual.coefficients.conj())


def plancherel_check(f: ScalarFunction, dual: UnitaryDual) -> tuple[float, float]:
    """Both sides of the energy identity: ||f||_2^2 against the weighted block
    traces sum_pi d^3 tr(block^* block), as arrays over f's leading axes."""
    dims = np.array(dual.dims())
    lhs = np.mean(np.abs(f.values) ** 2, axis=-1)
    rhs = np.abs(ft_classical(f, dual).stack) ** 2 @ np.repeat(dims**3, dims**2)
    return lhs[()], rhs[()]


def ft_vector(
    f: ScalarFunction, nu: VectorMeasure, dual: UnitaryDual
) -> VectorFourierCoefficients:
    """Transform of f against a vector measure: block entries are the X-valued
    integrals (1/d) integral of f(t) conj(pi(t)_{ji}) d nu at entry (i, j)."""
    require_same_group(dual.group, f.group)
    require_same_group(dual.group, nu.group)
    stack = dual.coefficients @ (f.values[..., None] * nu.atoms)
    return VectorFourierCoefficients(dual, nu.space, stack)


def ft_measure(nu: VectorMeasure, dual: UnitaryDual) -> VectorFourierCoefficients:
    """Transform of a vector measure: the function transform of 1 against nu."""
    require_same_group(dual.group, nu.group)
    return VectorFourierCoefficients(dual, nu.space, dual.coefficients @ nu.atoms)


def ft_weak(
    f: ScalarFunction, nu: VectorMeasure, xp: XVector, dual: UnitaryDual
) -> FourierCoefficients:
    """Weak transform at a dual functional: the classical transform of f times
    the density of the scalarized measure."""
    h = radon_nikodym(nu, xp)
    return ft_classical(ScalarFunction(f.group, f.values * h), dual)


def ft_sup_norm(c: VectorFourierCoefficients) -> NormEstimate:
    """Sup over irreps of the matrix-level norms of the blocks, as a bracket."""
    return _resolve_one(_sup(c.space, c.stack, c.dual.dims()))


def _sup(space: CoefficientSpace, stack: np.ndarray, levels):
    """The norm request of ``ft_sup_norm`` for a [..., sum n^2, ...] stack of
    n x n blocks over ``space``, n in ``levels``, in the row order of ``_blocks``."""
    rows = sum(n * n for n in levels)
    return space, _AMP, tuple(levels), stack.reshape(-1, rows, space.dim), None


def uniqueness_rank(dual: UnitaryDual, target: VectorMeasure | CoefficientSpace) -> int:
    """Kernel dimension of the linear transform map at this instance.

    With a ``VectorMeasure`` target: the map f -> transform of f against nu,
    with the domain restricted to functions supported on atoms where the
    measure is nonzero.  With a ``CoefficientSpace`` target: the map from
    measures over that space to their transforms.  Zero means the transform
    determines its argument.  Rank is counted at the module constant
    ``_RANK_TOL`` (1e-8) relative to the largest singular value.
    """
    rows = dual.coefficients  # [sum d^2, order]
    if isinstance(target, VectorMeasure):
        require_same_group(dual.group, target.group)
        live = target.space.norm_many(target.atoms) > 0
        if not live.any():
            return 0
        # column for f(t): rows scaled by each coordinate of the atom at t
        mat = np.einsum("bt,tc->bct", rows[:, live], target.atoms[live])
        mat = mat.reshape(-1, int(live.sum()))
    else:
        dim = target.dim
        mat = np.kron(rows, np.eye(dim))
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return mat.shape[1]
    rank = int((s > _RANK_TOL * s[0]).sum())
    return mat.shape[1] - rank

