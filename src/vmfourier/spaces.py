"""Concrete normed coefficient spaces with dual pairing and matrix-level norms.

Four families are provided:

* ``ScalarSpace``     -- the complex numbers.
* ``LinfSpace(k)``    -- C^k with the max norm (dual: l1).
* ``MatOpSpace(d)``   -- d x d complex matrices with the operator norm
                         (dual: trace class, pairing <A, B> = tr(B* A)).
* ``WeightedL1Space`` -- C^k with a strictly-positive-weighted l1 norm
                         (dual: weighted l-infinity, i.e. a polydisc ball).

Vectors are stored as flat complex coordinate arrays (length 1, k or d*d).
The commutative families carry the matrix norms obtained by pairing against
single dual functionals ("min" style); matrices over ``MatOpSpace`` are normed
as block operator matrices.

Suprema over the dual unit ball are exact for ``ScalarSpace``/``LinfSpace``
and certified brackets otherwise: the lower end comes from alternating
phase ascent over extreme points of the dual ball, the upper end from a
provable majorant, so downstream inequality checks can never certify a
false violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# every ascent starts ASCENT_RESTARTS points drawn from one fixed seed and
# runs at most ASCENT_ITERS iterations, so each estimate is deterministic
ASCENT_RESTARTS = 64
ASCENT_ITERS = 100
ASCENT_SEED = 0
ASCENT_TOL = 1e-10
_STALL_PATIENCE = 3
# batched ascents run in row chunks of about this many entries per working
# array ([rows, restarts, T, dim]), which bounds their memory
_CHUNK_ENTRIES = 1 << 16
# 3 x 3 top singular pairs whose top two eigenvalues of M^H M are closer than
# this (relative) go to LAPACK: there the trigonometric formula loses digits
_TRIG_MIN_GAP = 1e-4

__all__ = [
    "NormEstimate",
    "CoefficientSpace",
    "ScalarSpace",
    "LinfSpace",
    "MatOpSpace",
    "WeightedL1Space",
    "XVector",
    "MatrixOverX",
    "norm",
    "dual_norm",
    "pair",
    "dual_ball_sup",
    "lp_dual_sup",
    "amplified_norm",
    "space_from_spec",
]


def _raised(lower, upper):
    """Bracket ends with lower raised to 0 and upper to lower."""
    lower = np.maximum(0.0, lower)
    return lower, np.maximum(lower, upper)


@dataclass(frozen=True, slots=True)
class NormEstimate:
    """Certified bracket [lower, upper] for a nonnegative norm quantity.

    All estimators in this package keep ``lower`` a true lower bound and
    ``upper`` a true upper bound, so comparisons of the form lhs.lower >
    rhs.upper are sound certificates.  Negative ends are raised to 0; a NaN
    end raises ``ValueError``.
    """

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"NaN end in the bracket [{lo}, {hi}]")
        lo, hi = _raised(lo, hi)
        object.__setattr__(self, "lower", float(lo))
        object.__setattr__(self, "upper", float(hi))

    @property
    def exact(self) -> bool:
        """Whether the ends meet."""
        return self.lower == self.upper

    @staticmethod
    def of_exact(value: float) -> "NormEstimate":
        return NormEstimate(value, value)

    @staticmethod
    def bracket(lower: float, upper: float) -> "NormEstimate":
        return NormEstimate(min(lower, upper), upper)


class CoefficientSpace:
    """Base class; concrete families implement the coordinate-level kernels."""

    dim: int
    label: str
    exact_dual_sup: bool = False

    # -- single-vector norms ------------------------------------------------

    def norm_of(self, coords: np.ndarray) -> float:
        return self.norm_many(np.asarray(coords, dtype=complex)[..., None, :])[..., 0][()]

    def dual_norm_of(self, coords: np.ndarray) -> float:
        raise NotImplementedError

    def norm_many(self, vecs: np.ndarray) -> np.ndarray:
        """Norms of a [..., T, dim] stack of coordinate vectors; each [T, dim]
        slice gets the values, bit for bit, of a call on that slice alone."""
        raise NotImplementedError

    # -- duality kernels ----------------------------------------------------

    def pair_many(self, vecs: np.ndarray, xps: np.ndarray) -> np.ndarray:
        """Pairings <v_t, xp_r> of [..., T, dim] vectors and [..., R, dim]
        functionals as an [..., R, T] array; bilinear unless overridden."""
        return xps @ vecs.swapaxes(-1, -2)

    def norming_dual_many(self, ys: np.ndarray) -> np.ndarray:
        """For each row y, a dual-ball element xp with <y, xp> = ||y||."""
        raise NotImplementedError

    def sample_dual(self, rng, count: int) -> np.ndarray:
        """Random extreme points of the dual unit ball, as [..., count, dim]
        rows: an ``np.random.Generator``'s, or a stack of instance streams'
        (``harness._Stream``) with its leading axes."""
        raise NotImplementedError

    def grid_dual(self, phases: np.ndarray):
        """Extreme points of the dual unit ball on the given unit phases, as
        [P, dim] rows, or None; a max over them is a lower bound for the
        dual-ball sup of any convex objective."""
        return None

    # -- optional closed forms: [B] arrays of values, or None ---------------

    def closed_sup(self, weights: np.ndarray, vecs: np.ndarray, q: float):
        """sup over the dual ball of sum_t w_t |<v_t, xp>|^q, for [B, T]
        weights and [B, T, dim] vectors."""
        return None

    def closed_amplified(self, entries: np.ndarray):
        """The matrix-level norms of a [B, n, n, dim] stack, or None."""
        return None

    def amplified_majorant(self, entries: np.ndarray):
        """Upper bounds on the matrix-level norms of a [B, n, n, dim] stack,
        used where below n * max ||x_ij||; None when the space has none."""
        return None

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return self.label

    def __eq__(self, other):
        return isinstance(other, CoefficientSpace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return (type(self).__name__, self.dim)


def _conj_phase(z, a, fill):
    """conj(z) / |z| elementwise, given a = |z|, and ``fill`` where z = 0."""
    return np.where(a > 0, np.conj(z) / np.maximum(a, 1e-300), fill)


class ScalarSpace(CoefficientSpace):
    """X = C with the modulus norm; self-dual under plain multiplication."""

    exact_dual_sup = True

    def __init__(self):
        self.dim = 1
        self.label = "scalar"

    def norm_many(self, vecs):
        return np.abs(vecs[..., 0])

    def dual_norm_of(self, coords):
        return np.abs(np.asarray(coords, dtype=complex)[..., 0])[()]

    def norming_dual_many(self, ys):
        y = ys[:, 0]
        return _conj_phase(y, np.abs(y), 1.0)[:, None]

    def sample_dual(self, rng, count):
        return np.exp(2j * np.pi * rng.random((count, 1)))

    def grid_dual(self, phases):
        return phases[:, None]

    def closed_sup(self, weights, vecs, q):
        return (weights * np.abs(vecs[..., 0]) ** q).sum(axis=-1)

    def closed_amplified(self, entries):
        return np.linalg.svd(entries[..., 0], compute_uv=False)[:, 0]


class LinfSpace(CoefficientSpace):
    """X = C^k with the max norm; dual is l1, extreme dual points are +-e_j."""

    exact_dual_sup = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.dim = int(k)
        self.label = f"linf:{k}"

    def norm_many(self, vecs):
        return np.abs(vecs).max(axis=-1)

    def dual_norm_of(self, coords):
        return np.abs(np.asarray(coords, dtype=complex)).sum(axis=-1)[()]

    def norming_dual_many(self, ys):
        j = np.argmax(np.abs(ys), axis=1)
        top = np.take_along_axis(ys, j[:, None], axis=1)[:, 0]
        phase = _conj_phase(top, np.abs(top), 1.0)
        out = np.zeros_like(ys)
        np.put_along_axis(out, j[:, None], phase[:, None], axis=1)
        return out

    def sample_dual(self, rng, count):
        j = rng.integers(0, self.dim, size=count)
        out = np.zeros(j.shape + (self.dim,), dtype=complex)
        np.put_along_axis(out, j[..., None], np.exp(2j * np.pi * rng.random(count))[..., None], -1)
        return out

    def grid_dual(self, phases):
        on = np.eye(self.dim, dtype=bool)[:, None]  # the phases times each e_j
        return np.where(on, phases[:, None], 0).reshape(-1, self.dim)

    def closed_sup(self, weights, vecs, q):
        # convex in xp, so the max sits at an extreme point phase * e_c, where
        # the phases drop out: per-coordinate column sums
        return (weights[..., None] * np.abs(vecs) ** q).sum(axis=-2).max(axis=-1)

    def closed_amplified(self, entries):
        # the dual ball's extreme points are phases times e_c, so the sup sits
        # on one coordinate slice [x_ij]_c
        return np.linalg.svd(entries.transpose(0, 3, 1, 2), compute_uv=False)[..., 0].max(axis=1)


class MatOpSpace(CoefficientSpace):
    """X = M_d with the operator norm; dual is trace class via tr(B* A)."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = self.d * self.d
        self.label = f"matop:{d}"

    def _mats(self, vecs):
        return vecs.reshape(*vecs.shape[:-1], self.d, self.d)

    def norm_many(self, vecs):
        mats = self._mats(vecs)
        if self.d != 2:
            return np.linalg.svd(mats, compute_uv=False)[..., 0]
        # sqrt of M^H M's top eigenvalue, M scaled so that squaring stays in range
        scale, scaled = _scale_by_max(mats)
        a, b, c = _gram2(scaled)
        return scale * np.sqrt(0.5 * (a + b) + np.hypot(0.5 * (a - b), np.abs(c)))

    def dual_norm_of(self, coords):
        m = self._mats(np.asarray(coords, dtype=complex))
        return np.linalg.svd(m, compute_uv=False).sum(axis=-1)[()]

    def pair_many(self, vecs, xps):
        return np.conj(xps) @ vecs.swapaxes(-1, -2)  # tr(xp^H v) on flat coordinates

    def norming_dual_many(self, ys):
        u1, _, v1 = _top_singular_pairs(self._mats(ys))
        # xp = u1 v1^H pairs to the top singular value
        xp = u1[:, :, None] * np.conj(v1)[:, None, :]
        return xp.reshape(ys.shape[0], self.dim)

    def sample_dual(self, rng, count):
        # rank-one u v^H: the extreme points of the trace-norm unit ball
        u = rng.standard_normal((count, self.d)) + 1j * rng.standard_normal((count, self.d))
        v = rng.standard_normal((count, self.d)) + 1j * rng.standard_normal((count, self.d))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        xp = u[..., :, None] * np.conj(v)[..., None, :]
        return xp.reshape(*u.shape[:-1], self.dim)

    def grid_dual(self, phases):
        # u v^H for u, v = (cos a, sin a * phase) on 13 angles a in [0, pi/2]; d <= 2
        if self.d > 2:
            return None
        if self.d == 1:
            return phases[:, None]
        ang = np.linspace(0.0, np.pi / 2, 13)[:, None]
        us = np.stack(np.broadcast_arrays(np.cos(ang), np.sin(ang) * phases), -1).reshape(-1, 2)
        return np.einsum("ua,vb->uvab", us, us.conj()).reshape(-1, 4)

    def closed_amplified(self, entries):
        B, n = entries.shape[:2]
        big = entries.reshape(B, n, n, self.d, self.d).transpose(0, 1, 3, 2, 4)
        return np.linalg.svd(big.reshape(B, n * self.d, n * self.d), compute_uv=False)[:, 0]

    def _key(self):
        return ("MatOpSpace", self.d)


class WeightedL1Space(CoefficientSpace):
    """X = C^k with norm sum_j w_j |c_j|; dual ball is the polydisc |xp_j| <= w_j.

    With k = |G| and uniform weights 1/|G| this realises the function space
    L^1 of a finite group as a coefficient space.
    """

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1 or np.any(w <= 0):
            raise ValueError("weights must be a nonempty strictly positive vector")
        self.weights = w
        self.dim = int(w.size)
        self.label = f"weighted_l1:{self.dim}"

    @staticmethod
    def uniform(k: int) -> "WeightedL1Space":
        if k < 1:
            raise ValueError("k must be >= 1")
        return WeightedL1Space(np.full(int(k), 1.0 / int(k)))

    def norm_many(self, vecs):
        return np.abs(vecs) @ self.weights

    def dual_norm_of(self, coords):
        return (np.abs(np.asarray(coords, dtype=complex)) / self.weights).max(axis=-1)[()]

    def norming_dual_many(self, ys):
        return self.weights[None, :] * _conj_phase(ys, np.abs(ys), 0.0)

    def sample_dual(self, rng, count):
        return self.weights * np.exp(2j * np.pi * rng.random((count, self.dim)))

    def grid_dual(self, phases):
        # the weights times every tuple of phases, len(phases)**dim points: dim <= 3
        if self.dim > 3:
            return None
        grids = np.meshgrid(*([phases] * self.dim), indexing="ij")
        return self.weights[None, :] * np.stack([g.reshape(-1) for g in grids], axis=1)

    def amplified_majorant(self, entries):
        # |xp_c| <= w_c on the dual ball, so ||sum_c xp_c A_c||_op <= sum_c w_c ||A_c||_op
        slices = np.linalg.svd(entries.transpose(0, 3, 1, 2), compute_uv=False)[..., 0]
        # one dot per row: a [B, dim] @ [dim] product rounds by stack height
        return (slices[:, None, :] @ self.weights)[:, 0]

    def _key(self):
        return ("WeightedL1Space", tuple(self.weights.tolist()))


@dataclass(frozen=True)
class XVector:
    """An element of a coefficient space (or of its dual, by convention)."""

    space: CoefficientSpace
    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        if c.shape[-1] != self.space.dim:
            raise ValueError(f"expected {self.space.dim} coordinates, got {c.shape[-1]}")
        object.__setattr__(self, "coords", c)


@dataclass(frozen=True)
class MatrixOverX:
    """An n x n matrix with entries in one coefficient space.

    Carries the matrix-level norm of the space: the block operator norm for
    ``MatOpSpace`` and the sup over dual functionals of the scalar operator
    norm for the commutative families.
    """

    space: CoefficientSpace
    entries: np.ndarray  # [n, n, dim]

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 3 or e.shape[0] != e.shape[1] or e.shape[2] != self.space.dim:
            raise ValueError("entries must have shape [n, n, space.dim]")
        object.__setattr__(self, "entries", e)

    @property
    def level(self) -> int:
        return self.entries.shape[0]


def _require_same_space(a: CoefficientSpace, b: CoefficientSpace):
    if a != b:
        raise ValueError(f"coefficient space mismatch: {a!r} vs {b!r}")


def norm(x: XVector) -> float:
    """Norm of x in its space."""
    return x.space.norm_of(x.coords)


def dual_norm(xp: XVector) -> float:
    """Norm of xp regarded as an element of the dual space."""
    return xp.space.dual_norm_of(xp.coords)


def pair(x: XVector, xp: XVector) -> complex:
    """Duality pairing <x, xp>; linear in x, |value| <= norm(x) * dual_norm(xp)."""
    _require_same_space(x.space, xp.space)
    return x.space.pair_many(x.coords[..., None, :], xp.coords[..., None, :])[..., 0, 0][()]


def _top_singular_pairs(mats: np.ndarray):
    """Top singular triples (u1, s1, v1) of an [R, n, n] stack, with
    ``mats[r] @ v1[r] = s1[r] * u1[r]`` and unit u1, v1.

    For n = 2 and n = 3, v1 is the top eigenvector of the Hermitian M^H M in
    closed form and s1 = ||M v1||: the value an explicit unit pair attains, so
    an ascent built on it stays a lower bound however accurate v1 is.  Each
    matrix is first scaled by its largest modulus so that squaring cannot
    overflow or underflow.  For n = 2 a zero matrix, or one with two equal
    singular values, gets v1 = e_1.  For n = 3, matrices whose top two
    eigenvalues of M^H M lie within a relative ``_TRIG_MIN_GAP`` (zero and
    unitary-like ones among them), where the trigonometric formula loses
    accuracy, go to LAPACK, as do all other sizes.
    """
    n = mats.shape[1]
    if n not in (2, 3):
        return _lapack_top_pairs(mats)
    scale, m = _scale_by_max(mats)
    if n == 2:
        v = _top_eigvec2(m)
    else:
        v, close = _top_eigvec3(m)
    u, norm_mv = _unit_or_e1((m @ v[:, :, None])[:, :, 0])
    s = scale * norm_mv
    if n == 3 and close.any():
        u[close], s[close], v[close] = _lapack_top_pairs(mats[close])
    return u, s, v


def _scale_by_max(mats):
    """Largest modulus of each matrix in a [..., n, n] stack, and the stack
    divided by it (zero matrices left as they are).  Real and imaginary parts
    are divided apart: a complex quotient would go through the reciprocal of
    the modulus, which overflows when the modulus is subnormal."""
    scale = np.abs(mats).max(axis=(-2, -1))
    div = np.where(scale > 0, scale, 1.0)[..., None, None]
    return scale, mats.real / div + 1j * (mats.imag / div)


def _lapack_top_pairs(mats):
    u, s, vh = np.linalg.svd(mats)
    return u[:, :, 0], s[:, 0], np.conj(vh[:, 0, :])


def _gram2(m):
    """(a, b, c) with M^H M = [[a, c], [conj(c), b]] for a [..., 2, 2] stack."""
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    a = (m00 * m00.conj() + m10 * m10.conj()).real
    b = (m01 * m01.conj() + m11 * m11.conj()).real
    return a, b, m00.conj() * m01 + m10.conj() * m11


def _top_eigvec2(m):
    """Unit top eigenvector of M^H M for a scaled [R, 2, 2] stack."""
    a, b, c = _gram2(m)
    half = 0.5 * (a - b)
    r = np.hypot(half, np.abs(c))
    # of the two eigenvector formulas, take the one without cancellation
    first = half >= 0
    x = np.where(first, r + half, c)
    y = np.where(first, c.conj(), r - half)
    return _unit_or_e1(np.stack([x, y], axis=1))[0]


def _top_eigvec3(m):
    """Unit top eigenvectors of M^H M for a scaled [R, 3, 3] stack, and the
    mask of rows whose top two eigenvalues lie within a relative
    ``_TRIG_MIN_GAP``.

    The top eigenvalue comes from the trigonometric formula for the roots of
    the characteristic cubic (Smith 1961, CACM 4), the eigenvector from the
    largest cross product of two rows of M^H M - lambda_1 I, which span its
    orthogonal complement when lambda_1 is simple.  The work is done on
    [R] component arrays, which keeps the temporaries small.
    """
    def gram(i, j):  # (M^H M)_ij
        return sum(m[:, k, i].conj() * m[:, k, j] for k in range(3))

    h00, h11, h22 = (gram(i, i).real for i in range(3))
    h01, h02, h12 = gram(0, 1), gram(0, 2), gram(1, 2)
    q = (h00 + h11 + h22) / 3
    d0, d1, d2 = h00 - q, h11 - q, h22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2 * (_abs2(h01) + _abs2(h02) + _abs2(h12))) / 6)
    # B = (M^H M - qI) / p has its eigenvalues at 2 cos(phi + 2 pi k / 3)
    ps = np.where(p > 0, p, 1.0)
    b00, b11, b22, b01, b02, b12 = d0 / ps, d1 / ps, d2 / ps, h01 / ps, h02 / ps, h12 / ps
    det = (b00 * b11 * b22 + 2 * (b01 * b12 * b02.conj()).real
           - b00 * _abs2(b12) - b11 * _abs2(b02) - b22 * _abs2(b01))
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3
    lam = q + 2 * p * np.cos(phi)
    # lambda_1 - lambda_2 = 2 sqrt(3) p sin(pi / 3 - phi)
    close = 2 * np.sqrt(3) * p * np.sin(np.pi / 3 - phi) <= _TRIG_MIN_GAP * lam
    rows = (
        (h00 - lam, h01, h02),
        (h01.conj(), h11 - lam, h12),
        (h02.conj(), h12.conj(), h22 - lam),
    )
    best = best_norm = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        (x0, x1, x2), (y0, y1, y2) = rows[i], rows[j]
        cross = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
        norm = _abs2(cross[0]) + _abs2(cross[1]) + _abs2(cross[2])
        if best is None:
            best, best_norm = cross, norm
            continue
        larger = norm > best_norm
        best = tuple(np.where(larger, c, b) for c, b in zip(cross, best))
        best_norm = np.where(larger, norm, best_norm)
    return _unit_or_e1(np.stack(best, axis=1))[0], close


def _abs2(z):
    return (z * z.conj()).real


def _unit_or_e1(x):
    """Rows of an [R, n] array scaled to unit length (e_1 where a row is
    zero), and their lengths."""
    length = np.sqrt(_abs2(x).sum(axis=1))
    ok = length > 0
    e1 = np.zeros_like(x)
    e1[:, 0] = 1.0
    return np.where(ok[:, None], x / np.where(ok, length, 1.0)[:, None], e1), length


def _ascend(ascent, caps) -> np.ndarray:
    """Best values of a batch of ascents run side by side, one per row.

    ``ascent`` is a generator that yields one value per active row for each
    iteration; it is then sent the boolean mask of the rows that go on, keeps
    only those and does their update half-step.  A row stops after
    ``_STALL_PATIENCE`` iterations in a row without a gain above
    ``ASCENT_TOL``, once its best reaches its entry of ``caps`` (a known upper
    bound), or after ``ASCENT_ITERS`` iterations; a stopped row skips its
    pending update, and every later norming step runs on the active rows
    only.  Every yielded value is a valid lower bound, so stopping early never
    breaks soundness.
    """
    caps = np.asarray(caps, dtype=float)
    best = np.zeros(len(caps))
    stall = np.zeros(len(caps), dtype=int)
    active = np.arange(len(caps))
    top = next(ascent)
    for it in range(1, ASCENT_ITERS + 1):
        gain = top > best[active] + ASCENT_TOL
        stall[active] = np.where(gain, 0, stall[active] + 1)
        best[active] = np.where(top > best[active], top, best[active])
        go = (stall[active] < _STALL_PATIENCE) & (best[active] < caps[active] - ASCENT_TOL)
        active = active[go]
        if it == ASCENT_ITERS or not active.size:
            break
        try:
            top = ascent.send(go)
        except StopIteration:
            break
    ascent.close()
    return best


def _estimates(rows, ascend=True):
    """Certified brackets of a batch of rows as (lower, upper) arrays, from
    ``rows = (lower, upper, todo, arrays, ascent)``: the rows' ascent-free
    ends, and the indices, stacked arrays and ascent of the rows an ascent
    may raise, whose lower ends are floors, values attained at dual-ball
    points.  With ``ascend`` such a lower end is the max of the floor and the
    ascent's value capped at the upper end, run in chunks of about
    ``_CHUNK_ENTRIES`` entries of the [rows, restarts, ...] working arrays as
    sized by the first array.  Ends are clamped as in NormEstimate."""
    lower, upper, todo, arrays, ascent = rows
    if ascend and len(todo):
        step = max(1, _CHUNK_ENTRIES // (ASCENT_RESTARTS * arrays[0][0].size))
        lower = lower.copy()
        lower[todo] = np.maximum(lower[todo], np.concatenate([
            _ascend(ascent(*(a[i : i + step] for a in arrays)), upper[todo[i : i + step]])
            for i in range(0, len(todo), step)
        ]))
    return _raised(np.minimum(lower, upper), upper)


def _norming(space, ys):
    """``norming_dual_many`` of a [rows, restarts, dim] stack."""
    return space.norming_dual_many(ys.reshape(-1, space.dim)).reshape(ys.shape)


def _ascent(space, weights, vecs, q):
    """Values of sum_t w_t |<v_t, xp>|^q along an alternating ascent, for
    [B, T] weights and [B, T, dim] vectors: freeze eps and move xp to the
    norming functional of sum_t eps_t w_t v_t, then take Hoelder's eps_t =
    conj(phase(h_t)) |h_t|^(q-1) at h_t = <v_t, xp>; monotone in each half-step."""
    rng = np.random.default_rng(ASCENT_SEED)
    T = weights.shape[1]
    eps = np.ones((ASCENT_RESTARTS, T), dtype=complex)
    eps[1:] = np.exp(2j * np.pi * rng.random((ASCENT_RESTARTS - 1, T)))
    wv = weights[:, :, None] * vecs
    while True:
        xp = _norming(space, eps @ wv)
        h = space.pair_many(vecs, xp)
        ah = np.abs(h)
        go = yield (ah**q @ weights[:, :, None])[:, :, 0].max(axis=1)
        weights, vecs, wv, h, ah = weights[go], vecs[go], wv[go], h[go], ah[go]
        eps = _conj_phase(h, ah, 1.0)
        if q != 1:
            eps *= ah ** (q - 1)


def _aligned_start(space, weights, vecs, q):
    """sum_t w_t |<v_t, xp0>|^q at xp0 = norming(sum_t w_t v_t) for [B, T]
    weights and [B, T, dim] vectors: the first value of the all-ones restart
    of ``_ascent``."""
    xp = space.norming_dual_many((weights[:, :, None] * vecs).sum(axis=1))[:, None, :]
    return (np.abs(space.pair_many(vecs, xp)) ** q @ weights[:, :, None])[:, 0, 0]


def _sup_rows(space, weights, vecs, q):
    """The ``_estimates`` rows of the sups over the dual ball of sum_t w_t
    |<v_t, xp>|^q, for [B, T] weights and [B, T, dim] vectors, floored at
    their aligned starts.  Zero-weight atoms add nothing to any value and
    stay in place; a row with at most one live atom is known exactly."""
    weights = np.asarray(weights, dtype=float)
    vecs = np.asarray(vecs, dtype=complex)
    if weights.ndim != 2 or vecs.shape != weights.shape + (space.dim,):
        raise ValueError(
            f"expected weights (B, T) and vecs (B, T, {space.dim}), "
            f"got {weights.shape} and {vecs.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("atom weights must be nonnegative")
    closed = space.closed_sup(weights, vecs, q)
    if closed is not None:  # known exactly: no row for an ascent
        return closed, closed, np.arange(0), (), None
    # elementwise products and axis sums: a [B, T] @ [T] product rounds by B
    upper = (weights * space.norm_many(vecs) ** q).sum(axis=1)
    todo = np.flatnonzero((weights > 0).sum(axis=1) > 1)
    lower = upper.copy()
    if len(todo):
        lower[todo] = _aligned_start(space, weights[todo], vecs[todo], q)
    return lower, upper, todo, (vecs[todo], weights[todo]), lambda v, w: _ascent(space, w, v, q)


def dual_ball_sup(space: CoefficientSpace, weights, vecs) -> NormEstimate:
    """sup over the dual unit ball of sum_t w_t |<v_t, xp>|.

    ``weights`` is a length-T vector of nonnegative weights and ``vecs`` the
    [T, space.dim] coordinates of the vectors v_t.  Exact for ``ScalarSpace``
    and ``LinfSpace``.  Otherwise returns a bracket: the lower end from phase
    ascent, at least sum_t w_t |<v_t, xp0>| at its aligned start xp0 =
    norming(sum_t w_t v_t) (so >= ||sum w_t v_t||), the upper end from the
    variation bound sum_t w_t ||v_t||.  It is the weighted L^q sup of
    ``_sup_rows`` at q = 1; ``_resolve`` evaluates many at once.
    """
    return _resolve_one((space, 1, np.asarray(weights, dtype=float)[None],
                         np.asarray(vecs, dtype=complex)[None], None))


def lp_dual_sup(space: CoefficientSpace, vecs: np.ndarray, p: float) -> NormEstimate:
    """sup over the dual unit ball of the L^p norm (w.r.t. the uniform
    probability weight 1/T) of t -> <v_t, xp>.

    For finite p this is the weighted L^q sup of ``_sup_rows`` at q = p with
    weights 1/T, raised to 1/p; p = inf is the exact max of ||v_t||.  The
    upper end for brackets is the L^p norm of t -> ||v_t||, the lower end the
    ascent's best, at least the value at its aligned start xp0 =
    norming(mean_t v_t).  ``_resolve`` evaluates many at once.
    """
    return _resolve_one(_lp(space, vecs, p))


def _lp(space, vecs, p):
    """The norm request of ``lp_dual_sup(space, vecs, p)``, for a [..., T, dim]
    stack; shapes are checked where ``_resolve`` stacks the requests."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    vecs = np.asarray(vecs, dtype=complex)
    if math.isinf(p):
        return _known(space.norm_many(vecs).max(axis=-1, initial=0.0))
    return _request(space, p, np.full(vecs.shape[:-1], 1.0 / max(vecs.shape[-2], 1)), vecs, p)


def _amplified_ascent(space, entries):
    """Values of || [<x_ij, xp>] ||_op along an alternating ascent between
    the top singular pair of the paired matrix and the norming point of the
    (u, v)-compressed entry vector, for a [B, n, n, dim] stack."""
    rng = np.random.default_rng(ASCENT_SEED)
    n = entries.shape[1]
    xp = space.sample_dual(rng, ASCENT_RESTARTS)
    while True:
        flat = entries.reshape(len(entries), n * n, space.dim)
        a = space.pair_many(flat, xp).reshape(-1, n, n)
        u1, s1, v1 = _top_singular_pairs(a)
        go = yield s1.reshape(len(entries), ASCENT_RESTARTS).max(axis=1)
        entries = entries[go]
        u1 = u1.reshape(-1, ASCENT_RESTARTS, n)[go]
        v1 = v1.reshape(-1, ASCENT_RESTARTS, n)[go]
        xp = _norming(space, np.einsum("bri,brj,bijc->brc", np.conj(u1), v1, entries))


def _amplified_upper(space: CoefficientSpace, entries: np.ndarray):
    """(upper, floor) arrays for the matrix-level norms of a [B, n, n, dim]
    stack, computed without an ascent.  floor is NaN where upper is the exact
    norm: level 1, a closed form, or a zero matrix.  Otherwise floor =
    max ||x_ij|| <= norm <= upper = min(n * floor, amplified_majorant).  Each
    row's ends equal, bit for bit, those of a stack of that row alone."""
    B, n = entries.shape[:2]
    exact = np.full(B, np.nan)
    if n == 1:
        return space.norm_many(entries[:, 0])[:, 0], exact
    closed = space.closed_amplified(entries)
    if closed is not None:
        return closed, exact
    floor = space.norm_many(entries.reshape(B, n * n, space.dim)).max(axis=1)
    majorant = space.amplified_majorant(entries)
    upper = n * floor if majorant is None else np.minimum(n * floor, majorant)
    return upper, np.where(floor == 0.0, np.nan, floor)


def _amplified_rows(space, entries):
    """The ``_estimates`` rows of ``amplified_norm`` requests, floored at max ||x_ij||."""
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim != 4 or entries.shape[1] != entries.shape[2] or entries.shape[3] != space.dim:
        raise ValueError(f"expected entries (B, n, n, {space.dim}), got {entries.shape}")
    upper, floors = _amplified_upper(space, entries)
    todo = np.flatnonzero(~np.isnan(floors))
    lower = np.where(np.isnan(floors), upper, floors)
    return lower, upper, todo, (entries[todo],), lambda e: _amplified_ascent(space, e)


def amplified_norm(m: MatrixOverX) -> NormEstimate:
    """Matrix-level norm of an n x n matrix over X.

    Exact for Scalar (operator norm), MatOp (block operator norm) and Linf
    (max over coordinates of the coordinate-slice operator norm).  For
    WeightedL1 a bracket: ascent lower bound (clamped to the entrywise max,
    which the matrix norm always dominates) against the upper bound
    min(n * max ||x_ij||, sum_c w_c ||A_c||_op), where A_c = [x_ij]_c is the
    c-th coordinate slice.  Ascent steps on 2 x 2 and 3 x 3 paired matrices
    take the top singular pair in closed form.  Level 1 always collapses to
    the vector norm.  ``_resolve`` evaluates many at once.
    """
    return _resolve_one((m.space, _AMP, (m.level,), m.entries.reshape(1, -1, m.space.dim), None))


# -- norm requests -------------------------------------------------------------
#
# A norm request states B norms as data: ``(space, q, weights, vecs,
# root)``, row b the sup over the dual ball of sum_t w_bt |<v_bt, xp>|^q for
# [B, T] weights and [B, T, dim] vectors (q = 1 for ``dual_ball_sup``, q = p
# and weights 1/T for ``lp_dual_sup``), with both ends raised to 1/root
# unless root is None; ``(space, _AMP, levels, stack, None)``, row b the max
# of the matrix-level norms of the n x n blocks (n in levels) that stack[b]
# holds one after another, flattened to rows; or ``(None, _KNOWN, ends,
# ends, None)``, row b the known bracket ends[b] (see ``_known``).  Each
# norm of the package builds its request in one private function beside its
# public one.

_AMP, _KNOWN = "amplified", "known"


def _request(space, q, weights, vecs, root):
    """The request of [..., T] weights and [..., T, dim] vectors with the same
    leading axes, flattened to [B, T] and [B, T, dim]."""
    weights, vecs = np.asarray(weights, dtype=float), np.asarray(vecs, dtype=complex)
    return space, q, weights.reshape(-1, vecs.shape[-2]), vecs.reshape(-1, *vecs.shape[-2:]), root


def _known(lower, upper=None):
    """The request of the known brackets [lower, upper] (exact values without
    ``upper``), raised as in NormEstimate; a NaN end passes as it is."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    ends = np.stack(_raised(lower, lower if upper is None else upper), axis=-1)
    return None, _KNOWN, ends, ends, None


def _take(request, rows):
    """The request of the given rows of a request."""
    space, q, weights, vecs, root = request
    return space, q, weights if q is _AMP else weights[rows], vecs[rows], root


def _resolve(requests, ascend=True):
    """The brackets of a list of norm requests as (lower, upper) arrays of
    their rows, request after request, each row equal bit for bit to its
    request resolved alone (ascent-free unless ``ascend``), from one batch of
    rows per (space, q, T) key, T the number of atoms, and one per block
    level of a (space, _AMP, levels) key.  A request object listed more than
    once is resolved once.  A NaN end of an estimate raises ValueError."""
    offsets = np.cumsum([0, *(len(r[3]) for r in requests)])
    lower, upper = np.zeros(offsets[-1]), np.zeros(offsets[-1])
    keyed, inv = {}, np.full(offsets[-1], np.nan)  # 1/root of the rooted rows
    for k, r in enumerate(requests):
        keyed.setdefault((r[0], r[1], r[2] if r[1] is _AMP else r[3].shape[1]), []).append(k)
    for (space, q, t), ks in keyed.items():
        reqs = {id(requests[k]): requests[k] for k in ks}
        vecs = np.concatenate([r[3] for r in reqs.values()])
        if q is _KNOWN:
            ends = vecs.T
        elif q is _AMP:  # t is the block levels; each request takes the max over its blocks
            ends, starts = np.zeros((2, len(vecs))), np.cumsum([0, *(n * n for n in t)])
            for n in dict.fromkeys(t):
                blocks = [vecs[:, a:b] for a, b, m in zip(starts, starts[1:], t) if m == n]
                level = _estimates(_amplified_rows(
                    space, np.concatenate(blocks).reshape(-1, n, n, space.dim)), ascend)
                # the rows are block-major: [blocks, requests]
                ends = np.maximum(ends, np.reshape(level, (2, len(blocks), -1)).max(axis=1))
        else:
            weights = np.concatenate([r[2] for r in reqs.values()])
            ends = _estimates(_sup_rows(space, weights, vecs, q), ascend)
        if q is not _KNOWN and np.isnan(ends).any():
            raise ValueError("NaN end in a bracket")
        # each distinct request's rows of ends, in order
        first = dict(zip(reqs, np.cumsum([0, *(len(r[3]) for r in reqs.values())])))
        for k in ks:
            a, b, f = offsets[k], offsets[k + 1], first[id(requests[k])]
            lower[a:b], upper[a:b] = ends[0][f : f + b - a], ends[1][f : f + b - a]
            if requests[k][4] is not None:
                inv[a:b] = 1.0 / requests[k][4]
    rooted = ~np.isnan(inv)
    lower[rooted], upper[rooted] = lower[rooted] ** inv[rooted], upper[rooted] ** inv[rooted]
    return lower, upper


def _resolve_one(request) -> NormEstimate:
    """One request's bracket as a ``NormEstimate``."""
    lower, upper = _resolve([request])
    return NormEstimate(lower[0], upper[0])


def space_from_spec(spec: str) -> CoefficientSpace:
    """Parse a space descriptor: ``scalar``, ``linf:K``, ``matop:D`` or
    ``weighted_l1:K`` (uniform weights 1/K)."""
    s = spec.strip().lower()
    if s == "scalar":
        return ScalarSpace()
    if ":" in s:
        name, _, arg = s.partition(":")
        try:
            k = int(arg)
        except ValueError as exc:
            raise ValueError(f"bad space parameter in {spec!r}") from exc
        if name == "linf":
            return LinfSpace(k)
        if name == "matop":
            return MatOpSpace(k)
        if name == "weighted_l1":
            return WeightedL1Space.uniform(k)
    raise ValueError(f"unknown coefficient space spec {spec!r}")
