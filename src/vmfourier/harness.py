"""Configuration-driven verification runner.

Each suite draws deterministic random instances (functions, measures, dual
functionals) on the configured groups and coefficient spaces, evaluates one
identity or inequality with certified brackets, and reports certified
violations, bracket-ambiguous near misses and the worst residual.

Inequalities always compare a lower bound of the left side against an upper
bound of the right side, so estimator slack can never certify a false
violation; overlapping brackets count as near misses, never as pass or fail.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .convolve import (
    conv_classical,
    conv_function_measure,
    conv_measure_sv,
    conv_measure_vs,
    conv_vector,
    conv_weak,
)
from .fourier import (
    _blocks,
    _sup,
    ft_classical,
    ft_inverse,
    ft_measure,
    ft_vector,
    ft_weak,
    plancherel_check,
    uniqueness_rank,
)
from .groups import (
    FiniteGroup,
    UnitaryDual,
    UnitaryIrrep,
    build_group,
    builtin_group_specs,
    unitary_dual,
    validate_dual,
)
from .lpspaces import (
    MatrixFunction,
    ScalarFunction,
    _lp_nu,
    _n_norm,
    _pp,
    function_pushforward,
    lp_norm_haar,
    pettis_integral,
    reflect,
)
from .measures import (
    GroupMap,
    VectorMeasure,
    _p_semi,
    _semi,
    evaluate,
    integrate,
    measure_from_density,
    pushforward,
    radon_nikodym,
)
from .spaces import (
    CoefficientSpace,
    ScalarSpace,
    XVector,
    _amplified_upper,
    _known,
    _request,
    _resolve,
    _take,
    dual_norm,
    norm,
    pair,
    space_from_spec,
)

__all__ = [
    "RunConfig",
    "TheoremReport",
    "load_config",
    "suite_names",
    "run_suite",
    "generate_fixture",
    "group_with_dual",
    "emit_report",
    "FAULTS",
]

SCHEMA = "vmfourier-report/2"
EXPONENT_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)
# the verdict tolerances of residuals and of compared pairs, fixed for every run
TOL_EXACT = 1e-10
TOL_BRACKET = 1e-8

GRID_PHASES = 24  # phases per coordinate circle of the grid oracle (``grid_dual``)
_PERTURBATION = 1e-3  # how far the perturb-irrep fault moves one irrep entry
# the oracles evaluate dual-ball points in slices of this many
_POINT_SLICE = 4096
# calibration on spaces outside the grid oracle samples this many dual-ball
# points from one fixed seed
CALIBRATION_SAMPLES = 4096
CALIBRATION_SEED = 0
# claim rows decide the checks of about this many instance rows at a time;
# more raise peak memory for little gain
_BLOCK = 256


@dataclass
class RunConfig:
    """Battery configuration; ``trials=None`` keeps each suite's default."""

    groups: list[str] = field(default_factory=builtin_group_specs)
    spaces: list[str] = field(
        default_factory=lambda: ["scalar", "linf:2", "matop:2", "weighted_l1:2"]
    )
    suites: list[str] = field(default_factory=lambda: list(_SUITES))
    trials: int | None = None
    seed: int = 0

    def __setattr__(self, key, value):
        # every assignment, __init__'s included, checks the field it sets
        if key == "trials" and value is not None and value < 1:
            raise ValueError("trials must be >= 1")
        if key == "seed" and not 0 <= value < 2**64:  # a stream key hashes it as a uint64
            raise ValueError("seed must be >= 0 and < 2**64")
        if key in ("groups", "spaces", "suites") and not value:
            raise ValueError(f"{key} must not be empty")
        for s in value if key == "suites" else ():
            if s not in _SUITES:
                raise ValueError(f"unknown suite {s!r}; known: {', '.join(_SUITES)}")
        super().__setattr__(key, value)


@dataclass
class TheoremReport:
    """Outcome of one suite run."""

    suite: str
    anchor: str
    instances: int
    violations: int
    near_misses: int
    max_residual: float
    elapsed_s: float
    detail: str = ""

    def to_dict(self) -> dict:
        """The fields as JSON values, a non-finite ``max_residual`` as None (null)."""
        doc = asdict(self)
        if not np.isfinite(self.max_residual):
            doc["max_residual"] = None
        return doc


# -- instance streams -----------------------------------------------------------
#
# Instance i of the suite keyed ``name`` draws from the SplitMix64 stream
# (Steele, Lea and Flood, OOPSLA 2014) of a key that hashes (seed,
# crc32(name), i): word c of key k is mix(k + (c + 1) * gamma).  The words
# are counters, so a stack of keys computes them as one array.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_CHUNK = 64  # the fewest counter positions a stream computes at a time


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser of a uint64 array, in place."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


def _instance_keys(seed: int, name: str, idx) -> np.ndarray:
    """The stream keys of instances ``idx`` (an array) of the suite keyed ``name``."""
    h = np.zeros(1, dtype=np.uint64)
    for part in ([seed], [zlib.crc32(name.encode())], idx):
        h = _mix(h + (np.asarray(part, dtype=np.uint64) + np.uint64(1)) * _GAMMA)
    return h


class _Stream:
    """The streams of an array of keys, drawn together.  A draw of ``size``
    has shape keys.shape + size and takes the next ``prod(size)`` positions
    of every key.  Position c holds the uniform u_c = (word_c >> 11) / 2^53
    and the normal sqrt(-2 log(1 - u_c)) cos(2 pi u_{c + 2^62}) (Box-Muller),
    so a key's values do not depend on the stack it is drawn in; an int key
    gives unstacked draws.  Values are computed for every key at once, ahead
    of the draws, and ``stream[j]`` (the streams of keys[j]) shares them.
    Offers the ``np.random.Generator`` methods that the library calls."""

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.uint64)
        self.shape, self.count = keys.shape, 0  # count: the positions taken
        self._rows = np.arange(keys.size)
        # the keys and their values so far, shared with the sub-stacks (no
        # reference cycle, so a stack's values go as soon as its streams do)
        self._values = {"keys": keys.reshape(-1, 1), "uniform": np.zeros((keys.size, 0))}
        self._values["normal"] = self._values["uniform"]

    def __getitem__(self, j) -> "_Stream":
        """The streams of keys[j], at the same position."""
        out = copy.copy(self)
        out._rows = self._rows.reshape(self.shape)[j]
        out.shape = out._rows.shape
        return out

    def _take(self, size, kind: str) -> np.ndarray:
        shape = () if size is None else (size,) if np.ndim(size) == 0 else tuple(size)
        start, self.count = self.count, self.count + math.prod(shape)
        values = self._values
        have = values["uniform"].shape[1]
        if self.count > have:  # at least double the positions computed
            ctr = np.arange(have + 1, max(self.count, 2 * have, _CHUNK) + 1, dtype=np.uint64)
            u, v = ((_mix(values["keys"] + (ctr + np.uint64(lane)) * _GAMMA) >> np.uint64(11))
                    * 2.0**-53 for lane in (0, 2**62))
            normal = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)
            values["uniform"] = np.concatenate([values["uniform"], u], axis=1)
            values["normal"] = np.concatenate([values["normal"], normal], axis=1)
        return values[kind][self._rows, start : self.count].reshape(self.shape + shape)

    def random(self, size=None) -> np.ndarray:
        return self._take(size, "uniform")

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return low + (high - low) * self.random(size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        """Integers on [low, high), or on [0, low) without ``high``."""
        low, high = (0, low) if high is None else (low, high)
        return low + (self.random(size) * (high - low)).astype(np.int64)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._take(size, "normal")


def _inv(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def _conj(p: float) -> float:
    if p == 1.0:
        return np.inf
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def generate_fixture(
    kind: str, group: FiniteGroup, space: CoefficientSpace, seed=0
) -> VectorMeasure:
    """Reproducible vector measures for the suites.

    ``haar-like``: constant atoms x0/|G| with x0 the normalized all-ones
    vector; semivariation invariant under every translation and inversion by
    construction, with nu(G) = x0 != 0.  ``translation-invariant``: the same
    construction with a random direction x0.  ``point-mass``: x0 at the
    identity.  ``random-gaussian``: independent complex Gaussian atoms,
    divided by their variation |nu|(G) = sum_t ||x_t||, which is exact and
    dominates the semivariation, so |nu|(G) = 1 and ||nu||(G) <= 1 without
    running an estimator (all-zero atoms are left as they are).  ``seed``
    keys one stream, or is the ``_Stream`` of a stack of instances, whose next
    draws give the stack of their fixtures.
    """
    rng = seed if isinstance(seed, _Stream) else _Stream(seed)
    n = group.order
    if kind in ("haar-like", "translation-invariant", "point-mass"):
        x0 = np.ones(rng.shape + (space.dim,), dtype=complex)
        if kind == "translation-invariant":
            x0 = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        x0 /= space.norm_many(x0[..., None, :])
        if kind == "point-mass":
            atoms = np.eye(n)[group.identity][:, None] * x0[..., None, :]
            return VectorMeasure(group, space, atoms)
        return VectorMeasure(group, space, np.repeat(x0[..., None, :] / n, n, axis=-2))
    if kind == "random-gaussian":
        atoms = rng.standard_normal((n, space.dim)) + 1j * rng.standard_normal((n, space.dim))
        total = space.norm_many(atoms).sum(axis=-1)
        return VectorMeasure(group, space, atoms / np.where(total > 0, total, 1.0)[..., None, None])
    raise ValueError(f"unknown fixture kind {kind!r}")


def _draw_function(group: FiniteGroup, rng) -> ScalarFunction:
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return ScalarFunction(group, v)


def _draw_dual(space: CoefficientSpace, rng) -> XVector:
    xp = space.sample_dual(rng, 1)[..., 0, :]
    return XVector(space, xp * np.asarray(rng.uniform(0.25, 2.0))[..., None])


# ---------------------------------------------------------------------------
# suite context
# ---------------------------------------------------------------------------


@dataclass
class _Ctx:
    cfg: RunConfig
    groups: list[tuple[FiniteGroup, UnitaryDual]]
    spaces: list[CoefficientSpace]


@dataclass
class _Tally:
    instances: int = 0
    violations: int = 0
    near_misses: int = 0
    max_residual: float = 0.0
    notes: list[str] = field(default_factory=list)

    def checks(self, lhs_lower, lhs_upper, rhs_lower, rhs_upper, tol, note):
        """The verdict rule of every suite, on arrays of the checks lhs <= rhs:
        a violation unless lhs.lower <= rhs.upper + tol, else a pass if
        lhs.upper <= rhs.lower + tol, else a near miss, so a NaN end is never
        a pass.  ``max_residual`` takes in lhs.lower - rhs.upper, NaN and all;
        ``note(j)`` is check j's note."""
        violation = ~(lhs_lower <= rhs_upper + tol)
        self.instances += len(violation)
        self.violations += int(violation.sum())
        self.near_misses += int((~violation & ~(lhs_upper <= rhs_lower + tol)).sum())
        residual = np.maximum(lhs_lower - rhs_upper, 0.0)
        self.max_residual = float(residual.max(initial=self.max_residual))
        self.notes += [note(j) for j in np.flatnonzero(violation)]


def _perturbed_dual(dual: UnitaryDual) -> UnitaryDual:
    """The dual with one entry of its last irrep moved off a homomorphism."""
    *irreps, last = dual.irreps
    mats = last.matrices.copy()
    mats[1, 0, 0] += _PERTURBATION
    return UnitaryDual(dual.group, [*irreps, UnitaryIrrep(last.dim, mats, last.label)])


def _draw(ctx: _Ctx, name: str, idx, kind: str | None, g: FiniteGroup, space):
    """Instances ``idx`` of the suite keyed ``name`` as a stack: their
    streams, and their ``kind`` fixtures on (g, space), drawn first, or for
    kind None the zero measures on (g, space), which draw nothing."""
    rng = _Stream(_instance_keys(ctx.cfg.seed, name, idx))
    if kind is None:
        return rng, VectorMeasure(g, space, np.zeros((len(idx), g.order, space.dim), dtype=complex))
    return rng, generate_fixture(kind, g, space, rng)


# -- claim sides ---------------------------------------------------------------
#
# A claim states each side of lhs <= rhs over a stack of instances as data:
# ``_product(a[, b], scale=c)``, the norms c * a * b of the norm requests a
# and b (see ``spaces._resolve``), which the builders beside the norms'
# public functions make.  Its bracket ends are a's and b's ends times c.

_SCALAR = ScalarSpace()


def _product(a, b=None, *, scale=1.0):
    return ((a,) if b is None else (a, b)), scale


def _sides(sides, ascend=True):
    """The brackets of a list of claim sides as (lower, upper) arrays of
    their rows, side after side, their requests resolved together: each end
    of a row is the product of its factors' ends of that kind, taken in
    order, times the side's scale for that row."""
    rows = [len(factors[0][3]) for factors, _ in sides]  # each side's B
    scale = np.concatenate([np.zeros(0), *(
        np.broadcast_to(np.asarray(c, dtype=float), b) for (_, c), b in zip(sides, rows))])
    if not np.all(scale >= 0):
        raise ValueError("scale factors must be nonnegative")
    # every side's first factor, then the second factors of the sides with two
    lower, upper = _resolve([fs[0] for fs, _ in sides] + [fs[1] for fs, _ in sides if fs[1:]],
                            ascend)
    two = np.repeat([len(fs) == 2 for fs, _ in sides], rows).astype(bool)
    ends = lower[: len(scale)], upper[: len(scale)]
    for e, end in zip(ends, (lower, upper)):
        e[two] *= end[len(scale) :]
    return ends[0] * scale, ends[1] * scale


def _decide(checks):
    """The columns instance, k, tol, lhs.lower, lhs.upper, rhs.lower and
    rhs.upper of a list of (instances, k, tol, (lhs, rhs)) checks over
    stacks, their sides resolved together in two passes: a pair whose
    ascent-free brackets give ``lhs.upper <= rhs.lower`` passes from those as
    from the full ones (same upper ends, lower ends no lower); the others'
    rows are resolved in full."""
    lower, upper = _sides([s for *_, pair in checks for s in pair], ascend=False)
    # a check over b instances has b lhs rows, then b rhs rows
    sizes = np.array([len(idx) for idx, *_ in checks])
    redo, at = [], []
    for a, b, (*_, pair) in zip(2 * np.cumsum([0, *sizes]), sizes, checks):
        j = np.flatnonzero(upper[a : a + b] > lower[a + b : a + 2 * b])
        if len(j):
            redo += [(tuple(_take(f, j) for f in fs), c if np.ndim(c) == 0 else c[j])
                     for fs, c in pair]
            at += [a + j, a + b + j]
    if redo:
        lower[np.concatenate(at)], upper[np.concatenate(at)] = _sides(redo)
    lhs = np.arange(sizes.sum()) + np.repeat(np.cumsum([0, *sizes])[:-1], sizes)
    rhs = lhs + np.repeat(sizes, sizes)
    return np.stack([np.concatenate([idx for idx, *_ in checks]),
                     *(np.repeat([c[n] for c in checks], sizes) for n in (1, 2)),
                     lower[lhs], upper[lhs], lower[rhs], upper[rhs]])


def _claim_suite(kind, check, combos, cells, note, ctx, name, trials, tally):
    """One row of the claim table.  Its cells are the (group, space) grid,
    groups varying fastest (``cells="groups-fastest"``) or spaces
    (``"spaces-fastest"``), the groups on the first space (``"groups"``) or
    the spaces on the first group (``"spaces"``).  Instance i takes cell i %
    len(cells) and combo i % len(combos) (``combos``: a sequence, or a
    function of ``ctx``); ``trials=None`` runs one instance per cell.  A
    cell's instances are drawn in stacks of at most ``_BLOCK`` (``_draw``);
    for each combo of a stack ``check(combo, nu, dual, rng)`` draws the rest
    of that combo's instances and returns, over them, residuals r (the
    checks [r, r] <= [0, 0] at ``TOL_EXACT``), residuals and their tolerance
    (r, tol), an (lhs, rhs) pair of sides (at ``TOL_BRACKET``), or a list of
    such checks.  Side checks of about ``_BLOCK`` instances at a time are
    decided together (``_decide``), and all are tallied in instance order.
    Only a violation makes its note: ``note``, or its k-th entry for the
    k-th check, a format string or a function of name, g and s (group and
    space labels), c (the combo), i and rng (instance i's stream)."""
    notes = [n if callable(n) else n.format for n in (note if isinstance(note, tuple) else (note,))]
    combos = combos(ctx) if callable(combos) else combos
    gs = ctx.groups[:1] if cells == "spaces" else ctx.groups
    ss = ctx.spaces[:1] if cells == "groups" else ctx.spaces
    if cells == "spaces-fastest":
        cells = [(g, dual, s) for g, dual in gs for s in ss]
    else:
        cells = [(g, dual, s) for s in ss for g, dual in gs]
    trials = len(cells) if trials is None else trials
    stacks = []  # (cell c, instances i < trials with i % len(cells) == c), at most _BLOCK each
    for c in range(len(cells)):
        idx = np.arange(c, trials, len(cells))
        stacks += [(c, idx[a : a + _BLOCK]) for a in range(0, len(idx), _BLOCK)]
    decided, block = [], []  # (instances, k, tol, (lhs, rhs)) of the open block's checks
    for n, (cell, idx) in enumerate(stacks, 1):
        g, dual, space = cells[cell]
        rng, nu = _draw(ctx, name, idx, kind, g, space)
        for combo in sorted(set((idx % len(combos)).tolist())):  # np.unique loads numpy.ma
            j = np.flatnonzero(idx % len(combos) == combo)
            out = check(combos[combo], VectorMeasure(g, space, nu.atoms[j]), dual, rng[j])
            for k, c in enumerate(out if isinstance(out, list) else [out]):
                if isinstance(c, np.ndarray):
                    c = (c, TOL_EXACT)
                if isinstance(c[0], np.ndarray):  # _decide's columns of [r, r] <= [0, 0]
                    r, zero = c[0], np.zeros(len(j))
                    decided.append(np.array([idx[j], zero + k, zero + c[1], r, r, zero, zero]))
                else:
                    block.append((idx[j], k, TOL_BRACKET, c))
        if block and (sum(len(c[0]) for c in block) >= _BLOCK or n == len(stacks)):
            decided.append(_decide(block))
            block = []
    inst, kth, tol, *ends = np.concatenate(decided, axis=1)
    order = np.lexsort((kth, inst))

    def note_of(j):
        i, k = int(inst[order[j]]), int(kth[order[j]])
        g, _, space = cells[i % len(cells)]
        return notes[k](name=name, g=g.label, s=space.label, c=combos[i % len(combos)], i=i,
                        rng=_Stream(_instance_keys(ctx.cfg.seed, name, [i])))

    tally.checks(*(e[order] for e in ends), tol[order], note_of)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _dual_validation(combo, nu, dual, rng):
    """The largest of the dual's four identity residuals, then its
    completeness residual |sum d^2 - |G||, an integer."""
    *identities, completeness = validate_dual(nu.group, dual).residuals().values()
    return [np.full(len(nu.atoms), np.max(identities)), np.full(len(nu.atoms), completeness)]


def _plancherel_gap(f: ScalarFunction, c, dual: UnitaryDual):
    """The larger of f's Plancherel gap and the error of f read back from its
    transform c, over the stack."""
    lhs, rhs = plancherel_check(f, dual)
    return np.maximum(abs(lhs - rhs), np.abs(ft_inverse(c).values - f.values).max(-1))


def _plancherel(combo, nu, dual, rng):
    """2.1 for f, drawn first; with a space as the combo, also its weak-
    transform variant on that space: the identity applies to f times the
    scalarized density, for measures with bounded scalarizations."""
    g = nu.group
    f = _draw_function(g, rng)
    gap = _plancherel_gap(f, ft_classical(f, dual), dual)
    if combo is None:
        return gap
    fixture = generate_fixture("random-gaussian", g, combo, rng)
    xp = _draw_dual(combo, rng)
    fh = ScalarFunction(g, f.values * radon_nikodym(fixture, xp))
    return np.maximum(gap, _plancherel_gap(fh, ft_weak(f, fixture, xp, dual), dual))


def _ft_norm_bounds(combo, nu, dual, rng):
    """4.4i, 4.8i and 7: the sup norms of the transform of f against nu, of
    its weak transform at xp and of nu's transform, against ||f||_{L^1(nu)},
    ||f||_{L^1(nu)} ||xp|| and the semivariation of nu."""
    f = _draw_function(nu.group, rng)
    xp = _draw_dual(nu.space, rng)
    f_nu_1 = _lp_nu(f, nu, 1.0)
    dims = dual.dims()
    return [
        (_product(_sup(nu.space, ft_vector(f, nu, dual).stack, dims)), _product(f_nu_1)),
        (_product(_sup(_SCALAR, ft_weak(f, nu, xp, dual).stack, dims)),
         _product(f_nu_1, scale=dual_norm(xp))),
        (_product(_sup(nu.space, ft_measure(nu, dual).stack, dims)), _product(_semi(nu))),
    ]


def _suite_ft_norm_bounds(ctx: _Ctx, name: str, trials: int, tally: _Tally):
    # one claim row per space, whose instance rngs are keyed "{name}:{space}"
    for space in ctx.spaces:
        _FT_NORM_BOUNDS(replace(ctx, spaces=[space]), f"{name}:{space.label}", trials, tally)


# instance i checks level (1, 2, 3)[i % 3] on branch ("fn", "meas")[i % 2]
_CB_COMBOS = tuple((n, ("fn", "meas")[i % 2]) for i, n in enumerate((1, 2, 3) * 2))


def _cb_amplification(combo, nu, dual, rng):
    """4.4ii/3.6iii at level n: the amplified transform of an n x n matrix
    function against its N-norm (``fn``), or of an n x n matrix of measures,
    nu at (0, 0) and the others drawn here, against their amplified
    semivariation (``meas``)."""
    n, branch = combo
    g, space = nu.group, nu.space
    shape = (g.order, n, n)
    if branch == "fn":
        fmat = MatrixFunction(g, n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        hats = [[ft_vector(fmat.entry(a, b), nu, dual) for b in range(n)] for a in range(n)]
        rhs = _product(_n_norm(fmat, nu))
    else:
        nus = [nu] + [generate_fixture("random-gaussian", g, space, rng) for _ in range(n * n - 1)]
        nus = [nus[a * n : a * n + n] for a in range(n)]
        hats = [[ft_measure(nus[a][b], dual) for b in range(n)] for a in range(n)]
        rhs = _product(_amplified_measure_semivariation(space, nus))
    # irrep pi's level-n*d block holds hats[a][b]'s d x d block at rows a*d..,
    # columns b*d..; _blocks views the [B, sum d^2, n, n, dim] stack per irrep
    stacks = np.array([[h.stack for h in row] for row in hats]).transpose(2, 3, 0, 1, 4)
    blocks = [b.transpose(0, 3, 1, 4, 2, 5).reshape(len(b), -1, space.dim)
              for b in _blocks(dual, stacks, 1)]
    return _product(_sup(space, np.concatenate(blocks, axis=1), [n * d for d in dual.dims()])), rhs


def _amplified_measure_semivariation(space, nus):
    """Known brackets for the semivariations of a stack of matrix measures
    [nu_ab]: below by the matrix norm of the total mass, above by the sum of
    the matrix norms of the atoms (their upper ends, which need no ascent)."""
    atoms = np.array([[nu.atoms for nu in row] for row in nus]).transpose(2, 3, 0, 1, 4)
    B, order, n = atoms.shape[:3]
    lower = _resolve([_sup(space, sum(atoms.swapaxes(0, 1)), [n])])[0]
    upper = sum(_amplified_upper(space, atoms.reshape(-1, n, n, space.dim))[0].reshape(B, order).T)
    return _known(np.minimum(lower, upper), upper)


def _weak_block_gap(hat, weak, xp: XVector):
    """Largest entry of <hat, xp> - weak over each stack."""
    paired = hat.space.pair_many(hat.stack, xp.coords[..., None, :])[..., 0, :]
    return np.abs(paired - weak.stack).max(axis=-1)


def _pairing_residual(combo, nu, dual, rng):
    f = _draw_function(nu.group, rng)
    xp = _draw_dual(nu.space, rng)
    return _weak_block_gap(ft_vector(f, nu, dual), ft_weak(f, nu, xp, dual), xp)


def _density_residual(combo, nu, dual, rng):
    f = _draw_function(nu.group, rng)
    lhs = ft_vector(f, nu, dual)
    rhs = ft_measure(measure_from_density(nu, f.values), dual)
    xp = _draw_dual(nu.space, rng)
    weak = ft_weak(f, nu, xp, dual)
    return np.maximum(lhs.max_abs_diff(rhs), _weak_block_gap(rhs, weak, xp))


def _scalarization_residual(combo, nu, dual, rng):
    f, h = _draw_function(nu.group, rng), _draw_function(nu.group, rng)
    xp = _draw_dual(nu.space, rng)
    vec = conv_vector(f, h, nu)
    paired = nu.space.pair_many(vec.values, xp.coords[..., None, :])[..., 0, :]
    return np.abs(paired - conv_weak(f, h, nu, xp).values).max(axis=-1)


def _ft_conv6_residual(f, g_fn, nu, xp, dual, dpi=1):
    lhs = ft_classical(conv_weak(f, g_fn, nu, xp), dual).blocks
    ghat = _blocks(dual, ft_vector(g_fn, nu, dual).stack, -2)
    fhat = ft_classical(f, dual).blocks
    resid = 0.0
    for p, lb, gb, fb in zip(dual.irreps, lhs, ghat, fhat):
        prod = np.einsum("...ikc,...kj->...ijc", gb, fb).reshape(*gb.shape[:-3], -1, nu.space.dim)
        rhs = p.dim**dpi * nu.space.pair_many(prod, xp.coords[..., None, :])[..., 0, :]
        resid = np.maximum(resid, np.abs(lb.reshape(rhs.shape) - rhs).max(axis=-1))
    return resid


def _ft_conv6_instance(combo, nu, dual, rng, dpi=1):
    f, h = _draw_function(nu.group, rng), _draw_function(nu.group, rng)
    return _ft_conv6_residual(f, h, nu, _draw_dual(nu.space, rng), dual, dpi)


def _ft_conv8_residual(mu, nu, dual, dpi=1):
    lhs, nuhat, muhat = (_blocks(dual, ft_measure(m, dual).stack, -2)
                         for m in (conv_measure_sv(mu, nu), nu, mu))
    resid = 0.0
    for p, lb, nb, mb in zip(dual.irreps, lhs, nuhat, muhat):
        rhs = np.einsum("...ikc,...kj->...ijc", nb, p.dim**dpi * mb[..., 0])
        resid = np.maximum(resid, np.abs(lb - rhs).max(axis=(-3, -2, -1)))
    return resid


def _ft_conv8_instance(combo, nu, dual, rng, dpi=1):
    mu = VectorMeasure.scalar(nu.group, _draw_function(nu.group, rng).values)
    return _ft_conv8_residual(mu, nu, dual, dpi)


def _pettis_residual(combo, nu, dual, rng):
    f, h = _draw_function(nu.group, rng), _draw_function(nu.group, rng)
    lhs = pettis_integral(conv_vector(f, h, nu))
    rhs = np.mean(f.values, axis=-1)[..., None] * integrate(h.values, nu).coords
    return np.abs(lhs.coords - rhs).max(axis=-1)


def _duality_residual(combo, nu, dual, rng):
    f, h = _draw_function(nu.group, rng), _draw_function(nu.group, rng)
    phi = _draw_function(nu.group, rng)
    xp = _draw_dual(nu.space, rng)
    lhs = np.mean(conv_weak(f, h, nu, xp).values * phi.values, axis=-1)
    inner = conv_classical(reflect(f), phi)
    return np.abs(lhs - pair(integrate(inner.values * h.values, nu), xp))


def _uniqueness(combo, nu, dual, rng):
    """4.10/7.5: the kernel dimensions of the transform on measures over the
    space, on functions against nu and, where |G| > 1, against nu without
    its atom at element 1."""
    ranks = []
    for atoms in nu.atoms:
        nu_b = VectorMeasure(nu.group, nu.space, atoms)
        targets = [nu.space, nu_b]
        if nu.group.order > 1:  # nu without its atom at element 1
            targets.append(measure_from_density(nu_b, np.arange(nu.group.order) != 1))
        ranks.append([uniqueness_rank(dual, t) for t in targets])
    return list(np.array(ranks, dtype=float).T)


# -- Young-type inequalities -------------------------------------------------
#
# A claim maps one instance (combo, nu, f, h, xp) to the (lhs, rhs) sides of
# lhs <= rhs, as norm requests that ``_claim_suite`` resolves in batches.


def _young_r(*ps: float) -> float:
    """The exponent r with 1/r = sum 1/p - 1; inf when the sum is 1."""
    s = sum(_inv(p) for p in ps)
    return 1.0 / (s - 1.0) if s > 1.0 + 1e-12 else np.inf


def _weak_young(p, q, r, nu, f, h, xp):
    """6.4 (q = 1, r = p) and 6.5: ||f *_xp h||_{L^r(nu)} against
    ||f||_{L^p(nu)} ||h||_{L^q(nu)} ||xp||."""
    lhs = _product(_lp_nu(conv_weak(f, h, nu, xp), nu, r))
    return lhs, _product(_lp_nu(f, nu, p), _lp_nu(h, nu, q), scale=dual_norm(xp))


def _vector_young(p, q, r, nu, f, h):
    """6.10 (q = 1, r = p) and 6.11: ||f * h||_{P^r} against
    ||f||_{L^p(nu)} ||h||_{L^q(nu)} ||nu(G)||^(-1/r)."""
    lhs = _product(_pp(conv_vector(f, h, nu), r))
    scale = norm(evaluate(nu)) ** (-_inv(r))
    return lhs, _product(_lp_nu(f, nu, p), _lp_nu(h, nu, q), scale=scale)


def _young_62(combo, nu, f, h, xp):
    (p,) = combo
    lhs = _product(_known(lp_norm_haar(conv_weak(f, h, nu, xp), p)))
    return lhs, _product(_lp_nu(h, nu, 1.0), scale=lp_norm_haar(f, p) * dual_norm(xp))


def _young_91(combo, nu, f, h, xp):
    if combo[0] == "i":
        lhs = _product(_pp(conv_function_measure(f, nu), combo[1]))
        return lhs, _product(_semi(nu), scale=lp_norm_haar(f, combo[1]))
    _, p, q = combo
    lhs = _product(_pp(conv_function_measure(f, nu), _young_r(p, q)))
    return lhs, _product(_p_semi(nu, p), scale=lp_norm_haar(f, q))


def _young_92(combo, nu, f, h, xp):
    p, q = combo
    rinv = _inv(p) + _inv(q)
    nf = measure_from_density(nu, f.values)
    lhs = _product(_semi(nf) if abs(rinv - 1.0) < 1e-12 else _p_semi(nf, 1.0 / rinv))
    return lhs, _product(_p_semi(nu, p), scale=lp_norm_haar(f, q))


def _young_93(combo, nu, f, h, xp):
    if combo[0] == "i":
        lhs = _product(_pp(conv_vector(f, h, nu), combo[1]))
        return lhs, _product(_lp_nu(h, nu, 1.0), scale=lp_norm_haar(f, combo[1]))
    _, p1, p2, p3 = combo
    lhs = _product(_pp(conv_vector(f, h, nu), _young_r(p1, p2, p3)))
    return lhs, _product(_p_semi(nu, p1), scale=lp_norm_haar(h, p2) * lp_norm_haar(f, p3))


def _young_94(combo, nu, f, h, xp):
    part, p = combo
    lhs = _product(_lp_nu(conv_classical(f, h), nu, p))
    if part == "i":
        scale = lp_norm_haar(h, p) * norm(evaluate(nu)) ** (-_inv(_conj(p)))
        return lhs, _product(_lp_nu(f, nu, 1.0), scale=scale)
    return lhs, _product(_lp_nu(f, nu, p), scale=lp_norm_haar(h, 1.0))


_P = EXPONENT_GRID
_ONE_P = [(p,) for p in _P]
_P_Q = [(p, q) for p in _P for q in _P if q <= _conj(p) + 1e-12]  # 1/p + 1/q >= 1
# suite -> (exponent combos, claim); instance i checks combo i % len(combos)
_YOUNG = {
    "young-6.2": (_ONE_P, _young_62),
    "young-6.4": (_ONE_P, lambda c, nu, f, h, xp: _weak_young(*c, 1.0, *c, nu, f, h, xp)),
    "young-6.5": (_P_Q, lambda c, nu, f, h, xp: _weak_young(*c, _young_r(*c), nu, f, h, xp)),
    "young-6.10": (_ONE_P, lambda c, nu, f, h, xp: _vector_young(*c, 1.0, *c, nu, f, h)),
    "young-6.11": (_P_Q, lambda c, nu, f, h, xp: _vector_young(*c, _young_r(*c), nu, f, h)),
    "young-9.1": (
        [("i", p) for p in _P]
        + [("ii", p, q) for p in _P if p > 1 for q in _P if q < _conj(p) - 1e-12],
        _young_91,
    ),
    "young-9.2": ([(p, q) for p in _P if p > 1 for q in _P if q >= _conj(p) - 1e-12], _young_92),
    "young-9.3": (
        [("i", p) for p in _P]
        + [
            ("ii", p1, p2, p3)
            for p1 in _P
            for p2 in _P
            if 0 < _inv(p1) + _inv(p2) < 1
            for p3 in _P
            if _inv(p1) + _inv(p2) + _inv(p3) > 1
        ],
        _young_93,
    ),
    "young-9.4": ([(part, p) for part in ("i", "ii") for p in _P], _young_94),
}


def _young(claim):
    """The check of a Young claim: it draws f, h and then xp."""

    def check(combo, nu, dual, rng):
        f, h = _draw_function(nu.group, rng), _draw_function(nu.group, rng)
        return claim(combo, nu, f, h, _draw_dual(nu.space, rng))

    return check


def _embedding_413(combo, nu, dual, rng):
    """4.13: ||int f dnu|| against ||nu||_p ||f||_{L^p'}."""
    (p,) = combo
    f = _draw_function(nu.group, rng)
    lhs = _product(_known(norm(integrate(f.values, nu))))
    return lhs, _product(_p_semi(nu, p), scale=lp_norm_haar(f, _conj(p)))


def _lp_containment(combo, nu, dual, rng):
    """Part B of 5: ||f||_{L^p} against ||f||_{L^p(nu)} ||nu(G)||^(-1/p)."""
    (p,) = combo
    f = _draw_function(nu.group, rng)
    lhs = _product(_known(lp_norm_haar(f, p)))
    return lhs, _product(_lp_nu(f, nu, p), scale=norm(evaluate(nu)) ** (-1.0 / p))


def _character(dual: UnitaryDual) -> np.ndarray:
    """chi(t) of the dual's first nontrivial one-dimensional irrep, if any."""
    linear = [p for p in dual.irreps[1:] if p.dim == 1] or dual.irreps[:1]
    return linear[0].matrices[:, 0, 0]


def _suite_invariance(ctx: _Ctx, name: str, trials: int, tally: _Tally):
    """Part A: invariance of the semivariation and of measure-weighted norms
    under translations and the inversion, on nu = chi(t) x0 / |G| (x0 the
    ``haar-like`` direction, chi from ``_character``), which a translation by
    s maps to chi(s) nu and the inversion to its conj(chi) twist.  The
    requests of every map on a (group, space) pair are resolved in one call;
    a map's semivariation check is the larger of the gap between ||nu|| and
    ||nu_h|| and the upper end of ||nu_h - twist||.  Part B, containment in
    the Haar space, is a claim row."""
    for k, (g, _) in enumerate(ctx.groups):
        # the unperturbed dual's character: a perturbed one is no homomorphism
        chi = _character(group_with_dual(ctx.cfg.groups[k])[1])
        maps = [(GroupMap.translation(g, s), chi[s] * chi) for s in range(g.order)]
        maps.append((GroupMap.inversion(g), chi.conj()))
        # the (group, space) pairs of g, keyed by their places in the config,
        # draw three functions each: phis[j] of space j, and moved by each map
        keys = _instance_keys(ctx.cfg.seed, name, k * len(ctx.spaces) + np.arange(len(ctx.spaces)))
        rng = _Stream(keys)
        phis = ScalarFunction(g, np.stack([_draw_function(g, rng).values for _ in range(3)], 1))
        moved = [function_pushforward(phis, hmap).values for hmap, _ in maps]
        for j, space in enumerate(ctx.spaces):
            haar = generate_fixture("haar-like", g, space)
            nu = measure_from_density(haar, chi)
            fs = [ScalarFunction(g, v) for v in phis.values[j]]
            requests = [_semi(nu)]
            for (hmap, twist), phis_h in zip(maps, moved):
                nu_h = pushforward(nu, hmap)
                off = VectorMeasure(g, space, nu_h.atoms - twist[:, None] * haar.atoms)
                requests += [_semi(nu_h), _semi(off), *(
                    _lp_nu(f, m, p)
                    for phi, phi_h in zip(fs, [ScalarFunction(g, v) for v in phis_h[j]])
                    for p in (1.0, 2.0, 3.0)
                    for f, m in ((phi, nu), (phi, nu_h), (phi_h, nu))
                )]
            lo, hi = _resolve(requests)
            # a row per map: ||nu||, ||nu_h||, ||off||, then (phi, nu), (phi, nu_h), (phi_h, nu)
            lo, hi = (np.concatenate([np.broadcast_to(e[0], (len(maps), 1)),
                                      e[1:].reshape(len(maps), -1)], axis=1) for e in (lo, hi))

            def gap(a, b):  # certified distances between the brackets in columns a and b
                return np.maximum(np.maximum(lo[:, a] - hi[:, b], lo[:, b] - hi[:, a]), 0.0)

            a = np.arange(3, lo.shape[1], 3)
            # each map's row of residuals r, the checks [r, r] <= [0, 0]
            r = np.column_stack([np.maximum(gap(0, 1), hi[:, 2]),
                                 np.maximum(gap(a, a + 1), gap(a, a + 2))]).ravel()
            tol = TOL_EXACT if space.exact_dual_sup else TOL_BRACKET
            notes = [f"semivar {g.label}"] + 9 * [f"norms {g.label} {space.label}"]
            tally.checks(r, r, 0 * r, 0 * r, np.tile([TOL_BRACKET] + 9 * [tol], len(maps)),
                         lambda j: notes[j % 10])
    _LP_CONTAINMENT(ctx, f"{name}:B", trials, tally)


def _commutativity(combo, nu, dual, rng):
    """8.5 on an abelian group: mu * nu against nu * mu for a scalar mu,
    drawn first, and a ``random-gaussian`` nu, at 1e-12."""
    g, space = nu.group, nu.space
    mu = VectorMeasure.scalar(g, _draw_function(g, rng).values)
    nu = generate_fixture("random-gaussian", g, space, rng)
    gap = conv_measure_sv(mu, nu).atoms - conv_measure_vs(nu, mu).atoms
    return np.abs(gap).max(axis=(-2, -1)), 1e-12


def _suite_commutativity(ctx: _Ctx, name: str, trials: int, tally: _Tally):
    """8.5: the claim row on each abelian group, whose instance rngs are
    keyed "commutativity:{g}", and on each other group a witness pair of
    point masses that do not commute.  Violation notes come first, then the
    witnesses' and the abelian groups' notes."""
    witness_notes, notes = [], []
    for g, dual in ctx.groups:
        if g.is_abelian:
            # the group's own max deviation, then the run's
            worst, tally.max_residual = tally.max_residual, 0.0
            _COMMUTATIVITY(replace(ctx, groups=[(g, dual)]), f"commutativity:{g.label}", trials,
                           tally)
            notes.append(f"{g.label}: abelian, max deviation {tally.max_residual:.3g}")
            tally.max_residual = float(np.max([worst, tally.max_residual]))
            continue
        space = ctx.spaces[0]
        t, s = (int(i) for i in np.argwhere(g.cayley != g.cayley.T)[0])
        mu = VectorMeasure.scalar(g, np.eye(g.order)[t])
        nu = VectorMeasure(g, space, np.outer(np.eye(g.order)[s], np.ones(space.dim)))
        gap = float(np.abs(conv_measure_sv(mu, nu).atoms - conv_measure_vs(nu, mu).atoms).max())
        r = np.array([0.0 if gap >= 0.5 else 1.0])  # the check [r, r] <= [0, 0]
        tally.checks(r, r, 0 * r, 0 * r, TOL_EXACT, lambda j: f"witness {g.label}")
        witness_notes.append(f"{g.label}: witness t={t} s={s} gap={gap:.3g}")
    tally.notes += witness_notes + notes


def _points_dual_sup(space, weights, vecs, points) -> float:
    """Max of sum_t w_t |<v_t, xp>| over the given dual-ball points: a lower
    bound for the supremum over the whole dual ball.  Taken over slices of
    ``_POINT_SLICE`` points, which bounds the memory of large grids."""
    return max(
        float((np.abs(space.pair_many(vecs, points[i : i + _POINT_SLICE])) @ weights).max())
        for i in range(0, len(points), _POINT_SLICE)
    )


def _calibration(combo, nu, dual, rng):
    """Estimator brackets against an independent search: the dual-ball sup
    of the first m of 4 weighted atoms, m drawn first, against the space's
    ``grid_dual`` on ``GRID_PHASES`` phases where it has one (both ends
    checked), otherwise the best of ``CALIBRATION_SAMPLES`` random dual-ball
    points (the upper end checked).  The oracle points are built per stack,
    and its brackets come from one ``_resolve`` call, one request per m."""
    space = nu.space
    atoms = rng.integers(1, 5)
    weights = rng.uniform(0.1, 2.0, 4)
    vecs = rng.standard_normal((4, space.dim)) + 1j * rng.standard_normal((4, space.dim))
    grid = space.grid_dual(np.exp(2j * np.pi * np.arange(GRID_PHASES) / GRID_PHASES))
    points = grid if grid is not None else space.sample_dual(
        np.random.default_rng(CALIBRATION_SEED), CALIBRATION_SAMPLES)
    lower, upper = np.zeros((2, len(atoms)))
    by_m = np.argsort(atoms, kind="stable")  # the instances grouped by m, as requested
    lower[by_m], upper[by_m] = _resolve([_request(space, 1, weights[atoms == m, :m],
                                                  vecs[atoms == m, :m], None)
                                         for m in sorted(set(atoms.tolist()))])
    bf = np.array([_points_dual_sup(space, w[:m], v[:m], points)
                   for m, w, v in zip(atoms, weights, vecs)])
    r = np.maximum(0.0, bf - upper)
    if grid is not None:
        r = np.maximum(r, lower - 1.02 * bf)
        if space.exact_dual_sup:
            r = np.maximum(r, np.abs(lower - bf) - 0.02 * np.maximum(lower, 1e-30))
    return r, TOL_BRACKET


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SuiteSpec:
    anchor: str
    default_trials: int | None  # None: one instance per cell, whatever the trials
    runner: object  # (ctx, name, trials, tally); the name keys its instance rngs


def _claim(check, combos=((),), kind="random-gaussian", cells="groups-fastest",
           note="{g} {s} {i}"):
    """A row of the claim table, as a suite runner ``(ctx, name, trials, tally)``."""
    return functools.partial(_claim_suite, kind, check, combos, cells, note)


def _swap_check(row, check):
    """The claim row ``row`` (a ``_claim``) with ``check`` in place of its own."""
    return functools.partial(_claim_suite, row.args[0], check, *row.args[2:])


_FT_NORM_BOUNDS = _claim(_ft_norm_bounds, note=(
    "fn bound {g} {s} {i}", "weak bound {g} {s} {i}", "measure bound {g} {i}"))
# part B of invariance-5, which ``_suite_invariance`` runs under "invariance-5:B"
_LP_CONTAINMENT = _claim(
    _lp_containment, ((1.0,), (2.0,)), "translation-invariant", "spaces-fastest",
    "L^p embed {g} {s} {i}"
)
# the abelian groups' row of commutativity-8.5, run by ``_suite_commutativity``
_COMMUTATIVITY = _claim(_commutativity, kind=None, cells="spaces", note="abelian commute {g} {i}")

_SUITES: dict[str, _SuiteSpec] = {
    "dual-validation": _SuiteSpec("duals", None, _claim(
        _dual_validation, kind=None, cells="groups", note=("{g} residuals", "{g} completeness"))),
    # instance i checks the weak variant on i % 4 == 3, on space (i // 4) % |spaces|
    "plancherel": _SuiteSpec("2.1", 1000, _claim(
        _plancherel, lambda ctx: [s if k == 3 else None for s in ctx.spaces for k in range(4)],
        None, "groups", "{g} trial {i}")),
    "ft-norm-bounds": _SuiteSpec("4.4i/4.8i/7", 1000, _suite_ft_norm_bounds),
    "cb-amplification": _SuiteSpec(
        "4.4ii/3.6iii", 200,
        _claim(_cb_amplification, _CB_COMBOS, note="cb {c[1]} {g} {s} n={c[0]} {i}"),
    ),
    "pairing-compat": _SuiteSpec("4.9", 200, _claim(_pairing_residual)),
    "density-transform": _SuiteSpec("7.3", 200, _claim(_density_residual)),
    "scalarization": _SuiteSpec("6.8", 200, _claim(_scalarization_residual)),
    "ft-conv-6": _SuiteSpec("6-ft-conv", 200, _claim(_ft_conv6_instance)),
    "ft-conv-8": _SuiteSpec("8-ft-conv", 200, _claim(_ft_conv8_instance)),
    "pettis-product": _SuiteSpec("6.9", 200, _claim(_pettis_residual)),
    "duality-6.6": _SuiteSpec("6.6", 200, _claim(_duality_residual)),
    "uniqueness": _SuiteSpec("4.10/7.5", None, _claim(_uniqueness, cells="spaces-fastest", note=(
        "measure kernel {g} {s}", "fn kernel {g} {s}", "fn kernel null-atom {g} {s}"))),
    **{
        thm: _SuiteSpec(
            thm.removeprefix("young-"), 1000,
            _claim(_young(claim), combos, "translation-invariant", "spaces-fastest",
                   "{name} {g} {s} {c} {i}"),
        )
        for thm, (combos, claim) in _YOUNG.items()
    },
    "embedding-4.13": _SuiteSpec(
        "4.13", 200,
        _claim(_embedding_413, [(p,) for p in EXPONENT_GRID if p > 1], note="{g} {s} p={c[0]} {i}"),
    ),
    "invariance-5": _SuiteSpec("5.2/5.4/5.5", 500, _suite_invariance),
    "commutativity-8.5": _SuiteSpec("8.5", 200, _suite_commutativity),
    "calibration": _SuiteSpec("estimators", 200, _claim(
        _calibration, kind=None, cells="spaces",
        note=lambda s, i, rng, **_: f"{s} m={rng.integers(1, 5)[0]} {i}")),
}

# fault -> {suite: the check it swaps into that claim row}, dpi being the power
# of d_pi in theorems 6 and 8 (1); drop-inv-dpi-def41 drops definition 4.1's
# 1/d_pi from ghat.  perturb-irrep swaps none: ``_build_ctx`` moves the duals.
FAULTS = {
    "drop-dpi-conv6": {"ft-conv-6": functools.partial(_ft_conv6_instance, dpi=0)},
    "drop-dpi-conv8": {"ft-conv-8": functools.partial(_ft_conv8_instance, dpi=0)},
    "drop-inv-dpi-def41": {"ft-conv-6": functools.partial(_ft_conv6_instance, dpi=2)},
    "perturb-irrep": {},
}


def suite_names() -> list[str]:
    return list(_SUITES)


@functools.cache
def group_with_dual(spec: str) -> tuple[FiniteGroup, UnitaryDual]:
    """The group of a spec and its unitary dual, built once per process.
    Callers share the objects and must not modify them."""
    g = build_group(spec)
    return g, unitary_dual(g)


def _build_ctx(cfg: RunConfig, fault: str | None) -> _Ctx:
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}")
    groups = [group_with_dual(spec) for spec in cfg.groups]
    if fault == "perturb-irrep":
        groups = [(g, _perturbed_dual(dual)) for g, dual in groups]
    spaces = [space_from_spec(s) for s in cfg.spaces]
    return _Ctx(cfg, groups, spaces)


def run_suite(name: str, cfg: RunConfig, *, fault: str | None = None) -> TheoremReport:
    """Run one suite; deterministic given (cfg, seed).  ``fault``, a key of
    ``FAULTS``, switches in a deliberately wrong constant (test instrumentation)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    spec = _SUITES[name]
    ctx = _build_ctx(cfg, fault)
    swap = fault and FAULTS[fault].get(name)
    runner = _swap_check(spec.runner, swap) if swap else spec.runner
    trials = spec.default_trials and (cfg.trials or spec.default_trials)
    start = time.perf_counter()
    tally = _Tally()
    runner(ctx, name, trials, tally)
    elapsed = time.perf_counter() - start
    return TheoremReport(
        suite=name,
        anchor=spec.anchor,
        instances=tally.instances,
        violations=tally.violations,
        near_misses=tally.near_misses,
        max_residual=tally.max_residual,
        elapsed_s=elapsed,
        detail="; ".join(tally.notes[:4]),
    )


# ---------------------------------------------------------------------------
# reporting and configuration files
# ---------------------------------------------------------------------------


def emit_report(
    reports: list[TheoremReport],
    fmt: str = "json",
    path: str | Path | None = None,
    *,
    seed: int | None = None,
) -> str:
    """Render reports with stable field ordering; optionally write to a file."""
    total = sum(r.violations for r in reports)
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "seed": seed,
            "violations": total,
            "suites": [r.to_dict() for r in reports],
        }
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    elif fmt == "markdown":
        lines = [
            "# Verification report",
            "",
            f"Total certified violations: {total}",
            "",
            "| suite | anchor | instances | violations | near misses | max residual | elapsed (s) |",
            "|---|---|---|---|---|---|---|",
        ]
        for r in reports:
            lines.append(
                f"| {r.suite} | {r.anchor} | {r.instances} | {r.violations} "
                f"| {r.near_misses} | {r.max_residual:.3g} | {r.elapsed_s:.2f} |"
            )
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text


def _parse_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


# config key -> parser of its value
_KEYS = {
    "groups": _parse_list, "spaces": _parse_list, "suites": _parse_list,
    "trials": int, "seed": int,
}


def load_config(path: str | Path) -> RunConfig:
    """Parse a key-value config file: ``key = value`` lines, each key at most
    once, ``#`` comments, comma-separated lists for groups/spaces/suites.  A
    bad line raises ValueError naming ``path:lineno``; each value is checked
    at its line by ``RunConfig``'s per-field checks."""
    cfg, seen = RunConfig(), set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        seen.add(key)
        try:
            setattr(cfg, key, _KEYS[key](value.strip()))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {key} value: {exc}") from exc
    return cfg
