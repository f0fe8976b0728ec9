"""Finite groups, their unitary duals, and matrix coefficients.

Groups are Cayley tables over dense element indices 0..order-1; the table is
the single source of truth and is validated exhaustively at construction
(supported orders are <= 24).  The unitary dual of every group, built-in or
loaded from a table file, is computed from that table by splitting the left
regular representation (``unitary_dual``); ``validate_dual`` measures any dual,
computed or read from a dual table file.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MAX_ORDER = 24

__all__ = [
    "FiniteGroup",
    "UnitaryIrrep",
    "UnitaryDual",
    "DualValidationReport",
    "build_group",
    "unitary_dual",
    "validate_dual",
    "builtin_group_specs",
    "load_group_file",
    "dump_group_file",
    "load_dual_file",
    "dump_dual_file",
    "parse_complex",
    "format_complex",
]


@dataclass(eq=False)
class FiniteGroup:
    """A finite group presented by its Cayley table.

    ``cayley[s, t]`` is the index of the product s*t.  The identity sits at
    a known index and ``inverses`` tabulates t -> t^-1.
    """

    order: int
    cayley: np.ndarray
    identity: int
    inverses: np.ndarray
    label: str

    def __post_init__(self):
        self.cayley = np.asarray(self.cayley, dtype=np.int64)
        self.inverses = np.asarray(self.inverses, dtype=np.int64)
        _check_group_axioms(self)
        self.cayley.setflags(write=False)
        self.inverses.setflags(write=False)

    def mul(self, s: int, t: int) -> int:
        return int(self.cayley[s, t])

    def inv(self, t: int) -> int:
        return int(self.inverses[t])

    @property
    def is_abelian(self) -> bool:
        return bool((self.cayley == self.cayley.T).all())

    def right_quotient_table(self) -> np.ndarray:
        """Index table Q[t, s] = t * s^-1, shared by all convolutions."""
        return self.cayley[:, self.inverses]

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


def require_same_group(a: FiniteGroup, b: FiniteGroup) -> None:
    """Raise ``ValueError("group mismatch")`` unless a and b share one Cayley table."""
    if a is not b and not np.array_equal(a.cayley, b.cayley):
        raise ValueError("group mismatch")


def _check_order(n: int):
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the exhaustively-validated maximum {MAX_ORDER}")


def _check_group_axioms(g: FiniteGroup):
    n = g.order
    c = g.cayley
    if c.shape != (n, n):
        raise ValueError("cayley table shape does not match order")
    _check_order(n)
    rng = np.arange(n)
    if not (np.sort(c, axis=1) == rng[None, :]).all():
        raise ValueError("cayley table is not a Latin square (rows repeat)")
    if not (np.sort(c, axis=0) == rng[:, None]).all():
        raise ValueError("cayley table is not a Latin square (columns repeat)")
    e = g.identity
    if not ((c[e] == rng).all() and (c[:, e] == rng).all()):
        raise ValueError("identity index does not act as identity")
    if not (c[rng, g.inverses] == e).all() or not (c[g.inverses, rng] == e).all():
        raise ValueError("inverse table is wrong")
    if not (c[c, :] == c[:, c]).all():
        raise ValueError("multiplication is not associative")


def _group_from_cayley(cayley: np.ndarray, label: str) -> FiniteGroup:
    cayley = np.asarray(cayley, dtype=np.int64)
    n = cayley.shape[0]
    rng = np.arange(n)
    both = (cayley == rng).all(axis=1) & (cayley == rng[:, None]).all(axis=0)  # e t = t e = t
    if not both.any():
        raise ValueError("table has no identity element")
    ident = int(both.argmax())
    inv = np.argmax(cayley == ident, axis=1)
    return FiniteGroup(n, cayley, ident, inv, label)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def _cyclic_product(ns: tuple[int, ...]) -> FiniteGroup:
    # element index = mixed-radix digits, most significant first
    digits = np.unravel_index(np.arange(int(np.prod(ns))), ns)
    summed = tuple(np.add.outer(a, a) % n for a, n in zip(digits, ns))
    cayley = np.ravel_multi_index(summed, ns)
    return _group_from_cayley(cayley, "Z" + "xZ".join(str(n) for n in ns))


def _dihedral(n: int) -> FiniteGroup:
    # index f * n + k is s^f r^k, and s^f r^a s^g r^b = s^(f xor g) r^(b + (-1)^g a)
    f, a = np.divmod(np.arange(2 * n), n)
    sign = 1 - 2 * f
    cayley = (f[:, None] ^ f[None, :]) * n + (a[None, :] + sign[None, :] * a[:, None]) % n
    return _group_from_cayley(cayley, f"D{n}")


def _symmetric(n: int) -> FiniteGroup:
    # (p q)(x) = p(q(x)); permutations come in lexicographic order, so their
    # base-n codes are sorted
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    code = n ** np.arange(n)[::-1]
    prods = perms[np.arange(len(perms))[:, None, None], perms[None]]
    return _group_from_cayley(np.searchsorted(perms @ code, prods @ code), f"S{n}")


def _quaternion_matrices() -> np.ndarray:
    i2 = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    base = [i2, -i2, qi, -qi, qj, -qj, qk, -qk]
    return np.stack(base)


def _quaternion() -> FiniteGroup:
    mats = _quaternion_matrices()
    # entry [a, b] is the first c with mats[a] @ mats[b] == mats[c]
    prods = (mats[:, None] @ mats[None, :])[:, :, None]
    return _group_from_cayley(np.isclose(prods, mats).all(axis=(3, 4)).argmax(axis=2), "Q8")


def build_group(spec: str) -> FiniteGroup:
    """Build a group from a descriptor.

    Supported descriptors: ``cyclic:N``, ``cyclic:N1xN2x...`` (direct product),
    ``dihedral:N`` (order 2N), ``symmetric:N`` with N <= 4, ``quaternion8``.
    The resulting order must not exceed 24; it is checked before the table
    is built.
    """
    s = spec.strip().lower()
    if s == "quaternion8":
        return _quaternion()
    name, _, arg = s.partition(":")
    if name == "cyclic" and arg:
        try:
            ns = tuple(int(part) for part in arg.split("x"))
        except ValueError as exc:
            raise ValueError(f"bad cyclic orders in {spec!r}") from exc
        if any(n < 1 for n in ns):
            raise ValueError("cyclic orders must be positive")
        _check_order(math.prod(ns))
        return _cyclic_product(ns)
    if name == "dihedral" and arg:
        n = int(arg)
        if n < 2:
            raise ValueError("dihedral parameter must be >= 2")
        _check_order(2 * n)
        return _dihedral(n)
    if name == "symmetric" and arg:
        n = int(arg)
        if not 1 <= n <= 4:
            raise ValueError("symmetric groups are supported for n <= 4 only")
        return _symmetric(n)
    raise ValueError(f"unsupported group spec {spec!r}")


def builtin_group_specs() -> list[str]:
    """Descriptors of the eight stock groups used by the harness."""
    return [
        "cyclic:2",
        "cyclic:3",
        "cyclic:4",
        "cyclic:2x2",
        "dihedral:4",
        "symmetric:3",
        "symmetric:4",
        "quaternion8",
    ]


# ---------------------------------------------------------------------------
# unitary duals
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class UnitaryIrrep:
    """One irreducible unitary representation, tabulated per group element."""

    dim: int
    matrices: np.ndarray  # [order, dim, dim]
    label: str

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != self.dim or m.shape[2] != self.dim:
            raise ValueError("irrep matrices must have shape [order, dim, dim]")
        self.matrices = m
        self.matrices.setflags(write=False)

    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(eq=False)
class UnitaryDual:
    """A complete list of pairwise-inequivalent unitary irreps of one group."""

    group: FiniteGroup
    irreps: list[UnitaryIrrep]

    def dims(self) -> list[int]:
        return [p.dim for p in self.irreps]

    @functools.cached_property
    def coefficients(self) -> np.ndarray:
        """Every Fourier transform over this dual as one read-only
        [sum d^2, order] matrix: row ((pi, i, j), t) holds conj(pi(t)_{ji}) / d,
        with the irreps in order and (i, j) row-major within each block."""
        cols = [
            (p.matrices.conj().transpose(0, 2, 1) / p.dim).reshape(self.group.order, -1)
            for p in self.irreps
        ]
        rows = np.ascontiguousarray(np.concatenate(cols, axis=1).T)
        rows.setflags(write=False)
        return rows


def _generic(k: int) -> np.ndarray:
    """k fixed, generic complex weights.  Fixed rather than random so that
    duals are deterministic and numpy.random stays unloaded."""
    t = np.arange(1.0, k + 1.0)
    return np.cos(np.sqrt(2.0) * t * t) + 1j * np.sin(np.sqrt(3.0) * t + 0.5)


def unitary_dual(g: FiniteGroup) -> UnitaryDual:
    """The complete unitary dual of any finite group, split off its left
    regular representation L (Serre 1977, sections 2.6-2.7).

    A generic class function w gives a normal central element, z[u, t] =
    w(u t^-1); a generic real mix of its Hermitian and anti-Hermitian parts has
    the isotypic components as eigenspaces, of dimension d^2 each.  On one
    component, a generic Hermitian element of the commutant (the right action,
    b(h^-1) = conj(b(h))) has a d-dimensional lowest eigenspace Q: one
    irreducible copy, and pi(s) = Q^H L(s) Q.  The basis of Q is fixed by the
    eigenvectors of a generic Hermitian group-algebra element, each column
    phased so that its largest-modulus entry is positive.  Irreps come trivial
    first, then by dimension.  A component whose dimension is not a square
    (two irreps merged) raises ``ValueError``.
    """
    quot = g.right_quotient_table()  # u t^-1
    left = g.cayley[g.inverses]  # s^-1 t
    conj = g.cayley[g.cayley, g.inverses[:, None]]  # h x h^-1
    classes = np.unique(conj.min(axis=0), return_inverse=True)[1]
    z = _generic(classes.max() + 1)[classes[quot]]
    zh = z.conj().T
    beta = _generic(2 * g.order)[g.order :]
    herm = beta + beta[g.inverses].conj()
    vals, vecs = np.linalg.eigh((z + zh) / 2 + np.sqrt(0.5) * (z - zh) / 2j)
    # one component's eigenvalues agree to rounding; distinct ones sit far apart
    cuts = np.flatnonzero(np.diff(vals) > 1e-8 * (1.0 + np.abs(vals).max())) + 1
    blocks = []
    for comp in np.split(vecs, cuts, axis=1):
        d = math.isqrt(comp.shape[1])
        if d * d != comp.shape[1]:
            raise ValueError(
                f"isotypic component of dimension {comp.shape[1]} is not a square"
            )
        q = comp @ np.linalg.eigh(comp.conj().T @ herm[left] @ comp)[1][:, :d]
        q = q @ np.linalg.eigh(q.conj().T @ herm[quot] @ q)[1]
        top = q[np.abs(q).argmax(axis=0), np.arange(d)]
        q = q * (top.conj() / np.abs(top))
        blocks.append(q.conj().T @ q[left])
    blocks.sort(key=lambda m: (m.shape[1], not np.allclose(m, 1)))
    return UnitaryDual(
        g, [UnitaryIrrep(m.shape[1], m, f"irrep{k}") for k, m in enumerate(blocks)]
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class DualValidationReport:
    """Max residuals of the defining identities of a unitary dual; the
    verdict on them is the caller's."""

    homomorphism: float
    unitarity: float
    irreducibility: float
    orthogonality: float
    completeness: float

    def residuals(self) -> dict[str, float]:
        return asdict(self)

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN if any residual is NaN."""
        return float(np.max(list(self.residuals().values())))


def validate_dual(g: FiniteGroup, dual: UnitaryDual) -> DualValidationReport:
    """The residuals of homomorphism, unitarity, irreducibility, Schur
    orthogonality and completeness of a dual against its group; structural
    mismatches raise."""
    n = g.order
    for p in dual.irreps:
        if p.matrices.shape[0] != n:
            raise ValueError(
                f"irrep {p.label!r} tabulates {p.matrices.shape[0]} elements, group has {n}"
            )
    # residuals folded by np.max, which keeps a NaN where Python's max drops it
    hom, unit, irr, orth = [0.0], [0.0], [0.0], [0.0]
    for p in dual.irreps:
        m = p.matrices
        prod = np.einsum("sab,tbc->stac", m, m)
        hom.append(np.abs(prod - m[g.cayley]).max())
        unit.append(np.abs(m @ m.conj().transpose(0, 2, 1) - np.eye(p.dim)).max())
        irr.append(abs(np.mean(np.abs(p.characters()) ** 2) - 1.0))
    for a, p in enumerate(dual.irreps):
        for b, q in enumerate(dual.irreps):
            gram = np.einsum("tij,tkl->ijkl", p.matrices, q.matrices.conj()) / n
            if a == b:
                d = p.dim
                target = np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)) / d
                gram = gram - target
            orth.append(np.abs(gram).max())
    comp = float(abs(sum(p.dim**2 for p in dual.irreps) - n))
    hom, unit, irr, orth = (float(np.max(r)) for r in (hom, unit, irr, orth))
    return DualValidationReport(hom, unit, irr, orth, comp)


# ---------------------------------------------------------------------------
# table file formats
# ---------------------------------------------------------------------------


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token: str) -> complex:
    t = token.strip()
    return complex(t[:-1] + "j") if t.endswith("i") else complex(float(t))


def dump_group_file(g: FiniteGroup) -> str:
    """Group table text: first line the order, then the Cayley table rows."""
    lines = [str(g.order)]
    lines += [" ".join(str(int(v)) for v in row) for row in g.cayley]
    return "\n".join(lines) + "\n"


def load_group_file(path: str | Path, label: str | None = None) -> FiniteGroup:
    text = Path(path).read_text()
    tokens = [line.split() for line in text.splitlines() if line.strip()]
    if not tokens:
        raise ValueError("group table file is empty")
    order = int(tokens[0][0])
    rows = tokens[1 : 1 + order]
    if len(rows) != order:
        raise ValueError(f"expected {order} table rows, found {len(rows)}")
    cayley = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
    return _group_from_cayley(cayley, label or Path(path).stem)


def dump_dual_file(dual: UnitaryDual) -> str:
    """Dual table text: per irrep a ``dim d`` line, then one row-major matrix
    line per group element with a+bi complex literals."""
    lines = []
    for p in dual.irreps:
        lines.append(f"dim {p.dim}")
        for t in range(p.matrices.shape[0]):
            lines.append(" ".join(format_complex(z) for z in p.matrices[t].reshape(-1)))
    return "\n".join(lines) + "\n"


def load_dual_file(path: str | Path, g: FiniteGroup) -> UnitaryDual:
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    irreps, pos = [], 0
    while pos < len(lines):
        head = lines[pos].split()
        if len(head) != 2 or head[0] != "dim":
            raise ValueError(f"expected 'dim <d>' header, got {lines[pos]!r}")
        d = int(head[1])
        pos += 1
        block = lines[pos : pos + g.order]
        if len(block) != g.order:
            raise ValueError("dual table block shorter than the group order")
        mats = np.array(
            [[parse_complex(tok) for tok in line.split()] for line in block]
        ).reshape(g.order, d, d)
        irreps.append(UnitaryIrrep(d, mats, f"irrep{len(irreps)}"))
        pos += g.order
    return UnitaryDual(g, irreps)
