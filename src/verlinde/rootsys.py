"""Exact root-system data for the classical families A, B, C and D.

Vectors are tuples of :class:`fractions.Fraction` in orthogonal coordinates:
the standard basis of R^s for types B, C, D, and of R^(s+1) for type A
(roots live in the sum-zero hyperplane).  The invariant bilinear form is
``gram_scale * <standard dot product>``, with ``gram_scale`` chosen so that
every long root has squared length 2.  No floating point enters here.

The weight lattice is also integer: a weight is its marks n (coefficients
in the fundamental-weight basis), and each root system carries the integer
pairing matrix ``M[a][i] = 2 (alpha | omega_i)`` over its positive roots and
its integer comarks ``(omega_i | theta)``, so that
``2 (alpha | lambda + rho) = sum_i (n_i + 1) M[a][i]`` and the level of
lambda is ``sum_i comark_i n_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Tuple

Vector = Tuple[Fraction, ...]

MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}

# Root systems kept per process.  The default suite touches 21 types; one
# type's data grows with its rank cubed (D30 holds about 2 MB).
ROOT_SYSTEM_CACHE_SIZE = 32

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def vec(values) -> Vector:
    """Coerce an iterable of numbers to an exact coordinate vector."""
    return tuple(Fraction(v) for v in values)


def vec_add(v: Vector, w: Vector) -> Vector:
    return tuple(a + b for a, b in zip(v, w))


def vec_sub(v: Vector, w: Vector) -> Vector:
    return tuple(a - b for a, b in zip(v, w))


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def zero_vector(dim: int) -> Vector:
    return (_ZERO,) * dim


def _unit(dim: int, i: int, scale=1) -> Vector:
    return tuple(Fraction(scale) if j == i else _ZERO for j in range(dim))


@dataclass(frozen=True)
class GroupType:
    """A classical family label plus rank (A >= 1, B >= 2, C >= 1, D >= 3)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in MIN_RANK:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of A, B, C, D"
            )
        if self.rank < MIN_RANK[self.family]:
            raise ValueError(
                f"type {self.family} requires rank >= {MIN_RANK[self.family]},"
                f" got {self.rank}"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystem:
    """Root data for one classical simply connected group.

    ``nu`` is the factor in the finite-torus order ``(l+h)^s * f * nu``; it
    is stored only for the families where it is pinned down exactly (A, B,
    D).  For type C it is ``None`` and torus orders must be obtained from
    the sine-sum oracle instead of the closed form.
    """

    group_type: GroupType
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    long_roots: Tuple[Vector, ...]
    fundamental_weights: Tuple[Vector, ...]
    rho: Vector
    theta: Vector
    dual_coxeter: int
    center_order: int
    nu: Optional[int]
    gram_scale: Fraction

    @property
    def family(self) -> str:
        return self.group_type.family

    @property
    def rank(self) -> int:
        return self.group_type.rank

    @property
    def dim(self) -> int:
        """Coordinate dimension (rank, or rank+1 for type A)."""
        return len(self.theta)

    def is_root(self, v: Vector) -> bool:
        return v in self.positive_roots or vec_neg(v) in self.positive_roots

    @cached_property
    def pairing_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """``M[a][i] = 2 (alpha | omega_i)`` for the positive roots, in order."""
        return _twice_pairings(self, self.positive_roots, self.fundamental_weights)

    @cached_property
    def comarks(self) -> Tuple[int, ...]:
        """``(omega_i | theta)`` for each node; all strictly positive."""
        row = _twice_pairings(self, (self.theta,), self.fundamental_weights)[0]
        return tuple(c // 2 for c in row)

    def __str__(self) -> str:
        return str(self.group_type)


def _build_a(s: int) -> RootSystem:
    dim = s + 1
    simple = tuple(
        vec_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(s)
    )
    positive = tuple(
        vec_sub(_unit(dim, i), _unit(dim, j))
        for i in range(dim)
        for j in range(i + 1, dim)
    )
    ones = tuple(Fraction(1) for _ in range(dim))
    fundamental = tuple(
        vec_sub(
            tuple(Fraction(1) if i <= j else _ZERO for i in range(dim)),
            vec_scale(Fraction(j + 1, dim), ones),
        )
        for j in range(s)
    )
    return RootSystem(
        group_type=GroupType("A", s),
        simple_roots=simple,
        positive_roots=positive,
        long_roots=positive,
        fundamental_weights=fundamental,
        rho=_sum_vectors(fundamental, dim),
        theta=vec_sub(_unit(dim, 0), _unit(dim, dim - 1)),
        dual_coxeter=s + 1,
        center_order=s + 1,
        nu=1,
        gram_scale=Fraction(1),
    )


def _build_b(s: int) -> RootSystem:
    simple = tuple(
        vec_sub(_unit(s, i), _unit(s, i + 1)) for i in range(s - 1)
    ) + (_unit(s, s - 1),)
    long_roots = tuple(
        vec_add(_unit(s, i), vec_scale(sign, _unit(s, j)))
        for i in range(s)
        for j in range(i + 1, s)
        for sign in (-1, 1)
    )
    short = tuple(_unit(s, i) for i in range(s))
    fundamental = tuple(
        tuple(Fraction(1) if i <= j else _ZERO for i in range(s))
        for j in range(s - 1)
    ) + (tuple(_HALF for _ in range(s)),)
    return RootSystem(
        group_type=GroupType("B", s),
        simple_roots=simple,
        positive_roots=long_roots + short,
        long_roots=long_roots,
        fundamental_weights=fundamental,
        rho=_sum_vectors(fundamental, s),
        theta=vec_add(_unit(s, 0), _unit(s, 1)),
        dual_coxeter=2 * s - 1,
        center_order=2,
        nu=2,
        gram_scale=Fraction(1),
    )


def _build_c(s: int) -> RootSystem:
    simple = tuple(
        vec_sub(_unit(s, i), _unit(s, i + 1)) for i in range(s - 1)
    ) + (_unit(s, s - 1, 2),)
    short = tuple(
        vec_add(_unit(s, i), vec_scale(sign, _unit(s, j)))
        for i in range(s)
        for j in range(i + 1, s)
        for sign in (-1, 1)
    )
    long_roots = tuple(_unit(s, i, 2) for i in range(s))
    fundamental = tuple(
        tuple(Fraction(1) if i <= j else _ZERO for i in range(s))
        for j in range(s)
    )
    return RootSystem(
        group_type=GroupType("C", s),
        simple_roots=simple,
        positive_roots=short + long_roots,
        long_roots=long_roots,
        fundamental_weights=fundamental,
        rho=_sum_vectors(fundamental, s),
        theta=_unit(s, 0, 2),
        dual_coxeter=s + 1,
        center_order=2,
        nu=None,
        gram_scale=_HALF,
    )


def _build_d(s: int) -> RootSystem:
    simple = tuple(
        vec_sub(_unit(s, i), _unit(s, i + 1)) for i in range(s - 1)
    ) + (vec_add(_unit(s, s - 2), _unit(s, s - 1)),)
    positive = tuple(
        vec_add(_unit(s, i), vec_scale(sign, _unit(s, j)))
        for i in range(s)
        for j in range(i + 1, s)
        for sign in (-1, 1)
    )
    fundamental = tuple(
        tuple(Fraction(1) if i <= j else _ZERO for i in range(s))
        for j in range(s - 2)
    ) + (
        tuple(_HALF if i < s - 1 else -_HALF for i in range(s)),
        tuple(_HALF for _ in range(s)),
    )
    return RootSystem(
        group_type=GroupType("D", s),
        simple_roots=simple,
        positive_roots=positive,
        long_roots=positive,
        fundamental_weights=fundamental,
        rho=_sum_vectors(fundamental, s),
        theta=vec_add(_unit(s, 0), _unit(s, 1)),
        dual_coxeter=2 * s - 2,
        center_order=4,
        nu=1,
        gram_scale=Fraction(1),
    )


def _twice_pairings(rs: RootSystem, vectors, weights) -> Tuple[Tuple[int, ...], ...]:
    """``2 (v | w)`` for each v in ``vectors`` (rows) and w in ``weights``.

    Every coordinate is scaled by the common denominator to an integer once,
    so each entry is an integer dot product over the nonzero coordinates of v.
    """
    scale = math.lcm(*(x.denominator for v in vectors + weights for x in v))
    num = 2 * rs.gram_scale.numerator
    den = rs.gram_scale.denominator * scale * scale

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    columns = [[scaled(x) for x in w] for w in weights]
    rows = []
    for v in vectors:
        support = [(c, scaled(x)) for c, x in enumerate(v) if x]
        row = []
        for w in columns:
            q, r = divmod(num * sum(a * w[c] for c, a in support), den)
            if r:
                raise AssertionError(f"2 (v | w) is not an integer in {rs.group_type}")
            row.append(q)
        rows.append(tuple(row))
    return tuple(rows)


def _sum_vectors(vectors, dim: int) -> Vector:
    total = zero_vector(dim)
    for v in vectors:
        total = vec_add(total, v)
    return total


_BUILDERS = {"A": _build_a, "B": _build_b, "C": _build_c, "D": _build_d}


@lru_cache(maxsize=ROOT_SYSTEM_CACHE_SIZE)
def build_root_system(group_type: GroupType) -> RootSystem:
    """The exact root data for one classical type and rank.

    Built once per type and process: a ``RootSystem`` is immutable, so every
    caller shares one instance, with its pairing matrix and comarks.
    """
    return _BUILDERS[group_type.family](group_type.rank)


def root_system(family: str, rank: int) -> RootSystem:
    """Convenience wrapper: ``root_system("D", 4)``."""
    return build_root_system(GroupType(family, rank))


def inner(rs: RootSystem, v: Vector, w: Vector) -> Fraction:
    """The normalized invariant form (long roots have squared length 2)."""
    if len(v) != rs.dim or len(w) != rs.dim:
        raise ValueError(
            f"dimension mismatch: {rs.group_type} vectors have {rs.dim} coordinates"
        )
    return rs.gram_scale * sum(a * b for a, b in zip(v, w))


def coroot_pairing(rs: RootSystem, lam: Vector, alpha: Vector) -> Fraction:
    """Pairing <lam, alpha^vee> = 2 (lam | alpha) / (alpha | alpha)."""
    if not rs.is_root(alpha):
        raise ValueError(f"{alpha} is not a root of {rs.group_type}")
    return 2 * inner(rs, lam, alpha) / inner(rs, alpha, alpha)


def is_dominant(rs: RootSystem, lam: Vector) -> bool:
    return all(coroot_pairing(rs, lam, a) >= 0 for a in rs.simple_roots)


def level_of(rs: RootSystem, lam: Vector) -> Fraction:
    """(lam | theta); a weight lies at level l when this is <= l."""
    return inner(rs, lam, rs.theta)


def marks(rs: RootSystem, lam: Vector) -> Tuple[int, ...]:
    """Coefficients of an integral weight in the fundamental-weight basis."""
    out = []
    for a in rs.simple_roots:
        c = coroot_pairing(rs, lam, a)
        if c.denominator != 1:
            raise ValueError(f"{lam} is not an integral weight of {rs.group_type}")
        out.append(int(c))
    return tuple(out)


def weight_from_marks(rs: RootSystem, coeffs) -> Vector:
    """The weight with the given fundamental-weight coefficients."""
    if len(coeffs) != rs.rank:
        raise ValueError(f"expected {rs.rank} coefficients, got {len(coeffs)}")
    total = zero_vector(rs.dim)
    for n, w in zip(coeffs, rs.fundamental_weights):
        total = vec_add(total, vec_scale(n, w))
    return total
