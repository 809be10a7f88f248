"""Exact root-system data for the classical families A, B, C and D.

Vectors are in orthogonal coordinates: the standard basis of R^s for types
B, C, D, and of R^(s+1) for type A (roots live in the sum-zero hyperplane).
Roots, simple roots and theta have integer coordinates and are tuples of
``int``.  The weight lattice is integer too: each root system keeps the
common denominator d of its fundamental weights (s+1 for A, 2 for B and D,
1 for C) and the integer vectors d omega_i; d rho is their sum.  The
invariant form, normalized so that every long root has squared length 2,
enters only through ratios in which its scale cancels.  No floating point
enters here, and no ``Fraction`` vector is stored.

A weight is its marks n (coefficients in the fundamental-weight basis):
:func:`weight_from_marks` is one integer matrix-vector product, d lambda =
sum_i n_i d omega_i, read as ``Fraction(x, d)`` per coordinate, and
:func:`marks` pairs d lambda with the integer simple roots.  Each root
system also carries the integer pairing matrix ``M[a][i] = 2 (alpha |
omega_i)`` over its positive roots and its integer comarks ``(omega_i |
theta)``, so that ``2 (alpha | lambda + rho) = sum_i (n_i + 1) M[a][i]``
and the level of lambda is ``sum_i comark_i n_i``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd
from numbers import Rational
from operator import add, floordiv, mod, mul, sub
from typing import NamedTuple, Tuple

Vector = Tuple[Rational, ...]

MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}

# Root systems kept per process.  The default suite touches 21 types; one
# type's data grows with its rank cubed (D30 holds about 0.5 MB).
ROOT_SYSTEM_CACHE_SIZE = 32


class _GroupTypeFields(NamedTuple):
    family: str
    rank: int


class GroupType(_GroupTypeFields):
    """A classical family label plus rank (A >= 1, B >= 2, C >= 1, D >= 3),
    checked on construction, and so when unpickled (pickle protocol 2 on)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in MIN_RANK:
            raise ValueError(f"unknown family {family!r}; expected one of A, B, C, D")
        if rank < MIN_RANK[family]:
            raise ValueError(
                f"type {family} requires rank >= {MIN_RANK[family]}, got {rank}"
            )
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through it: check as well
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class RootSystem(NamedTuple):
    """Root data for one classical simply connected group.

    ``nu`` is the factor in the finite-torus order ``(l+h)^s * f * nu``:
    the index ``|Q / Q_long|`` of the lattice spanned by the long roots in
    the root lattice (Beauville, "Conformal blocks, fusion rules and the
    Verlinde formula", 1996).  It is 1 for A and D, 2 for B, and 2^(s-1)
    for C_s, whose long roots 2 e_i span 2 Z^s.
    """

    group_type: GroupType
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    long_roots: Tuple[Vector, ...]
    # The common denominator d of the fundamental weights, and d omega_i.
    denominator: int
    scaled_weights: Tuple[Tuple[int, ...], ...]
    theta: Vector
    dual_coxeter: int
    center_order: int
    nu: int
    # M[a][i] = 2 (alpha | omega_i) for the positive roots, in order, and the
    # comarks (omega_i | theta), all strictly positive.
    pairing_matrix: Tuple[Tuple[int, ...], ...]
    comarks: Tuple[int, ...]

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

    @property
    def scaled_rho(self) -> Tuple[int, ...]:
        """d rho, the coordinate-wise sum of the d omega_i."""
        return tuple(map(sum, zip(*self.scaled_weights)))

    def __str__(self) -> str:
        return str(self.group_type)


@lru_cache(maxsize=ROOT_SYSTEM_CACHE_SIZE)
def build_root_system(group_type: GroupType) -> RootSystem:
    """The exact root data of one type, read off the plates of Bourbaki (Lie
    Groups and Lie Algebras, ch. VI, plates I-IV), with integer roots.

    Built once per type and process: a ``RootSystem`` is immutable, so every
    caller shares one instance, with its pairing matrix and comarks.

    The families differ only in the tables below.  The fundamental weights
    are first built as integer vectors scaled by ``d``: prefix vectors
    ``d (e_0 + ... + e_j)``, centred into the sum-zero hyperplane for type A,
    followed by the spinor weights of types B and D.
    """
    family, s = group_type.family, group_type.rank
    n = s + 1 if family == "A" else s

    def vector(*terms) -> Tuple[int, ...]:
        v = [0] * n
        for c, x in terms:
            v[c] = x
        return tuple(v)

    pair_roots = tuple(
        vector((a, 1), (b, sign))
        for a in range(n)
        for b in range(a + 1, n)
        for sign in ((-1,) if family == "A" else (-1, 1))
    )
    end = {"B": 1, "C": 2}.get(family)  # the roots e_a (B) or 2 e_a (C)
    end_roots = tuple(vector((a, end)) for a in range(n)) if end else ()
    last = {
        "B": ((s - 1, 1),),
        "C": ((s - 1, 2),),
        "D": ((s - 2, 1), (s - 1, 1)),
    }.get(family)
    simple = tuple(vector((i, 1), (i + 1, -1)) for i in range(n - 1))
    if last:
        simple += (vector(*last),)
    theta = vector(
        *{"A": ((0, 1), (n - 1, -1)), "C": ((0, 2),)}.get(family, ((0, 1), (1, 1)))
    )

    d = {"A": n, "C": 1}.get(family, 2)
    spinors = {
        "B": ((1,) * n,),
        "D": ((1,) * (n - 1) + (-1,), (1,) * n),
    }.get(family, ())
    shift = 1 if family == "A" else 0  # centres type A in the sum-zero plane
    scaled = tuple(
        tuple((d if i <= j else 0) - shift * (j + 1) for i in range(n))
        for j in range(s - len(spinors))
    ) + spinors

    h, f, nu = {
        "A": (s + 1, s + 1, 1),
        "B": (2 * s - 1, 2, 2),
        "C": (s + 1, 2, 2 ** (s - 1)),
        "D": (2 * s - 2, 4, 1),
    }[family]
    positive = pair_roots + end_roots
    # 2 (v | w) = 2 (v . d w) / den: the form is the dot product, halved for
    # C so that its long roots 2 e_a have squared length 2.
    den = 2 * d if family == "C" else d
    return RootSystem(
        group_type=group_type,
        simple_roots=simple,
        positive_roots=positive,
        long_roots=end_roots if family == "C" else pair_roots,
        denominator=d,
        scaled_weights=scaled,
        theta=theta,
        dual_coxeter=h,
        center_order=f,
        nu=nu,
        pairing_matrix=_twice_pairings(group_type, positive, scaled, den),
        comarks=tuple(c // 2 for c in _twice_pairings(group_type, (theta,), scaled, den)[0]),
    )


def _twice_pairings(
    group_type: GroupType, vectors, scaled, den: int
) -> Tuple[Tuple[int, ...], ...]:
    """``2 (v | w) = 2 (v . d w) / den`` for each integer vector v (rows)
    and each fundamental weight w, given as its integer multiple ``d w``.

    A row is summed from the weight columns, scaled once by 2 / g with g
    = gcd(2, den), over the nonzero coordinates of v, which are at most
    two for a root, and divided by den / g when that is above 1.
    """
    g = gcd(2, den)
    columns = tuple(tuple(2 // g * y for y in column) for column in zip(*scaled))
    dens = (den // g,) * len(scaled)
    rows = []
    for v in vectors:
        twice = repeat(0, len(scaled))
        for c in compress(range(len(v)), v):
            x = v[c]
            column = columns[c] if abs(x) == 1 else map(mul, columns[c], repeat(abs(x)))
            twice = map(add if x > 0 else sub, twice, column)
        twice = tuple(twice)
        if den > g:
            if any(map(mod, twice, dens)):
                raise AssertionError(f"2 (v | w) is not an integer in {group_type}")
            twice = tuple(map(floordiv, twice, dens))
        rows.append(twice)
    return tuple(rows)


def root_system(family: str, rank: int) -> RootSystem:
    """Convenience wrapper: ``root_system("D", 4)``."""
    return build_root_system(GroupType(family, rank))


def marks(rs: RootSystem, lam: Vector) -> Tuple[int, ...]:
    """Coefficients of an integral weight in the fundamental-weight basis:
    n_i = 2 (d lam . alpha_i) / (d alpha_i . alpha_i), in which the scale of
    the form cancels.  d lam is an integer vector for every integral weight."""
    if len(lam) != rs.dim:
        raise ValueError(
            f"dimension mismatch: {rs.group_type} vectors have {rs.dim} coordinates"
        )
    d = rs.denominator
    scaled = [d * x for x in lam]
    if any(x.denominator != 1 for x in scaled):
        raise ValueError(f"{lam} is not an integral weight of {rs.group_type}")
    scaled = [x.numerator for x in scaled]
    out = []
    for a in rs.simple_roots:
        n, r = divmod(2 * sum(map(mul, scaled, a)), d * sum(map(mul, a, a)))
        if r:
            raise ValueError(f"{lam} is not an integral weight of {rs.group_type}")
        out.append(n)
    return tuple(out)


def scaled_weight(rs: RootSystem, coeffs) -> Tuple[int, ...]:
    """d lambda, the integer vector of the weight with the given
    fundamental-weight coefficients: sum_i n_i d omega_i."""
    if len(coeffs) != rs.rank:
        raise ValueError(f"expected {rs.rank} coefficients, got {len(coeffs)}")
    return tuple(sum(map(mul, coeffs, column)) for column in zip(*rs.scaled_weights))


def weight_from_marks(rs: RootSystem, coeffs) -> Vector:
    """The weight with the given fundamental-weight coefficients."""
    d = rs.denominator
    return tuple(Fraction(x, d) for x in scaled_weight(rs, coeffs))
