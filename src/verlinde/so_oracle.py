"""Independent evaluation of the orthogonal Verlinde numbers for SO(r), r >= 5.

The level weights trivial on the center are coordinatized as strictly
decreasing sequences u_1 > ... > u_s (integers for SO(2s), half-integers
for SO(2s+1)) bounded by the shifted level k, and the torus-to-Delta
ratios come from pairwise sine products over the sequence.  Enumeration
and products are done directly on these sequences, sharing nothing with
the root-system engine beyond the numeric helpers: the decimal context of
the float layer, certification, and the sine tables behind
``four_sin_sq``.  A table holds only values of 4 sin^2(pi j / D), keyed by
D and the precision, which either path would compute identically on its
own; the arguments, their enumeration, the products and the sum stay
separate, so agreement between the two paths is still a meaningful
cross-check.

The products and the sum are decimal arithmetic in the context of ``bits``
(``numeric._context``), each operation within eps <= 2^-(bits+1),
relative.  A sequence's Delta is the product of its M sines (M = s(s-1)
for D_s, s^2 for B_s), within M eps of that of the table's values.  In the
sum of 2 m^(1-2g) (T/Delta)^(g-1) over the N sequence representatives,
T/Delta is within (M + 1) eps, its power (with extra digits, within 2 eps)
within (M + 1) |g - 1| + 2, and with m^(1-2g), the product, the sum of
positive terms and the doubling, the sum within ((M + 1) |g - 1| + N + 7)
eps of that over the table's values, one eps of it for the second-order
terms.  The table's values are within eps + 2^-(bits+7) of the sines, so
to first order the sum is within (|g - 1| (M (1 + 2^-7) + 1/2) + (N + 6) /
2) 2^-bits of N_2, relative: its K, 2 (M + 1) |g - 1| + N + 8, is over
1.98 times that, and covers the second-order terms while K 2^-bits <= 2^-8.

Only the exponent depends on the genus, so the oracle keeps the rest, the
orbit size and Delta of each sequence representative, in its own bounded
per-process cache keyed by (r, working precision).  It shares none of the
engine's caches of spectra and Delta.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Tuple

from .numeric import (
    DEFAULT_PRECISION,
    VerlindeResult,
    _context,
    certify_integer,
    check_precision,
    four_sin_sq,
)

_DUAL_COXETER = {"B": lambda s: 2 * s - 1, "D": lambda s: 2 * s - 2}
_MIN_RANK = {"B": 2, "D": 3}
# Entries of the oracle's own cache (``_level_two_terms``), one per (r, bits).
# The default suite reads eight (r = 5..12 at 192 bits), and an entry of SO(r)
# holds r // 2 + 1 values.
ORACLE_CACHE_SIZE = 32


class _USetFields(NamedTuple):
    family: str
    s: int
    k: int
    values: Tuple[Fraction, ...]


class USet(_USetFields):
    """A strictly decreasing coordinate sequence for one level weight,
    checked on construction, and so when unpickled (pickle protocol 2 on).

    Family D: integer entries, u_1 + u_2 < k and u_{s-1} + u_s > 0.
    Family B: entries in Z + 1/2, u_s > 0 and u_1 + u_2 < k.
    """

    __slots__ = ()

    def __new__(cls, family: str, s: int, k: int, values: Tuple[Fraction, ...]):
        if family not in ("B", "D"):
            raise ValueError(f"family must be B or D, got {family!r}")
        if len(values) != s:
            raise ValueError(f"expected {s} values, got {len(values)}")
        u = values
        if any(a <= b for a, b in zip(u, u[1:])):
            raise ValueError(f"values must be strictly decreasing: {u}")
        if s >= 2 and u[0] + u[1] >= k:
            raise ValueError(f"u_1 + u_2 must be < {k}: {u}")
        if family == "D":
            if any(x.denominator != 1 for x in u):
                raise ValueError(f"family D needs integer values: {u}")
            if u[-2] + u[-1] <= 0:
                raise ValueError(f"u_(s-1) + u_s must be > 0: {u}")
        else:
            if any((2 * x).denominator != 1 or x.denominator == 1 for x in u):
                raise ValueError(f"family B needs half-odd-integer values: {u}")
            if u[-1] <= 0:
                raise ValueError(f"u_s must be > 0: {u}")
        return super().__new__(cls, family, s, k, values)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through it: check as well
        return cls(*iterable)


def enumerate_usets(family: str, rank: int, level: int) -> List[Tuple[USet, int]]:
    """One representative per center orbit, with its orbit size.

    The involution sends u_1 to k - u_1 (and, for family D, u_s to -u_s),
    so representatives are normalized by u_s >= 0 with u_1 <= k/2 when
    u_s = 0 (family D), or by u_1 <= k/2 (family B).  Fixed points are the
    sequences with u_1 = k/2 and, for D, u_s = 0.
    """
    if family not in _MIN_RANK:
        raise ValueError(f"family must be B or D, got {family!r}")
    if rank < _MIN_RANK[family]:
        raise ValueError(f"family {family} requires rank >= {_MIN_RANK[family]}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    s = rank
    k = level + _DUAL_COXETER[family](s)
    half_k = Fraction(k, 2)
    out: List[Tuple[USet, int]] = []

    if family == "D":
        # integer sequences u_1 > ... > u_s >= 0 with u_1 + u_2 < k,
        # keeping u_1 <= k/2 whenever u_s = 0
        def extend(values: List[int]) -> None:
            if len(values) == s:
                if values[-1] == 0 and values[0] > half_k:
                    return
                fixed = values[0] == half_k and values[-1] == 0
                u = USet(family, s, k, tuple(Fraction(v) for v in values))
                out.append((u, 1 if fixed else 2))
                return
            lo = s - len(values) - 1  # room for the remaining strictly smaller entries
            hi = values[-1] - 1 if values else k - 1
            if len(values) == 1:
                hi = min(hi, k - 1 - values[0])
            for v in range(hi, lo - 1, -1):
                extend(values + [v])

        extend([])
    else:
        # half-odd-integer sequences u_1 > ... > u_s > 0 with u_1 + u_2 < k
        # and u_1 <= k/2; enumerate the doubled (odd integer) values
        def extend(doubled: List[int]) -> None:
            if len(doubled) == s:
                fixed = doubled[0] == k
                u = USet(family, s, k, tuple(Fraction(v, 2) for v in doubled))
                out.append((u, 1 if fixed else 2))
                return
            lo = 2 * (s - len(doubled)) - 1
            hi = doubled[-1] - 2 if doubled else k
            if len(doubled) == 1:
                hi = min(hi, 2 * k - 2 - doubled[0])
            start = hi if hi % 2 == 1 else hi - 1
            for v in range(start, lo - 1, -2):
                extend(doubled + [v])

        extend([])

    out.sort(key=lambda pair: pair[0].values, reverse=True)
    return out


def _pair_product(u: USet) -> List[Fraction]:
    args = []
    for i in range(u.s):
        for j in range(i + 1, u.s):
            args.append(Fraction(u.values[i] - u.values[j], u.k))
            args.append(Fraction(u.values[i] + u.values[j], u.k))
    return args


def _delta(u: USet, bits: int) -> Decimal:
    """The product of 4 sin^2 over the sine arguments of ``u``, in the
    decimal context of ``bits``."""
    args = _pair_product(u)
    if u.family == "B":
        args += [Fraction(x, u.k) for x in u.values]
    with localcontext(_context(bits)):
        return math.prod(four_sin_sq(x, bits) for x in args)


def uset_delta(u: USet, precision: int = DEFAULT_PRECISION) -> Decimal:
    """Delta of a sequence at ``precision``: the product over pairs i < j of
    4 sin^2(pi (u_i - u_j)/k) * 4 sin^2(pi (u_i + u_j)/k), times
    prod_i 4 sin^2(pi u_i / k) for family B.  The Decimal holds P digits
    (``numeric._context``); arithmetic on it rounds in the caller's decimal
    context."""
    return _delta(u, check_precision(precision))


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _level_two_terms(r: int, bits: int) -> Tuple[Tuple[int, Decimal], ...]:
    """``(orbit size, Delta at bits)`` of each sequence representative of
    SO(r) at level 2: everything in the oracle's sum but the genus."""
    family = "D" if r % 2 == 0 else "B"
    return tuple((size, _delta(u, bits)) for u, size in enumerate_usets(family, r // 2, 2))


def n_so_oracle(r: int, genus: int, precision: int = DEFAULT_PRECISION) -> VerlindeResult:
    """N_2(SO(r)) for r >= 5, computed purely from the sequence coordinates.

    At level 2 the shifted level equals r and the torus order is 4 r^s for
    both parities of r.
    """
    if r < 5:
        raise ValueError(f"the oracle covers r >= 5, got {r}")
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    s = r // 2
    torus = 4 * r**s
    terms = len(_level_two_terms(r, check_precision(precision)))
    error = 2 * (s * (s - 1 + r % 2) + 1) * (genus - 1) + terms + 8  # M = s (s - 1 + r % 2)

    def compute(bits: int) -> Decimal:
        with localcontext(_context(bits)):
            total = Decimal(0)
            for size, d in _level_two_terms(r, bits):
                total += Decimal(size) ** (1 - 2 * genus) * (torus / d) ** (genus - 1)
            return 2 * total

    value, residual, bits = certify_integer(compute, precision, error)
    return VerlindeResult(
        value=value,
        residual=residual,
        precision_bits=bits,
        term_count=terms,
        group_label=f"SO({r})",
        level=2,
        genus=genus,
    )
