"""Independent evaluation of the orthogonal Verlinde numbers for SO(r), r >= 5.

The level weights trivial on the center are coordinatized as strictly
decreasing sequences u_1 > ... > u_s (integers for SO(2s), half-integers
for SO(2s+1)) bounded by the shifted level k, and the torus-to-Delta
ratios come from pairwise sine products over the sequence.  One recursion
enumerates them in doubled coordinates v = 2u, integers of one parity
(even for D, odd for B), so every sine argument is an integer numerator n
over 2k: v_i - v_j and v_i + v_j, and v_i for B.  It indexes one table,
``numeric._sine_table(2k, bits)``, at min(n, 2k - n).  The oracle shares
nothing with the root-system engine beyond the numeric helpers: the request
rule, the decimal context of the float layer, certification, and the sine
tables.  A table holds only values of 4 sin^2(pi j / D), keyed by D and the
precision, which either path would compute identically on its own; the
arguments, their enumeration, the products and the sum stay separate, so
agreement between the two paths is still a meaningful cross-check.

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
    _sine_table,
    certify_integer,
    check_precision,
    check_request,
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
        if s < _MIN_RANK[family]:
            raise ValueError(f"family {family} requires rank >= {_MIN_RANK[family]}")
        if u[0] + u[1] >= k:
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


def _sequences(family: str, s: int, k: int) -> List[Tuple[Tuple[int, ...], int]]:
    """``(v, orbit size)`` of each representative in doubled coordinates
    v = 2u, in decreasing order: integers v_1 > ... > v_s, even for D and
    odd for B, with v_1 + v_2 < 2k and v_s >= 0 (D) or >= 1 (B).

    The involution sends v_1 to 2k - v_1 (and, for family D, v_s to -v_s),
    so where v_s = 0 or the family is B, representatives keep v_1 <= k and
    v_1 = k is a fixed point."""
    odd = family == "B"
    out = []

    def extend(v: Tuple[int, ...]) -> None:
        if len(v) == s:
            boundary = odd or v[-1] == 0
            if not (boundary and v[0] > k):
                out.append((v, 1 if boundary and v[0] == k else 2))
            return
        if not v:
            hi = k if odd else 2 * k - 2
        elif len(v) == 1:
            hi = min(v[0] - 2, 2 * k - 1 - v[0])
        else:
            hi = v[-1] - 2
        lo = 2 * (s - len(v) - 1) + odd  # room for the remaining smaller entries
        for x in range(hi - (hi - odd) % 2, lo - 1, -2):
            extend(v + (x,))

    extend(())
    return out


def enumerate_usets(family: str, rank: int, level: int) -> List[Tuple[USet, int]]:
    """One representative per center orbit, with its orbit size, in
    decreasing order: the sequences of :func:`_sequences`, halved.

    Representatives are normalized by u_s >= 0 with u_1 <= k/2 when u_s = 0
    (family D), or by u_1 <= k/2 (family B).  Fixed points are the
    sequences with u_1 = k/2 and, for D, u_s = 0.
    """
    if family not in _MIN_RANK:
        raise ValueError(f"family must be B or D, got {family!r}")
    if rank < _MIN_RANK[family]:
        raise ValueError(f"family {family} requires rank >= {_MIN_RANK[family]}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    k = level + _DUAL_COXETER[family](rank)
    return [(USet(family, rank, k, tuple(Fraction(x, 2) for x in v)), size)
            for v, size in _sequences(family, rank, k)]


def _delta(family: str, k: int, v: Tuple[int, ...], bits: int) -> Decimal:
    """The product of 4 sin^2(pi n / 2k) over the numerators n of the
    doubled sequence ``v``: v_i - v_j and v_i + v_j for i < j, then v_i for
    family B, all in (0, 2k), in the decimal context of ``bits``."""
    D = 2 * k
    table = _sine_table(D, bits)
    numerators = [n for i, a in enumerate(v) for b in v[i + 1:] for n in (a - b, a + b)]
    if family == "B":
        numerators += v
    with localcontext(_context(bits)):
        return math.prod(table[min(n, D - n)] for n in numerators)


def uset_delta(u: USet, precision: int = DEFAULT_PRECISION) -> Decimal:
    """Delta of a sequence at ``precision``: the product over pairs i < j of
    4 sin^2(pi (u_i - u_j)/k) * 4 sin^2(pi (u_i + u_j)/k), times
    prod_i 4 sin^2(pi u_i / k) for family B.  The Decimal holds P digits
    (``numeric._context``); arithmetic on it rounds in the caller's decimal
    context."""
    v = tuple(int(2 * x) for x in u.values)
    return _delta(u.family, u.k, v, check_precision(precision))


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _level_two_terms(r: int, bits: int) -> Tuple[Tuple[int, Decimal], ...]:
    """``(orbit size, Delta at bits)`` of each sequence representative of
    SO(r) at level 2: everything in the oracle's sum but the genus."""
    family = "D" if r % 2 == 0 else "B"
    return tuple((size, _delta(family, r, v, bits)) for v, size in _sequences(family, r // 2, r))


def n_so_oracle(r: int, genus: int, precision: int = DEFAULT_PRECISION) -> VerlindeResult:
    """N_2(SO(r)) for r >= 5, computed purely from the sequence coordinates.

    At level 2 the shifted level equals r and the torus order is 4 r^s for
    both parities of r.
    """
    if r < 5:
        raise ValueError(f"the oracle covers r >= 5, got {r}")
    check_request(genus, precision)
    s = r // 2
    torus = 4 * r**s
    terms = len(_level_two_terms(r, precision))
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
