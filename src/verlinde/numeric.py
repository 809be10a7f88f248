"""Arbitrary-precision evaluation and integer certification.

All trigonometric sums in this package are known in advance to be integers
N, sums of positive terms, evaluated at a caller-chosen precision of
``bits`` (default 192).  The float layer, the engine's products and sums
(:mod:`verlinde.formula`) and the SO oracle's, is decimal arithmetic under
:func:`_context`: P = ceil(bits log10 2) + 1 digits, each operation
correctly rounded within eps = 10^(1-P) / 2 <= 2^-(bits+1), relative.  The
error bounds are stated where the arithmetic is: the sines in
:func:`_sine_table`, the engine's products and sum in ``formula._products``
and ``formula._kernel``, the oracle's in ``so_oracle``.  Each sum's caller
states them as one integer K: the sum S~ at ``bits`` is within K 2^-bits of
N, relative, while K 2^-bits <= 2^-8.  N then lies within r = K |S~| /
(2^bits - K) of S~, and :func:`certify_integer` proves it from that
enclosure in at most two passes.

Every sum is a product of factors 4 sin^2(pi j / D), with D = 2(l+h) (or
the lcm of a product's) and j <= D/2, so the sines come in tables: one per
(D, bits), all of 4 sin^2(pi j / D) for j = 0..D/2, built by integer
fixed-point arithmetic (see :func:`_sine_table`) and kept in a bounded LRU.
The engine reads each factor's own table (see ``formula._products``), and
the SO oracle the one table of D = 2k for each (r, bits) (see
``so_oracle``).  :func:`four_sin_sq` serves an exact rational argument from
the table of its reduced denominator; no sum of the package calls it.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Tuple, Union

DEFAULT_PRECISION = 192
MIN_PRECISION = 64
# The largest precision a caller may request.  The time of a sum grows about
# fourfold per doubling of the precision: the sum of n_so(5, 2), its sine
# table included, takes 0.09 s at 2^14 bits, 1.5 s at 2^16 and 32 s at 2^18
# (one cold process each, Python 3.11 on a shared 2-vCPU VM), and a larger
# group reads a longer table.  The cap bounds only the request:
# certification may go on to MAX_BITS, for values up to about 2^524270.
MAX_PRECISION = 2**16
MAX_BITS = 8 * MAX_PRECISION
# Sine tables kept per process, one per (D, bits) (see ``_sine_table``).
# The default suite reads 21 and the suite of the CI's console step 98; a
# genus sweep reads one per D and precision.  A table holds D/2 + 1 values
# of P digits, about 8P/19 + 110 bytes each: 128 tables of D <= 400 take at
# most 3 MB at the default 192 bits.  The bound grows with P: 50 MB at
# 14,400 bits.
SINE_TABLE_SIZE = 128
# pi at each working precision of the tables (see ``_pi``).
PI_CACHE_SIZE = 16


class IntegralityError(ArithmeticError):
    """A sum that violates its stated bound at ``precision_bits``, or whose
    value needs ``precision_bits`` > MAX_BITS (or overflows at them).  It
    pickles by its four arguments, so a refusal in a worker process reaches
    its caller as itself."""

    def __init__(self, raw_value: str, residual: float, precision_bits: int, reason: str):
        self.raw_value = raw_value
        self.residual = residual
        self.precision_bits = precision_bits
        self.reason = reason
        super().__init__(f"{raw_value}: {reason} ({precision_bits} bits, residual {residual:.3e})")

    def __reduce__(self):
        return type(self), (self.raw_value, self.residual, self.precision_bits, self.reason)


class VerlindeResult(NamedTuple):
    """A certified integer plus the diagnostics of its evaluation."""

    value: int
    residual: float
    precision_bits: int
    term_count: int
    group_label: str
    level: Union[int, Tuple[int, ...]]
    genus: int


def check_precision(precision: int) -> int:
    """``precision``, if a caller may request it: MIN_PRECISION to
    MAX_PRECISION bits, or ``ValueError``."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be <= {MAX_PRECISION} bits, got {precision}")
    return precision


def check_request(genus: int, precision: int) -> None:
    """Refuse a genus below 1, then a precision out of range."""
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    check_precision(precision)


def four_sin_sq(x: Fraction, bits: int) -> Decimal:
    """4 sin^2(pi x) for exact rational x, from the sine table at ``bits``.

    The argument is reduced mod 1 exactly, then folded into [0, 1/2] by
    4 sin^2(pi x) = 4 sin^2(pi (1 - x)); an integer argument would give a
    zero factor and is rejected.  The value is that of
    ``_sine_table(D, bits)`` at the folded numerator, D being the
    denominator of x in lowest terms.  Neither the engine nor the SO oracle
    calls it: they index their tables by integer numerators.  It serves the
    tests and ``perfbench/tracer.py``, which wraps it as its sine layer.
    """
    D = x.denominator
    j = x.numerator % D
    if j == 0:
        raise ValueError(f"zero trigonometric factor: sin(pi * {x}) = 0")
    return _sine_table(D, bits)[min(j, D - j)]


def _context(bits: int) -> Context:
    """The decimal context of the float layer at ``bits``: P = ceil(bits
    log10 2) + 1 digits, so eps = 10^(1-P) / 2 <= 2^-(bits+1), rounding half
    to even, and exponents that no certifiable value reaches."""
    return Context(prec=math.ceil(bits * math.log10(2)) + 1, Emax=MAX_EMAX, Emin=MIN_EMIN)


@lru_cache(maxsize=PI_CACHE_SIZE)
def _pi(w: int) -> int:
    """pi 2^w within 2, by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239).

    Each series is summed at w + g bits, g = bit_length(w) + 5, until its
    power of 1/n floors to 0.  A power is within 1.05 units of 2^-(w+g) and
    a term within 2.05; at most (w+g)/4.6 + 1 terms of the first series and
    (w+g)/15.8 + 1 of the second are nonzero, and each tail is under 1.05
    units.  So pi is within 7.7 (w+g) + 62 < 2^g units before the final
    shift, which adds under one unit of 2^-w.
    """
    g = w.bit_length() + 5
    scale = 1 << (w + g)

    def atan_inv(n: int) -> int:
        power, total, i = scale // n, 0, 0
        while power:
            term = power // (2 * i + 1)
            total += -term if i & 1 else term
            power //= n * n
            i += 1
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> g


@lru_cache(maxsize=SINE_TABLE_SIZE)
def _sine_table(denominator: int, bits: int) -> Tuple[Decimal, ...]:
    """4 sin^2(pi j / D) for j = 0..D // 2, D = ``denominator`` >= 2, each
    within eps + 2^-(bits+7) of its exact value, relative, in the context of
    ``bits`` (:func:`_context`); j = 0 gives 0.

    The table is built in fixed point, integers that stand for multiples of
    u = 2^-w, and every product is floored back to that scale, off by less
    than u.  With k = max(3, isqrt(bits / 3)) halvings and x = pi / (D 2^k):

    * x~ = ``_pi(w)`` // (D 2^k) is within 2u of x, and x~ < 2^(1-k) <= 1/4.
    * cos x~ and sin x~ are summed from their Taylor series in x~^2 until
      the cosine's term floors to 0, at the latest at the N-th term,
      N = ceil(w / (2(k - 1))).  Each term falls short of its exact
      value by under 2.1u, and each tail is under 2.1u, so both are within
      2.1 (N + 1) u, and e^(i x~) is within (3N + 5) u of e^(ix), with the
      2u of x~.
    * Each of the k doublings z -> z^2 at most doubles the error of z and
      adds sqrt(2) u for its two floors: e = e^(i pi / D) is within
      2^k (3N + 7) u.
    * Each of the j - 1 < D/2 rotations z_j = z_(j-1) e adds the error of e
      and sqrt(2) u: z_j is within (D/2) 2^k (3N + 8) u.
    * 4 Im(z_j)^2 is then within 8 times that, plus one floor: within
      4 D 2^k (3N + 9) u, or D^3 2^k (N + 3) u relative, as
      4 sin^2(pi j / D) >= 16 / D^2 for 1 <= j <= D/2.

    The second-order terms (products of two errors) are covered by the
    rounded-up constants.  Choosing w = a + bit_length(2a) with a = bits + 8
    + k + bit_length(D^3) makes w >= a + bit_length(N + 3) (as N + 3 <= w
    <= 2a), so the fixed-point values are within 2^-(bits+8), relative.
    Each is then rounded once into the context, which adds eps, and
    normalized: the exact values 1, 2, 3 and 4 keep one digit, which makes
    the products that read them cheaper.
    """
    D = denominator
    k = max(3, math.isqrt(bits // 3))
    a = bits + 8 + k + (D**3).bit_length()
    w = a + (2 * a).bit_length()
    one = 1 << w
    x = _pi(w) // (D << k)
    x2 = x * x >> w
    c, s = one, x
    tc, ts, n = one, x, 1
    while tc:
        tc = (tc * x2 >> w) // ((2 * n - 1) * 2 * n)
        ts = (ts * x2 >> w) // (2 * n * (2 * n + 1))
        if n & 1:
            c, s = c - tc, s - ts
        else:
            c, s = c + tc, s + ts
        n += 1
    for _ in range(k):
        c, s = (c * c - s * s) >> w, c * s >> (w - 1)
    context = _context(bits)
    scale = Decimal(one)
    values = [Decimal(0)]
    re, im = c, s
    for _ in range(D // 2):
        values.append(context.divide(Decimal(im * im >> (w - 2)), scale).normalize(context))
        re, im = (re * c - im * s) >> w, (re * s + im * c) >> w
    return tuple(values)


def certify_integer(
    compute: Callable[[int], Decimal], precision: int, error: int
) -> Tuple[int, float, int]:
    """N, the integer within r of ``compute(bits)``, a Decimal within
    ``error`` K 2^-bits of it (see above), as ``(N, residual, bits)``.

    The first pass runs at the least ``precision << k`` with K 2^-bits <
    2^-8.  It accepts the integer nearest S~ iff r < 1/2 and the residual,
    their distance, is at most r, and refuses a larger residual, which the
    bound rules out.  If r >= 1/2, one more pass runs at the least
    ``precision << k`` with K |S~| 2^-bits <= 1/4, so that r < 1/2 unless
    the bound fails; a value that needs more than MAX_BITS, or overflows, is
    refused.  S~ is compared as n / d, exactly, whatever the caller's
    decimal context.  A refusal raises :class:`IntegralityError`.
    """
    bits = check_precision(precision)
    while error >> (bits - 8):
        bits <<= 1
    for second in (False, True):
        try:
            total = compute(bits)
        except Overflow:
            raise IntegralityError("Infinity", math.inf, bits,
                                   "past the decimal exponent range, so over MAX_BITS") from None
        residual = 0.0  # a sum whose exponent is above bits is an integer
        if total.as_tuple().exponent <= bits:  # else |S~| > 2^bits, r > 1
            n, d = total.as_integer_ratio()
            value = (2 * n + d) // (2 * d)  # n / d, rounded half up
            distance, room = abs(n - value * d), (1 << bits) - error
            residual = distance / d  # correctly rounded
            reach = error * abs(n)  # r = reach / (d room)
            if 2 * reach < d * room:
                if distance * room <= reach:
                    return value, residual, bits
                failed = f"farther from an integer than its bound, {reach / (d * room):.3e}"
                break
        if second:
            failed = "its bound violated: too large for the precision sized from the first pass"
            break
        log2 = math.log2(error) + float(Context(prec=17).log10(total.copy_abs())) / math.log10(2)
        bits <<= 1
        while bits < log2 + 2:  # K |S~| 2^-bits > 1/4
            bits <<= 1
        if bits > MAX_BITS:
            failed = f"needs {bits} bits, over MAX_BITS = {MAX_BITS}"
            break
    raw_value = f"{Context(prec=30, Emax=MAX_EMAX).plus(total):g}"
    raise IntegralityError(raw_value, residual, bits, failed)
