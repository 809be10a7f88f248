"""Arbitrary-precision evaluation and integer certification.

All trigonometric sums in this package are known in advance to be integers;
they are evaluated at a caller-chosen precision of ``bits`` (default 192)
and rounded, and the rounding residual is kept as an audit trail.  The
engine's products and sums (:mod:`verlinde.formula`) are decimal arithmetic
at P = ceil(bits log10 2) + 1 digits, each operation correctly rounded
within 10^(1-P) / 2 <= 2^-(bits+1), relative; their stated error bounds are
in ``formula._products`` and ``formula._kernel``.  The sines and the SO
oracle stay on mpmath; certification rounds either's number exactly.

A rounding is accepted only when the residual is within the integrality
tolerance and the working precision has HEADROOM_BITS to spare beyond the
value's bit length (below that, the float may not resolve the integer at
all); otherwise the precision is doubled, up to three times, before giving
up.

Every sum is a product of factors 4 sin^2(pi x) whose arguments x come
from a small set per root system and level (fewer than 2(l+h) values mod 1),
so :func:`four_sin_sq` keeps a per-process sine table: a bounded LRU keyed
by the argument reduced mod 1 and the working precision.  mpmath's
``sinpi`` is a deterministic function of those two, so a value read from
the table is bit-identical to a fresh one, and a value computed at one
precision is never served at another.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple, Union

import mpmath
from mpmath.libmp import to_rational

DEFAULT_PRECISION = 192
MIN_PRECISION = 64
# The largest precision a caller may request.  With mpmath's pure-Python
# backend the time of a sum grows about fourfold per doubling of the
# precision: n_so(5, 2) takes 0.23 s at 2^14 bits, 3.5 s at 2^16, 50 s at
# 2^18 and 13 min at 2^20, and a larger group evaluates more distinct sines.
# The cap bounds only the request: certification may still double it three
# times, to 2^19 bits.  2^16 bits resolve values up to 2^65504.
MAX_PRECISION = 2**16
MAX_ESCALATIONS = 3
HEADROOM_BITS = 32
# Entries of the sine table (see ``four_sin_sq``).  One root system and
# level needs fewer than 2(l+h) arguments per precision, and the default
# suite reads fewer than 100 (argument, precision) pairs; the bound leaves
# room for sweeps over many levels and precisions while capping the table
# at about 2 MB.
SINE_TABLE_SIZE = 4096


class IntegralityError(ArithmeticError):
    """A sum failed to certify as an integer at the maximum precision."""

    def __init__(self, raw_value: str, residual: float, precision_bits: int, reason: str):
        self.raw_value = raw_value
        self.residual = residual
        self.precision_bits = precision_bits
        super().__init__(f"{raw_value}: {reason} ({precision_bits} bits, residual {residual:.3e})")


@dataclass(frozen=True)
class VerlindeResult:
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


def integrality_tolerance(value: int) -> float:
    """max(1e-9 |value|, 1e-30), capped below the rounding ambiguity at 0.4.

    Values of 64 bits or more are past the cap; they are not converted to
    float, which overflows from 2^1024 on.
    """
    if abs(value).bit_length() >= 64:
        return 0.4
    return min(max(1e-9 * abs(value), 1e-30), 0.4)


def four_sin_sq(x: Fraction) -> mpmath.mpf:
    """4 sin^2(pi x) for exact rational x, at the ambient working precision.

    The argument is reduced mod 1 exactly before any floating point; an
    integer argument would give a zero factor and is rejected.  Values are
    read from the sine table, keyed by the reduced argument (as its
    numerator and denominator in lowest terms) and ``mpmath.mp.prec``.
    """
    numerator = x.numerator % x.denominator
    if numerator == 0:
        raise ValueError(f"zero trigonometric factor: sin(pi * {x}) = 0")
    return _sine_table(numerator, x.denominator, mpmath.mp.prec)


@lru_cache(maxsize=SINE_TABLE_SIZE)
def _sine_table(numerator: int, denominator: int, prec: int) -> mpmath.mpf:
    """4 sin^2(pi numerator / denominator), computed at ``prec`` bits (the
    ambient precision of the caller of ``four_sin_sq``)."""
    y = mpmath.sinpi(mpmath.mpf(numerator) / denominator)
    return 4 * y * y


def certify_integer(
    compute: Callable[[int], Union[Decimal, mpmath.mpf]], precision: int
) -> Tuple[int, float, int]:
    """Round ``compute(bits)``, a Decimal or an mpf, doubling ``bits`` from
    ``precision`` while the rounding is refused (see above).

    The number is rounded as its exact ratio n / d, so neither the caller's
    decimal context nor mpmath's precision enters; the residual is the float
    of its distance from the integer.  Returns ``(value, residual,
    bits_used)``; ``compute`` must be a pure function of the precision.
    After three doublings :class:`IntegralityError` names the failed check.
    """
    base = check_precision(precision)
    for bits in (base << k for k in range(MAX_ESCALATIONS + 1)):
        raw = compute(bits)
        n, d = raw.as_integer_ratio() if isinstance(raw, Decimal) else to_rational(raw._mpf_)
        value = (2 * n + d) // (2 * d)  # n / d, rounded half up
        residual = abs(n - value * d) / d  # correctly rounded
        if residual >= integrality_tolerance(value):
            failed = "residual over tolerance"
        elif bits - abs(value).bit_length() < HEADROOM_BITS:
            failed = f"headroom below HEADROOM_BITS = {HEADROOM_BITS} bits"
        else:
            return value, residual, bits
    raw_value = f"{Context(prec=30, Emax=MAX_EMAX).divide(n, d):g}"
    raise IntegralityError(raw_value, residual, bits, failed)
