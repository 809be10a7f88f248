from fractions import Fraction

import mpmath
import pytest

from verlinde.numeric import (
    MAX_PRECISION,
    IntegralityError,
    certify_integer,
    check_precision,
    four_sin_sq,
    integrality_tolerance,
)


def test_four_sin_sq_known_values():
    with mpmath.workprec(96):
        assert four_sin_sq(Fraction(1, 6)) == 1  # sin(pi/6) is exact in binary
        assert four_sin_sq(Fraction(1, 2)) == 4
        assert abs(four_sin_sq(Fraction(1, 4)) - 2) < mpmath.mpf("1e-25")
        assert abs(four_sin_sq(Fraction(1, 3)) - 3) < mpmath.mpf("1e-25")


def test_four_sin_sq_reduces_mod_one():
    with mpmath.workprec(96):
        a = four_sin_sq(Fraction(1, 7))
        b = four_sin_sq(Fraction(8, 7))
        c = four_sin_sq(Fraction(-6, 7))
    assert a == b == c


def test_four_sin_sq_rejects_integers():
    with mpmath.workprec(96):
        for x in (Fraction(0), Fraction(3), Fraction(-2)):
            with pytest.raises(ValueError, match="zero trigonometric factor"):
                four_sin_sq(x)


def test_tolerance_of_values_beyond_float_range():
    assert integrality_tolerance(2**1100) == 0.4
    assert integrality_tolerance(-(2**1100)) == 0.4
    assert integrality_tolerance(2**64) == 0.4


def test_tolerance_shape():
    assert integrality_tolerance(0) == 1e-30
    assert integrality_tolerance(10**6) == pytest.approx(1e-3)
    assert integrality_tolerance(10**12) == 0.4  # capped
    assert integrality_tolerance(-(10**6)) == pytest.approx(1e-3)


def test_check_precision_lower_bound():
    assert check_precision(64) == 64
    with pytest.raises(ValueError, match=">= 64"):
        check_precision(53)


def test_check_precision_upper_bound():
    assert check_precision(MAX_PRECISION) == MAX_PRECISION
    with pytest.raises(ValueError, match=f"<= {MAX_PRECISION}"):
        check_precision(MAX_PRECISION + 1)


def test_escalations_may_pass_the_precision_cap():
    def compute(bits):
        return mpmath.mpf(7) + (mpmath.mpf("0.25") if bits == MAX_PRECISION else 0)

    raw, value, residual, bits = certify_integer(compute, MAX_PRECISION)
    assert (value, bits, residual) == (7, 2 * MAX_PRECISION, 0.0)
    with pytest.raises(ValueError, match=f"<= {MAX_PRECISION}"):
        certify_integer(compute, MAX_PRECISION + 1)


def test_certify_accepts_clean_integer():
    raw, value, residual, bits = certify_integer(
        lambda p: mpmath.mpf(12), 192
    )
    assert (value, bits) == (12, 192)
    assert residual == 0.0


def test_certify_escalates_precision():
    def compute(bits):
        return mpmath.mpf(7) + (mpmath.mpf("0.25") if bits == 192 else mpmath.mpf("1e-40"))

    raw, value, residual, bits = certify_integer(compute, 192)
    assert value == 7
    assert bits == 384
    assert residual < 1e-30


def test_certify_escalates_until_the_value_has_headroom():
    # 2^200 is an exact float, but 192 bits leave no room beyond its 201
    raw, value, residual, bits = certify_integer(lambda p: mpmath.mpf(2**200), 192)
    assert value == 2**200
    assert bits == 384


def test_certify_gives_up_after_three_doublings():
    calls = []

    def compute(bits):
        calls.append(bits)
        return mpmath.mpf("0.5")

    with pytest.raises(IntegralityError) as info:
        certify_integer(compute, 192)
    assert calls == [192, 384, 768, 1536]
    assert info.value.precision_bits == 1536
    assert info.value.residual == 0.5
