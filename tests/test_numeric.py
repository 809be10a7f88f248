from decimal import Decimal, Overflow
from fractions import Fraction

import pytest

from verlinde.numeric import (
    MAX_BITS,
    MAX_PRECISION,
    IntegralityError,
    certify_integer,
    check_precision,
    four_sin_sq,
    _sine_table,
)

from helpers import as_fraction, integrality_tolerance, sine_within_its_bound

NUMBERS = (Decimal,)  # what the engine and the SO oracle sum in


def test_four_sin_sq_known_values():
    assert four_sin_sq(Fraction(1, 6), 96) == 1  # within 2^-96 of 1, so rounded to 1
    assert four_sin_sq(Fraction(1, 2), 96) == 4
    assert abs(four_sin_sq(Fraction(1, 4), 96) - 2) < Decimal("1e-25")
    assert abs(four_sin_sq(Fraction(1, 3), 96) - 3) < Decimal("1e-25")


@pytest.mark.parametrize("bits", [64, 192, 640, 3000, 14400])
def test_every_table_value_is_within_its_stated_bound(bits):
    for D in (2, 3, 12, 24, 26, 42, 200, 400):
        table = _sine_table(D, bits)
        assert len(table) == D // 2 + 1 and table[0] == 0
        for j in range(1, D // 2 + 1):
            assert sine_within_its_bound(table[j], Fraction(j, D), bits), (D, j)


def test_four_sin_sq_reduces_mod_one():
    a = four_sin_sq(Fraction(1, 7), 96)
    b = four_sin_sq(Fraction(8, 7), 96)
    c = four_sin_sq(Fraction(-6, 7), 96)
    assert a == b == c


def test_four_sin_sq_rejects_integers():
    for x in (Fraction(0), Fraction(3), Fraction(-2)):
        with pytest.raises(ValueError, match="zero trigonometric factor"):
            four_sin_sq(x, 96)


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
    """2^65536 needs more than the largest request: the second pass runs at
    twice it."""
    for number in NUMBERS:
        raw = number(2**MAX_PRECISION)
        value, residual, bits = certify_integer(lambda p: raw, MAX_PRECISION, 8)
        assert (value, bits, residual) == (2**MAX_PRECISION, 2 * MAX_PRECISION, 0.0)
        with pytest.raises(ValueError, match=f"<= {MAX_PRECISION}"):
            certify_integer(lambda p: raw, MAX_PRECISION + 1, 8)


def test_certify_accepts_clean_integer():
    for number in NUMBERS:
        value, residual, bits = certify_integer(
            lambda p: number(12), 192, 8
        )
        assert (value, bits) == (12, 192)
        assert residual == 0.0


def test_certify_escalates_precision():
    """3^200 (317 bits) is beyond 192 bits whatever the sum: the second
    pass runs at the least 192 << k with K |sum| 2^-bits <= 1/4, 384."""
    for number in NUMBERS:
        calls = []

        def compute(bits):
            calls.append(bits)
            return number(f"{3**200}.5" if bits == 192 else f"{3**200}.{'0' * 24}1")

        value, residual, bits = certify_integer(compute, 192, 8)
        assert (value, bits, calls) == (3**200, 384, [192, 384])
        assert residual == 1e-25


def test_certify_escalates_until_the_value_has_headroom():
    for number in NUMBERS:
        # 2^200 is an exact float, but 192 bits leave no room beyond its 201
        value, residual, bits = certify_integer(lambda p: number(2**200), 192, 8)
        assert value == 2**200
        assert bits == 384


def test_certify_gives_up_after_three_doublings():
    """2^400 + 1/2 at every precision: from 64 bits the second pass is sized
    at 64 << 3 = 512, where the bound leaves a radius far below the residual
    of 1/2.  ``compute`` runs twice, and the sum is refused, not rounded."""
    for number in NUMBERS:
        calls = []

        def compute(bits):
            calls.append(bits)
            return number(f"{2**400}.5")

        with pytest.raises(IntegralityError, match="farther from an integer") as info:
            certify_integer(compute, 64, 8)
        assert calls == [64, 512]
        assert info.value.precision_bits == 512
        assert info.value.residual == 0.5


@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("fraction,rounded", [("25", 0), ("75", 1)])
def test_certify_rounds_past_the_float_range_exactly(number, fraction, rounded):
    whole = 3**700  # 1110 bits: float(whole) overflows
    raw = number(f"{whole}.{fraction}")
    # K = 2^89 makes the radius r = K |raw| / (2^1200 - K) about 0.35
    value, residual, bits = certify_integer(lambda p: raw, 1200, 2**89)
    assert (value, residual, bits) == (whole + rounded, 0.25, 1200)


@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("text", ["7.000000000000000000000000000000000000000123",
                                  "6.9999999999999999999999999999999999999999997",
                                  "123456789012345678901234567.0000000001"])
def test_the_residual_is_the_exact_distance(number, text):
    raw = number(text)
    # K = 2^80 covers each distance: r = K |raw| / (2^192 - K) >= 1.3e-33
    value, residual, _ = certify_integer(lambda p: raw, 192, 2**80)
    assert value == round(as_fraction(raw))
    assert residual == float(abs(as_fraction(raw) - value))


@pytest.mark.parametrize("number", NUMBERS)
def test_the_error_names_the_failed_condition_in_30_digits(number):
    with pytest.raises(IntegralityError, match="farther from an integer than its bound") as info:
        certify_integer(lambda p: number("0.5"), 192, 8)
    assert info.value.raw_value == "0.5"
    # 10^200000 is an integer of 664,386 bits: it needs 192 << 12 bits,
    # past MAX_BITS, and is refused after one pass
    calls = []

    def compute(bits):
        calls.append(bits)
        return number("1e200000")

    reason = f"needs 786432 bits, over MAX_BITS = {MAX_BITS}"
    with pytest.raises(IntegralityError, match=reason) as info:
        certify_integer(compute, 192, 8)
    assert calls == [192]
    assert info.value.raw_value == "1e+200000"
    assert (info.value.residual, info.value.precision_bits) == (0.0, 786432)


@pytest.mark.parametrize("number", NUMBERS)
def test_a_sum_beyond_its_bound_is_refused_not_rounded(number):
    """A sum farther from every integer than its stated bound allows, or
    larger at the second pass than the first pass allowed, is refused: no
    integer is returned for it."""
    with pytest.raises(IntegralityError, match="farther from an integer than its bound") as info:
        certify_integer(lambda p: number("7.25"), 192, 2**100)
    assert (info.value.raw_value, info.value.residual, info.value.precision_bits) == (
        "7.25", 0.25, 192)
    with pytest.raises(IntegralityError, match="its bound violated") as info:
        certify_integer(lambda p: number(2**200 if p == 192 else 2**1000), 192, 8)
    assert info.value.precision_bits == 384


def test_an_overflowing_sum_is_refused():
    def compute(bits):
        raise Overflow("above Emax")

    with pytest.raises(IntegralityError, match="past the decimal exponent range") as info:
        certify_integer(compute, 192, 8)
    assert (info.value.raw_value, info.value.precision_bits) == ("Infinity", 192)


def test_a_large_bound_raises_the_first_pass():
    """The first pass runs at the least precision << k with K 2^-bits below
    2^-8: K = 2^56 is too large for 64 bits, not for 128."""
    calls = []

    def compute(bits):
        calls.append(bits)
        return Decimal(5)

    assert certify_integer(compute, 64, 2**55) == (5, 0.0, 64)
    assert certify_integer(compute, 64, 2**56) == (5, 0.0, 128)
    assert calls == [64, 128]
