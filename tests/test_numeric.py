from decimal import Decimal
from fractions import Fraction

import pytest

from verlinde.numeric import (
    MAX_PRECISION,
    IntegralityError,
    certify_integer,
    check_precision,
    four_sin_sq,
    integrality_tolerance,
    _sine_table,
)

from helpers import as_fraction, sine_within_its_bound

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
    for number in NUMBERS:
        def compute(bits):
            return number(7) + (number("0.25") if bits == MAX_PRECISION else 0)

        value, residual, bits = certify_integer(compute, MAX_PRECISION)
        assert (value, bits, residual) == (7, 2 * MAX_PRECISION, 0.0)
        with pytest.raises(ValueError, match=f"<= {MAX_PRECISION}"):
            certify_integer(compute, MAX_PRECISION + 1)


def test_certify_accepts_clean_integer():
    for number in NUMBERS:
        value, residual, bits = certify_integer(
            lambda p: number(12), 192
        )
        assert (value, bits) == (12, 192)
        assert residual == 0.0


def test_certify_escalates_precision():
    for number in NUMBERS:
        def compute(bits):
            return number(7) + (number("0.25") if bits == 192 else number("1e-40"))

        value, residual, bits = certify_integer(compute, 192)
        assert value == 7
        assert bits == 384
        assert residual < 1e-30


def test_certify_escalates_until_the_value_has_headroom():
    for number in NUMBERS:
        # 2^200 is an exact float, but 192 bits leave no room beyond its 201
        value, residual, bits = certify_integer(lambda p: number(2**200), 192)
        assert value == 2**200
        assert bits == 384


def test_certify_gives_up_after_three_doublings():
    for number in NUMBERS:
        calls = []

        def compute(bits):
            calls.append(bits)
            return number("0.5")

        with pytest.raises(IntegralityError) as info:
            certify_integer(compute, 192)
        assert calls == [192, 384, 768, 1536]
        assert info.value.precision_bits == 1536
        assert info.value.residual == 0.5


@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("fraction,rounded", [("25", 0), ("75", 1)])
def test_certify_rounds_past_the_float_range_exactly(number, fraction, rounded):
    whole = 3**700  # 1110 bits: float(whole) overflows
    raw = number(f"{whole}.{fraction}")
    value, residual, bits = certify_integer(lambda p: raw, 1200)
    assert (value, residual, bits) == (whole + rounded, 0.25, 1200)


@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("text", ["7.000000000000000000000000000000000000000123",
                                  "6.9999999999999999999999999999999999999999997",
                                  "123456789012345678901234567.0000000001"])
def test_the_residual_is_the_exact_distance(number, text):
    raw = number(text)
    value, residual, _ = certify_integer(lambda p: raw, 192)
    assert value == round(as_fraction(raw))
    assert residual == float(abs(as_fraction(raw) - value))


@pytest.mark.parametrize("number", NUMBERS)
def test_the_error_names_the_failed_condition_in_30_digits(number):
    with pytest.raises(IntegralityError, match="residual over tolerance") as info:
        certify_integer(lambda p: number("0.5"), 192)
    assert info.value.raw_value == "0.5"
    # 2^2000 is an integer, but no precision up to 1536 bits has headroom for it
    with pytest.raises(IntegralityError, match="headroom below HEADROOM_BITS") as info:
        certify_integer(lambda p: number(str(2**2000)), 192)
    assert info.value.raw_value == "1.14813069527425452423283320118e+602"
    assert (info.value.residual, info.value.precision_bits) == (0.0, 1536)
