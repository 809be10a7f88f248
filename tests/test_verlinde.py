import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import helpers
import verlinde.cli as cli
import verlinde.formula as formula
from verlinde.formula import (
    DYNKIN_INDEX,
    _berlekamp_massey,
    _kernel,
    _products,
    _sum_of,
    _terms,
    delta,
    n_so,
    n_sp,
    theta_dim,
    torus_order,
    torus_order_oracle_certified,
    verlinde_product_quotient,
    verlinde_quotient,
    verlinde_sc,
)
from verlinde.numeric import DEFAULT_PRECISION, MAX_PRECISION, IntegralityError
from verlinde.rootsys import MIN_RANK, GroupType, build_root_system, root_system, weight_from_marks
from verlinde.weights import CenterSpec

from helpers import (
    as_fraction,
    center_act,
    distance,
    enumerate_level_weights,
    enumerate_product_weights,
    float_layer_bounds,
    orbit_decompose,
    reference_kernel,
    reference_products,
    reference_terms,
    relative_error,
    restrict_to_quotient,
    sorted_terms,
)

A1 = root_system("A", 1)


def a1_weight(n):
    return weight_from_marks(A1, (n,))


# --- delta -------------------------------------------------------------------


def test_delta_a1_level_four():
    # shifted level 6: arguments (n+1)/6 give 4 sin^2 values 1, 3, 4, 3, 1
    expected = [1, 3, 4, 3, 1]
    for n, want in enumerate(expected):
        assert distance(delta(A1, 4, a1_weight(n)), want) < Fraction(1, 10**40)


def test_delta_a1_level_two():
    assert delta(A1, 2, a1_weight(1)) == 4


def test_delta_rejects_weights_outside_the_alcove():
    """(3,) lies on an alcove wall, where a sine vanishes; no sine vanishes
    at the others ((5,) has the Delta of (1,)), so only the marks show
    that they lie outside P_l."""
    for family, rank, level, n in [
        ("A", 1, 2, (3,)), ("A", 1, 2, (5,)), ("A", 1, 2, (-2,)),
        ("A", 2, 2, (3, 1)), ("A", 2, 2, (-2, 1)),
    ]:
        rs = root_system(family, rank)
        with pytest.raises(ValueError, match=f"not a level-{level} weight"):
            delta(rs, level, weight_from_marks(rs, n))


def test_delta_positive_on_all_level_weights():
    for family, rank, level in [("A", 2, 3), ("B", 2, 2), ("C", 2, 2), ("D", 4, 2)]:
        rs = root_system(family, rank)
        for n in enumerate_level_weights(rs, level):
            assert delta(rs, level, weight_from_marks(rs, n)) > 0


def test_delta_is_invariant_under_the_center_action():
    for family, spec, rank in [
        ("D", CenterSpec.SO_EVEN, 4),
        ("D", CenterSpec.SO_EVEN, 5),
        ("B", CenterSpec.SO_ODD, 3),
    ]:
        rs = root_system(family, rank)
        for level in (2, 3):
            kept = restrict_to_quotient(enumerate_level_weights(rs, level), spec, (rs, level))
            for lam in (weight_from_marks(rs, n) for n in kept):
                image = center_act(spec, lam, (rs, level))
                assert distance(delta(rs, level, lam), delta(rs, level, image)) < Fraction(
                    1, 10**40
                )


# --- the merged spectrum -------------------------------------------------------


@pytest.mark.parametrize(
    "family,rank,level,spec",
    [
        ("A", 1, 4, CenterSpec.SO3),
        ("A", 1, 6, CenterSpec.TRIVIAL),
        ("A", 3, 4, CenterSpec.TRIVIAL),
        ("B", 3, 3, CenterSpec.SO_ODD),
        ("B", 4, 2, CenterSpec.TRIVIAL),
        ("C", 3, 3, CenterSpec.TRIVIAL),
        ("D", 4, 3, CenterSpec.SO_EVEN),
        ("D", 5, 2, CenterSpec.SO_EVEN),
    ],
)
def test_spectrum_counts_cover_the_quotient_weights(family, rank, level, spec):
    rs = root_system(family, rank)
    factors = ((rs, level),)
    kept = restrict_to_quotient(enumerate_level_weights(rs, level), spec, factors)
    spectrum = _terms(factors, spec)
    assert sum(count * m for count, m, _ in spectrum.terms) == len(kept)
    orbits = orbit_decompose(kept, spec, factors)
    assert sum(count for count, _, _ in spectrum.terms) == len(orbits)
    assert spectrum.denominator == 2 * (level + rs.dual_coxeter)
    for _, _, numerators in sorted_terms(spectrum)[1]:
        assert len(numerators) == len(rs.positive_roots)
        assert all(0 < 2 * j <= spectrum.denominator for j in numerators)


@pytest.mark.parametrize(
    "levels,spec",
    [((2, 2), CenterSpec.SO4_DIAGONAL), ((4, 2), CenterSpec.SO4_DIAGONAL),
     ((2, 3), CenterSpec.TRIVIAL)],
)
def test_product_spectrum_counts_cover_the_quotient_weights(levels, spec):
    factors = tuple((A1, lvl) for lvl in levels)
    kept = restrict_to_quotient(enumerate_product_weights(factors), spec, factors)
    spectrum = _terms(factors, spec)
    assert sum(count * m for count, m, _ in spectrum.terms) == len(kept)
    assert spectrum.denominator == math.lcm(*(2 * (lvl + 2) for lvl in levels))


@pytest.mark.parametrize(
    "family,rank,level,weights,distinct",
    [("C", 6, 6, 924, 472), ("A", 4, 10, 1001, 106)],
)
def test_spectrum_merges_weights_with_equal_delta(family, rank, level, weights, distinct):
    rs = root_system(family, rank)
    spectrum = _terms(((rs, level),), CenterSpec.TRIVIAL)
    assert sum(count for count, _, _ in spectrum.terms) == weights
    assert len(spectrum.terms) == distinct
    assert verlinde_sc(rs, level, 2).term_count == weights


def test_an_action_that_leaves_the_level_set_is_caught(monkeypatch):
    """The reference's orbit_decompose checks each image: here a broken
    action that raises the last mark of D4 by 2 leaves level 2.  The exact
    pass walks the family rule and never reads the action, so its spectrum
    is unchanged."""
    rs = root_system("D", 4)
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), CenterSpec.SO_EVEN, (rs, 2))
    spectrum = _terms(((rs, 2),), CenterSpec.SO_EVEN)
    monkeypatch.setattr(helpers, "center_act_marks", lambda spec, n, f: n[:-1] + (n[-1] + 2,))
    with pytest.raises(AssertionError, match="left the level set"):
        orbit_decompose(kept, CenterSpec.SO_EVEN, (rs, 2))
    assert _terms(((rs, 2),), CenterSpec.SO_EVEN) == spectrum


def _exact_pass_cases():
    """(id, weight set, center subgroup) for every family from its minimum
    rank to rank 6 at levels 0-4, the B and D SO quotients, A1 with SO3 at
    even levels, SO(4) products at equal-parity levels up to 6, and two
    products of factors of different ranks."""
    cases = []
    for family, lo in MIN_RANK.items():
        for rank in range(lo, 7):
            for level in range(5):
                cases.append((family, rank, level, CenterSpec.TRIVIAL))
    for family, spec, lo in (("B", CenterSpec.SO_ODD, 2), ("D", CenterSpec.SO_EVEN, 3)):
        for rank in range(lo, 7):
            for level in range(5):
                cases.append((family, rank, level, spec))
    cases += [("A", 1, level, CenterSpec.SO3) for level in range(0, 9, 2)]
    cases += [
        ("A1xA1", "", (a, b), spec)
        for a in range(7)
        for b in range(a % 2, 7, 2)
        for spec in (CenterSpec.TRIVIAL, CenterSpec.SO4_DIAGONAL)
    ]
    cases += [
        ("A1xB2", "", (2, 1), CenterSpec.TRIVIAL),
        ("C2xA2", "", (2, 3), CenterSpec.TRIVIAL),
    ]
    return [
        pytest.param(f, r, lvl, spec, id=f"{f}{r}-{_levels(lvl)}-{spec.value}")
        for f, r, lvl, spec in cases
    ]


def _levels(level):
    return ",".join(map(str, level)) if isinstance(level, tuple) else str(level)


def _factors(family, rank, level):
    """``(rs, level)`` per factor; a product's family names its factors,
    as in "A1xB2", and its level is a tuple."""
    if isinstance(level, tuple):
        names = family.split("x")
        return tuple((root_system(f[0], int(f[1:])), lvl) for f, lvl in zip(names, level))
    return ((root_system(family, rank), level),)


@pytest.mark.parametrize("family,rank,level,spec", _exact_pass_cases())
def test_exact_pass_equals_the_per_weight_reference(family, rank, level, spec):
    factors = _factors(family, rank, level)
    assert sorted_terms(_terms(factors, spec)) == reference_terms(factors, spec)


@pytest.mark.parametrize(
    "factors",
    [(("A", 5, 6),), (("A", 3, 4),), (("C", 4, 4),), (("C", 5, 4),), (("B", 4, 4),),
     (("D", 5, 4),), (("D", 6, 4),), (("A", 2, 3), ("C", 2, 2))],
    ids=lambda factors: "x".join(f"{f}{r}-{level}" for f, r, level in factors),
)
def test_center_orbits_of_every_size_count_every_weight(factors):
    """Under the trivial spec the walk visits one member of each center
    orbit.  On keys whose orbits take every size of their rule (periods 1,
    2, 3 and 6 for A5 at level 6, palindromes with n_s = n_0 for C4 and C5,
    ties of both pairs for D, and a product), the spectrum is the per-weight
    reference, and its counts add up to |P_l|: binomial(l + s, s) for A and
    C."""
    factors = tuple((root_system(f, r), level) for f, r, level in factors)
    P = enumerate_product_weights(factors)
    spectrum = _terms(factors, CenterSpec.TRIVIAL)
    assert sorted_terms(spectrum) == reference_terms(factors, CenterSpec.TRIVIAL)
    assert sum(count * m for count, m, _ in spectrum.terms) == len(P)
    if all(rs.family in "AC" for rs, _ in factors):
        assert len(P) == math.prod(math.comb(lvl + rs.rank, rs.rank) for rs, lvl in factors)


@pytest.mark.parametrize("family,rank,level,spec", _exact_pass_cases())
def test_deltas_equal_the_left_fold_in_numerator_order(family, rank, level, spec):
    """Each Delta, the product of its term's sines in numerator order, lies
    within the stated 2R eps of the product of the same table sines at
    bits + 64, relative; that bound is no looser than the R roundings of a
    binary left fold at ``bits``."""
    factors = _factors(family, rank, level)
    spectrum = _terms(factors, spec)
    R = spectrum.roots
    for bits in (64, 192, 640):
        bound, _ = float_layer_bounds(spectrum, 0, bits)
        assert bound <= Fraction(R, 2**bits)
        deltas = _products(spectrum, factors, bits)
        reference = reference_products(spectrum, factors, bits)
        assert len(deltas) == len(reference)
        assert max(map(relative_error, deltas, reference)) <= bound, bits


@pytest.mark.parametrize("family,rank,level,spec", _exact_pass_cases())
def test_kernel_equals_the_operator_form_reference(family, rank, level, spec):
    """The kernel lies within its stated (2R |g-1| + N + 7) eps of the mpf
    operator form at bits + 64 over the reference Deltas, relative."""
    factors = _factors(family, rank, level)
    key = (tuple((rs.group_type, lvl) for rs, lvl in factors), spec)
    entry = _sum_of(key)
    spectrum, T = entry.spectrum, entry.T  # the spectrum and T that the engine sums
    assert spectrum == _terms(factors, spec)
    gamma_order = 1 if spec is CenterSpec.TRIVIAL else 2
    for bits in (64, 192, 640):
        deltas = _products(spectrum, factors, bits)
        reference = reference_products(spectrum, factors, bits)
        for genus in (0, 1, 2, 7):
            got = _kernel(spectrum, deltas, T, genus, gamma_order, bits)
            want = reference_kernel(spectrum, reference, T, genus, gamma_order, bits + 64)
            _, bound = float_layer_bounds(spectrum, genus, bits)
            assert relative_error(got, want) <= bound, (bits, genus)



_LAYOUTS = [
    ((("C", 6, 6),), CenterSpec.TRIVIAL, 8),  # R = 36 > D/2 = 13
    ((("C", 5, 5),), CenterSpec.TRIVIAL, 8),  # 25 > 11
    ((("D", 6, 2),), CenterSpec.SO_EVEN, 8),  # 30 > 12
    ((("D", 4, 0),), CenterSpec.TRIVIAL, 8),  # 12 > 6
    ((("D", 17, 1),), CenterSpec.TRIVIAL, 16),  # 272 > 33, and 272 >= 2^8
    ((("A", 4, 10),), CenterSpec.TRIVIAL, 0),  # 10 <= 15
    ((("A", 1, 300),), CenterSpec.TRIVIAL, 0),  # 1 <= 301
    ((("C", 2, 3),), CenterSpec.TRIVIAL, 0),  # 4 <= 6
    ((("A", 1, 299), ("A", 1, 300)), CenterSpec.TRIVIAL, 0),  # 2 <= 90,902
]


@pytest.mark.parametrize("factors,spec,width", _LAYOUTS, ids=[
    "x".join(f"{f}{r}-{lvl}" for f, r, lvl in factors) + f"-{spec.value}"
    for factors, spec, _ in _LAYOUTS])
def test_a_spectrum_counts_its_numerators_where_they_outnumber_their_values(
        factors, spec, width):
    """Where R > D/2 each key counts the numerators, in slots of 8 bits
    below R = 256 and 16 above; elsewhere it is the sorted numerators.  In
    both layouts the decoded terms are the per-weight reference, and each
    Delta is within the stated 2R eps of the reference product."""
    factors = tuple((root_system(f, r), level) for f, r, level in factors)
    spectrum = _terms(factors, spec)
    assert spectrum.width == width
    assert spectrum.roots == sum(len(rs.positive_roots) for rs, _ in factors)
    assert sorted_terms(spectrum) == reference_terms(factors, spec)
    for bits in (64, 192):
        bound, _ = float_layer_bounds(spectrum, 0, bits)
        deltas = _products(spectrum, factors, bits)
        reference = reference_products(spectrum, factors, bits)
        assert len(deltas) == len(reference)
        assert max(map(relative_error, deltas, reference)) <= bound, bits


@pytest.mark.parametrize("width", [8, 16, 32])
def test_the_deltas_of_counted_numerators_do_not_depend_on_the_slot_width(width):
    """The C6 level-6 keys, counted again here in slots of each width, give
    the engine's Deltas digit for digit."""
    factors = ((root_system("C", 6), 6),)
    spectrum = _terms(factors, CenterSpec.TRIVIAL)
    _, terms = sorted_terms(spectrum)
    recounted = spectrum._replace(width=width, terms=tuple(
        (c, m, sum(1 << width * j for j in js)) for c, m, js in terms))
    assert _products(recounted, factors, 192) == _products(spectrum, factors, 192)


@pytest.mark.parametrize("call,recurrent", [
    (lambda: n_so(12, 12), True),  # 1.1e-44 from the Decimal sum itself
    (lambda: n_so(12, 60), True),  # escalates to 384 bits
    (lambda: n_so(7, 5), False),
    (lambda: n_so(4, 10), True),
    (lambda: n_sp(2, 3, 30, 320), True),
], ids=["so12-g12", "so12-g60", "so7-g5", "so4-g10", "sp4-l3-g30"])
def test_the_residual_is_the_distance_of_the_kernel_sum(monkeypatch, call, recurrent):
    """The kernel hands certification its Decimal, and the residual is the
    float of that Decimal's exact distance from the value.  Where the
    default route takes the recurrence, it gives the same value, exact."""
    default = call()
    monkeypatch.setattr(formula, "RECURRENCE_MAX_TERMS", 0)
    sums = []

    def recorded(*args):
        sums.append(_kernel(*args))
        return sums[-1]

    monkeypatch.setattr(formula, "_kernel", recorded)
    res = call()
    assert isinstance(sums[-1], Decimal)
    assert res.residual == float(abs(Fraction(sums[-1]) - res.value))
    assert default.value == res.value
    assert default.residual == 0.0 if recurrent else default == res


# --- torus orders ------------------------------------------------------------


def test_torus_order_closed_forms():
    assert torus_order(A1, 4) == 12
    assert torus_order(A1, 2) == 8
    assert torus_order(A1, 1) == 6
    for s in (3, 4, 5, 6):
        assert torus_order(root_system("D", s), 2) == 4 * (2 * s) ** s
    for s in (2, 3, 4, 5, 6):
        assert torus_order(root_system("B", s), 2) == 4 * (2 * s + 1) ** s


def test_torus_oracle_matches_closed_form():
    cases = [("A", 1), ("A", 3), ("B", 2), ("B", 4), ("D", 4)]
    cases += [("C", rank) for rank in range(1, 9)]  # nu = 2^(rank-1)
    for family, rank in cases:
        rs = root_system(family, rank)
        for level in range(0, 5):
            value, residual = torus_order_oracle_certified(rs, level)
            assert value == torus_order(rs, level) and residual < 1e-20


def test_torus_oracle_a1_level_four_is_sum_of_deltas():
    assert torus_order_oracle_certified(A1, 4)[0] == 1 + 3 + 4 + 3 + 1


def test_torus_oracle_type_c_matches_b2_coincidence():
    # Spin(5) and Sp(4) are the same group; the two presentations must give
    # the same torus order at the same level.
    b2, c2 = root_system("B", 2), root_system("C", 2)
    for level in range(0, 4):
        assert torus_order_oracle_certified(c2, level)[0] == torus_order(b2, level)


def test_torus_oracle_c1_matches_a1():
    c1 = root_system("C", 1)
    for level in range(0, 5):
        assert torus_order_oracle_certified(c1, level)[0] == torus_order(A1, level)


# --- simply connected --------------------------------------------------------


@pytest.mark.parametrize("genus", range(2, 7))
def test_sl2_level_one_powers_of_two(genus):
    assert verlinde_sc(A1, 1, genus).value == 2**genus


def test_sl2_level_two_genus_two():
    res = verlinde_sc(A1, 2, 2)
    assert res.value == 10  # 8/2 + 8/4 + 8/2
    assert res.term_count == 3


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_level_zero_gives_one(family, rank):
    rs = root_system(family, rank)
    res = verlinde_sc(rs, 0, 3)
    assert res.value == 1
    assert res.term_count == 1


@pytest.mark.parametrize("level", [*range(61), 299, 1000, 3000])
def test_sl2_at_genus_two_is_a_binomial(level):
    """SU(2) at genus 2 and level k: binomial(k + 3, 3)."""
    assert verlinde_sc(A1, level, 2).value == math.comb(level + 3, 3)


@pytest.mark.parametrize("r,level", [(r, level) for r in range(1, 9) for level in range(9)])
def test_sp_at_genus_one_counts_its_level_weights(r, level):
    """Sp(2r) at genus 1 and level l: binomial(r + l, r), the number of its
    level weights, as every comark of C_r is 1."""
    assert n_sp(r, level, 1).value == math.comb(r + level, r)


def test_genus_one_counts_level_weights():
    for level in (1, 2, 3):
        P = enumerate_level_weights(A1, level)
        assert verlinde_sc(A1, level, 1).value == len(P)


def test_sc_requires_positive_genus():
    with pytest.raises(ValueError, match="genus"):
        verlinde_sc(A1, 2, 0)


def test_sc_term_count_is_weight_count():
    rs = root_system("D", 4)
    res = verlinde_sc(rs, 2, 2)
    assert res.term_count == len(enumerate_level_weights(rs, 2))


def test_spin6_matches_sl4():
    # Spin(6) and SL(4) are the same group; the D3 and A3 presentations
    # must give equal numbers at every level
    d3, a3 = root_system("D", 3), root_system("A", 3)
    for level in range(0, 4):
        for genus in (1, 2, 3):
            assert (
                verlinde_sc(d3, level, genus).value
                == verlinde_sc(a3, level, genus).value
            )


def test_spin5_matches_sp4():
    # Spin(5) and Sp(4): the B2 closed-form torus order meets the C2
    # oracle-supplied one through entirely different coordinates
    b2, c2 = root_system("B", 2), root_system("C", 2)
    for level in range(0, 4):
        for genus in (1, 2, 3):
            assert (
                verlinde_sc(b2, level, genus).value
                == verlinde_sc(c2, level, genus).value
            )


# --- center quotients --------------------------------------------------------


def test_so_even_example():
    assert verlinde_quotient(root_system("D", 4), 2, CenterSpec.SO_EVEN, 2).value == 64


def test_so_odd_example():
    assert verlinde_quotient(root_system("B", 3), 2, CenterSpec.SO_ODD, 3).value == 343


def test_so3_example():
    res = verlinde_quotient(A1, 4, CenterSpec.SO3, 2)
    assert res.value == 9
    assert res.term_count == 2


def test_trivial_quotient_equals_simply_connected():
    rs = root_system("B", 2)
    assert (
        verlinde_quotient(rs, 2, CenterSpec.TRIVIAL, 3).value
        == verlinde_sc(rs, 2, 3).value
    )


def test_quotient_orbit_weighting_by_hand():
    # genus 2, level 4, SO(3): 2 * (2^-3 * 12 + 3) = 9
    res = verlinde_quotient(A1, 4, CenterSpec.SO3, 2)
    assert res.value == 2 * (Fraction(12, 8) + 3) == 9


def test_quotient_at_level_zero():
    # single fixed orbit, unit ratio: the formula literally gives |Gamma|
    assert verlinde_quotient(root_system("D", 4), 0, CenterSpec.SO_EVEN, 3).value == 2


def test_so3_rejects_odd_level():
    with pytest.raises(ValueError, match="even level"):
        verlinde_quotient(A1, 3, CenterSpec.SO3, 2)


def test_quotient_rejects_mismatched_spec():
    with pytest.raises(ValueError, match="does not apply"):
        verlinde_quotient(root_system("D", 4), 2, CenterSpec.SO_ODD, 2)


# --- products ----------------------------------------------------------------


def test_so4_values():
    factors = ((A1, 2), (A1, 2))
    assert verlinde_product_quotient(factors, CenterSpec.SO4_DIAGONAL, 2).value == 16
    assert verlinde_product_quotient(factors, CenterSpec.SO4_DIAGONAL, 3).value == 64


def test_spin4_trivial_quotient_is_product_of_factors():
    factors = ((A1, 2), (A1, 2))
    res = verlinde_product_quotient(factors, CenterSpec.TRIVIAL, 2)
    assert res.value == verlinde_sc(A1, 2, 2).value ** 2 == 100
    assert res.term_count == 9
    b2 = root_system("B", 2)
    for factors in (((A1, 2), (b2, 1)), ((b2, 1), (A1, 2), (A1, 3))):
        for genus in (2, 3):
            res = verlinde_product_quotient(factors, CenterSpec.TRIVIAL, genus)
            parts = [verlinde_sc(rs, lvl, genus) for rs, lvl in factors]
            assert res.value == math.prod(p.value for p in parts)
            assert res.term_count == math.prod(p.term_count for p in parts)


def test_trivial_product_of_different_levels_at_high_genus():
    res = verlinde_product_quotient(((A1, 2), (A1, 3)), CenterSpec.TRIVIAL, 30)
    assert res.value == verlinde_sc(A1, 2, 30).value * verlinde_sc(A1, 3, 30).value


def test_product_levels_recorded_as_tuple():
    res = verlinde_product_quotient(((A1, 2), (A1, 2)), CenterSpec.SO4_DIAGONAL, 2)
    assert res.level == (2, 2)
    assert res.group_label == "SO(4)"


def test_one_factor_product_is_the_quotient():
    """Every entry point gives one group the same record, label and level
    included: the one-factor product, the quotient and, for the trivial
    spec, the simply connected call."""
    cases = [("A", 1, 4, CenterSpec.SO3, "SO(3)"), ("B", 3, 2, CenterSpec.SO_ODD, "SO(7)"),
             ("D", 4, 2, CenterSpec.SO_EVEN, "SO(8)"),
             ("A", 1, 3, CenterSpec.TRIVIAL, "A1 (simply connected)")]
    cases += [(family, rank, 3, CenterSpec.TRIVIAL, f"{family}{rank} (simply connected)")
              for family, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 4))]
    for family, rank, level, spec, label in cases:
        rs = root_system(family, rank)
        res = verlinde_product_quotient(((rs, level),), spec, 2)
        assert res == verlinde_quotient(rs, level, spec, 2)
        if spec is CenterSpec.TRIVIAL:
            assert res == verlinde_sc(rs, level, 2)
        assert (res.group_label, res.level, type(res.level)) == (label, level, int)


B2 = root_system("B", 2)
SUM_CALLS = {
    **{f"n_so-{r}": lambda g, p, r=r: n_so(r, g, p) for r in (3, 4, 5, 6)},
    "n_sp": lambda g, p: n_sp(2, 3, g, p),
    "verlinde_sc": lambda g, p: verlinde_sc(A1, 2, g, p),
    "verlinde_quotient": lambda g, p: verlinde_quotient(B2, 2, CenterSpec.SO_ODD, g, p),
    "product-1": lambda g, p: verlinde_product_quotient(((A1, 4),), CenterSpec.SO3, g, p),
    "product-2": lambda g, p: verlinde_product_quotient(
        ((A1, 2), (A1, 2)), CenterSpec.SO4_DIAGONAL, g, p),
}


@pytest.mark.parametrize("call", SUM_CALLS.values(), ids=SUM_CALLS.keys())
def test_every_sum_refuses_genus_then_precision_before_any_enumeration(call):
    """A bad genus is refused first, then a bad precision, and neither
    builds nor reads an entry of ``_sum_of``."""
    info = _sum_of.cache_info()
    for genus, precision, message in (
        (0, DEFAULT_PRECISION, "genus must be >= 1, got 0"),
        (2, 63, "precision must be >= 64 bits, got 63"),
        (2, MAX_PRECISION + 1,
         f"precision must be <= {MAX_PRECISION} bits, got {MAX_PRECISION + 1}"),
        (0, 63, "genus must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(genus, precision)
    assert _sum_of.cache_info() == info


BUILDING_CALLS = {
    "n_so-301": lambda g, p: n_so(301, g, p),
    "n_sp-120": lambda g, p: n_sp(120, 2, g, p),
    "compute-sc-A10": lambda g, p: cli._cmd_compute(cli._parse(
        f"compute --group sc --type A --rank 10 --level 50 --genus {g} --precision {p}".split())),
}


@pytest.mark.parametrize("call", BUILDING_CALLS.values(), ids=BUILDING_CALLS.keys())
def test_a_refused_genus_or_precision_builds_no_root_data(call):
    """The callers that build root data from a rank refuse a bad genus or
    precision first: a large group costs nothing to refuse."""
    info = build_root_system.cache_info()
    for genus, precision, message in (
        (0, DEFAULT_PRECISION, "genus must be >= 1, got 0"),
        (2, 63, "precision must be >= 64 bits, got 63"),
        (2, MAX_PRECISION + 1, f"precision must be <= {MAX_PRECISION} bits"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(genus, precision)
    assert build_root_system.cache_info() == info


def test_product_rejects_bad_factors():
    with pytest.raises(ValueError, match="two factors"):
        verlinde_product_quotient(((A1, 2),), CenterSpec.SO4_DIAGONAL, 2)
    with pytest.raises(ValueError, match="at least one factor"):
        verlinde_product_quotient((), CenterSpec.TRIVIAL, 2)


# --- dispatch, theta side, symplectic ----------------------------------------


def test_dynkin_index_table():
    assert DYNKIN_INDEX.so_standard_r_ge_5 == 2
    assert DYNKIN_INDEX.so3 == 4
    assert DYNKIN_INDEX.so4 == (2, 2)
    assert DYNKIN_INDEX.sp_standard == 1


def test_n_so_small_cases():
    assert n_so(3, 3).value == 27
    assert n_so(4, 2).value == 16
    assert n_so(9, 4).value == 6561
    assert n_so(10, 2).value == 100


def test_n_so_uses_level_four_for_so3():
    assert n_so(3, 2).level == 4


def test_n_so_labels_and_levels():
    for r in range(3, 9):
        res = n_so(r, 2)
        assert res.group_label == f"SO({r})"
        assert res.level == {3: 4, 4: (2, 2)}.get(r, 2)


def test_n_so_rejects_small_r():
    with pytest.raises(ValueError, match="r >= 3"):
        n_so(2, 2)


def test_n_so_genus_one_formula_evaluation():
    for r in range(3, 13):
        assert n_so(r, 1).value == r


def test_n_so_genus_six():
    for r in range(3, 13):
        assert n_so(r, 6).value == r**6


def test_n_so_big_genus_exceeds_machine_integers():
    assert n_so(12, 20).value == 12**20  # needs big integers
    # odd bases are not exact in 53 bits: any step of the sum that leaves
    # the working precision shows here
    assert n_so(7, 20).value == 7**20
    assert n_so(11, 25).value == 11**25


def test_n_so_values_beyond_the_working_precision_escalate(monkeypatch):
    """The kernel escalates; the default route takes the recurrence, and
    gives the same values, exact."""
    defaults = [n_so(12, 52), n_so(30, 60), n_so(7, 40, precision=64)]
    monkeypatch.setattr(formula, "RECURRENCE_MAX_TERMS", 0)
    assert n_so(12, 52).value == 12**52
    assert n_so(30, 60).value == 30**60
    # 7^40 is 113 bits: the second pass runs at the least 64 << k with
    # K |sum| 2^-bits <= 1/4, K = 2 * 9 * 39 + 4 + 8
    res = n_so(7, 40, precision=64)
    assert res.value == 7**40
    assert res.precision_bits == 128
    assert [d.value for d in defaults] == [12**52, 30**60, 7**40]
    assert all(d.residual == 0.0 for d in defaults)
    assert [d.precision_bits for d in defaults] == [192, 192, 64]  # the caller's


def test_berlekamp_massey_finds_the_shortest_recurrence():
    """``(q, a)`` with q s_n = a_1 s_(n-1) + ... + a_L s_(n-L)."""
    assert _berlekamp_massey([1, 1, 2, 3, 5, 8]) == (1, [1, 1])
    assert _berlekamp_massey([2**n + 3**n for n in range(1, 5)]) == (1, [5, -6])
    assert _berlekamp_massey([4, 2, 1]) == (2, [1])
    assert _berlekamp_massey([0, 0, 0]) == (1, [])


def test_a_step_of_the_recurrence_with_a_remainder_raises():
    """Each step divides by q exactly; a remainder can only be a fault.  A
    q above the step's sum leaves the whole sum as the remainder."""
    _sum_of.cache_clear()
    try:
        entry = _sum_of((((GroupType("C", 2), 3),), CenterSpec.TRIVIAL))
        assert formula._recurrent_value(entry, 10) == n_sp(2, 3, 10).value  # seeds the memo
        assert len(entry.memo) == 10  # K = 5
        entry.q = 10**100
        with pytest.raises(IntegralityError, match="N_11 of the recurrence"):
            n_sp(2, 3, 11)
    finally:
        _sum_of.cache_clear()


def test_n_sp_rank_one_is_sl2():
    for level in range(0, 7):
        for genus in (1, 2, 3, 4):
            assert n_sp(1, level, genus).value == verlinde_sc(A1, level, genus).value


def test_n_sp_duality_example():
    assert n_sp(1, 2, 2).value == 10
    assert n_sp(2, 1, 2).value == 10


def test_n_sp_label():
    assert n_sp(2, 1, 2).group_label == "Sp(4)"


def test_n_sp_rejects_bad_rank():
    with pytest.raises(ValueError, match="r >= 1"):
        n_sp(0, 1, 2)


@pytest.mark.parametrize("r,s,g", [(2, 3, 2), (3, 4, 3), (2, 4, 4)])
def test_sp_level_rank_symmetry(r, s, g):
    assert n_sp(r, s, g).value == n_sp(s, r, g).value


def test_theta_dim():
    assert theta_dim(3, 2) == 9
    assert theta_dim(1, 5) == 1
    assert theta_dim(7, 5) == 16807
    with pytest.raises(ValueError):
        theta_dim(0, 2)
    with pytest.raises(ValueError):
        theta_dim(3, 0)


# --- certification behaviour ---------------------------------------------------


def test_results_carry_small_residuals():
    for res in (n_so(8, 3), n_sp(2, 2, 2), verlinde_sc(A1, 3, 4)):
        assert res.residual < max(1e-9 * res.value, 1e-30)
        assert res.precision_bits == 192


def test_doubling_precision_is_stable():
    for compute in (
        lambda p: n_so(11, 4, precision=p),
        lambda p: n_sp(3, 2, 3, precision=p),
        lambda p: verlinde_product_quotient(
            ((A1, 2), (A1, 2)), CenterSpec.SO4_DIAGONAL, 4, precision=p
        ),
    ):
        assert compute(192).value == compute(384).value


def test_minimum_precision_enforced():
    with pytest.raises(ValueError, match=">= 64"):
        verlinde_sc(A1, 2, 2, precision=32)


def test_terms_exceed_largest_single_term():
    # strictly positive summands: the total beats every single term when
    # there is more than one weight
    rs = root_system("B", 2)
    level, genus = 2, 3
    P = enumerate_level_weights(rs, level)
    T = torus_order(rs, level)
    terms = [(T / delta(rs, level, weight_from_marks(rs, n))) ** (genus - 1) for n in P]
    total = verlinde_sc(rs, level, genus).value
    assert total > max(terms)


def test_quotient_value_independent_of_representative_choice():
    # recompute the SO(8) sum from the other orbit member for size-2 orbits
    rs = root_system("D", 4)
    spec = CenterSpec.SO_EVEN
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), spec, (rs, 2))
    orbits = orbit_decompose(kept, spec, (rs, 2))
    T = torus_order(rs, 2)
    genus = 3
    total = Fraction(0)
    for n, size in orbits:
        rep = weight_from_marks(rs, n)
        if size == 2:
            rep = center_act(spec, rep, (rs, 2))
        total += Fraction(size) ** (1 - 2 * genus) * (
            T / as_fraction(delta(rs, 2, rep))
        ) ** (genus - 1)
    value = round(2 * total)
    assert value == verlinde_quotient(rs, 2, spec, genus).value
