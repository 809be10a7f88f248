from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde.rootsys import marks, root_system, weight_from_marks
from verlinde import weights
from verlinde.weights import CenterSpec, u_coords

from helpers import (
    center_act,
    center_act_marks,
    enumerate_level_weights,
    enumerate_product_weights,
    fundamental_weights,
    is_dominant,
    is_quotient_weight,
    level_of,
    orbit_decompose,
    restrict_to_quotient,
    rho,
    vec_scale,
    vec_sub,
    weight_from_u,
    weight_of,
)

A1 = root_system("A", 1)


def brute_force_level_weights(rs, level):
    """Independent oracle: scan the full coefficient box [0, level]^rank and
    keep the dominant weights within the level bound.  Valid because every
    comark is >= 1, so no coefficient can exceed the level."""
    found = []
    for n in product(range(level + 1), repeat=rs.rank):
        lam = weight_from_marks(rs, n)
        if is_dominant(rs, lam) and level_of(rs, lam) <= level:
            found.append(n)
    return sorted(found)


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 1, 6), ("A", 2, 3), ("B", 2, 3), ("B", 3, 2), ("C", 2, 3), ("D", 4, 2)],
)
def test_enumeration_matches_brute_force(family, rank, level):
    rs = root_system(family, rank)
    P = enumerate_level_weights(rs, level)
    assert list(P) == brute_force_level_weights(rs, level)
    assert weights.enumerate_level_weights(rs, level) == brute_force_level_weights(rs, level)


@pytest.mark.parametrize("level", range(21))
def test_a1_level_weight_count(level):
    assert len(enumerate_level_weights(A1, level)) == level + 1


def test_a1_level_four_is_multiples_of_rho():
    P = enumerate_level_weights(A1, 4)
    assert [marks(A1, weight_of((A1, 4), n)) for n in P] == [(k,) for k in range(5)]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 4), ("D", 5)])
def test_level_zero_is_only_the_zero_weight(family, rank):
    rs = root_system(family, rank)
    P = enumerate_level_weights(rs, 0)
    assert len(P) == 1
    assert weight_of((rs, 0), P[0]) == tuple(Fraction(0) for _ in range(rs.dim))


def test_d4_level_two_count():
    assert len(enumerate_level_weights(root_system("D", 4), 2)) == 11


def test_the_listings_count_the_so8_level_two_weights_and_orbits():
    d4 = root_system("D", 4)
    assert len(weights.enumerate_level_weights(d4, 2)) == 11
    orbits = weights.orbit_decompose(d4, 2)
    assert len(orbits) == 5
    assert sum(size for _, size in orbits) == 7  # the 7 weights trivial on the center


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        enumerate_level_weights(A1, -1)
    for family, rank in (("A", 1), ("A", 2), ("B", 3), ("C", 2), ("D", 4)):
        rs = root_system(family, rank)
        with pytest.raises(ValueError, match="level must be >= 0"):
            weights.enumerate_level_weights(rs, -1)
        with pytest.raises(ValueError, match="level must be >= 0"):
            weights.orbit_decompose(rs, -1)  # before the family's quotient


@pytest.mark.parametrize(
    "family,rank,level,message",
    [("C", 2, 2, "no SO-type center quotient for C2"),
     ("A", 2, 2, "center spec so3 does not apply to A2"),
     ("A", 1, 3, "center spec so3 needs an even level")],
)
def test_orbit_decompose_refuses_a_group_without_its_so_quotient(family, rank, level, message):
    with pytest.raises(ValueError, match=message):
        weights.orbit_decompose(root_system(family, rank), level)


@pytest.mark.parametrize(
    "types,levels",
    [((("A", 1), ("B", 2)), (2, 1)), ((("C", 2), ("A", 2)), (2, 3)),
     ((("B", 2), ("A", 1), ("A", 1)), (1, 2, 3))],
)
def test_product_marks_are_the_sorted_concatenations(types, levels):
    factors = tuple((root_system(*t), lvl) for t, lvl in zip(types, levels))
    per_factor = [enumerate_level_weights(rs, lvl) for rs, lvl in factors]
    P = enumerate_product_weights(factors)
    concatenations = (sum(ns, ()) for ns in product(*per_factor))
    assert P == tuple(sorted(concatenations))
    vectors = [[weight_of(f, n) for n in Q] for f, Q in zip(factors, per_factor)]
    assert [weight_of(factors, n) for n in P] == list(product(*vectors))


# --- u-coordinates -----------------------------------------------------------


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_u_coords_of_zero_weight_d(s):
    rs = root_system("D", s)
    zero = weight_from_marks(rs, (0,) * s)
    assert u_coords(rs, zero).u == tuple(Fraction(s - 1 - i) for i in range(s))


def test_u_coords_of_zero_weight_b2():
    rs = root_system("B", 2)
    zero = weight_from_marks(rs, (0, 0))
    assert u_coords(rs, zero).u == (Fraction(3, 2), Fraction(1, 2))


def test_u_coords_of_first_fundamental_d4():
    rs = root_system("D", 4)
    uc = u_coords(rs, fundamental_weights(rs)[0])
    assert uc.u == (4, 2, 1, 0)
    assert uc.t == (2, 1, 1, 1)


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
def test_u_coords_rejects_a_weight_that_is_not_dominant(family, rank):
    rs = root_system(family, rank)
    lam = weight_from_marks(rs, (1,) * (rank - 1) + (-1,))
    with pytest.raises(ValueError, match="is not dominant"):
        u_coords(rs, lam)


def test_u_coords_rejects_other_families():
    for family, rank in [("A", 2), ("C", 3)]:
        rs = root_system(family, rank)
        with pytest.raises(ValueError, match="types B and D"):
            u_coords(rs, rho(rs))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["B", "D"]),
    extra=st.integers(min_value=0, max_value=4),
    coeffs=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=6),
)
def test_u_roundtrip_on_random_dominant_weights(family, extra, coeffs):
    rank = max(len(coeffs), 2 if family == "B" else 3)
    coeffs = (coeffs + [0] * rank)[:rank]
    rs = root_system(family, rank)
    lam = weight_from_marks(rs, coeffs)
    uc = u_coords(rs, lam)
    assert weight_from_u(rs, uc.u) == lam
    # strictly decreasing and half-integral
    assert all(a > b for a, b in zip(uc.u, uc.u[1:]))
    assert all((2 * x).denominator == 1 for x in uc.u)
    assert all(t >= 1 for t in uc.t)
    del extra


# --- quotient restriction ----------------------------------------------------


def test_so3_restriction_keeps_even_multiples():
    P = restrict_to_quotient(enumerate_level_weights(A1, 4), CenterSpec.SO3, (A1, 4))
    assert [marks(A1, weight_of((A1, 4), n)) for n in P] == [(0,), (2,), (4,)]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_so_odd_restriction_is_half_integrality(s):
    rs = root_system("B", s)
    P = enumerate_level_weights(rs, 2)
    kept = restrict_to_quotient(P, CenterSpec.SO_ODD, (rs, 2))
    assert len(kept) == s + 2
    for lam in (weight_from_marks(rs, n) for n in P):
        u = u_coords(rs, lam).u
        half_integral = all(x.denominator == 2 for x in u)
        assert is_quotient_weight(CenterSpec.SO_ODD, rs, lam) == half_integral


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_so_even_restriction_is_integrality(s):
    rs = root_system("D", s)
    P = enumerate_level_weights(rs, 2)
    kept = restrict_to_quotient(P, CenterSpec.SO_EVEN, (rs, 2))
    assert len(kept) == s + 3
    for lam in (weight_from_marks(rs, n) for n in P):
        u = u_coords(rs, lam).u
        integral = all(x.denominator == 1 for x in u)
        assert is_quotient_weight(CenterSpec.SO_EVEN, rs, lam) == integral


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_d_level_two_usets_are_v_minus_j_up_to_action(s):
    """The restricted level-2 set maps onto {V minus {j}} up to the center
    action, where V = {s, s-1, ..., 0}."""
    rs = root_system("D", s)
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), CenterSpec.SO_EVEN, (rs, 2))
    V = set(range(s + 1))
    expected = {tuple(sorted(V - {j}, reverse=True)) for j in range(s + 1)}
    seen = set()
    for lam in (weight_from_marks(rs, n) for n in kept):
        u = tuple(u_coords(rs, lam).u)
        if u in expected:
            seen.add(u)
        else:
            image = center_act(CenterSpec.SO_EVEN, lam, (rs, 2))
            u2 = tuple(u_coords(rs, image).u)
            assert u2 in expected, (u, u2)
            seen.add(u2)
    assert seen == expected


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_b_level_two_usets_are_v_minus_j_up_to_action(s):
    rs = root_system("B", s)
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), CenterSpec.SO_ODD, (rs, 2))
    V = {Fraction(2 * j + 1, 2) for j in range(s + 1)}
    expected = {
        tuple(sorted(V - {Fraction(2 * j + 1, 2)}, reverse=True))
        for j in range(s + 1)
    }
    seen = set()
    for lam in (weight_from_marks(rs, n) for n in kept):
        u = tuple(u_coords(rs, lam).u)
        if u not in expected:
            u = tuple(u_coords(rs, center_act(CenterSpec.SO_ODD, lam, (rs, 2))).u)
        assert u in expected
        seen.add(u)
    assert seen == expected


def test_restriction_spec_family_mismatch():
    b2 = root_system("B", 2)
    with pytest.raises(ValueError, match="does not apply"):
        restrict_to_quotient(enumerate_level_weights(b2, 2), CenterSpec.SO_EVEN, (b2, 2))


# --- center action -----------------------------------------------------------


def test_so3_action_fixes_middle_weight():
    two_rho = weight_from_marks(A1, (2,))
    assert center_act(CenterSpec.SO3, two_rho, (A1, 4)) == two_rho


def test_so3_action_swaps_outer_weights():
    zero = weight_from_marks(A1, (0,))
    four_rho = weight_from_marks(A1, (4,))
    assert center_act(CenterSpec.SO3, zero, (A1, 4)) == four_rho
    assert center_act(CenterSpec.SO3, four_rho, (A1, 4)) == zero


def test_so3_action_needs_even_level():
    zero = weight_from_marks(A1, (0,))
    with pytest.raises(ValueError, match="even level"):
        center_act(CenterSpec.SO3, zero, (A1, 3))
    with pytest.raises(ValueError, match="even level"):
        restrict_to_quotient(enumerate_level_weights(A1, 3), CenterSpec.SO3, (A1, 3))


def test_so4_action_on_zero_pair():
    factors = ((A1, 2), (A1, 2))
    zero = weight_from_marks(A1, (0,))
    two_rho = weight_from_marks(A1, (2,))
    assert center_act(CenterSpec.SO4_DIAGONAL, (zero, zero), factors) == (
        two_rho,
        two_rho,
    )


def test_so4_action_is_an_involution():
    factors = ((A1, 2), (A1, 2))
    P = restrict_to_quotient(
        enumerate_product_weights(factors), CenterSpec.SO4_DIAGONAL, factors
    )
    for pair in (weight_of(factors, n) for n in P):
        image = center_act(CenterSpec.SO4_DIAGONAL, pair, factors)
        assert center_act(CenterSpec.SO4_DIAGONAL, image, factors) == pair


def test_d_action_on_v_minus_zero():
    """V minus {0} maps to {s, s-1, ..., 2, -1}: a distinct valid set."""
    for s in (3, 5):
        rs = root_system("D", s)
        u = tuple(Fraction(v) for v in range(s, 0, -1))
        lam = weight_from_u(rs, u)
        image = center_act(CenterSpec.SO_EVEN, lam, (rs, 2))
        expected = tuple(Fraction(v) for v in range(s, 1, -1)) + (Fraction(-1),)
        assert u_coords(rs, image).u == expected


@pytest.mark.parametrize(
    "family,spec,ranks",
    [("B", CenterSpec.SO_ODD, (2, 4)), ("D", CenterSpec.SO_EVEN, (3, 5))],
)
def test_center_action_is_an_involution(family, spec, ranks):
    for s in ranks:
        rs = root_system(family, s)
        for level in (1, 2, 3):
            kept = restrict_to_quotient(enumerate_level_weights(rs, level), spec, (rs, level))
            for lam in (weight_from_marks(rs, n) for n in kept):
                image = center_act(spec, lam, (rs, level))
                assert is_quotient_weight(spec, rs, image)
                assert level_of(rs, image) <= level
                assert center_act(spec, image, (rs, level)) == lam


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(min_value=3, max_value=6),
    coeffs=st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6),
    slack=st.integers(min_value=0, max_value=2),
)
def test_d_involution_on_random_quotient_weights(s, coeffs, slack):
    rs = root_system("D", s)
    n = list(coeffs[:s])
    n[-1] = n[-2]  # force the parity condition
    lam = weight_from_marks(rs, tuple(n))
    level = int(level_of(rs, lam)) + slack
    image = center_act(CenterSpec.SO_EVEN, lam, (rs, level))
    assert center_act(CenterSpec.SO_EVEN, image, (rs, level)) == lam


def test_center_act_rejects_non_quotient_weight():
    rs = root_system("D", 4)
    lam = fundamental_weights(rs)[2]  # parity condition fails
    with pytest.raises(ValueError, match="not trivial"):
        center_act(CenterSpec.SO_EVEN, lam, (rs, 2))
    pair = (fundamental_weights(A1)[0], weight_from_marks(A1, (0,)))  # odd mark sum
    with pytest.raises(ValueError, match="not trivial"):
        center_act(CenterSpec.SO4_DIAGONAL, pair, ((A1, 2), (A1, 2)))


def _u_coordinate_image(spec, rs, level, lam):
    """The center action in u-coordinates: u_1 -> k - u_1 (and u_s -> -u_s
    for type D), then sorted back into a decreasing sequence."""
    u = u_coords(rs, lam).u
    k = level + rs.dual_coxeter
    if spec is CenterSpec.SO_EVEN:
        image = (k - u[0],) + u[1:-1] + (-u[-1],)
    else:
        image = (k - u[0],) + u[1:]
    return weight_from_u(rs, tuple(sorted(image, reverse=True)))


@pytest.mark.parametrize(
    "family,spec,rank",
    [("B", CenterSpec.SO_ODD, s) for s in range(2, 7)]
    + [("D", CenterSpec.SO_EVEN, s) for s in range(3, 7)],
)
def test_mark_action_equals_u_coordinate_formula(family, spec, rank):
    rs = root_system(family, rank)
    for level in range(5):
        kept = restrict_to_quotient(enumerate_level_weights(rs, level), spec, (rs, level))
        for n, lam in zip(kept, (weight_from_marks(rs, n) for n in kept)):
            image = center_act_marks(spec, n, (rs, level))
            expected = _u_coordinate_image(spec, rs, level, lam)
            assert weight_from_marks(rs, image) == expected


@pytest.mark.parametrize("level", [0, 2, 4, 6, 8])
def test_a1_mark_action_is_the_alcove_reflection(level):
    """On A1 the center sends lambda to l * omega - lambda."""
    kept = restrict_to_quotient(enumerate_level_weights(A1, level), CenterSpec.SO3, (A1, level))
    omega = fundamental_weights(A1)[0]
    for n, lam in zip(kept, (weight_from_marks(A1, n) for n in kept)):
        image = center_act_marks(CenterSpec.SO3, n, (A1, level))
        assert weight_from_marks(A1, image) == vec_sub(vec_scale(level, omega), lam)


@pytest.mark.parametrize("levels", [(2, 2), (1, 3), (4, 2), (3, 3)])
def test_so4_mark_action_is_the_alcove_reflection_per_factor(levels):
    factors = tuple((A1, lvl) for lvl in levels)
    omega = fundamental_weights(A1)[0]
    P = restrict_to_quotient(
        enumerate_product_weights(factors), CenterSpec.SO4_DIAGONAL, factors
    )
    for ns, pair in zip(P, (weight_of(factors, n) for n in P)):
        image = center_act_marks(CenterSpec.SO4_DIAGONAL, ns, factors)
        assert weight_of(factors, image) == tuple(
            vec_sub(vec_scale(lvl, omega), lam) for lvl, lam in zip(levels, pair)
        )


def test_orbit_decompose_rejects_weights_outside_the_quotient():
    for factors, spec in [
        (((root_system("D", 4), 2),), CenterSpec.SO_EVEN),
        (((root_system("B", 3), 2),), CenterSpec.SO_ODD),
        (((A1, 2), (A1, 2)), CenterSpec.SO4_DIAGONAL),
    ]:
        with pytest.raises(ValueError, match="not trivial"):
            orbit_decompose(enumerate_product_weights(factors), spec, factors)


def test_trivial_spec_is_identity():
    assert center_act(CenterSpec.TRIVIAL, rho(A1), (A1, 1)) == rho(A1)


# --- orbits ------------------------------------------------------------------


def test_a1_level_four_orbits():
    kept = restrict_to_quotient(enumerate_level_weights(A1, 4), CenterSpec.SO3, (A1, 4))
    orbits = orbit_decompose(kept, CenterSpec.SO3, (A1, 4))
    assert [(marks(A1, weight_of((A1, 4), n)), size) for n, size in orbits] == [
        ((0,), 2),
        ((2,), 1),
    ]


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_d_level_two_orbit_structure(s):
    rs = root_system("D", s)
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), CenterSpec.SO_EVEN, (rs, 2))
    orbits = orbit_decompose(kept, CenterSpec.SO_EVEN, (rs, 2))
    assert len(orbits) == s + 1
    assert sorted(size for _, size in orbits) == [1] * (s - 1) + [2, 2]
    assert sum(size for _, size in orbits) == len(kept)
    k = 2 + rs.dual_coxeter
    for n, size in orbits:
        u = u_coords(rs, weight_from_marks(rs, n)).u
        fixed = 2 * u[0] == k and u[-1] == 0
        assert (size == 1) == fixed


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_b_level_two_orbit_structure(s):
    rs = root_system("B", s)
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), CenterSpec.SO_ODD, (rs, 2))
    orbits = orbit_decompose(kept, CenterSpec.SO_ODD, (rs, 2))
    assert len(orbits) == s + 1
    assert sorted(size for _, size in orbits) == [1] * s + [2]
    assert sum(size for _, size in orbits) == len(kept)
    k = 2 + rs.dual_coxeter
    for n, size in orbits:
        u = u_coords(rs, weight_from_marks(rs, n)).u
        assert (size == 1) == (2 * u[0] == k)


def test_orbit_representatives_are_lex_minimal():
    rs = root_system("D", 4)
    kept = restrict_to_quotient(enumerate_level_weights(rs, 2), CenterSpec.SO_EVEN, (rs, 2))
    for n, _ in orbit_decompose(kept, CenterSpec.SO_EVEN, (rs, 2)):
        rep = weight_from_marks(rs, n)
        image = center_act(CenterSpec.SO_EVEN, rep, (rs, 2))
        assert marks(rs, rep) <= marks(rs, image)


def test_so4_orbit_structure():
    factors = ((A1, 2), (A1, 2))
    P = restrict_to_quotient(
        enumerate_product_weights(factors), CenterSpec.SO4_DIAGONAL, factors
    )
    assert len(P) == 5
    orbits = orbit_decompose(P, CenterSpec.SO4_DIAGONAL, factors)
    reps = [
        tuple(marks(A1, w)[0] for w in weight_of(factors, n)) for n, _ in orbits
    ]
    sizes = [size for _, size in orbits]
    assert reps == [(0, 0), (0, 2), (1, 1)]
    assert sizes == [2, 2, 1]


def test_so4_requires_matching_parity():
    factors = ((A1, 2), (A1, 1))
    with pytest.raises(ValueError, match="parity"):
        restrict_to_quotient(enumerate_product_weights(factors), CenterSpec.SO4_DIAGONAL, factors)


def test_so4_requires_a1_factors():
    b2 = root_system("B", 2)
    factors = ((b2, 2), (b2, 2))
    with pytest.raises(ValueError, match="A1 factors"):
        restrict_to_quotient(enumerate_product_weights(factors), CenterSpec.SO4_DIAGONAL, factors)
