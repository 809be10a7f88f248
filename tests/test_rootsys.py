from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde.rootsys import (
    GroupType,
    _twice_pairings,
    build_root_system,
    marks,
    root_system,
    weight_from_marks,
)

from helpers import (
    coroot_pairing,
    fundamental_weights,
    gram_scale,
    inner,
    is_dominant,
    level_of,
    reflection_closure,
    rho,
    solve_exact,
    vec_add,
    vec_neg,
)

ALL_TYPES = (
    [("A", s) for s in range(1, 9)]
    + [("B", s) for s in range(2, 9)]
    + [("C", s) for s in range(1, 9)]
    + [("D", s) for s in range(3, 9)]
)

POSITIVE_COUNT = {
    "A": lambda s: s * (s + 1) // 2,
    "B": lambda s: s * s,
    "C": lambda s: s * s,
    "D": lambda s: s * (s - 1),
}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_count(family, rank):
    rs = root_system(family, rank)
    assert len(rs.positive_roots) == POSITIVE_COUNT[family](rank)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_roots_match_reflection_closure(family, rank):
    rs = root_system(family, rank)
    stored = set(rs.positive_roots) | {vec_neg(a) for a in rs.positive_roots}
    assert stored == reflection_closure(rs.simple_roots)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_form_normalization_and_dual_coxeter(family, rank):
    rs = root_system(family, rank)
    assert inner(rs, rs.theta, rs.theta) == 2
    assert inner(rs, rho(rs), rs.theta) + 1 == rs.dual_coxeter
    for alpha in rs.long_roots:
        assert inner(rs, alpha, alpha) == 2


DUAL_COXETER = {
    "A": lambda s: s + 1,
    "B": lambda s: 2 * s - 1,
    "C": lambda s: s + 1,
    "D": lambda s: 2 * s - 2,
}
CENTER_ORDER = {"A": lambda s: s + 1, "B": lambda s: 2, "C": lambda s: 2,
                "D": lambda s: 4}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_dual_coxeter_and_center_closed_forms(family, rank):
    rs = root_system(family, rank)
    assert rs.dual_coxeter == DUAL_COXETER[family](rank)
    assert rs.center_order == CENTER_ORDER[family](rank)
    assert rs.nu == {"A": 1, "B": 2, "C": 2 ** (rank - 1), "D": 1}[family]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_fundamental_weights_dual_to_simple_coroots(family, rank):
    rs = root_system(family, rank)
    for i, w in enumerate(fundamental_weights(rs)):
        for j, a in enumerate(rs.simple_roots):
            assert coroot_pairing(rs, w, a) == (1 if i == j else 0)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_rho_is_sum_of_fundamental_weights(family, rank):
    rs = root_system(family, rank)
    total = tuple(Fraction(0) for _ in range(rs.dim))
    for w in fundamental_weights(rs):
        total = vec_add(total, w)
    assert rho(rs) == total
    assert rs.scaled_rho == tuple(rs.denominator * x for x in total)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_roots_are_nonneg_integer_combinations(family, rank):
    rs = root_system(family, rank)
    for beta in rs.positive_roots:
        coeffs = solve_exact(rs.simple_roots, beta)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs), (beta, coeffs)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_theta_is_the_highest_root(family, rank):
    rs = root_system(family, rank)
    assert rs.theta in rs.long_roots
    assert is_dominant(rs, rs.theta)
    # maximality: theta - beta is a nonnegative combination of simple roots
    for beta in rs.positive_roots:
        diff = vec_add(rs.theta, vec_neg(beta))
        coeffs = solve_exact(rs.simple_roots, diff)
        assert all(c >= 0 for c in coeffs)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_coordinates_are_integers(family, rank):
    rs = root_system(family, rank)
    for v in rs.positive_roots + rs.simple_roots + (rs.theta,) + rs.scaled_weights:
        assert all(type(x) is int for x in v), v
    assert type(rs.denominator) is int


@pytest.mark.parametrize("rank", range(1, 9))
def test_type_a_weights_lie_in_the_root_span(rank):
    rs = root_system("A", rank)
    for w in fundamental_weights(rs) + (rho(rs),):
        assert sum(w) == 0, w


@pytest.mark.parametrize("family,rank", ALL_TYPES + [(f, 20) for f in "ABCD"])
def test_pairing_matrix_is_twice_the_inner_product(family, rank):
    """The integer lattice data agrees with the Fraction form, which stays
    the reference: M[a][i] = 2 (alpha | omega_i), comark_i = (omega_i | theta)."""
    rs = root_system(family, rank)
    M = rs.pairing_matrix
    assert len(M) == len(rs.positive_roots)
    for row, alpha in zip(M, rs.positive_roots):
        assert all(type(x) is int for x in row)
        assert row == tuple(2 * inner(rs, alpha, w) for w in fundamental_weights(rs))
    assert all(type(c) is int and c > 0 for c in rs.comarks)
    assert rs.comarks == tuple(level_of(rs, w) for w in fundamental_weights(rs))


def test_a_pairing_that_is_not_an_integer_is_refused():
    """2 (v | w) = 2 (v . d w) / den must be an integer: here v . d w = 1
    and den = 4, so 2 (v | w) = 1/2, and with coefficient 2 the row is 1."""
    a1 = GroupType("A", 1)
    with pytest.raises(AssertionError, match="not an integer in A1"):
        _twice_pairings(a1, ((1, 0),), ((1, -1),), 4)
    assert _twice_pairings(a1, ((2, 0),), ((1, -1),), 4) == ((1,),)


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 4), ("D", 3), ("D", 5)])
def test_bd_shifted_weights_are_half_integral(family, rank):
    rs = root_system(family, rank)
    for n in [(0,) * rank, (1,) + (0,) * (rank - 1), (1,) * rank]:
        shifted = vec_add(weight_from_marks(rs, n), rho(rs))
        assert all((2 * u).denominator == 1 for u in shifted)
        assert all((a - b).denominator == 1 for a, b in zip(shifted, shifted[1:]))


def test_a1_data():
    rs = root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.theta == tuple(2 * x for x in rho(rs))
    assert rs.dual_coxeter == 2
    assert rs.center_order == 2
    assert rs.nu == 1
    assert inner(rs, rho(rs), rho(rs)) == Fraction(1, 2)
    assert coroot_pairing(rs, rho(rs), rs.theta) == 1


def test_d4_data():
    rs = root_system("D", 4)
    assert len(rs.positive_roots) == 12
    assert rs.dual_coxeter == 6
    assert rs.center_order == 4
    assert rs.nu == 1
    assert coroot_pairing(rs, fundamental_weights(rs)[1], rs.theta) == 2


def test_b2_data():
    rs = root_system("B", 2)
    assert len(rs.positive_roots) == 4
    assert rs.dual_coxeter == 3
    assert rs.center_order == 2
    assert rs.nu == 2
    assert coroot_pairing(rs, fundamental_weights(rs)[1], rs.theta) == 1


def test_c2_data():
    rs = root_system("C", 2)
    assert gram_scale(rs) == Fraction(1, 2)
    assert rs.nu == 2 ** (rs.rank - 1)
    e1 = (Fraction(1), Fraction(0))
    assert inner(rs, e1, e1) == Fraction(1, 2)
    for alpha in rs.long_roots:
        assert inner(rs, alpha, alpha) == 2


@pytest.mark.parametrize(
    "family,rank", [("A", 0), ("B", 1), ("C", 0), ("D", 2), ("E", 6)]
)
def test_rank_bounds_rejected(family, rank):
    with pytest.raises(ValueError):
        GroupType(family, rank)


def test_rank_bound_error_names_the_bound():
    with pytest.raises(ValueError, match="rank >= 3"):
        GroupType("D", 2)


def test_inner_dimension_mismatch():
    rs = root_system("B", 2)
    with pytest.raises(ValueError, match="dimension"):
        inner(rs, (Fraction(1),), rs.theta)


def test_coroot_pairing_requires_a_root():
    rs = root_system("A", 2)
    w1 = fundamental_weights(rs)[0]
    with pytest.raises(ValueError, match="not a root"):
        coroot_pairing(rs, rho(rs), w1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_marks_roundtrip(data):
    """marks() inverts weight_from_marks() on the whole weight lattice of
    every type, dominant or not."""
    for family, rank in ALL_TYPES:
        rs = root_system(family, rank)
        n = tuple(data.draw(st.lists(st.integers(-4, 12), min_size=rank, max_size=rank)))
        assert marks(rs, weight_from_marks(rs, n)) == n


@pytest.mark.parametrize("lam", [
    (Fraction(1, 3), Fraction(-1, 3), Fraction(0)),  # d lambda is integral
    (Fraction(1, 2), Fraction(-1, 2), Fraction(0)),  # d lambda is not
])
def test_marks_refuses_a_weight_that_is_not_integral(lam):
    with pytest.raises(ValueError, match="is not an integral weight of A2"):
        marks(root_system("A", 2), lam)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 2), ("D", 4)])
def test_marks_refuses_a_vector_of_the_wrong_dimension(family, rank):
    rs = root_system(family, rank)
    lam = weight_from_marks(rs, (1,) * rank)
    for wrong in (lam[:-1], lam + (Fraction(0),)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            marks(rs, wrong)


def test_level_of_theta_is_two():
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs = root_system(family, rank)
        assert level_of(rs, rs.theta) == 2


def test_build_root_system_matches_convenience():
    assert build_root_system(GroupType("D", 4)) == root_system("D", 4)
