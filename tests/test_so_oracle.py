import math
from collections import Counter
from fractions import Fraction

import pytest

import verlinde.formula as formula
import verlinde.so_oracle as so_oracle
from verlinde.formula import delta, n_so
from verlinde.numeric import _sine_table, certify_integer
from verlinde.rootsys import root_system, weight_from_marks
from verlinde.so_oracle import (
    USet,
    enumerate_usets,
    n_so_oracle,
    uset_delta,
)
from verlinde.weights import CenterSpec, orbit_decompose, u_coords

from helpers import (
    center_act,
    decimal_eps,
    distance,
    enumerate_level_weights,
    relative_error,
    restrict_to_quotient,
)

TOL = Fraction(1, 10**20)


def test_uset_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        USet("D", 3, 6, (Fraction(1), Fraction(2), Fraction(0)))
    with pytest.raises(ValueError, match="integer values"):
        USet("D", 3, 6, (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="half-odd-integer"):
        USet("B", 2, 5, (Fraction(2), Fraction(1)))
    with pytest.raises(ValueError, match="u_1 \\+ u_2"):
        USet("D", 3, 4, (Fraction(3), Fraction(2), Fraction(1)))
    with pytest.raises(ValueError, match="family must be B or D"):
        USet("A", 2, 4, (Fraction(2), Fraction(1)))
    for family, s, values in [("D", 2, (Fraction(2), Fraction(1))), ("D", 1, (Fraction(1),)),
                              ("D", 0, ()), ("B", 1, (Fraction(1, 2),)), ("B", 0, ())]:
        with pytest.raises(ValueError, match=f"family {family} requires rank"):
            USet(family, s, 4, values)


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_d_level_two_representatives(s):
    reps = enumerate_usets("D", s, 2)
    assert len(reps) == s + 1
    V = set(range(s + 1))
    expected = {tuple(Fraction(v) for v in sorted(V - {j}, reverse=True))
                for j in range(s + 1)}
    assert {u.values for u, _ in reps} == expected
    for u, size in reps:
        interior = u.values[0] == s and u.values[-1] == 0
        assert size == (1 if interior else 2)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_b_level_two_representatives(s):
    reps = enumerate_usets("B", s, 2)
    assert len(reps) == s + 1
    V = {Fraction(2 * j + 1, 2) for j in range(s + 1)}
    expected = {tuple(sorted(V - {Fraction(2 * j + 1, 2)}, reverse=True))
                for j in range(s + 1)}
    assert {u.values for u, _ in reps} == expected
    k = 2 * s + 1
    for u, size in reps:
        assert size == (1 if 2 * u.values[0] == k else 2)


def test_d3_level_zero_single_representative():
    reps = enumerate_usets("D", 3, 0)
    assert [(u.values, size) for u, size in reps] == [
        ((Fraction(2), Fraction(1), Fraction(0)), 1)
    ]


def test_enumerate_usets_rejects_bad_input():
    with pytest.raises(ValueError, match="rank >= 3"):
        enumerate_usets("D", 2, 2)
    with pytest.raises(ValueError, match="rank >= 2"):
        enumerate_usets("B", 1, 2)
    with pytest.raises(ValueError, match="family"):
        enumerate_usets("C", 3, 2)
    with pytest.raises(ValueError, match="level"):
        enumerate_usets("D", 3, -1)


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_d_closed_product_values(s):
    """Level 2: interior sets give 4 r^(s-1), the two boundary sets r^(s-1)."""
    r = 2 * s
    for u, size in enumerate_usets("D", s, 2):
        missing = (set(range(s + 1)) - {int(v) for v in u.values}).pop()
        expected = 4 * r ** (s - 1) if 1 <= missing <= s - 1 else r ** (s - 1)
        assert distance(uset_delta(u), expected) < TOL
        assert size == (1 if 1 <= missing <= s - 1 else 2)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_b_closed_product_values(s):
    r = 2 * s + 1
    for u, _ in enumerate_usets("B", s, 2):
        missing = (
            {Fraction(2 * j + 1, 2) for j in range(s + 1)} - set(u.values)
        ).pop()
        j = int(missing - Fraction(1, 2))
        expected = 4 * r ** (s - 1) if j <= s - 1 else r ** (s - 1)
        assert distance(uset_delta(u), expected) < TOL


@pytest.mark.parametrize(
    "family,spec,ranks",
    [("B", CenterSpec.SO_ODD, (2, 4, 6)), ("D", CenterSpec.SO_EVEN, (3, 5, 6))],
)
def test_pointwise_delta_equivalence(family, spec, ranks):
    """The pairwise sine product on the coordinates of lambda + rho equals
    the positive-root product, weight by weight, at levels 1, 2 and 3."""
    for s in ranks:
        rs = root_system(family, s)
        for level in (1, 2, 3):
            kept = restrict_to_quotient(enumerate_level_weights(rs, level), spec, (rs, level))
            k = level + rs.dual_coxeter
            for lam in (weight_from_marks(rs, n) for n in kept):
                u = USet(family, s, k, tuple(u_coords(rs, lam).u))
                assert distance(uset_delta(u), delta(rs, level, lam)) < TOL


@pytest.mark.parametrize(
    "family,spec,rank",
    [("B", CenterSpec.SO_ODD, 3), ("D", CenterSpec.SO_EVEN, 4)],
)
def test_orbit_enumeration_matches_weight_path(family, spec, rank):
    """Oracle orbits (as unordered sets of coordinate tuples) coincide with
    the orbits computed through the weight lattice."""
    rs = root_system(family, rank)
    for level in (0, 1, 2, 3):
        kept = restrict_to_quotient(enumerate_level_weights(rs, level), spec, (rs, level))
        weight_orbits = set()
        seen = set()
        for lam in (weight_from_marks(rs, n) for n in kept):
            u = tuple(u_coords(rs, lam).u)
            if u in seen:
                continue
            image = center_act(spec, lam, (rs, level))
            iu = tuple(u_coords(rs, image).u)
            seen.update({u, iu})
            weight_orbits.add(frozenset({u, iu}))
        k = level + rs.dual_coxeter
        oracle_orbits = set()
        for u, size in enumerate_usets(family, rank, level):
            vals = u.values
            if family == "D":
                image = tuple(
                    sorted((Fraction(k) - vals[0],) + vals[1:-1] + (-vals[-1],),
                           reverse=True)
                )
            else:
                image = tuple(sorted((Fraction(k) - vals[0],) + vals[1:], reverse=True))
            assert size == (1 if image == vals else 2)
            oracle_orbits.add(frozenset({vals, image}))
        assert oracle_orbits == weight_orbits


@pytest.mark.parametrize("r", range(5, 13))
def test_oracle_value_is_r_to_the_g(r):
    for g in (1, 2, 3):
        assert n_so_oracle(r, g).value == r**g


@pytest.mark.parametrize("r,g", [(8, 2), (7, 2), (11, 3), (12, 5), (60, 2), (61, 2)])
def test_oracle_agrees_with_engine(r, g):
    assert n_so_oracle(r, g).value == n_so(r, g).value


@pytest.mark.parametrize("family,ranks", [("B", range(2, 7)), ("D", range(3, 7))])
def test_orbit_sizes_are_those_of_the_weight_path(family, ranks):
    """As a multiset, the orbit sizes of the sequences are those of the
    level weights under the SO quotient, at levels 0..6."""
    for s in ranks:
        for level in range(7):
            sequences = Counter(size for _, size in enumerate_usets(family, s, level))
            weights = Counter(size for _, size in orbit_decompose(root_system(family, s), level))
            assert sequences == weights, (s, level)


def test_oracle_rejects_small_r():
    with pytest.raises(ValueError, match="r >= 5"):
        n_so_oracle(4, 2)


def test_oracle_result_metadata():
    res = n_so_oracle(9, 4)
    assert res.group_label == "SO(9)"
    assert res.level == 2
    assert res.term_count == 5  # s + 1 orbit representatives
    assert res.residual < 1e-20


@pytest.mark.parametrize("r", [5, 6, 9, 12])
def test_the_oracle_sum_is_within_its_stated_bound(monkeypatch, r):
    """The oracle's Decimal sum lies within its stated ((M + 1) |g - 1| + N
    + 7) eps of the exact sum over the table's values, relative, with M
    sines per sequence and N sequences."""
    sums = []

    def recorded(compute, precision, error):
        sums.append(compute(precision))
        return certify_integer(compute, precision, error)

    monkeypatch.setattr(so_oracle, "certify_integer", recorded)
    family, s = ("D" if r % 2 == 0 else "B"), r // 2
    usets = enumerate_usets(family, s, 2)
    M, N, T = (s * (s - 1) if family == "D" else s * s), len(usets), 4 * r**s
    for bits in (64, 192):
        deltas = []
        for u, _ in usets:
            # each sine's argument as a numerator over D = 2k: u_i -+ u_j, and u_i for B
            D, v = 2 * u.k, [int(2 * x) for x in u.values]
            numerators = [a + sign * b for i, a in enumerate(v) for b in v[i + 1:]
                          for sign in (-1, 1)]
            if family == "B":
                numerators += v
            assert len(numerators) == M
            table = _sine_table(D, bits)
            deltas.append(math.prod(Fraction(table[min(n, D - n)]) for n in numerators))
        for genus in (1, 2, 7):
            sums.clear()
            n_so_oracle(r, genus, bits)
            exact = 2 * sum(Fraction(m) ** (1 - 2 * genus) * (T / d) ** (genus - 1)
                            for (_, m), d in zip(usets, deltas))
            bound = ((M + 1) * abs(genus - 1) + N + 7) * decimal_eps(bits)
            assert relative_error(sums[0], exact) <= bound, (bits, genus)


# The cases of the next test whose n_so takes the recurrence by default.
FROM_THE_RECURRENCE = {(7, 40), (12, 60), (12, 500), (30, 60)}


@pytest.mark.parametrize("r,genus,precision", [
    (5, 1000, 192), (7, 40, 64), (9, 3, 192), (12, 60, 192), (12, 500, 192), (30, 60, 192),
])
def test_each_pass_is_within_its_stated_bound_of_r_to_the_g(monkeypatch, r, genus, precision):
    """Every sum that certification reads, of the engine's kernel and of the
    oracle, in one pass or two, is within its stated K 2^-bits of r^g,
    relative.  The engine's default route gives the same value, exact where
    it comes from the recurrence."""
    default = n_so(r, genus, precision)
    assert default.value == r**genus
    if (r, genus) in FROM_THE_RECURRENCE:
        assert default.residual == 0.0
    monkeypatch.setattr(formula, "RECURRENCE_MAX_TERMS", 0)
    passes = []

    def recorded(compute, precision, error):
        def traced(bits):
            total = compute(bits)
            passes.append((bits, total, error))
            return total

        return certify_integer(traced, precision, error)

    monkeypatch.setattr(formula, "certify_integer", recorded)
    monkeypatch.setattr(so_oracle, "certify_integer", recorded)
    for run in (n_so, n_so_oracle):
        passes.clear()
        assert run(r, genus, precision).value == r**genus
        assert 1 <= len(passes) <= 2
        for bits, total, error in passes:
            bound = Fraction(error, 2**bits)
            assert relative_error(total, Fraction(r**genus)) <= bound, (run, bits)
