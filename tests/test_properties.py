"""Property tests over random (family, rank, level, genus) in small bounds.

The bounds keep every example well under a second, so that the whole file
stays a small part of the Tier-1 run.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import verlinde.formula as formula
from verlinde.formula import (
    _berlekamp_massey,
    _kernel,
    _products,
    _sum_of,
    _terms,
    delta,
    n_so,
    n_sp,
    torus_order,
    torus_order_oracle_certified,
    verlinde_product_quotient,
    verlinde_sc,
)
from verlinde.rootsys import MIN_RANK, GroupType, build_root_system, root_system, weight_from_marks
from verlinde.so_oracle import n_so_oracle
from verlinde.weights import CenterSpec

from helpers import (
    berlekamp_massey,
    enumerate_level_weights,
    enumerate_product_weights,
    float_layer_bounds,
    galois_failures,
    reference_kernel,
    reference_products,
    reference_terms,
    relative_error,
    restrict_to_quotient,
    sorted_terms,
)

SMALL = settings(max_examples=25, deadline=None)


def groups(families="ABCD", max_rank=5):
    return st.sampled_from(families).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(MIN_RANK[f], max_rank))
    )


@SMALL
@given(group=groups(), level=st.integers(0, 5))
def test_genus_one_counts_level_weights(group, level):
    rs = root_system(*group)
    assert verlinde_sc(rs, level, 1).value == len(enumerate_level_weights(rs, level))


@SMALL
@given(group=groups(), genus=st.integers(1, 8))
def test_level_zero_gives_one(group, genus):
    assert verlinde_sc(root_system(*group), 0, genus).value == 1


@SMALL
@given(group=groups(), level=st.integers(0, 5))
def test_sum_of_delta_is_the_closed_form_torus_order(group, level):
    rs = root_system(*group)
    assert torus_order_oracle_certified(rs, level)[0] == torus_order(rs, level)


@SMALL
@given(r=st.integers(1, 5), s=st.integers(1, 5), genus=st.integers(1, 5))
def test_sp_level_rank_symmetry(r, s, genus):
    assert n_sp(r, s, genus).value == n_sp(s, r, genus).value


@SMALL
@given(pair=st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 7))),
       genus=st.integers(1, 8))
def test_su_level_rank_duality(pair, genus):
    """k^g N_g(SU(n), k) = n^g N_g(SU(k), n) (rank-level duality; Beauville,
    Narasimhan and Ramanan, J. reine angew. Math. 398, 1989): the two sides
    walk different type-A spectra, with different D and root data."""
    n, k = pair
    left = verlinde_sc(root_system("A", n - 1), k, genus).value
    right = verlinde_sc(root_system("A", k - 1), n, genus).value
    assert k**genus * left == n**genus * right


@SMALL
@given(r=st.integers(5, 14), genus=st.integers(1, 8))
def test_engine_equals_oracle(r, genus):
    assert n_so(r, genus).value == n_so_oracle(r, genus).value == r**genus


@settings(max_examples=50, deadline=None)
@given(r=st.integers(5, 14), genus=st.integers(1, 600))
@example(r=12, genus=500)
@example(r=14, genus=600)
def test_engine_equals_oracle_far_past_the_default_precision(r, genus):
    """Up to 14^600, 2,285 bits, both paths prove r^g from the default
    precision, each in at most two passes."""
    assert n_so(r, genus).value == n_so_oracle(r, genus).value == r**genus


SO_QUOTIENT = {"A": CenterSpec.SO3, "B": CenterSpec.SO_ODD, "D": CenterSpec.SO_EVEN}


@st.composite
def sum_keys(draw):
    """The key of a Verlinde sum: a group of any family with Gamma = 1, an
    SO quotient (SO(3), SO(2s+1), SO(2s)), or the SO(4) product."""
    kind = draw(st.sampled_from(("simple", "quotient", "so4")))
    if kind == "so4":
        a = draw(st.integers(0, 4))
        b = draw(st.sampled_from(range(a % 2, 5, 2)))
        return ((GroupType("A", 1), a), (GroupType("A", 1), b)), CenterSpec.SO4_DIAGONAL
    family, rank = draw(groups("ABCD" if kind == "simple" else "ABD", max_rank=4))
    level = draw(st.integers(0, 4))
    if kind == "simple":
        return ((GroupType(family, rank), level),), CenterSpec.TRIVIAL
    if family == "A":  # SO(3): A1 at an even level
        rank, level = 1, 2 * (level // 2)
    return ((GroupType(family, rank), level),), SO_QUOTIENT[family]


@SMALL
@given(key=sum_keys(), genus=st.integers(0, 60), bits=st.sampled_from((64, 192, 640)))
def test_float_layer_is_within_its_stated_bounds(key, genus, bits):
    entry = _sum_of(key)
    spectrum, T = entry.spectrum, entry.T
    gamma_order = 1 if key[1] is CenterSpec.TRIVIAL else 2
    delta_bound, kernel_bound = float_layer_bounds(spectrum, genus, bits)
    factors = tuple((build_root_system(gt), lvl) for gt, lvl in key[0])
    deltas = _products(spectrum, factors, bits)
    reference = reference_products(spectrum, factors, bits)
    assert max(map(relative_error, deltas, reference)) <= delta_bound
    got = _kernel(spectrum, deltas, T, genus, gamma_order, bits)
    want = reference_kernel(spectrum, reference, T, genus, gamma_order, bits + 64)
    assert relative_error(got, want) <= kernel_bound


@SMALL
@given(key=sum_keys(), bits=st.sampled_from((64, 192, 640)))
def test_the_zero_weight_has_the_least_delta(key, bits):
    """Delta_lambda / T = S_(0 lambda)^2, and the quantum dimension
    S_(0 lambda) / S_00 is at least 1, so the term that holds lambda = 0,
    whose numerators are rho's (the row sums of each factor's pairing
    matrix), has the least Delta of its spectrum.  For one factor that Delta
    is ``delta`` of the zero weight, digit for digit."""
    entry = _sum_of(key)
    D = entry.spectrum.denominator
    rho = tuple(sorted(min(j, D - j) for rs, level in entry.factors for j in (
        D // (2 * (level + rs.dual_coxeter)) * sum(row) for row in rs.pairing_matrix)))
    deltas = entry.deltas(bits)
    zero = [d for (_, _, js), d in zip(sorted_terms(entry.spectrum)[1], deltas) if js == rho]
    assert zero and all(d == min(deltas) for d in zero)
    if len(entry.factors) == 1:
        (rs, level), = entry.factors
        at_zero = delta(rs, level, weight_from_marks(rs, (0,) * rs.rank), bits)
        assert at_zero.as_tuple() == zero[0].as_tuple()


@SMALL
@given(key=sum_keys())
@example(key=(((GroupType("D", 6), 2),), CenterSpec.SO_EVEN))  # SO(12)
@example(key=(((GroupType("C", 2), 3),), CenterSpec.TRIVIAL))  # Sp(4) at level 3
@example(key=(((GroupType("A", 2), 6),), CenterSpec.TRIVIAL))  # SU(3) at level 6
def test_every_genus_follows_the_recurrence_of_the_first(key):
    """N_g = sum of c_k r_k^(g-1) over the K terms of the spectrum, so (N_g)
    satisfies a linear recurrence of order at most K: the values at
    g = 2K+1..2K+8, which the engine takes from the recurrence fitted on the
    certified N_1..N_2K, in exact rationals, are the kernel's certified
    values, with no float bound in the comparison."""
    K = len(_sum_of(key).spectrum.terms)
    assume(K <= 12)
    factors = tuple((build_root_system(gt), level) for gt, level in key[0])
    genera = range(2 * K + 1, 2 * K + 9)
    recurrent = [verlinde_product_quotient(factors, key[1], g) for g in genera]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formula, "RECURRENCE_MAX_TERMS", 0)
        certified = [verlinde_product_quotient(factors, key[1], g).value for g in genera]
    assert [res.value for res in recurrent] == certified
    assert all(res.residual == 0.0 for res in recurrent)


@st.composite
def int_sequences(draw):
    """Int sequences of length 0..24: free ones, rich in zeros, or sums of up
    to 6 geometric sequences c r^i d^(N-1-i) of integer ratios r (rational
    r / d when d > 1), after up to 3 leading zeros."""
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        values = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
        return draw(st.lists(values, min_size=n, max_size=n))
    terms = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-6, 6)), max_size=6))
    d = draw(st.integers(1, 4))
    lead = draw(st.integers(0, min(3, n)))
    N = n - lead
    return [0] * lead + [sum(c * r**i * d ** (N - 1 - i) for c, r in terms) for i in range(N)]


@settings(max_examples=200, deadline=None)
@given(sequence=int_sequences())
def test_the_integer_fit_is_the_fraction_fit_over_its_denominators(sequence):
    """The fraction-free fit gives q > 0 and a of content 1, which are the
    Fraction fit's a_i times q, the lcm of their denominators."""
    q, a = _berlekamp_massey(sequence)
    fitted = berlekamp_massey(sequence)
    assert q == math.lcm(*(x.denominator for x in fitted)) > 0
    assert a == [int(x * q) for x in fitted]
    assert math.gcd(q, *a) == 1


@SMALL
@given(key=sum_keys())
def test_the_galois_symmetry_carries_each_spectrum_onto_itself(key):
    """For every unit a mod D, j -> a j mod D, reduced to min(x, D - x),
    carries the spectrum of the exact pass onto itself, keys and counts
    included: an exact invariant that shares no rule with the walk."""
    assert galois_failures(_sum_of(key).spectrum) == []


def test_the_galois_check_sees_a_changed_count_or_numerator():
    """On C4 at level 5 (D = 20, units 3, 7 and 9 besides 1 and their
    negatives), one term's count or one numerator changed by 1 breaks the
    symmetry."""
    spectrum = _terms(((root_system("C", 4), 5),), CenterSpec.TRIVIAL)
    assert galois_failures(spectrum) == []
    (count, m, js), *rest = sorted_terms(spectrum)[1]
    decoded = spectrum._replace(width=0)  # keyed by sorted numerators
    recount = decoded._replace(terms=((count + 1, m, js), *rest))
    renumber = decoded._replace(terms=((count, m, tuple(sorted((js[0] + 1,) + js[1:]))), *rest))
    assert galois_failures(recount) and galois_failures(renumber)


@st.composite
def product_keys(draw):
    """The key of a product of two or three factors of any family, each of
    rank <= 3 and level <= 3, with Gamma = 1."""
    factors = tuple(
        (GroupType(*draw(groups(max_rank=3))), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(2, 3)))
    )
    return factors, CenterSpec.TRIVIAL


@SMALL
@given(key=st.one_of(sum_keys(), product_keys()))
def test_exact_pass_equals_the_per_weight_reference(key):
    """The walk of the exact pass gives the spectrum (terms, order and
    counts) of the per-weight reference over the full enumeration, and its
    orbits cover the Gamma-trivial weights."""
    factors = tuple((build_root_system(gt), level) for gt, level in key[0])
    spec = key[1]
    P = enumerate_product_weights(factors)
    spectrum = _terms(factors, spec)
    assert sorted_terms(spectrum) == reference_terms(factors, spec)
    assert sum(count * m for count, m, _ in spectrum.terms) == len(
        restrict_to_quotient(P, spec, factors))
