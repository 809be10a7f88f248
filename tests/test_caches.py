"""The per-process caches: root systems, the sums (spectrum, Delta and the
recurrence's memo, one entry per key), the sine table, and the SO oracle's
own cache.

Every test starts from empty caches, so that test order does not matter.
"""

import decimal
import gc
import json
import random
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

import verlinde.formula as formula
import verlinde.numeric as numeric
import verlinde.so_oracle as so_oracle
from verlinde.cli import main
from verlinde.formula import (
    _terms,
    n_so,
    n_sp,
    torus_order,
    torus_order_oracle_certified,
    verlinde_product_quotient,
    verlinde_quotient,
    verlinde_sc,
)
from verlinde.rootsys import (
    MIN_RANK,
    ROOT_SYSTEM_CACHE_SIZE,
    GroupType,
    build_root_system,
    root_system,
    weight_from_marks,
)
from verlinde.suite import run_default_suite
from verlinde.weights import CenterSpec

from helpers import numerators_of, reference_listing, sine_within_its_bound


def clear_caches():
    build_root_system.cache_clear()
    formula._sum_of.cache_clear()
    numeric._sine_table.cache_clear()
    so_oracle._level_two_terms.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()


def counter(monkeypatch, name, module=formula):
    """Record the arguments of every call to ``<module>.<name>``."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def outcome(res):
    return res.value, res.residual, res.precision_bits, res.term_count


def table_misses():
    return numeric._sine_table.cache_info().misses


def test_root_systems_are_shared():
    assert root_system("D", 6) is root_system("D", 6)
    assert build_root_system(GroupType("D", 6)) is root_system("D", 6)


def test_a_further_genus_reuses_the_spectrum_and_deltas(monkeypatch):
    first = n_sp(2, 3, 5)
    tables = table_misses()
    exact_passes = counter(monkeypatch, "_terms")
    later = n_sp(2, 3, 9)
    assert later.precision_bits == first.precision_bits == 192
    assert later.value == 8285150897373184
    assert table_misses() == tables and exact_passes == []


def test_torus_pass_and_verlinde_pass_share_one_sine_per_numerator(monkeypatch):
    spectrum = _terms(((root_system("C", 6), 6),), CenterSpec.TRIVIAL)
    formula._sum_of.cache_clear()
    tables = counter(monkeypatch, "_sine_table")
    res = n_sp(6, 6, 2)
    assert res.precision_bits == 192
    assert torus_order_oracle_certified(root_system("C", 6), 6)[0] == torus_order(
        root_system("C", 6), 6)
    assert tables == [(spectrum.denominator, 192)]
    assert table_misses() == 1


@pytest.mark.parametrize("family,rank,level,table", [
    ("A", 10, 3, 14), ("D", 6, 2, 12), ("B", 3, 2, 14), ("C", 3, 2, 12),
])
def test_a_simply_laced_spectrum_reads_the_table_of_half_its_denominator(
        monkeypatch, family, rank, level, table):
    """A and D read the table of D / 2 = l + h, B and C that of D."""
    key = (((GroupType(family, rank), level),), CenterSpec.TRIVIAL)
    entry = formula._sum_of(key)
    D = entry.spectrum.denominator
    tables = counter(monkeypatch, "_sine_table")
    entry.deltas(192)
    assert tables == [(table, 192)]
    assert D == (2 * table if family in "AD" else table)


def test_a_product_reads_each_factors_table(monkeypatch):
    """A1 x A1 at levels 299 and 300 has D = lcm(602, 604) = 181,804; its
    Deltas read the tables of 301 and 302, not one of D."""
    a1 = root_system("A", 1)
    tables = counter(monkeypatch, "_sine_table")
    res = verlinde_product_quotient(((a1, 299), (a1, 300)), CenterSpec.TRIVIAL, 2)
    assert res.value == 20864513350100
    key = (((a1.group_type, 299), (a1.group_type, 300)), CenterSpec.TRIVIAL)
    assert formula._sum_of(key).spectrum.denominator == 181804
    assert tables == [(301, 192), (302, 192)]


def test_torus_oracle_reads_the_spectrum_of_n_sp(monkeypatch):
    n_sp(3, 2, 2)
    tables = table_misses()
    exact_passes = counter(monkeypatch, "_terms")
    assert torus_order_oracle_certified(root_system("C", 3), 2)[0] == 1728
    assert table_misses() == tables and exact_passes == []


def test_exact_pass_memory_follows_the_spectrum():
    """A cold spectrum of A8 at level 8, 12,870 weights merged into 698
    terms, peaks under 2 MB of traced memory: the exact pass keeps the
    spectrum, not a copy of P_l."""
    gt = GroupType("A", 8)
    build_root_system(gt)
    tracemalloc.start()
    try:
        spectrum = formula._sum_of((((gt, 8),), CenterSpec.TRIVIAL)).spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(count for count, _, _ in spectrum.terms) == 12870
    assert len(spectrum.terms) == 698
    assert peak < 2 * 2**20


@pytest.mark.parametrize("spec,factors", [
    (CenterSpec.TRIVIAL, (("A", 6, 6),)),
    (CenterSpec.SO_EVEN, (("D", 4, 4),)),
    (CenterSpec.SO4_DIAGONAL, (("A", 1, 3), ("A", 1, 5))),
], ids=["A6-6-trivial", "D4-4-so-even", "A1xA1-3,5-so4-diagonal"])
def test_the_exact_pass_leaves_no_reference_cycle(spec, factors):
    """With the cyclic collector off, nothing that ``_terms`` allocated is
    left for it to find: the walk and the state it closes over (the merge
    dict, the plan, the columns) are freed when the call returns."""
    factors = tuple((root_system(f, r), level) for f, r, level in factors)
    gc.collect()
    gc.disable()
    try:
        _terms(factors, spec)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def _calls():
    calls = []
    for family, lo in MIN_RANK.items():
        for rank in range(lo, lo + 2):
            for level in range(3):
                calls.append(lambda g, p, f=family, r=rank, l=level: verlinde_sc(
                    root_system(f, r), l, g, p))
    calls += [lambda g, p, r=r: n_so(r, g, p) for r in range(3, 10)]
    return calls


def test_warm_results_equal_cold_results():
    cases = [(call, g, p) for call in _calls() for g in (1, 2, 7) for p in (64, 192)]
    cold = []
    for call, g, p in cases:
        clear_caches()
        cold.append(outcome(call(g, p)))
    for call, g, p in cases:  # warm up at every genus and precision
        call(g, p)
    warm = [outcome(call(g, p)) for call, g, p in reversed(cases)]
    assert warm[::-1] == cold


def _context_cases():
    return [
        lambda: n_so(12, 5),
        lambda: n_so(12, 60),  # escalates
        lambda: n_so(4, 10),
        lambda: n_sp(2, 3, 30, 320),
        lambda: verlinde_sc(root_system("A", 2), 6, 40, 768),
        lambda: torus_order_oracle_certified(root_system("C", 3), 4),
        lambda: so_oracle.n_so_oracle(12, 5),
        lambda: so_oracle.n_so_oracle(12, 60),  # escalates
    ]


@contextmanager
def hostile_decimal_context():
    with decimal.localcontext() as context:
        context.prec = 5
        context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
        yield


@pytest.mark.parametrize("context", [hostile_decimal_context, lambda: mpmath.workprec(10)],
                         ids=["decimal-prec-5-trapping", "mpmath-prec-10"])
def test_a_callers_contexts_change_nothing(context):
    """Cold and warm, every result is the one computed in the default
    contexts, whatever decimal context or mpmath precision the caller set."""
    want = [call() for call in _context_cases()]
    clear_caches()
    with context():
        got = [call() for call in _context_cases()]
        got += [call() for call in _context_cases()]
    assert got == want + want


def test_caches_stay_within_their_bounds():
    a1 = root_system("A", 1)
    levels = range(formula.SPECTRUM_CACHE_SIZE + 8)
    precisions = (64, 128, 192, 256)
    for level in levels:
        for p in precisions:
            assert verlinde_sc(a1, level, 1, p).value == level + 1
            assert torus_order_oracle_certified(a1, level, p)[0] == torus_order(a1, level)
    info = formula._sum_of.cache_info()
    assert info.currsize == formula.SPECTRUM_CACHE_SIZE
    kept = [formula._sum_of((((a1.group_type, level),), CenterSpec.TRIVIAL))
            for level in levels[-formula.SPECTRUM_CACHE_SIZE:]]
    assert formula._sum_of.cache_info().misses == info.misses  # all of them kept
    assert all(entry.deltas.cache_info().currsize == 2 for entry in kept)
    assert verlinde_sc(a1, 0, 2).value == 1  # evicted, and built again
    types = [GroupType(f, r) for f, lo in MIN_RANK.items() for r in range(lo, 13)]
    assert len(types) > ROOT_SYSTEM_CACHE_SIZE
    for t in types:
        build_root_system(t)
    assert build_root_system.cache_info().currsize == ROOT_SYSTEM_CACHE_SIZE


def test_a_call_that_raised_raises_again():
    for _ in range(2):
        with pytest.raises(ValueError, match="level must be >= 0"):
            n_sp(2, -1, 3)
        with pytest.raises(ValueError, match="does not apply"):
            verlinde_quotient(root_system("D", 4), 2, CenterSpec.SO_ODD, 2)
    assert formula._sum_of.cache_info().currsize == 0
    n_sp(2, 3, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match=">= 64"):
            n_sp(2, 3, 2, precision=32)


SO12 = (((GroupType("D", 6), 2),), CenterSpec.SO_EVEN)


def test_a_genus_past_the_memos_bound_takes_the_kernel_and_is_refused(capsys):
    """SO(12) at genus 300000 would need N_1..N_g, about 1.6e11 bits: the
    memo stops below MAX_BITS, at genus 540, and the kernel refuses the
    value as before, past MAX_BITS."""
    start = time.perf_counter()
    code = main(["compute", "--group", "so", "--r", "12", "--genus", "300000"])
    elapsed = time.perf_counter() - start
    record = json.loads(capsys.readouterr().out)
    assert code == 1 and record["precision_bits"] > 2**19
    assert elapsed < 10, f"the refusal took {elapsed:.2f} s"
    entry = formula._sum_of(SO12)
    assert entry.memo == [12**g for g in range(1, 541)]
    assert entry.memo_bits == sum(v.bit_length() for v in entry.memo) <= numeric.MAX_BITS


def test_threads_that_extend_one_memo_get_the_values_of_one_thread():
    """Four threads ask for N_300..N_303 of SO(12) at once, on a memo seeded
    with N_1..N_9, while the interpreter switches threads every 0.1 ms: each
    gets 12^g, and the memo holds 12^1..12^303, each value once."""
    genera = range(300, 304)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(30):
            formula._sum_of.cache_clear()
            assert n_so(12, 9).value == 12**9  # seeds the memo
            barrier = threading.Barrier(len(genera))
            got = {}

            def ask(g):
                barrier.wait(timeout=30)
                got[g] = n_so(12, g).value

            threads = [threading.Thread(target=ask, args=(g,), daemon=True) for g in genera]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == {g: 12**g for g in genera}
            assert formula._sum_of(SO12).memo == [12**g for g in range(1, 304)]
    finally:
        sys.setswitchinterval(interval)


def test_an_evicted_key_holds_no_delta_or_memo():
    """A key's Delta tuples and memo live in its entry only: once the entry
    is evicted, nothing holds them."""
    assert n_so(12, 20).value == 12**20
    entry = formula._sum_of(SO12)
    assert len(entry.memo) == 20 and entry.deltas.cache_info().currsize == 1
    held = weakref.ref(entry), weakref.ref(entry.deltas)
    del entry
    a1 = root_system("A", 1)
    for level in range(formula.SPECTRUM_CACHE_SIZE):
        assert verlinde_sc(a1, level, 2).value > 0
    assert [ref() for ref in held] == [None, None]


def test_a_record_does_not_depend_on_the_genera_asked_before():
    cold = n_so(12, 50)
    clear_caches()
    genera = list(range(1, 61))
    random.Random(0).shuffle(genera)
    for g in genera:
        assert n_so(12, g).value == 12**g
    assert n_so(12, 50) == cold
    assert cold.residual == 0.0 and cold.precision_bits == 192


# Spectra of K <= RECURRENCE_MAX_TERMS terms, with the 2K sums that seed
# their recurrence.
SMALL_SPECTRA = [
    pytest.param(lambda g: n_so(12, g), 8, id="SO(12)"),
    pytest.param(lambda g: n_sp(2, 3, g), 10, id="Sp(4)-level-3"),
    pytest.param(lambda g: verlinde_sc(root_system("A", 2), 6, g), 14, id="SU(3)-level-6"),
]


@pytest.mark.parametrize("ask,sums", SMALL_SPECTRA)
def test_each_sum_of_a_small_spectrum_is_certified_once(monkeypatch, ask, sums):
    """Genera 1..60 in any order certify each of N_1..N_2K once: the record
    of a genus g <= 2K and the seed of the recurrence read one sum, and every
    later genus takes the recurrence."""
    certifications = counter(monkeypatch, "certify_integer")
    genera = list(range(1, 61))
    random.Random(1).shuffle(genera)
    for g in genera:
        ask(g)
    assert len(certifications) == sums


@pytest.mark.parametrize("ask,sums", SMALL_SPECTRA)
def test_a_record_does_not_depend_on_when_the_seed_ran(monkeypatch, ask, sums):
    """A record at g <= 2K asked cold, or after a genus past 2K has seeded
    the memo, is the kernel's certified sum at 192 bits."""
    genera = range(1, sums + 1)
    cold = [outcome(ask(g)) for g in genera]
    clear_caches()
    ask(sums + 1)
    seeded = [outcome(ask(g)) for g in genera]
    monkeypatch.setattr(formula, "RECURRENCE_MAX_TERMS", 0)
    clear_caches()
    kernel = [outcome(ask(g)) for g in genera]
    assert seeded == cold == kernel
    assert all(bits == 192 for _, _, bits, _ in cold)


def test_the_default_suite_certifies_each_sum_once(monkeypatch):
    """The suite's values at g <= 2K of its small spectra share their sums
    with the seeds of the recurrence."""
    certifications = counter(monkeypatch, "certify_integer")
    run_default_suite()
    assert len(certifications) == 214


def test_the_default_suite_builds_each_spectrum_once():
    """The unitarity checks of C run right after the duality checks, while
    the spectra of C_r at level s are still cached: 115 distinct keys, each
    built once."""
    run_default_suite()
    assert formula._sum_of.cache_info().misses == 115


def test_type_c_torus_oracle_certifies_once(monkeypatch):
    certifications = counter(monkeypatch, "certify_integer")
    cold = torus_order_oracle_certified(root_system("C", 4), 3)
    assert len(certifications) == 1
    certifications.clear()
    warm = torus_order_oracle_certified(root_system("C", 4), 3)
    assert len(certifications) <= 1
    assert cold == warm and cold[0] == 65536


def test_a_cold_n_sp_certifies_once(monkeypatch):
    certifications = counter(monkeypatch, "certify_integer")
    assert n_sp(4, 3, 2).value == 26120
    assert len(certifications) == 1


SINE_ARGUMENTS = [Fraction(1, 7), Fraction(-3, 10), Fraction(23, 12), Fraction(5, 2)]


@pytest.mark.parametrize("bits", [64, 192, 640])
def test_sine_table_equals_direct_evaluation(bits):
    fresh = [numeric.four_sin_sq(x, bits) for x in SINE_ARGUMENTS]
    table = [numeric.four_sin_sq(x, bits) for x in SINE_ARGUMENTS]
    assert numeric._sine_table.cache_info().hits == len(SINE_ARGUMENTS)
    assert fresh == table
    assert all(map(sine_within_its_bound, fresh, SINE_ARGUMENTS, [bits] * 4))


def test_a_table_value_is_never_served_at_another_precision():
    x = Fraction(2, 9)
    low = numeric.four_sin_sq(x, 64)
    high = numeric.four_sin_sq(x, 192)
    assert sine_within_its_bound(high, x, 192)
    assert high != low
    assert table_misses() == 2


def test_sine_table_stays_within_its_bound():
    for D in range(2, numeric.SINE_TABLE_SIZE + 10):
        numeric._sine_table(D, 64)
    assert numeric._sine_table.cache_info().currsize == numeric.SINE_TABLE_SIZE


def test_an_integer_argument_raises_and_is_not_stored():
    for x in (Fraction(0), Fraction(3), Fraction(-8, 4), 5):
        with pytest.raises(ValueError, match="zero trigonometric factor"):
            numeric.four_sin_sq(x, 64)
    assert numeric._sine_table.cache_info().currsize == 0


def test_a_further_genus_of_the_oracle_reuses_its_deltas(monkeypatch):
    first = so_oracle.n_so_oracle(9, 2)
    sines = counter(monkeypatch, "_sine_table", so_oracle)
    enumerations = counter(monkeypatch, "enumerate_usets", so_oracle)
    later = so_oracle.n_so_oracle(9, 5)
    assert (first.value, later.value) == (81, 9**5)
    assert later.term_count == first.term_count
    assert sines == [] and enumerations == []


@pytest.mark.parametrize("r,genus", [(5, 3), (8, 2), (12, 5), (12, 600), (101, 2)])
def test_the_oracle_reads_only_the_sine_table_of_2r(monkeypatch, r, genus):
    """Every sine of SO(r) is a numerator over 2r: one table per pass's
    precision, of 2 r / 2 + 1 values."""
    tables = counter(monkeypatch, "_sine_table", so_oracle)
    result = so_oracle.n_so_oracle(r, genus)
    assert result.value == r**genus
    read = set(tables)
    assert {D for D, _ in read} == {2 * r}
    assert result.precision_bits in {bits for _, bits in read}
    assert numeric._sine_table.cache_info().currsize == len(read)


def test_warm_oracle_results_equal_cold_results():
    cases = [(r, g, p) for r in range(5, 13) for g in range(1, 7) for p in (64, 192)]
    cold = []
    for r, g, p in cases:
        clear_caches()
        cold.append(outcome(so_oracle.n_so_oracle(r, g, p)))
    for r, g, p in cases:  # warm up at every genus and precision
        so_oracle.n_so_oracle(r, g, p)
    warm = [outcome(so_oracle.n_so_oracle(r, g, p)) for r, g, p in reversed(cases)]
    assert warm[::-1] == cold


@pytest.mark.parametrize("bits", [64, 192, 640])
@pytest.mark.parametrize("family,rank,level", [
    ("A", 2, 3), ("A", 1, 40), ("B", 3, 2), ("C", 3, 4), ("C", 4, 5), ("D", 4, 2),
])
def test_delta_is_the_engines_delta_digit_for_digit(family, rank, level, bits):
    """``delta`` of every level weight is, digit for digit, the Delta that
    the engine holds for its term, in the sorted (A) and counted (B, C, D)
    layouts alike."""
    rs = root_system(family, rank)
    key = (((rs.group_type, level),), CenterSpec.TRIVIAL)
    entry = formula._sum_of(key)
    spectrum = entry.spectrum
    held = {numerators_of(spectrum, js): d
            for (_, _, js), d in zip(spectrum.terms, entry.deltas(bits))}
    D = spectrum.denominator
    for n, _ in reference_listing(((rs, level),)):
        js = (sum((x + 1) * m for x, m in zip(n, row)) for row in rs.pairing_matrix)
        term = tuple(sorted(min(j, D - j) for j in js))
        got = formula.delta(rs, level, weight_from_marks(rs, n), bits)
        # the walk keeps one weight per center orbit: the others share its Delta
        assert got.as_tuple() == held[term].as_tuple()


@pytest.mark.parametrize("bits", [64, 192, 640])
def test_oracle_cache_holds_each_delta_at_its_precision(bits):
    for r in range(5, 13):
        family = "D" if r % 2 == 0 else "B"
        usets = so_oracle.enumerate_usets(family, r // 2, 2)
        want = tuple((size, so_oracle.uset_delta(u, bits)) for u, size in usets)
        assert so_oracle._level_two_terms(r, bits) == want


def test_oracle_cache_stays_within_its_bound():
    precisions = range(64, 64 + so_oracle.ORACLE_CACHE_SIZE + 8)
    for p in precisions:
        assert so_oracle.n_so_oracle(5, 1, p).value == 5
    info = so_oracle._level_two_terms.cache_info()
    assert info.currsize == so_oracle.ORACLE_CACHE_SIZE
    assert info.misses == len(precisions)
