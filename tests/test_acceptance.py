"""Acceptance battery: one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines on the terminal.
"""

import json
import random
import time
from fractions import Fraction

from verlinde.formula import (
    delta,
    n_so,
    n_sp,
    theta_dim,
    torus_order,
    torus_order_oracle_certified,
    verlinde_sc,
)
from verlinde.rootsys import root_system, weight_from_marks
from verlinde.so_oracle import USet, enumerate_usets, n_so_oracle, uset_delta
from verlinde.suite import run_default_suite
from verlinde.weights import CenterSpec, u_coords

from helpers import distance, enumerate_level_weights, integrality_tolerance, restrict_to_quotient

TOL20 = Fraction(1, 10**20)

LEVEL_TWO_FAMILIES = [("B", s) for s in range(2, 7)] + [("D", s) for s in range(3, 7)]


def verdict(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def assert_certified(res) -> None:
    assert res.residual < integrality_tolerance(res.value)


def test_criterion_1_so_identity():
    """n_so(r, g) == r^g exactly for r in 3..12, g in 2..5, under 30 s."""
    start = time.perf_counter()
    for r in range(3, 13):
        for g in range(2, 6):
            res = n_so(r, g)
            assert res.value == theta_dim(r, g), (r, g, res.value)
            assert_certified(res)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"identity sweep took {elapsed:.1f}s"
    verdict(1, "so-identity r^g")


def test_criterion_2_oracle_equivalence():
    """Sequence-coordinate oracle equals the engine for r in 5..12, g in 2..5,
    and the two Delta formulas agree pointwise below 1e-20 at level 2."""
    for r in range(5, 13):
        for g in range(2, 6):
            a = n_so(r, g)
            b = n_so_oracle(r, g)
            assert a.value == b.value, (r, g, a.value, b.value)
            assert_certified(a)
            assert_certified(b)
    for family, s in LEVEL_TWO_FAMILIES:
        rs = root_system(family, s)
        spec = CenterSpec.SO_ODD if family == "B" else CenterSpec.SO_EVEN
        kept = restrict_to_quotient(enumerate_level_weights(rs, 2), spec, (rs, 2))
        k = 2 + rs.dual_coxeter
        for lam in (weight_from_marks(rs, n) for n in kept):
            u = USet(family, s, k, tuple(u_coords(rs, lam).u))
            assert distance(uset_delta(u), delta(rs, 2, lam)) < TOL20
    verdict(2, "oracle equivalence + pointwise Delta")


def test_criterion_3_closed_product_values():
    """Level-2 products round exactly to 4 r^(s-1) (interior) or r^(s-1)
    (boundary), ranks 2..6, residual below 1e-20."""
    for family, s in LEVEL_TWO_FAMILIES:
        r = 2 * s if family == "D" else 2 * s + 1
        for u, _ in enumerate_usets(family, s, 2):
            if family == "D":
                missing = (set(range(s + 1)) - {int(v) for v in u.values}).pop()
                interior = 1 <= missing <= s - 1
            else:
                missing = (
                    {Fraction(2 * j + 1, 2) for j in range(s + 1)} - set(u.values)
                ).pop()
                interior = missing != Fraction(2 * s + 1, 2)
            expected = 4 * r ** (s - 1) if interior else r ** (s - 1)
            assert distance(uset_delta(u), expected) < TOL20, (family, s, u.values)
    verdict(3, "closed product values")


def test_criterion_4_torus_orders():
    """|T_4| = 12 for A1 and |T_2| = 4 r^s for B_s/D_s (ranks <= 6):
    closed form against the unitarity oracle, residual below 1e-20."""
    a1 = root_system("A", 1)
    assert torus_order(a1, 4) == 12
    value, residual = torus_order_oracle_certified(a1, 4)
    assert value == 12 and residual < TOL20
    for family, s in LEVEL_TWO_FAMILIES:
        rs = root_system(family, s)
        r = 2 * s if family == "D" else 2 * s + 1
        closed = torus_order(rs, 2)
        assert closed == 4 * r**s
        value, residual = torus_order_oracle_certified(rs, 2)
        assert value == closed and residual < TOL20, (family, s)
    verdict(4, "torus orders")


def test_criterion_5_simply_connected_sanity():
    """verlinde_sc(A1, 1, g) == 2^g for g <= 6 and verlinde_sc(A1, 2, 2) == 10."""
    a1 = root_system("A", 1)
    for g in range(1, 7):
        res = verlinde_sc(a1, 1, g)
        assert res.value == 2**g
        assert_certified(res)
    res = verlinde_sc(a1, 2, 2)
    assert res.value == 10
    assert_certified(res)
    verdict(5, "simply connected sanity")


def test_criterion_6_strange_duality_symmetry():
    """n_sp(r, level=s, g) == n_sp(s, level=r, g) for r, s <= 4, g <= 4,
    under 60 s."""
    start = time.perf_counter()
    values = {}
    for r in range(1, 5):
        for s in range(1, 5):
            for g in range(1, 5):
                res = n_sp(r, s, g)
                assert_certified(res)
                values[(r, s, g)] = res.value
    for (r, s, g), v in values.items():
        assert v == values[(s, r, g)], (r, s, g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"symplectic sweep took {elapsed:.1f}s"
    verdict(6, "symplectic dimension symmetry")


def test_criterion_7_integrality_certification():
    """Residuals stay below max(1e-9 |value|, 1e-30) and the certified
    integer is unchanged when the precision doubles (20 random configs)."""
    rng = random.Random(20240917)
    configs = []
    for _ in range(20):
        kind = rng.choice(["so", "sp", "sc"])
        if kind == "so":
            configs.append(("so", rng.randint(3, 12), rng.randint(2, 5)))
        elif kind == "sp":
            configs.append(("sp", rng.randint(1, 4), rng.randint(1, 4),
                            rng.randint(2, 4)))
        else:
            configs.append(("sc", rng.randint(1, 6), rng.randint(2, 5)))
    a1 = root_system("A", 1)
    for cfg in configs:
        if cfg[0] == "so":
            base, double = n_so(cfg[1], cfg[2]), n_so(cfg[1], cfg[2], precision=384)
        elif cfg[0] == "sp":
            base = n_sp(cfg[1], cfg[2], cfg[3])
            double = n_sp(cfg[1], cfg[2], cfg[3], precision=384)
        else:
            base = verlinde_sc(a1, cfg[1], cfg[2])
            double = verlinde_sc(a1, cfg[1], cfg[2], precision=384)
        assert_certified(base)
        assert_certified(double)
        assert base.value == double.value, cfg
    verdict(7, "integrality certification")


def test_criterion_8_suite_determinism():
    """Two full default-suite runs give identical reports modulo timing."""
    def stripped(report):
        data = report.to_dict()
        for entry in data["entries"]:
            entry.pop("elapsed_ms")
        return json.dumps(data, sort_keys=True)

    first = run_default_suite()
    second = run_default_suite()
    assert first.failed == 0
    assert stripped(first) == stripped(second)
    verdict(8, "suite determinism")
