"""Batch identity verification with deterministic, reproducible reports.

Three check groups: the SO(r) dimension identity against r^g, the
symplectic level-rank symmetry, and the torus-order unitarity cross-check.
Failures never abort a run; every entry carries its parameters and lands
in the report, sorted by check name and parameters.
"""

from __future__ import annotations

import json
import time
from decimal import Decimal
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .formula import (
    DEFAULT_PRECISION,
    n_so,
    n_sp,
    theta_dim,
    torus_order,
    torus_order_oracle_certified,
)
from .numeric import IntegralityError
from .rootsys import MIN_RANK, root_system
from .so_oracle import n_so_oracle


class SuiteEntry(NamedTuple):
    check_name: str
    parameters: Dict[str, object]
    expected: str  # decimal string, through Decimal: str() refuses 4,301 digits
    computed: str
    residual: float
    passed: bool
    elapsed_ms: float


class SuiteReport(NamedTuple):
    entries: Tuple[SuiteEntry, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    def to_dict(self) -> dict:
        return {
            "entries": [e._asdict() for e in self.entries],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        lines = [
            "| check | parameters | expected | computed | residual | pass |",
            "|---|---|---|---|---|---|",
        ]
        for e in self.entries:
            params = ", ".join(f"{k}={v}" for k, v in sorted(e.parameters.items()))
            lines.append(
                f"| {e.check_name} | {params} | {e.expected} | {e.computed} |"
                f" {e.residual:.2e} | {'yes' if e.passed else 'NO'} |"
            )
        lines.append("")
        lines.append(
            f"**{self.passed}/{self.total} passed**"
            + (f", {self.failed} FAILED" if self.failed else "")
        )
        return "\n".join(lines)


def _sorted_report(entries: List[SuiteEntry]) -> SuiteReport:
    entries.sort(key=lambda e: (e.check_name, sorted(e.parameters.items())))
    return SuiteReport(entries=tuple(entries))


def _outcome(compute) -> Tuple[str, float, bool]:
    """(value string, residual, certified) of ``compute()``, whose first two
    fields are the value and the residual: a ``VerlindeResult``, or the
    torus-order oracle's pair.

    An integrality failure is an outcome like any other, not an error."""
    try:
        value, residual = compute()[:2]
        return str(Decimal(value)), residual, True
    except IntegralityError as err:
        return f"uncertified({err.raw_value})", err.residual, False


def _timed_entry(check_name, parameters, expected_value, compute) -> SuiteEntry:
    """Run one check; integrality failures become failed entries, not errors.

    ``expected_value`` is an integer, the decimal string of another entry's
    outcome, or ``None`` for the entry's own computed value."""
    start = time.perf_counter()
    computed, residual, certified = _outcome(compute)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if isinstance(expected_value, int):
        expected_value = str(Decimal(expected_value))
    expected = computed if expected_value is None else expected_value
    return SuiteEntry(
        check_name=check_name,
        parameters=dict(parameters),
        expected=expected,
        computed=computed,
        residual=residual,
        passed=certified and computed == expected,
        elapsed_ms=elapsed_ms,
    )


def run_so_identity(
    r_max: int, g_max: int, precision: int = DEFAULT_PRECISION
) -> SuiteReport:
    """n_so(r, g) == r^g for 3 <= r <= r_max, 1 <= g <= g_max, plus the
    sequence-coordinate oracle comparison for r >= 5."""
    if r_max < 3 or g_max < 1:
        raise ValueError("need r_max >= 3 and g_max >= 1")
    entries = []
    for r in range(3, r_max + 1):
        for g in range(1, g_max + 1):
            identity = _timed_entry(
                "so-identity",
                {"r": r, "genus": g},
                theta_dim(r, g),
                lambda r=r, g=g: n_so(r, g, precision),
            )
            entries.append(identity)
            if r >= 5:  # the oracle must reproduce the engine value just computed
                entries.append(
                    _timed_entry(
                        "so-oracle-equivalence",
                        {"r": r, "genus": g},
                        identity.computed,
                        lambda r=r, g=g: n_so_oracle(r, g, precision),
                    )
                )
    return _sorted_report(entries)


def run_strange_duality_symmetry(
    r_max: int, s_max: int, g_max: int, precision: int = DEFAULT_PRECISION
) -> SuiteReport:
    """n_sp(r, level=s, g) == n_sp(s, level=r, g) for all pairs in range."""
    if r_max < 1 or s_max < 1 or g_max < 1:
        raise ValueError("bounds must be >= 1")
    entries = []
    for r in range(1, r_max + 1):
        for s in range(r, s_max + 1):
            for g in range(1, g_max + 1):
                # on the diagonal the partner is the computed number itself
                partner = None if r == s else _outcome(lambda: n_sp(s, r, g, precision))[0]
                entries.append(
                    _timed_entry(
                        "sp-duality-symmetry",
                        {"r": r, "s": s, "genus": g},
                        partner,
                        lambda r=r, s=s, g=g: n_sp(r, s, g, precision),
                    )
                )
    return _sorted_report(entries)


def run_unitarity(
    types: Sequence[str],
    rank_max: int,
    level_max: int,
    precision: int = DEFAULT_PRECISION,
) -> SuiteReport:
    """Closed-form torus orders against the sine-sum oracle, for every
    family."""
    if rank_max < 1 or level_max < 0:
        raise ValueError("need rank_max >= 1 and level_max >= 0")
    unknown = [f for f in types if f not in MIN_RANK]
    if unknown:
        raise ValueError(f"unknown families {unknown}; expected some of A, B, C, D")
    entries = []
    for family in types:
        for rank in range(MIN_RANK[family], rank_max + 1):
            rs = root_system(family, rank)
            for level in range(0, level_max + 1):
                entries.append(
                    _timed_entry(
                        "torus-order-unitarity",
                        {"family": family, "rank": rank, "level": level},
                        torus_order(rs, level),
                        lambda rs=rs, level=level: torus_order_oracle_certified(
                            rs, level, precision
                        ),
                    )
                )
    return _sorted_report(entries)


def run_default_suite(
    so_r_max: int = 12,
    so_g_max: int = 5,
    sp_max: int = 4,
    sp_g_max: int = 4,
    unitarity_rank_max: int = 6,
    unitarity_level_max: int = 4,
    precision: int = DEFAULT_PRECISION,
) -> SuiteReport:
    """The full battery at desk scale (completes in well under a minute)."""
    reports = (
        run_so_identity(so_r_max, so_g_max, precision),
        run_strange_duality_symmetry(sp_max, sp_max, sp_g_max, precision),
        # C first: its spectra at levels <= sp_max are still cached from the
        # duality checks, which A and B would evict
        run_unitarity(("C", "A", "B", "D"), unitarity_rank_max, unitarity_level_max, precision),
    )
    return _sorted_report([e for report in reports for e in report.entries])
