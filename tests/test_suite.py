import json
from decimal import Decimal

import pytest

from verlinde.numeric import IntegralityError
from verlinde.suite import (
    SuiteReport,
    _timed_entry,
    run_so_identity,
    run_strange_duality_symmetry,
    run_unitarity,
)


def strip_timing(report_json: str) -> str:
    data = json.loads(report_json)
    for entry in data["entries"]:
        entry.pop("elapsed_ms")
    return json.dumps(data, sort_keys=True)


def test_so_identity_small_run_passes():
    report = run_so_identity(6, 2)
    assert report.failed == 0
    names = {e.check_name for e in report.entries}
    assert names == {"so-identity", "so-oracle-equivalence"}
    # oracle entries only for r >= 5
    oracle_rs = {e.parameters["r"] for e in report.entries
                 if e.check_name == "so-oracle-equivalence"}
    assert oracle_rs == {5, 6}


def test_so_identity_expected_values_are_powers():
    report = run_so_identity(4, 3)
    for e in report.entries:
        if e.check_name == "so-identity":
            assert int(e.expected) == e.parameters["r"] ** e.parameters["genus"]


def test_entries_are_sorted():
    report = run_so_identity(5, 2)
    keys = [(e.check_name, sorted(e.parameters.items())) for e in report.entries]
    assert keys == sorted(keys)


def test_strange_duality_small_run():
    report = run_strange_duality_symmetry(2, 2, 2)
    assert report.failed == 0
    pairs = {(e.parameters["r"], e.parameters["s"]) for e in report.entries}
    assert pairs == {(1, 1), (1, 2), (2, 2)}


def test_unitarity_closed_form_and_oracle_only():
    report = run_unitarity(("A", "C"), 2, 2)
    assert report.failed == 0
    for e in report.entries:
        assert e.expected.isdigit()


def test_unitarity_c2_matches_b2():
    report_c = run_unitarity(("C",), 2, 2)
    report_b = run_unitarity(("B",), 2, 2)
    c2 = {e.parameters["level"]: e.computed for e in report_c.entries
          if e.parameters["rank"] == 2}
    b2 = {e.parameters["level"]: e.computed for e in report_b.entries
          if e.parameters["rank"] == 2}
    assert c2 == b2


def test_reports_are_deterministic_modulo_timing():
    a = run_so_identity(5, 2)
    b = run_so_identity(5, 2)
    assert strip_timing(a.to_json()) == strip_timing(b.to_json())


def test_markdown_rendering():
    report = run_so_identity(3, 1)
    md = report.to_markdown()
    assert md.startswith("| check |")
    assert "so-identity" in md
    assert "passed**" in md


def test_json_summary_counts():
    report = run_so_identity(4, 2)
    data = json.loads(report.to_json())
    assert data["summary"]["total"] == len(data["entries"])
    assert data["summary"]["failed"] == 0
    assert data["summary"]["passed"] == data["summary"]["total"]


def test_failed_entries_are_recorded_not_raised():
    def bad():
        raise IntegralityError("1.5", 0.5, 1536, "farther from an integer than its bound")

    entry = _timed_entry("synthetic", {"x": 1}, 2, bad)
    assert not entry.passed
    assert entry.computed.startswith("uncertified")
    report = SuiteReport(entries=(entry,))
    assert report.failed == 1
    assert "NO" in report.to_markdown()


def test_engine_failure_fails_its_entries_without_aborting(monkeypatch):
    import verlinde.suite as suite

    real = suite.n_so

    def flaky(r, g, *args):
        if (r, g) == (6, 2):
            raise IntegralityError("36.5", 0.5, 1536, "farther from an integer than its bound")
        return real(r, g, *args)

    monkeypatch.setattr(suite, "n_so", flaky)
    report = run_so_identity(6, 2)
    failed = {(e.check_name, e.parameters["r"], e.parameters["genus"])
              for e in report.entries if not e.passed}
    assert failed == {("so-identity", 6, 2), ("so-oracle-equivalence", 6, 2)}


def test_each_engine_value_is_computed_once(monkeypatch):
    import verlinde.suite as suite

    calls = []

    def counted(real):
        def engine(*args):
            calls.append(args[:-1])  # without the precision
            return real(*args)
        return engine

    for name in ("n_so", "n_sp"):
        monkeypatch.setattr(suite, name, counted(getattr(suite, name)))
    run_so_identity(6, 2)
    assert len(calls) == len(set(calls)) == 8
    calls.clear()
    report = run_strange_duality_symmetry(2, 2, 1)
    assert report.failed == 0
    # (1, 1), (1, 2) and its partner (2, 1), (2, 2)
    assert sorted(calls) == [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)]
    diagonal = [e for e in report.entries if e.parameters["r"] == e.parameters["s"]]
    assert all(e.expected == e.computed for e in diagonal)


def test_mismatch_marks_entry_failed():
    entry = _timed_entry("synthetic", {"x": 1}, 3, lambda: (4, 0.0))
    assert not entry.passed
    assert entry.expected == "3"
    assert entry.computed == "4"


def test_bounds_validation():
    with pytest.raises(ValueError):
        run_so_identity(2, 1)
    with pytest.raises(ValueError):
        run_strange_duality_symmetry(0, 1, 1)


def test_unitarity_bounds_validation():
    with pytest.raises(ValueError, match="level_max >= 0"):
        run_unitarity(("A",), 2, -1)
    with pytest.raises(ValueError, match="rank_max >= 1"):
        run_unitarity(("A",), 0, 1)
    with pytest.raises(ValueError, match="unknown famil"):
        run_unitarity(("A", "E"), 6, 1)


def test_values_of_more_than_4300_digits_are_reported():
    # past the limit of int-to-str conversion, as in run_so_identity(12, 4000)
    value = 12**4000
    entry = _timed_entry("so-identity", {"r": 12, "genus": 4000}, value,
                         lambda: (value, 0.0))
    assert entry.passed
    assert entry.computed == entry.expected == str(Decimal(value))
