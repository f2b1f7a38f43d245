"""Acceptance gate: one test per workbench criterion.

Each test runs the corresponding criterion end to end at its stated
tolerance and prints the same one-line verdict that `latslice repro all`
emits.  Key numbers from the details dict are re-asserted so a silent
change in any of them fails loudly here.
"""
import math

import pytest

from latslice import acceptance as acc


def check(result, number):
    print(result.line())
    assert result.number == number
    assert result.passed, result.details
    return result.details


def test_criterion_01_double_count_identity():
    d = check(acc.criterion_01_double_count(), 1)
    assert d == {"sets": 700}               # 7 primes x 100 subsets, no timing


def test_criterion_01_reports_a_broken_identity(edit_line_counts):
    def one_too_many(u0, chunk):
        chunk += 1

    edit_line_counts(one_too_many)
    res = acc.criterion_01_double_count()
    assert not res.passed
    assert "double count" in res.details["error"]


def test_criterion_02_chebyshev_battery():
    d = check(acc.criterion_02_chebyshev(), 2)
    assert d["sets"] + d["empty_skipped"] == 700
    assert d["worst_margin"] >= 0.0


def test_criterion_03_product_slices():
    d = check(acc.criterion_03_affine_reduction(), 3)
    assert d["triples"] == 3000


def test_criterion_04_tube_width():
    d = check(acc.criterion_04_tube_width(), 4)
    assert d["samples"] == 10_000
    assert d["max_deviation"] <= 1e-9


def test_criterion_05_staircase_counts():
    d = check(acc.criterion_05_staircase_counts(), 5)
    assert d["max_N"] == 1024
    assert d["points"] == 524800


def test_criterion_06_staircase_dimension_pair():
    d = check(acc.criterion_06_staircase_dimensions(), 6)
    want = math.log(1024 * 1025 // 2) / math.log(2.0 ** 20)
    assert d["ratio"] == pytest.approx(want, abs=1e-12)
    assert d["closed_form"] == pytest.approx(want)
    assert 0.45 <= d["slice_estimate"] <= 0.55


def test_criterion_07_zigzag_growth_and_slices():
    d = check(acc.criterion_07_zigzag(), 7)
    assert d["corner_ratio"] == pytest.approx(d["lambda1"], rel=0.01)
    assert d["lambda1"] == pytest.approx(math.tan(math.pi / 4 + 0.2))
    assert d["log_bound_ok"] is True
    assert d["worst_excess"] <= 0.0
    assert d["final_dim_estimate"] <= 0.15
    assert d["levels"] == 110


def test_criterion_08_survey_mean_bound():
    d = check(acc.criterion_08_survey_bound(), 8)
    assert d["mean_exact_v"] <= d["bound"] + 1e-9
    assert d["mean"] <= d["bound"] + d["resolution_term"] + 1e-9
    assert d["good_fraction"] >= 1.0 - 1.0 / d["k"]


def test_criterion_09_slice_oracles():
    d = check(acc.criterion_09_oracle_equivalence(), 9)
    assert d["sets"] == 50
    assert d["largest"] >= 10 ** 4


def test_criterion_09_index_path_reads_the_index(monkeypatch):
    """Criterion 09 slices each set once more than its five queries, so all
    five of its "index" slices read the set's index; only that discarded
    slice and the fresh copies of the "scan" path scan every point."""
    from latslice.geometry import PointSet
    scans = []
    candidate_rows = PointSet._candidate_rows

    def record(ps, x_max, bounds):
        scans.append(ps._strips is None and not ps._sliced)
        return candidate_rows(ps, x_max, bounds)

    monkeypatch.setattr(PointSet, "_candidate_rows", record)
    check(acc.criterion_09_oracle_equivalence(), 9)
    assert scans.count(False) == 50 * 5     # 3 tubes and 2 floor lines a set
    assert scans.count(True) == 50 * (1 + 5)


def test_criterion_10_level_finder():
    d = check(acc.criterion_10_level_finder(), 10)
    assert d["dense_levels"] > 0
    assert d["sparse_levels"] == 0
