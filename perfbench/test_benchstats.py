"""Tests of the benchmark's own statistics, metric catalog and tracer.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

import benchstats
import tracer
from benchstats import ERROR, OK, WRONG
from catalog import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def ok_cases(*ms):
    return [(m / 1000.0, OK) for m in ms]


def test_tail_leaves_ten_cases_beyond():
    results = ok_cases(*range(1, 21))
    percentile, value = benchstats.tail_ms(results)
    assert percentile == 50.0
    assert value == pytest.approx(10.0)
    assert sum(1 for t in benchstats.ranked_ms(results) if t > value) == 10


def test_tail_is_highest_such_percentile():
    results = ok_cases(*range(1, 101))
    percentile, value = benchstats.tail_ms(results)
    assert percentile == 90.0
    assert value == pytest.approx(90.0)
    # eleven cases is the least that leaves ten beyond a percentile
    assert benchstats.tail_ms(ok_cases(*range(1, 12))) == (100.0 / 11, pytest.approx(1.0))
    with pytest.raises(ValueError):
        benchstats.tail_ms(ok_cases(*range(1, 11)))


def test_failed_cases_count_as_over_any_limit():
    # the two failures are the fastest cases, yet they rank above every time
    results = [(0.0001, WRONG), (0.0002, ERROR)] + ok_cases(*range(1, 19))
    ranked = benchstats.ranked_ms(results)
    assert ranked[-2:] == [math.inf, math.inf]
    percentile, value = benchstats.tail_ms(results)
    assert percentile == 50.0
    assert value == pytest.approx(10.0)
    # with more than ten failures the tail itself is a failure
    many = [(0.001, ERROR)] * 11 + ok_cases(1, 2, 3)
    assert benchstats.tail_ms(many)[1] == math.inf
    # and with most cases failed, so is the median
    assert benchstats.median_ms([(0.001, ERROR)] * 3 + ok_cases(5)) == math.inf


def test_error_rate_counts_wrong_and_errored_over_attempted():
    outcomes = [OK] * 6 + [WRONG, ERROR]
    assert benchstats.failed_count(outcomes) == 2
    assert benchstats.error_rate(outcomes) == 0.25
    assert benchstats.error_rate([OK]) == 0.0
    with pytest.raises(ValueError):
        benchstats.error_rate([])


def test_verdicts_classify_into_outcomes():
    import workloads

    assert workloads.outcome("NotInvertible", "NotInvertible") == OK
    assert workloads.outcome("pass", "fail:associator-pentagon") == WRONG
    assert workloads.outcome("pass", "NotUnital") == WRONG
    assert workloads.outcome("pass", "error:traceback: NotUnital") == ERROR


def test_summarize_counts_only_correct_verdicts():
    results = ok_cases(*range(1, 20)) + [(0.01, ERROR)]
    s = benchstats.summarize(results)
    # 19 verdicts in 190 ms of correct cases plus 10 ms of the failed one
    assert s["verdicts_per_s"] == pytest.approx(19 / 0.2)
    assert s["cases"] == 20
    assert s["case_p50_ms"] == pytest.approx(10.5)


def test_catalog_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_tracer_reports_missing_target_as_absent():
    targets = (
        ("gone.module", ("no_such_module_anywhere:f",), True, None, None),
        ("gone.attr", ("hopftwist.linalg:no_such_function",), True, None, None),
    )
    tr = tracer.Tracer(targets)
    assert tr.install() == ["gone.module", "gone.attr"]
    tr.uninstall()


def test_tracer_counts_through_every_binding_and_restores():
    from fractions import Fraction

    from hopftwist import linalg, scalars

    original_solve = linalg.solve
    original_mul = scalars.Series.__mul__
    tr = tracer.Tracer()
    tr.install()
    try:
        linalg.solve([[Fraction(2)]], [Fraction(1)])
        x = scalars.Series.hbar(2)
        x * x  # __mul__
        2 * x  # the __rmul__ alias
    finally:
        tr.uninstall()
    assert tr.stats["linalg.solve"]["calls"] == 1
    assert tr.stats["scalars.series_mul"]["calls"] == 2
    assert linalg.solve is original_solve
    assert scalars.Series.__mul__ is original_mul
    assert scalars.Series.__rmul__ is original_mul


def test_monomial_closed_form_matches_pauli_counterexample():
    from hopftwist import constructors as con

    import workloads

    P8 = con.pauli_8()
    lab = P8.labels
    iX, iZ, m1 = lab.index("iX"), lab.index("iZ"), lab.index("-1")
    assert workloads.monomial_d2_closed_form(P8, iX, iZ) == (0, m1, m1, 0)
    # commuting factors give the unit
    assert workloads.monomial_d2_closed_form(P8, iX, m1) == (0, 0, 0, 0)
