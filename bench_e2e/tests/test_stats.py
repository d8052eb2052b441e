"""The order statistics and the span arithmetic the report rests on."""

import pytest

from repro.obs.tracing import TraceRecord

from bench_e2e.stats import percentile, span_totals, summarize


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summarize_reports_median_min_max():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "min": 1.0, "max": 3.0}


def _span(name, start, end, span_id, parent_id=None):
    return TraceRecord("span", name, start, end, span_id, parent_id)


def test_self_time_is_duration_minus_direct_children():
    # op [0, 10]
    #   query [1, 7]
    #     einn [2, 5]
    #   encode [8, 9.5]
    # op [20, 24]  (no children)
    records = [
        _span("einn", 2.0, 5.0, 2, parent_id=1),
        _span("query", 1.0, 7.0, 1, parent_id=0),
        _span("encode", 8.0, 9.5, 3, parent_id=0),
        _span("op", 0.0, 10.0, 0),
        _span("op", 20.0, 24.0, 4),
        TraceRecord("event", "note", 3.0, 3.0, 5, parent_id=2),
    ]
    totals = span_totals(records)
    assert totals["op"].count == 2
    assert totals["op"].total_s == pytest.approx(14.0)
    # 10 - (6 + 1.5) for the first, 4 for the second: grandchildren
    # are not subtracted twice.
    assert totals["op"].self_s == pytest.approx(6.5)
    assert totals["query"].self_s == pytest.approx(3.0)
    assert totals["einn"].self_s == pytest.approx(3.0)
    assert totals["encode"].mean_s == pytest.approx(1.5)
    assert "note" not in totals
