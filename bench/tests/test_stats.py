"""Percentiles, the ten-beyond rule, quartiles and span self time."""

import statistics

import pytest

from bench import stats


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 95) == 95
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank(values, 0.5) == 1
    assert stats.nearest_rank([7.0], 95) == 7.0
    # Unsorted input; the answer is always an observed sample.
    assert stats.nearest_rank([5, 1, 4, 2, 3], 50) == 3
    assert stats.nearest_rank([5, 1, 4, 2], 50) == 2


@pytest.mark.parametrize("bad", [0, -1, 100.5])
def test_nearest_rank_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        stats.nearest_rank([1, 2, 3], bad)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize("n, expected", [
    (250, 12), (200, 10), (199, 9), (100, 5), (20, 1), (1, 0), (0, 0),
])
def test_samples_beyond_p95(n, expected):
    assert stats.beyond(n, 95) == expected


def test_tail_reports_samples_beyond():
    full = stats.tail([float(x) for x in range(250)], 95)
    assert full == {"value": 237.0, "n": 250, "beyond": 12}
    assert full["beyond"] >= stats.MIN_BEYOND
    short = stats.tail([float(x) for x in range(199)], 95)
    assert short["beyond"] == 9 < stats.MIN_BEYOND


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    s = stats.summary(values)
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (q1, q2, q3, 7)
    single = stats.summary([2.5])
    assert single == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_covered_merges_overlaps_and_clips():
    assert stats.covered([], 0, 10) == 0
    assert stats.covered([(1, 3), (2, 5)], 0, 10) == 4      # overlap
    assert stats.covered([(1, 3), (1, 3)], 0, 10) == 2      # duplicate
    assert stats.covered([(1, 2), (4, 6)], 0, 10) == 3      # disjoint
    assert stats.covered([(2, 4), (1, 9)], 0, 10) == 8      # nested
    assert stats.covered([(-5, 2), (8, 20)], 0, 10) == 4    # clipped
    assert stats.covered([(11, 12)], 0, 10) == 0            # outside


def span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


def test_self_time_nested_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("a1", "a", 2.0, 3.0),     # grandchild: only reduces a
        span("b", "root", 6.0, 7.5),
    ]
    selfs = stats.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(1.5)


def test_self_time_overlapping_children_count_once():
    # Two workers (other processes) busy in parallel under one batch.
    spans = [
        span("batch", None, 0.0, 10.0),
        span("w1", "batch", 1.0, 6.0),
        span("w2", "batch", 3.0, 9.0),
        span("late", "batch", 9.5, 12.0),   # runs past its parent
    ]
    selfs = stats.self_times(spans)
    assert selfs["batch"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs["late"] == pytest.approx(2.5)
    assert min(selfs.values()) >= 0
