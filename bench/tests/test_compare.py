"""Verdicts of bench/compare.py."""

from bench.compare import UNRESOLVED, WITHIN, WORSE, compare, verdict


def test_same_numbers_are_within_bound():
    runs = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(runs, list(runs), "lower", 0.10)[0] == WITHIN


def test_clear_regression_is_worse():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    new = [x * 1.3 for x in base]
    result, by = verdict(base, new, "lower", 0.10)
    assert result == WORSE and 0.29 < by < 0.31
    # Direction: for a higher-is-better metric the same move is a gain.
    assert verdict(base, new, "higher", 0.10)[0] == WITHIN


def test_regression_without_pair_wins_is_unresolved():
    base = [10.0, 10.0, 10.0, 10.0, 10.0]
    new = [13.0, 13.0, 13.0, 9.0, 9.5]     # worse median, loses 3/5 pairs
    assert verdict(base, new, "lower", 0.10)[0] == UNRESOLVED


def test_spread_wider_than_bound_is_unresolved_not_unchanged():
    base = [7.0, 10.0, 13.0, 8.0, 12.0]
    new = [10.0, 10.5, 9.5, 10.2, 9.8]
    assert verdict(base, new, "lower", 0.10)[0] == UNRESOLVED
    # ...unless every new run beats every base run.
    assert verdict(base, [5.0, 5.1, 4.9], "lower", 0.10)[0] == WITHIN


def test_absolute_bound_for_error_rate():
    assert verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0, True)[0] == WITHIN
    assert verdict([0.0, 0.0, 0.0], [0.1, 0.1, 0.1], "lower", 0.0,
                   True)[0] == WORSE


def _results(walls, digest="d"):
    reps = [{"wall_s": w, "error_rate": 0.0} for w in walls]
    return {"seed": 0, "smoke": False, "workloads": {"fig3-sweep": {
        "reps": reps, "digest": digest, "per_layer": {}}}}


def test_compare_counts_worse_pairs_and_flags_model_changes():
    benchmark = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    base = _results([10.0, 10.1, 9.9, 10.0])
    lines, worse = compare(base, _results([10.0, 10.05, 9.95, 10.0]),
                           benchmark)
    assert worse == 0 and any(WITHIN in line for line in lines)
    lines, worse = compare(base, _results([14.0, 14.1, 13.9, 14.0], "e"),
                           benchmark)
    assert worse == 1
    assert any("model changed" in line for line in lines)
