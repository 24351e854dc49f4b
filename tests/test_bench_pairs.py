"""tools/bench_pairs.py's summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

# Six pairs of lgcf-eval run_s readings (seconds).
PARENT = [1.4325, 1.4264, 1.4168, 1.5473, 1.4800, 1.5551]
CHANGE = [1.2169, 1.2083, 1.2999, 1.3045, 1.3235, 1.3583]


def test_gain_needs_wins_and_a_median_gap_beyond_the_spread():
    s = summarize(PARENT, CHANGE, "lower", 0.25)
    assert s["parent_median"] == pytest.approx(1.45625)
    assert s["change_median"] == pytest.approx(1.3022)
    assert s["parent_spread"] == pytest.approx(1.54925 - 1.4240)
    assert (s["wins"], s["losses"], s["pairs"]) == (6, 0, 6)
    assert s["relative"] == pytest.approx(1.3022 / 1.45625 - 1)
    assert s["verdict"] == "gain"


def test_eight_of_ten_wins_is_no_gain():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 0.9, 0.91]
    change = [0.9, 0.91, 0.89, 0.92, 0.88, 0.9, 0.91, 0.89, 0.95, 0.96]
    s = summarize(parent, change, "lower", 0.25)
    assert (s["wins"], s["losses"]) == (8, 2)
    assert s["verdict"] == "within bound"
    assert summarize(parent[:8], change[:8], "lower", 0.25)["verdict"] == "gain"


def test_gap_inside_the_parent_spread_is_no_gain():
    parent = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.15, 0.85, 1.0, 1.1]
    change = [p - 0.05 for p in parent]
    s = summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 10 and s["parent_spread"] > 0.05
    assert s["verdict"] == "within bound"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    parent = [10.0, 10.1, 9.9, 10.0]
    assert summarize(parent, [11.1, 11.2, 11.0, 11.1], "lower",
                     0.1)["verdict"] == "regression"
    assert summarize(parent, [10.9, 11.0, 10.8, 10.9], "lower",
                     0.1)["verdict"] == "within bound"


def test_higher_is_better_flips_every_comparison():
    parent = [100.0, 101.0, 99.0, 100.0, 100.5]
    s = summarize(parent, [120.0, 121.0, 119.0, 120.0, 120.5], "higher", 0.25)
    assert (s["wins"], s["losses"], s["verdict"]) == (5, 0, "gain")
    s = summarize(parent, [70.0, 71.0, 69.0, 70.0, 70.5], "higher", 0.25)
    assert (s["wins"], s["losses"], s["verdict"]) == (0, 5, "regression")


def test_ties_count_for_neither_side():
    s = summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 4.5], "lower", 0.25)
    assert (s["wins"], s["losses"]) == (1, 1)


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5]
    change = [1.6, 1.4, 1.6, 1.4, 1.5, 1.5]
    assert summarize(parent, change, "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    s = summarize(parent, [0.5, 0.6, 0.5, 0.6, 0.55, 0.9], "lower", 0.25)
    assert s["verdict"] == "within bound"


def test_parse_seeds():
    assert bench_pairs.parse_seeds("7-16") == list(range(7, 17))
    assert bench_pairs.parse_seeds("5") == [5]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-7")


def test_needs_two_pairs_of_equal_length():
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarize([1.0, 2.0, 3.0], [1.0, 2.0], "lower", 0.25)
