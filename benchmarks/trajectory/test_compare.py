"""compare.py on synthetic runs: verdict rules, pairing, layer table."""

from __future__ import annotations

import pytest

import compare

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 101.5]


def test_clear_improvement_on_every_pair_is_a_gain():
    change = [value - 20.0 for value in PARENT]
    label, stats = compare.verdict(PARENT, change, "lower", 0.1)
    assert label == compare.GAIN
    assert stats["wins"] == 10


def test_gain_needs_nine_of_ten_wins_ties_counting_for_neither():
    change = [value - 20.0 for value in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]  # two ties
    label, stats = compare.verdict(PARENT, change, "lower", 0.1)
    assert stats["wins"] == 8
    assert label == compare.WITHIN


def test_gain_needs_a_gap_wider_than_the_parent_interquartile_range():
    change = [value - 1.0 for value in PARENT]  # wins every pair, tiny gap
    label, stats = compare.verdict(PARENT, change, "lower", 0.1)
    assert stats["wins"] == 10
    assert stats["parent_q3"] - stats["parent_q1"] > 1.0
    assert label == compare.WITHIN


def test_more_failed_operations_void_a_gain():
    change = [value - 20.0 for value in PARENT]
    label, _ = compare.verdict(
        PARENT, change, "lower", 0.1, parent_failed=0, change_failed=1
    )
    assert label == compare.WITHIN


def test_worse_median_beyond_the_bound_is_a_regression():
    change = [value * 1.2 for value in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1)[0] == compare.REGRESSION
    # The same numbers are a gain when higher is better.
    assert compare.verdict(PARENT, change, "higher", 0.1)[0] == compare.GAIN


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 65.0, 135.0]
    change = list(reversed(noisy))
    label, stats = compare.verdict(noisy, change, "lower", 0.1)
    assert stats["parent_spread"] > 0.1
    assert label == compare.UNRESOLVED


def _records(values, pairs=10, change_first=lambda pair: pair % 2, trace=0,
             metric="m"):
    records, order = [], 0
    for pair in range(pairs):
        sides = ["parent", "change"]
        if change_first(pair):
            sides.reverse()
        for side in sides:
            value = values[side][pair]
            records.append({
                "pair": pair, "side": side, "order": order,
                "workload": "w", "seed": pair, "trace": trace,
                "result": {
                    "correct": True, "attempted": 10, "failed": 0,
                    "metrics": {metric: {"value": value, "unit": "ms"}},
                },
            })
            order += 1
    return records


def test_pairing_refuses_fewer_than_ten_pairs():
    values = {"parent": PARENT, "change": PARENT}
    with pytest.raises(ValueError, match="at least 10"):
        compare.paired(_records(values, pairs=9), "w", 0)


def test_pairing_refuses_an_order_that_does_not_alternate():
    values = {"parent": PARENT, "change": PARENT}
    with pytest.raises(ValueError, match="alternate"):
        compare.paired(_records(values, change_first=lambda pair: False), "w", 0)
    # Balanced but not alternating: parent first in pairs 0-4 only.
    with pytest.raises(ValueError, match="alternate"):
        compare.paired(_records(values, change_first=lambda pair: pair >= 5), "w", 0)
    assert len(compare.paired(_records(values), "w", 0)) == 10


def test_any_simulated_difference_is_a_model_change():
    spec = {"end_to_end": [
        {"name": "sim_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    ]}
    same = {"parent": PARENT, "change": list(PARENT)}
    assert "identical" in compare.report(_records(same, metric="sim_ms"), spec)
    # One pair 1% worse is far inside the bound, and still reported.
    nudged = list(PARENT)
    nudged[3] *= 1.01
    text = compare.report(
        _records({"parent": PARENT, "change": nudged}, metric="sim_ms"), spec
    )
    assert "model change" in text and "within bound" not in text


def test_report_tables_give_verdicts_and_every_ratio_with_its_base():
    values = {"parent": PARENT, "change": [v - 20.0 for v in PARENT]}
    spec = {"end_to_end": [
        {"name": "m", "unit": "ms", "better": "lower", "bound": 0.1},
    ]}
    text = compare.report(_records(values), spec)
    assert "gain" in text and "10/10" in text
    traced = compare.report(_records(values, trace=1), spec)
    assert "x of 100.25 ms" in traced
    zero = {"parent": [0.0] * 10, "change": [1.0] * 10}
    assert "n/a (base 0 ms)" in compare.report(_records(zero, trace=1), spec)
