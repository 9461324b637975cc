"""``tools/bench_pair.py``'s per-metric summary on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def pairs(parent_walls, change_walls):
    """Pairs whose steps_per_s is 1000 / wall_s on each side."""
    side = lambda wall: {"metrics": {"wall_s": {"value": wall}, "steps_per_s": {"value": 1000.0 / wall}}}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent_walls, change_walls)]


def test_win():
    out = bench_pair.summarize(pairs([1.00, 1.02, 0.98, 1.01, 0.99], [0.90, 0.91, 0.89, 0.90, 0.92]), METRICS)
    for name in ("wall_s", "steps_per_s"):
        assert out[name]["change_wins"] == 5
        assert out[name]["beats_parent_iqr"] is True
        assert out[name]["worse_than_bound"] is False
    assert out["wall_s"]["median_change_rel"] == pytest.approx(0.90 / 1.00 - 1.0)


def test_tie():
    walls = [1.00, 1.02, 0.98, 1.01, 0.99]
    out = bench_pair.summarize(pairs(walls, walls), METRICS)
    for name in ("wall_s", "steps_per_s"):
        assert out[name]["change_wins"] == 0
        assert out[name]["median_change_rel"] == 0.0
        assert out[name]["beats_parent_iqr"] is False
        assert out[name]["worse_than_bound"] is False


def test_regression_past_bound():
    # wall_s 1.0 -> 1.4 is 40% worse; steps_per_s 1000 -> 714 is 29% worse.
    out = bench_pair.summarize(pairs([1.00, 1.02, 0.98], [1.40, 1.41, 1.39]), METRICS)
    for name in ("wall_s", "steps_per_s"):
        assert out[name]["change_wins"] == 0
        assert out[name]["worse_than_bound"] is True


def test_regression_within_bound():
    # 20% slower is worse, but inside the 25% bound.
    out = bench_pair.summarize(pairs([1.00, 1.02, 0.98], [1.20, 1.21, 1.19]), METRICS)
    assert out["wall_s"]["worse_than_bound"] is False
    assert out["steps_per_s"]["worse_than_bound"] is False


def test_claim_rule_ten_of_ten():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99]
    out = bench_pair.summarize(pairs(parent, [w - 0.1 for w in parent]), METRICS)
    for name in ("wall_s", "steps_per_s"):
        assert out[name]["change_wins"] == 10
        assert out[name]["meets_claim_rule"] is True


def test_claim_rule_eight_of_ten():
    # Two pairs lose, so 8/10 falls short of 9/10 though the median gain beats the parent's IQR.
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99]
    change = [w - 0.1 for w in parent[:8]] + [1.10, 1.10]
    out = bench_pair.summarize(pairs(parent, change), METRICS)
    for name in ("wall_s", "steps_per_s"):
        assert out[name]["change_wins"] == 8
        assert out[name]["beats_parent_iqr"] is True
        assert out[name]["meets_claim_rule"] is False


@pytest.mark.parametrize("ties, meets", [(1, True), (2, False)])
def test_claim_rule_ties_count_for_neither_side(ties, meets):
    # 10 - ties wins and `ties` ties: a tie is no win, and still counts among the pairs.
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99]
    change = parent[:ties] + [w - 0.1 for w in parent[ties:]]
    out = bench_pair.summarize(pairs(parent, change), METRICS)
    for name in ("wall_s", "steps_per_s"):
        assert out[name]["change_wins"] == 10 - ties
        assert out[name]["pairs"] == 10
        assert out[name]["beats_parent_iqr"] is True
        assert out[name]["meets_claim_rule"] is meets
