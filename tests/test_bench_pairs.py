"""The claim rule of tools/bench_pairs.py on fixed numbers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import claim_holds  # noqa: E402

# The parent: median 100, quartiles 98.25 and 101.75, an interquartile range of 3.5.
PARENT = [96, 98, 98, 99, 100, 100, 101, 102, 102, 104]


def test_a_gain_needs_nine_wins_in_ten_and_a_median_past_the_spread():
    assert claim_holds([(x, x + 10) for x in PARENT], higher=True)
    # nine wins still bear it; eight do not
    nine = [(x, x + 10) for x in PARENT[:9]] + [(PARENT[9], PARENT[9] - 1)]
    assert claim_holds(nine, higher=True)
    eight = nine[:8] + [(x, x - 1) for x in PARENT[8:]]
    assert not claim_holds(eight, higher=True)


def test_winning_every_pair_by_less_than_the_spread_is_no_gain():
    assert not claim_holds([(x, x + 3) for x in PARENT], higher=True)   # 103 - 100 < 3.5
    assert claim_holds([(x, x + 5) for x in PARENT], higher=True)       # 105 - 100 > 3.5


def test_a_lower_is_better_metric_gains_by_falling():
    assert claim_holds([(x, x - 10) for x in PARENT], higher=False)
    assert not claim_holds([(x, x + 10) for x in PARENT], higher=False)
    assert not claim_holds([(x, x - 10) for x in PARENT], higher=True)
