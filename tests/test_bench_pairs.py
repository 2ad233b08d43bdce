"""The claim rule of tools/bench_pairs.py on fixed numbers, and how it reads
a run's output."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import claim_holds, compare, paired, read_run  # noqa: E402

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


def test_a_run_is_read_with_its_host_speed_and_raw_times():
    out = "\n".join([
        "nomhol benchmark: workload square, seed 1, 30 s, trace 0",
        'details: {"host_speed": 1.25, "raw": {"latency_ms.p50": 1.5}}',
        '{"correct": true, "metrics": {"latency_ms.p50": {"value": 1.2}}}'])
    got = read_run(out)
    assert got["correct"] is True and got["metrics"]["latency_ms.p50"]["value"] == 1.2
    assert got["details"] == {"host_speed": 1.25, "raw": {"latency_ms.p50": 1.5}}
    assert read_run(out.replace("details: ", "detail: "))["details"] == {}
    assert read_run("Traceback (most recent call last):") == \
        {"correct": False, "details": {}}
    # a latency that falls only because the host read slower: the raw
    # medians are equal, and the change wins no pair of them
    runs = {"parent": [read_run(out)] * 3,
            "change": [read_run(out.replace("1.25", "1.5").replace("1.2}", "1.0}"))] * 3}
    raw = paired(runs, lambda r: r["details"]["raw"]["latency_ms.p50"])
    assert compare(raw, higher=False) == (["1.5 (1.5-1.5)"] * 2, 0, 0.0)
    scaled = paired(runs, lambda r: r["metrics"]["latency_ms.p50"]["value"])
    assert compare(scaled, higher=False)[1] == 3
