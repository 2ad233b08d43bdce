"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S --seed K

Runs `benchmarks/run.py --workload W --seed SEED --seconds S --trace 0` in
each checkout, as it is there, N times each.  Pair i uses seed K + i on
both sides; the parent runs first in even pairs and the change in odd ones,
so that a drift of the host's speed falls on both sides alike.  After each
run it prints one line; at the end, for every end-to-end metric that
`BENCHMARK.json` in PARENT_DIR declares, each side's median and quartiles,
the pairs the change wins (ties count for neither), the change's gain
(positive when better) as a share of the parent's median, and whether the
change's median is worse than the parent's by more than the metric's
`bound`, as the same share.  The last column says whether the pairs bear
a claimed gain (`claim_holds`): the change wins at least 9 of 10 pairs, and
its median is better than the parent's by more than the parent's
interquartile range.  Failed calls are reported as a share of the calls
attempted.

run.py divides every time by the host's speed, which it measures with a
probe during the run (`host_speed` in its `details:` line).  A change in
that scale moves every time-based metric alike, whatever the code does, so
each run's line also gives its `host_speed`, and a second table gives the
medians, wins and gains of `host_speed` (lower is faster) and of the raw
metrics, the times as measured.

Exits 1 if any run is not `correct: true` or prints no result.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DETAILS = "details: "


def read_run(stdout: str) -> dict:
    """The JSON object that the last line of run.py's stdout holds, with
    the one its `details:` line holds under "details" ({} when there is no
    such line); {"correct": False, "details": {}} when there is no
    last-line object."""
    lines = stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "details": {}}
    got["details"] = next((json.loads(line[len(DETAILS):]) for line in lines
                           if line.startswith(DETAILS)), {})
    return got


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    got = read_run(proc.stdout)
    if "metrics" not in got:
        sys.stderr.write(proc.stdout + proc.stderr)
    return got


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def claim_holds(pairs: list, higher: bool) -> bool:
    """Whether (parent, change) pairs of a metric bear a claimed gain: the
    change wins at least nine in ten pairs, and its median is better than
    the parent's by more than the distance between the parent's quartiles."""
    p, c = (quartiles([pair[k] for pair in pairs]) for k in (0, 1))
    wins = sum((y > x) if higher else (y < x) for x, y in pairs)
    gain = c[1] - p[1] if higher else p[1] - c[1]
    return 10 * wins >= 9 * len(pairs) and gain > p[2] - p[0]


def paired(results: dict, value) -> list:
    """(parent, change) pairs of value(run), where both runs have one."""
    return [(x, y) for x, y in ((value(a), value(b)) for a, b in
                                zip(results["parent"], results["change"]))
            if x is not None and y is not None]


def compare(pairs: list, higher: bool) -> tuple:
    """Each side's median (q1-q3) as text, the pairs the change wins, and
    how much worse the change's median is, as a share of the parent's."""
    p, c = (quartiles([pair[k] for pair in pairs]) for k in (0, 1))
    wins = sum((y > x) if higher else (y < x) for x, y in pairs)
    worse = (p[1] - c[1] if higher else c[1] - p[1]) / p[1] if p[1] else 0.0
    return [f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})" for q in (p, c)], wins, worse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    declared = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}

    results: dict = {side: [] for side in SIDES}
    correct = True
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            got = run_once(dirs[side], args.workload, seed, args.seconds)
            correct &= got.get("correct") is True
            results[side].append(got)
            m = got.get("metrics", {})
            print(f"pair {i + 1} seed {seed} {side}: correct {got.get('correct')}, "
                  f"failed {got.get('failed')}/{got.get('attempted')}, "
                  f"host_speed {got['details'].get('host_speed', float('nan')):.4f}, "
                  + ", ".join(f"{d['name']} {m[d['name']]['value']:.4g}"
                              for d in declared if d["name"] in m), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for side in SIDES:
        failed = sum(r.get("failed", 0) for r in results[side])
        attempted = sum(r.get("attempted", 0) for r in results[side])
        print(f"  {side}: failed {failed}/{attempted} calls")
    print(f"  {'metric':<16} {'parent median (q1-q3)':>28} "
          f"{'change median (q1-q3)':>28} {'wins':>6} {'gain':>8} {'bound':>6} "
          f"{'':>5} claim")
    for d in declared:
        name, higher = d["name"], d["better"] == "higher"
        pairs = paired(results, lambda r: r.get("metrics", {}).get(name, {}).get("value"))
        if not pairs:
            print(f"  {name:<16} missing")
            continue
        spread, wins, worse = compare(pairs, higher)
        flag = "WORSE" if worse > d["bound"] else "ok"
        claim = "yes" if claim_holds(pairs, higher) else "no"
        print(f"  {name:<16} {spread[0]:>28} {spread[1]:>28} "
              f"{wins:>3}/{len(pairs):<2} {-worse:>+8.1%} "
              f"{d['bound']:>6g} {flag:<5} {claim}")
    print("  raw, not divided by host_speed (how many times slower than the "
          "reference the host ran):")
    rows = [("host_speed", False, lambda r: r["details"].get("host_speed"))]
    rows += [(d["name"], d["better"] == "higher",
              lambda r, name=d["name"]: r["details"].get("raw", {}).get(name))
             for d in declared]
    for name, higher, value in rows:
        pairs = paired(results, value)
        if pairs:
            spread, wins, worse = compare(pairs, higher)
            print(f"  {name:<16} {spread[0]:>28} {spread[1]:>28} "
                  f"{wins:>3}/{len(pairs):<2} {-worse:>+8.1%}")
    if not correct:
        print("  a run was not correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
