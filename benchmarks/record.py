"""Record a revision's benchmark results: ten untraced runs per workload, their
spreads, and one traced run.

    python3 benchmarks/record.py --out benchmarks/results/seed-commit.json

Run it from the root of a source checkout.  For every workload in
BENCHMARK.json it runs ``run.py`` once per seed with ``--trace 0`` and once,
with the first seed, with ``--trace 1``, one run after the other.  It writes
the git revision, Python version and nproc, every run's result and details
line, and for every end-to-end metric the median, quartiles and spread
(quartile distance over median, as ``statistics.quantiles(values, n=4)``
gives the quartiles) next to the metric's bound.  It exits 1 if a run fails
or is incorrect, or if a spread other than that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py: its result line, with the details line folded in."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("details: "):
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    record = {"seed": seed, "attempted": result["attempted"],
              "failed": result["failed"], "correct": result["correct"],
              "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    record.update(json.loads(lines[-2][len("details: "):]))
    return record


def summary(runs: list, declared: list) -> dict:
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"],
                          "unit": m["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)),
                    help="seeds of the untraced runs (default 1-10); the "
                         "traced run uses the first")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = {"revision": git_revision(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
           "command": " ".join(spec["command"]) + " --workload W --seed S "
                      f"--seconds {seconds} --trace T",
           "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run(name, args.seeds[0], seconds, 1)
        table = summary(runs, spec["end_to_end"])
        for metric, s in table.items():
            flag = ""
            if metric != "setup_s" and s["spread"] > s["bound"]:
                flag, ok = "  OVER BOUND", False
            print(f"  {metric:<20} median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}")
        print(f"  trace.overhead {traced['metrics']['trace.overhead']:.3f}", flush=True)
        ok = ok and all(r["correct"] for r in runs) and traced["correct"]
        doc["workloads"][name] = {"untraced_summary": table, "untraced_runs": runs,
                                  "traced": traced}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
