"""The nomhol benchmark: one closed-loop client issuing nomhol CLI calls.

    python3 benchmarks/run.py --workload proof --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports nomhol from ``src``.
Inputs are generated from the seed into files under ``benchmarks/_work``
before timing starts (see ``workloads.py``), then one process and one thread
call ``nomhol.cli.run_cli(argv)`` in-process, one call after the other, with
stdout captured.  The loop walks the workload's ladder in whole cycles of
passes, as many as bring the run closest to ``--seconds`` and make at least
100 calls.  Recursion limit, thread stack size and garbage collection stay
at their defaults.

Every call's exit code and JSON fields are checked against the verdict the
input was built to have; any mismatch makes the run incorrect and the exit
code 1.  Calls that exit 2 or raise count as failed.  A failure is also a
wrong verdict unless the call is tagged with a known defect and fails the way
that defect shows (``workloads.DEFECT_SIGNS``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
passes twice, untraced and then traced (``tracing.py``), checks that both give
the same verdicts and output, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first, then one line
``details: {...}`` with the full tables as JSON (``record.py`` collects it);
the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_CALLS = 100          # so at least 10 calls lie beyond p90
HARD_STOP_S = 150        # stop starting passes after this, whatever else
SETUP_RUNS = 20          # fresh interpreters timed for setup_s (after one warm-up)
COMPILE_REF_MS = 16.0    # compile time of argparse's source at the reference speed
PROBE_DEPTH = 8          # host-speed probe: two trees of 2**9 - 1 nodes
PROBE_REF_MS = 1.75      # probe time that defines the reference speed
FAILED_MS = 180_000.0    # latency reported when a percentile lands on a failure
COMMANDS = ("check-pnl", "check-hol", "translate", "eval", "square", "alpha",
            "normalize", "infer-d")
MUST_REACH = {   # traced names each workload must call, when nomhol has them
    "proof": ("pnl.alpha_eq", "hol.alphabeta_eq", "kernel.check_pnl",
              "kernel.check_hol", "kernel.dedup", "translate.translate_derivation",
              "sexpr.parse_one"),
    "square": ("semantics.enumerate_ground", "semantics.square_check",
               "semantics.eval_pnl_prop", "semantics.HolEvaluator.eval",
               "semantics.ren_eq"),
    "syntax": ("pnl.alpha_eq", "hol.alphabeta_eq", "hol.beta_normalize",
               "translate.translate", "capture.capture_infer"),
}
SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import nomhol.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = nomhol.cli.run_cli(["infer-d", sys.argv[1]])
setup = time.perf_counter() - t0
import argparse
with open(argparse.__file__, encoding="utf-8") as f:
    source = f.read()
t1 = time.perf_counter()
compile(source, "argparse.py", "exec")
print(setup, (time.perf_counter() - t1) * 1e3, rc, out.getvalue().strip())
"""


# ---------------------------------------------------------------------------
# inputs

def digest(w: workloads.Workload) -> str:
    h = hashlib.sha256()
    for name in sorted(w.files):
        h.update(name.encode() + b"\0" + w.files[name].encode() + b"\0")
    for calls in w.passes:
        for c in calls:
            h.update(repr((c.argv, c.exit, sorted(c.expect.items()))).encode())
    return h.hexdigest()


def prepare(name: str, seed: int, work: Path):
    """Build the inputs, check that the seed alone determines them, and write
    them under `work`.  Returns (workload, determinism problems)."""
    w = workloads.build(name, seed)
    problems = []
    if digest(workloads.build(name, seed)) != digest(w):
        problems.append("the same seed gave different inputs")
    if digest(workloads.build(name, seed + 1)) == digest(w):
        problems.append("a different seed gave the same inputs")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for fname, text in w.files.items():
        (work / fname).write_text(text, encoding="utf-8")
    return w, problems


def measure_setup(runs: int) -> tuple:
    """Seconds for `import nomhol.cli` plus one infer-d, each in a fresh
    interpreter, raw and at the reference speed; the first (warm-up)
    interpreter is not counted.  Each interpreter, once timed, compiles the
    source of the standard library's argparse, a fixed job of the same kind
    as an import, and its time is scaled by COMPILE_REF_MS over the compile
    time: the host's speed drifts by up to 60% between minutes, but hardly
    within one short-lived process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    term = SRC / "nomhol" / "corpus_files" / "term_basic.sexp"
    raw, ref = [], []
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(term)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        fields = proc.stdout.split()
        if proc.returncode != 0 or fields[2:] != ["0", "[nu@0]"]:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            raw.append(float(fields[0]))
            ref.append(float(fields[0]) * COMPILE_REF_MS / float(fields[1]))
    return raw, ref


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host the same calls run up to 20-30% slower or faster from one
# minute to the next, because other tenants compete for the core; seeds barely
# matter next to that.  Before every call the loop times a fixed pure-Python
# job shaped like nomhol's work: build two trees of small frozen dataclasses
# and compare them by pattern matching, with the garbage collector paused so
# that nomhol's heap cannot slow the probe.  The host's speed over a run is
# the mean probe time weighted by the duration of the call that follows it,
# relative to PROBE_REF_MS.  Reported times are divided by it: they are the
# times at the reference speed.  The probe and the scaling sit outside nomhol
# and are the same for every revision measured; raw times are printed too.

@dataclass(frozen=True)
class _Leaf:
    value: int


@dataclass(frozen=True)
class _Pair:
    tag: str
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return _Leaf(i % 5)
    return _Pair("app" if i % 2 else "lam", _tree(depth - 1, 2 * i),
                 _tree(depth - 1, 2 * i + 1))


def _same(a, b) -> bool:
    match (a, b):
        case (_Leaf(x), _Leaf(y)):
            return x == y
        case (_Pair(s, l1, r1), _Pair(t, l2, r2)):
            return s == t and _same(l1, l2) and _same(r1, r2)
    return False


def probe_ms() -> float:
    gc.disable()
    try:
        start = time.perf_counter()
        if not _same(_tree(PROBE_DEPTH, 1), _tree(PROBE_DEPTH, 1)):
            raise RuntimeError("host-speed probe miscomputed")
        return (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the closed loop

class Outcome:
    __slots__ = ("cmd", "status", "ms", "stdout", "wrong", "defect", "note")

    def __init__(self, cmd, status, ms, stdout, wrong, defect, note=""):
        self.cmd, self.status, self.ms, self.stdout = cmd, status, ms, stdout
        self.wrong, self.defect, self.note = wrong, defect, note

    @property
    def failed(self) -> bool:
        return self.status not in (0, 1)


def judge(call: workloads.Call, status, stdout: str) -> str:
    """Why the verdict is wrong, or '' when it matches the expected one."""
    if status != call.exit:
        return f"exit {status}, expected {call.exit}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    for key, want in call.expect.items():
        if payload.get(key) != want:
            return f"{key} = {payload.get(key)!r}, expected {want!r}"
    return ""


def run_call(cli, call: workloads.Call) -> Outcome:
    """One call, with file names relative to the current directory."""
    if call.needs and not Path(call.needs).exists():
        return Outcome(call.cmd, "skipped", math.inf, "", True, call.defect,
                       f"{call.needs} was not produced")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run_cli(list(call.argv))
    except Exception as e:   # a crash inside nomhol is a measured failure
        status = type(e).__name__
    ms = (time.perf_counter() - start) * 1e3
    stdout = out.getvalue()
    if status in (0, 1):
        why = judge(call, status, stdout)
        if call.feeds and not why:
            derivation = json.loads(stdout).get("derivation")
            if derivation is None:
                why = "no derivation printed"
            else:
                Path(call.feeds).write_text(derivation, encoding="utf-8")
        return Outcome(call.cmd, status, ms, stdout, bool(why), call.defect, why)
    stderr = err.getvalue().strip()
    sign = workloads.DEFECT_SIGNS.get(call.defect)
    known = sign is not None and status == sign[0] and sign[1] in stderr
    return Outcome(call.cmd, status, ms, stdout, not known, call.defect,
                   stderr[-200:])


class Run:
    """The calls of one run: outcomes, passes made, wall seconds spent in
    calls (probes excluded) and the host-speed probe times."""

    def __init__(self, outcomes, passes, wall, probes):
        self.outcomes, self.passes, self.wall, self.probes = outcomes, passes, wall, probes

    @property
    def speed(self) -> float:
        """How many times slower than the reference speed the host ran: the
        probe times weighted by the duration of the call after each."""
        weights = [o.ms if math.isfinite(o.ms) else 0.0 for o in self.outcomes]
        mean = sum(p * w for p, w in zip(self.probes, weights)) / sum(weights)
        return mean / PROBE_REF_MS


def run_passes(cli, w, work: Path, seconds: float, passes=None) -> Run:
    """Whole cycles of passes, as many as bring the run closest to `seconds`
    and at least MIN_CALLS; or exactly `passes` passes.  A cycle is
    len(workloads.SHIFTS) passes, over which every size takes each of its
    shifts once, so every run has the same mix of sizes."""
    cycle = len(workloads.SHIFTS)
    for f in work.glob("*.hol.sexp"):
        f.unlink()
    outcomes, probes = [], []
    done = 0
    os.chdir(work)
    start = time.perf_counter()
    try:
        while True:
            for call in w.passes[done % len(w.passes)]:
                probes.append(probe_ms())
                outcomes.append(run_call(cli, call))
            done += 1
            elapsed = time.perf_counter() - start
            if passes is not None:
                if done >= passes:
                    break
            elif elapsed >= HARD_STOP_S:
                break
            elif done % cycle == 0 and len(outcomes) >= MIN_CALLS \
                    and elapsed * (1 + cycle / done / 2) >= seconds:
                break
    finally:
        os.chdir(ROOT)
    wall = time.perf_counter() - start - sum(probes) / 1e3
    return Run(outcomes, done, wall, probes)


# ---------------------------------------------------------------------------
# metrics

def percentile(sorted_ms: list, q: float) -> float:
    """Nearest-rank percentile; a failure (inf) reads as FAILED_MS."""
    v = sorted_ms[max(0, math.ceil(q * len(sorted_ms)) - 1)]
    return FAILED_MS if math.isinf(v) else v


def end_to_end(run: Run, scale: float) -> dict:
    """Times are divided by `scale` (1 for raw, run.speed for reference)."""
    outcomes = run.outcomes
    ms = sorted(math.inf if o.failed else o.ms / scale for o in outcomes)
    good = sum(1 for o in outcomes if not o.failed and not o.wrong)
    out = {
        "verdicts_per_s": (good / (run.wall / scale), "1/s"),
        "latency_ms.p50": (percentile(ms, 0.5), "ms"),
        "latency_ms.p90": (percentile(ms, 0.9), "ms"),
    }
    for cmd in COMMANDS:
        mine = sorted(math.inf if o.failed else o.ms / scale
                      for o in outcomes if o.cmd == cmd)
        if mine:
            out[f"latency_ms.p50.{cmd}"] = (percentile(mine, 0.5), "ms")
    out["wrong_verdicts"] = (sum(o.wrong for o in outcomes), "count")
    out["failed_share"] = (sum(o.failed for o in outcomes) / len(outcomes), "ratio")
    out["output_kib"] = (sum(len(o.stdout) for o in outcomes) / 1024 / run.passes,
                         "KiB")
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def failure_lines(outcomes) -> list:
    lines, seen = [], set()
    for o in outcomes:
        if o.wrong or o.failed:
            key = (o.cmd, o.status, o.defect, o.wrong)
            if key not in seen:
                seen.add(key)
                kind = "WRONG" if o.wrong else f"failed (known: {o.defect})"
                lines.append(f"  {kind}: {o.cmd} -> {o.status}: {o.note}")
    return lines


def show(ref: dict, raw: dict):
    """Metric lines: the value at the reference speed, then the raw value."""
    if raw:
        print(f"  {'metric':<40} {'at reference':>14} {'raw':>14}")
    for name, (value, unit) in ref.items():
        extra = f" {raw[name][0]:>14.6g}" if name in raw else (" " * 15 if raw else "")
        print(f"  {name:<40} {value:>14.6g}{extra} {unit}")


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "nomhol" / "cli.py").is_file():
        print(f"error: no nomhol sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}"
    w, problems = prepare(args.workload, args.seed, work)
    setup_raw, setup_ref = ([], []) if args.trace else measure_setup(SETUP_RUNS)
    sys.path.insert(0, str(SRC))
    import nomhol.cli as cli

    print(f"nomhol benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; Python "
          f"{platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    print(f"  inputs: {len(w.files)} files, {len(w.passes[0])} calls per pass, "
          f"digest {digest(w)[:16]}")
    if not args.trace:
        run = run_passes(cli, w, work, args.seconds)
        outcomes = run.outcomes
        raw = end_to_end(run, 1.0)
        raw["setup_s"] = (statistics.median(setup_raw), "s")
        ref = end_to_end(run, run.speed)
        ref["setup_s"] = (statistics.median(setup_ref), "s")
        ref["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        print(f"  {len(outcomes)} calls in {run.passes} passes, {run.wall:.2f} s in "
              f"calls; host speed {run.speed:.4f} x reference")
        show(ref, raw)
        names = ("verdicts_per_s", "latency_ms.p50", "latency_ms.p90", "setup_s",
                 "peak_rss_mib", "output_kib")
        metrics = {n: {"value": ref[n][0], "unit": ref[n][1]} for n in names}
        details = {"host_speed": run.speed, "setup_runs_s": setup_raw,
                   "raw": {k: v[0] for k, v in raw.items()},
                   "at_reference": {k: v[0] for k, v in ref.items()}}
    else:
        from tracing import Tracer
        plain = run_passes(cli, w, work, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            problems += [f"alias not rebound: {a}" for a in tracer.unbound_aliases()]
            traced = run_passes(cli, w, work, 0, plain.passes)
        finally:
            tracer.uninstall()
        outcomes = traced.outcomes
        for a, b in zip(plain.outcomes, outcomes):
            if (a.status, a.stdout) != (b.status, b.stdout):
                problems.append(f"traced {b.cmd} differs from untraced: "
                                f"{a.status} vs {b.status}")
                break
        metrics = tracer.metrics(traced.passes, traced.speed)
        for name in MUST_REACH[args.workload]:
            if name not in tracer.missing and metrics[f"{name}.calls"]["value"] == 0:
                problems.append(f"{name} was never called")
        plain_vps = end_to_end(plain, plain.speed)["verdicts_per_s"][0]
        traced_vps = end_to_end(traced, traced.speed)["verdicts_per_s"][0]
        metrics["trace.overhead"] = {"value": plain_vps / traced_vps - 1,
                                     "unit": "ratio"}
        tracer.write(str(work / "spans"))
        print(f"  {len(outcomes)} calls in {traced.passes} passes: untraced "
              f"{plain.wall:.2f} s, traced {traced.wall:.2f} s in calls; host speed "
              f"{plain.speed:.4f} and {traced.speed:.4f} x reference; "
              f"{len(tracer.spans['name'])} spans written to {work / 'spans.bin'}")
        if tracer.missing:
            print("  not in this nomhol: " + ", ".join(tracer.missing))
        layer = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
        show(layer, {})
        details = {"host_speed": traced.speed, "untraced_host_speed": plain.speed}
    lines = failure_lines(outcomes)
    if lines:
        print("  failures and wrong verdicts (one line per kind):")
        print("\n".join(lines))
    for p in problems:
        print(f"  PROBLEM: {p}")
    wrong = sum(o.wrong for o in outcomes)
    result = {"correct": wrong == 0 and not problems, "attempted": len(outcomes),
              "failed": sum(o.failed for o in outcomes), "metrics": metrics}
    print("details: " + json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
