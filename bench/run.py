"""Benchmark for tamari_balance: four workloads, one command.

Each job of a workload runs in a fresh interpreter (``job.py``), one at a
time, so no cache, intern table or poset carries over between jobs, as
for a user running the CLI.  A run repeats whole rounds of the workload's
jobs for about ``--seconds`` seconds and checks every output.

    python3 bench/run.py --workload poset-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over jobs of the time from spawning the interpreter until the
library and its CLI are imported), ``run_s`` (the wall time of the jobs'
library calls: each job's median over rounds, summed over the jobs) and
``peak_rss_mb`` (largest peak resident set of any job).  Both times are
given at a reference host speed (see ``probe``).  With ``--trace 1`` it
alternates plain and traced rounds and reports the per-layer metrics of
the traced ones, plus the tracing overhead, in plain wall time; the span
records go to ``.bench_trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# A run must end within 180 s even when the library hangs: jobs that
# would pass this many seconds from the start are stopped and failed.
RUN_LIMIT_S = 165
TRACE_DIR = ROOT / ".bench_trace"
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# The shared host's speed shifts by up to a factor of two from one minute
# to the next, as other machines' load on its cores comes and goes, and
# process CPU time shifts with it.  So before each job the parent times a
# fixed loop, and the end-to-end times are scaled by REFERENCE_PROBE_S
# over the run's median probe: they read as wall times at the speed at
# which the probe takes 10 ms (a 2-core host of this kind when it is
# quiet).  Measured on both sides of such a shift, job times halved, the
# probe took 2.3 times less, and job time over probe time moved by 2-6%.
REFERENCE_PROBE_S = 0.010
PROBE_ITERATIONS = 28_000


def probe() -> float:
    """Seconds a fixed pure-Python loop of the library's kind (tuples,
    hashing, dict and set updates) takes now.  Garbage collection is off
    while it runs, so the benchmark's own heap does not enter the reading."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        seen = set()
        for x in range(PROBE_ITERATIONS):
            key = (x % 97, x * 31 % 1013, (x, x + 1))
            counts[key] = counts.get(key, 0) + 1
            seen.add(hash(key) & 1023)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Checker:
    """Judges job outputs; an output text already judged for the same job
    in this run is not checked again."""

    def __init__(self) -> None:
        self.seen: dict[tuple[str, str], list[str]] = {}

    def problems(self, job: workloads.Job, text: str) -> list[str]:
        key = (job.name, hashlib.sha256(text.encode()).hexdigest())
        if key not in self.seen:
            try:
                self.seen[key] = job.check(json.loads(text))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self.seen[key] = [f"malformed output: {exc!r}"]
        return self.seen[key]


def run_job(job: workloads.Job, trace: bool, checker: Checker, timeout: float) -> dict:
    """Run one job in a fresh interpreter and judge its output."""
    spec = json.dumps(dict(job.spec, trace=trace))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py")],
            input=spec,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"name": job.name, "failed": True, "wrong": False,
                "problems": [f"stopped after {timeout:.1f} s"]}
    return judge(job, proc, spawned, checker)


def judge(job: workloads.Job, proc, spawned: float, checker: Checker) -> dict:
    """The record of a finished job: failed when it exited non-zero or
    its output did not pass the job's check."""
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"name": job.name, "failed": True, "wrong": False, "problems": tail}
    meta = json.loads(lines[-1])
    problems = checker.problems(job, lines[-2])
    return {
        "name": job.name,
        "failed": bool(problems),
        "wrong": bool(problems),
        "problems": problems,
        "setup_s": meta["ready"] - spawned,
        "run_s": meta["run_s"],
        "rss_mb": meta["rss_kb"] / 1024,
        "trace": meta["trace"],
    }


def run_round(jobs, trace: bool, checker: Checker, deadline: float) -> list[dict]:
    """Every job once, each right after a reading of the host's speed."""
    records = []
    for job in jobs:
        probe_s = probe()
        record = run_job(job, trace, checker, max(1.0, deadline - time.perf_counter()))
        records.append({**record, "probe_s": probe_s})
    return records


def run_time(rounds: list[list[dict]]) -> float:
    """Summed over jobs, the median over rounds of each job's wall time.

    Taking each job's median first keeps a burst of host load that slows
    one job in one round out of the result."""
    by_job: dict[str, list[float]] = {}
    for rnd in rounds:
        for r in rnd:
            by_job.setdefault(r["name"], []).append(r.get("run_s", 0.0))
    return sum(statistics.median(times) for times in by_job.values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    jobs = workloads.build(workload, seed)
    checker = Checker()
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    # The measured window starts once the inputs are drawn (about 5 s for
    # order-queries), so every workload gets the same number of seconds
    # of rounds to average the host's speed over.  Whole rounds only, and
    # no round that would end past the window (judged by the last one), so
    # every run attempts the same operations in the same proportions.
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(run_round(jobs, False, checker, deadline))
        if trace:
            traced.append(run_round(jobs, True, checker, deadline))
        took = time.perf_counter() - began
        if time.perf_counter() - started + took > seconds:
            break
    done = [r for rnd in plain + traced for r in rnd]
    for r in done:
        if r["failed"]:
            print(f"FAILED {r['name']}: {'; '.join(r['problems'][:3])}", file=sys.stderr)
    ok = [r for rnd in plain for r in rnd if not r["failed"]]
    plain_run_s = run_time(plain)
    probe_s = statistics.median(r["probe_s"] for r in done)
    if trace:
        from tracer import layer_metrics

        per_round = [
            layer_metrics([r["trace"] for r in rnd if not r["failed"]]) for rnd in traced
        ]
        metrics = {
            name: statistics.median(m[name] for m in per_round) for name in per_round[0]
        }
        metrics["trace.overhead_s"] = run_time(traced) - plain_run_s
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"{workload}-seed{seed}.json").write_text(
            json.dumps(
                [
                    {"round": i, "job": r["name"], **(r["trace"] or {})}
                    for i, rnd in enumerate(traced)
                    for r in rnd
                ]
            )
        )
        units = {name: _layer_unit(name) for name in metrics}
    else:
        speed = REFERENCE_PROBE_S / probe_s
        metrics = {
            "setup_s": speed * statistics.median(r["setup_s"] for r in ok) if ok else 0.0,
            "run_s": speed * plain_run_s,
            "peak_rss_mb": max((r["rss_mb"] for r in ok), default=0.0),
        }
        units = END_TO_END_UNITS
    per_job = {
        job.name: (
            run_time([[r for r in rnd if r["name"] == job.name] for rnd in plain]),
            max((r["rss_mb"] for r in ok if r["name"] == job.name), default=0.0),
        )
        for job in jobs
    }
    return {
        "correct": not any(r["wrong"] for r in done),
        "attempted": len(done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "rounds": len(plain),
        "probe_s": probe_s,
        "per_job": per_job,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_share", "_yield", "_per_leq")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tamari_balance" / "__init__.py").is_file():
        print(f"error: no tamari_balance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(
            f"{name}: {result['attempted']} jobs in {result['rounds']} rounds, "
            f"{result['failed']} failed; median probe {1000 * result['probe_s']:.2f} ms"
        )
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for job, (took, rss) in sorted(result["per_job"].items()):
            print(f"    job {job}: {took:.3f} s, {rss:.1f} MB")
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": m
            for name, result in results.items()
            for metric, m in result["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
