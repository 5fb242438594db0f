"""Every job's check must turn a wrong output into a failed job.

Each job runs once for real at a small size (its output must pass), then
its output is corrupted in one value and judged again, as ``run.py``
judges a finished job.
"""

import json
import subprocess
import sys

import pytest

import run
import workloads as w


def _cli_payload(edit):
    def mutate(output):
        payload = json.loads(output["stdout"])
        edit(payload)
        return dict(output, stdout=json.dumps(payload))

    return mutate


def _bump_last_row(payload):
    payload["rows"][-1]["computed"] += 1


def _drop_an_edge(payload):
    lines = payload["dot"].splitlines()
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    payload["dot"] = "\n".join(lines[:edge] + lines[edge + 1:])


def _unbalance_one(rows):
    n = len(rows) - 1
    rows[n][0] = "(" * n + "." + ".)" * n  # the left comb
    return rows


MUTATIONS = {
    "check-closure-balanced": _cli_payload(
        lambda p: p["results"][-1].update(counterexample={"chain": []})
    ),
    "check-hypercube": _cli_payload(lambda p: p["results"][-1].update(
        intervals=p["results"][-1]["intervals"] + 1)),
    "enum-balanced-intervals": _cli_payload(_bump_last_row),
    "enum-maximal-intervals": _cli_payload(_bump_last_row),
    "enum-balanced": _cli_payload(_bump_last_row),
    "enum-maximal-balanced": _cli_payload(_bump_last_row),
    "enum-zero-one-balanced": _cli_payload(_bump_last_row),
    "enum-interior-by-height": _cli_payload(_bump_last_row),
    "hasse-balanced": _cli_payload(_drop_an_edge),
    "imbalance-family": _unbalance_one,
    "narayana-row": lambda row: [row[0] + 1] + row[1:],
    "tamari-leq": lambda answers: [not answers[0]] + answers[1:],
    "tamari-leq-combs": lambda answers: [not answers[0]],
    "interval": lambda members: [members[0][:-1]] + members[1:],
    "verify-hypercube": lambda results: [[results[0][0], False]] + results[1:],
}
for name in w.SERIES_DEGREES:
    MUTATIONS[f"series-{name}"] = _cli_payload(
        lambda p: p["terms"][-1].update(coefficient=p["terms"][-1]["coefficient"] + 1)
    )

SMALL_JOBS = (
    w.poset_sweep(max_n=5)
    + w.grammar_series({name: 8 for name in w.SERIES_DEGREES})
    + w.tree_enumeration(hasse_n=7, family_max=12, narayana_n=6)
    + w.order_queries(seed=3, share=0.02)
)


def test_every_job_has_a_mutation():
    assert {job.name for job in SMALL_JOBS} == set(MUTATIONS)


@pytest.mark.parametrize("job", SMALL_JOBS, ids=lambda job: job.name)
def test_wrong_output_fails_the_job(job):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "job.py")],
        input=json.dumps(job.spec), capture_output=True, text=True, cwd=run.ROOT,
    )
    good = run.judge(job, proc, 0.0, run.Checker())
    assert not good["failed"], good["problems"]

    output_line, meta_line = proc.stdout.rstrip("\n").split("\n")
    bad = MUTATIONS[job.name](json.loads(output_line))
    proc.stdout = json.dumps(bad, sort_keys=True) + "\n" + meta_line + "\n"
    judged = run.judge(job, proc, 0.0, run.Checker())
    assert judged["failed"] and judged["wrong"] and judged["problems"]


def test_a_crashing_job_fails():
    job = w.Job("crash", {"kind": "no-such-kind"}, lambda output: [])
    record = run.run_job(job, False, run.Checker(), timeout=60)
    assert record["failed"] and not record["wrong"]


def test_peak_rss_is_the_jobs_own():
    """The benchmark's own memory does not enter a job's peak resident set."""
    ballast = bytearray(b"\x01") * (64 << 20)
    job = w.Job("narayana-row", {"kind": "narayana", "n": 6}, lambda output: [])
    record = run.run_job(job, False, run.Checker(), timeout=60)
    assert not record["failed"] and record["rss_mb"] < len(ballast) / 2**20 / 2


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    from tracer import layer_metrics

    layers = {**layer_metrics([]), "trace.overhead_s": 0.0}
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in layers
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(w.WORKLOADS)
