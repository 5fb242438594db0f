"""Run one benchmark job in this (fresh) interpreter.

Reads a job spec as JSON on standard input and prints two JSON lines.
The first is the call's output in plain JSON types.  The second holds the
clock reading once the library and its CLI are imported (``ready``), the
wall time of the library call (``run_s``), the peak resident set
(``rss_kb``) and, when the spec asks for tracing, the per-layer profile.
Trees are rendered here, after the timed call, without calling the
library.

Usage (from the repository root, as ``run.py`` does)::

    echo '{"kind": "cli", "argv": ["enum", "balanced", "--json"]}' | python3 bench/job.py
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tamari_balance as tb  # noqa: E402
import tamari_balance.cli  # noqa: E402,F401  (tb.cli below)

# perf_counter reads CLOCK_MONOTONIC on Linux, which every process shares,
# so the parent can subtract its own reading taken before the spawn.
READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer  # noqa: E402

def _render(t, memo: dict) -> str:
    """Tree string of a library tree; subtrees are shared, so memoize."""
    key = id(t)
    text = memo.get(key)
    if text is None:
        text = "." if t.left is None else "(" + _render(t.left, memo) + _render(t.right, memo) + ")"
        memo[key] = text
    return text


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started the job
    interpreter.  ``ru_maxrss`` will not do: on Linux it keeps the
    parent's peak across the fork and exec that start a child, so it reads
    the benchmark's own memory whenever that is larger.  ``VmHWM`` belongs
    to the memory map that exec made."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def prepare(spec):
    """Inputs in library types, built before the clock starts, and the
    call to time."""
    kind = spec["kind"]
    if kind == "cli":
        argv = spec["argv"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tb.cli.main(argv)
            return {"code": code, "stdout": buf.getvalue()}

        return call
    if kind == "family":
        allowed = tb.ImbalanceSet.of(*spec["allowed"])
        sizes = range(spec["max_n"] + 1)
        return lambda: [tb.imbalance_family(n, allowed) for n in sizes]
    if kind == "narayana":
        return lambda: tb.narayana_row(spec["n"])
    pairs = [(tb.parse(a), tb.parse(b)) for a, b in spec["pairs"]]
    if kind == "leq":
        return lambda: [tb.tamari_leq(a, b) for a, b in pairs]
    if kind == "interval":
        return lambda: [tb.interval(a, b) for a, b in pairs]
    if kind == "hypercube":
        return lambda: [tb.verify_hypercube(a, b) for a, b in pairs]
    raise ValueError(f"unknown job kind {kind!r}")


def plain(spec, result):
    """The call's result in JSON types, trees as tree strings."""
    kind = spec["kind"]
    memo: dict = {}
    if kind == "family":
        return [[_render(t, memo) for t in level] for level in result]
    if kind == "interval":
        return [[_render(t, memo) for t in members] for members in result]
    if kind == "narayana":
        return list(result)
    return result


def main() -> int:
    spec = json.loads(sys.stdin.read())
    try:
        call = prepare(spec)
        trace = tracer.Tracer() if spec.get("trace") else None
        if trace is not None:
            trace.install()
        start = time.perf_counter()
        result = call()
        run_s = time.perf_counter() - start
        rss_kb = peak_rss_kb()
        profile = None
        if trace is not None:
            trace.uninstall()
            profile = trace.profile()
        output = plain(spec, result)
    except Exception:
        traceback.print_exc()
        return 1
    # The output goes on a line of its own, so the caller can recognise an
    # output it has already checked by its text.
    print(json.dumps(output, sort_keys=True))
    print(json.dumps({"ready": READY, "run_s": run_s, "rss_kb": rss_kb, "trace": profile}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
