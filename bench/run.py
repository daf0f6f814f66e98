"""Seeded end-to-end benchmark of the topsym CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze-mix --seed 1 --seconds 35 --trace 0

Workloads (inputs and closed-form answers are in ``workloads.py``):

* ``analyze-mix``: ``analyze --json --assert-symmetric`` on splits with
  120-250 relative cells; rank-only homology through ``betti`` dominates.
* ``verify-mix``: ``verify --json`` (all five identity suites) on smaller
  splits of the same families; homology bases, class expressions, Morse
  matchings and in-request cache hits.
* ``double-large``: ``double -o FILE`` on 680-770-face inputs; no GF(2)
  work, only parsing, split validation, gluing and output.

With ``--trace 0`` the run times ``import topsym.cli`` in fresh
interpreters (``setup_s``, the median of ``SETUP_PROBES``, half of them
before and half after the loop, each scaled to the reference kernel's
nominal speed as described in ``reference.py``) and starts one client interpreter
(``client.py``) that sends requests in a closed loop for ``--seconds``.
Every answer is checked.  Request times are reported in *ref*: each
request's wall time divided by the time of the fixed reference kernel of
``reference.py`` run beside it, so that the shared host's changes of
speed cancel out (wall times are printed too).  With ``--trace 1`` the client runs
the loop untraced for half the time, then runs the same requests again with
spans around every topsym layer (``tracing.py``), and the run reports the
per-request layer metrics instead.

The last line of standard output is the result as one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
describe the run for a reader.  The exit code is 0 when a result was
printed, 2 when the topsym sources are missing and 1 when no request
succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
# A run must end within 180 s; the clients share what is left after set-up.
RUN_BUDGET_S = 170.0
# The probe times the import, then runs the reference kernel in the same
# interpreter: the host's speed can differ between processes at one moment.
PROBE = (
    "import time; t = time.perf_counter(); import topsym.cli; wall = time.perf_counter() - t; "
    "import sys; sys.path.insert(0, sys.argv[1]); import reference; "
    "print(wall, (reference.timed() + reference.timed()) / 2)"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(count: int) -> list:
    """(wall, scaled) times for ``count`` fresh interpreters to import ``topsym.cli``.

    One unreported probe first, so every reported one finds compiled
    bytecode, as a user's second and later invocations do.  The scaled
    time is the wall time at the reference kernel's nominal speed, from
    kernel runs in the probe's interpreter just after its import.
    """
    times = []
    for i in range(count + 1):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, HERE], env=_env(), capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            wall, ref = map(float, done.stdout.split())
            times.append((wall, wall * reference.NOMINAL_S / ref))
    return times


def run_client(workload: str, seed: int, run_dir: str, deadline: float, seconds=None, requests=None, spans=None):
    """Start one client interpreter; returns (request records, totals or None)."""
    cmd = [sys.executable, os.path.join(HERE, "client.py"), "--workload", workload, "--seed", str(seed),
           "--out", run_dir]
    cmd += ["--requests", str(requests)] if requests is not None else ["--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        stdout, stderr = done.stdout, done.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the client
        stdout, stderr = exc.stdout or "", exc.stderr or ""
        if isinstance(stdout, bytes):
            stdout, stderr = stdout.decode(errors="replace"), stderr.decode(errors="replace")
        stderr += "\nclient killed at the run deadline"
    records, totals = [], None
    for line in stdout.splitlines():
        item = json.loads(line)
        if "index" in item:
            records.append(item)
        else:
            totals = item
    if totals is None:
        # The client died or was killed: the request in flight failed too.
        sys.stderr.write(stderr[-2000:])
        records.append({"index": len(records), "family": "?", "faces": 0, "latency_s": 0.0, "ref_s": 1.0,
                        "status": "crash", "reason": "client exited without totals"})
    return records, totals


def tail(latencies):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, totals, setup_s):
    tail_value, tail_pct = tail([_in_ref(r) for r in records])
    metrics = {
        "setup_s": (setup_s, "s"),
        "faces_per_ref": (_faces_per_ref(records), "faces/ref"),
        "latency_p50_ref": (statistics.median(_in_ref(r) for r in records), "ref"),
        "latency_tail_ref": (tail_value, "ref"),
        "peak_rss_mb": (totals["peak_rss_mb"], "MB"),
    }
    latencies = [r["latency_s"] for r in records]
    notes = [
        "latency_tail_ref is p%.1f of %d requests" % (tail_pct, len(records)),
        "wall time: %.6g faces/s, p50 %.6g s, tail %.6g s; reference kernel median %.6g s" % (
            sum(r["faces"] for r in records if r["status"] == "ok") / sum(latencies),
            statistics.median(latencies), tail(latencies)[0], statistics.median(r["ref_s"] for r in records)),
    ]
    return metrics, notes


def describe(records, failed, out):
    """Per-family latency medians and every failure, for the reader."""
    for family in sorted({r["family"] for r in records}):
        mine = [r["latency_s"] for r in records if r["family"] == family]
        ref = [_in_ref(r) for r in records if r["family"] == family]
        out.append("%-13s %3d requests, median %.4f s, %.3f ref" % (
            family, len(mine), statistics.median(mine), statistics.median(ref)))
    for r in failed:
        out.append("FAILED request %d (%s): %s %s" % (r["index"], r["family"], r["status"], r["reason"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark of the topsym CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # On SIGTERM, unwind so subprocess.run kills and reaps the running client.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "topsym", "cli.py")):
        print("error: no topsym sources under %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    lines = ["workload %s, seed %d, %g s, trace %d" % (args.workload, args.seed, args.seconds, args.trace)]
    try:
        if args.trace:
            plain, plain_totals = run_client(args.workload, args.seed, run_dir, deadline, seconds=args.seconds / 2)
            spans = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
            records, totals = run_client(args.workload, args.seed, run_dir, deadline,
                                         requests=len(plain), spans=spans)
            all_records = plain + records
        else:
            # Probes on both sides of the loop, so one phase of a host whose
            # speed drifts over minutes does not set the median alone.
            setup = import_times(SETUP_PROBES // 2)
            records, totals = run_client(args.workload, args.seed, run_dir, deadline, seconds=args.seconds)
            setup += import_times(SETUP_PROBES - SETUP_PROBES // 2)
            setup_s = statistics.median(scaled for _, scaled in setup)
            lines.append("setup: wall-time median %.6g s over %d probes" % (
                statistics.median(wall for wall, _ in setup), len(setup)))
            all_records = records
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wrong = [r for r in all_records if r["status"] == "wrong"]
    failed = [r for r in all_records if r["status"] != "ok"]
    describe(records, failed, lines)
    lines.append("fail_ratio %d/%d" % (len(failed), len(all_records)))
    if totals is None or len(failed) == len(all_records):
        print("\n".join(lines))
        print("error: no result, the client did not finish", file=sys.stderr)
        return 1

    if args.trace:
        if plain_totals is None:
            print("\n".join(lines))
            print("error: no result, the untraced client did not finish", file=sys.stderr)
            return 1
        trace = totals["trace"]
        layer = dict(trace["metrics"])
        layer["trace.overhead_ratio"] = _faces_per_ref(records) / _faces_per_ref(plain)
        metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
        lines.append("traced %d requests, %d spans written to %s" % (len(records), trace["spans"], spans))
        lines.extend(_self_table(trace))
    else:
        metrics, notes = end_to_end(records, totals, setup_s)
        lines.extend(notes)
    for name, (value, unit) in metrics.items():
        lines.append("%-32s %14.6g %s" % (name, value, unit))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _in_ref(record) -> float:
    """A request's wall time in units of the reference kernel run beside it."""
    return record["latency_s"] / record["ref_s"]


def _faces_per_ref(records) -> float:
    """Domain faces of the successful requests per ref of request time."""
    return sum(r["faces"] for r in records if r["status"] == "ok") / sum(_in_ref(r) for r in records)


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s/req" if name.endswith("_s") else "count/req"


def _self_table(trace):
    """Self time per layer and per span key, largest first."""
    total = sum(trace["self_s"].values())
    layers = {}
    for key, seconds in trace["self_s"].items():
        layers[key.split(".")[0]] = layers.get(key.split(".")[0], 0.0) + seconds
    out = ["self time, %.3f s traced:" % total]
    for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        out.append("  %-12s %9.4f s %5.1f%%" % (name, seconds, 100.0 * seconds / total))
    for key, seconds in sorted(trace["self_s"].items(), key=lambda kv: -kv[1]):
        out.append("    %-30s %9.4f s %5.1f%% %8d calls" % (key, seconds, 100.0 * seconds / total, trace["calls"][key]))
    return out


if __name__ == "__main__":
    sys.exit(main())
