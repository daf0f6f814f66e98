"""One benchmark client: a fresh interpreter sending CLI requests in a closed loop.

The client calls ``topsym.cli.main([...])`` once per request and sends the
next request only after the previous one has returned.  It runs whole
rounds of the workload's slots (see ``workloads.py``), at least
``MIN_ROUNDS`` of them, for about ``--seconds``, or until at least
``--requests`` requests have been sent when that is given.  Each
request has its own timeout, so a hang or a ``RecursionError`` is counted
as a failed request and the loop goes on.  Between requests, outside
their timed region, it runs the reference kernel of ``reference.py``; each
request record carries ``ref_s``, the mean kernel time just before and
just after the request, the host's speed at that moment.

It prints one JSON line per request and then one line of run totals.
``bench/run.py`` starts it; to run it by hand:

    python3 bench/client.py --workload analyze-mix --seed 1 --seconds 5 --out .bench_out/manual
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402  (sibling module)
import workloads  # noqa: E402

REQUEST_TIMEOUT_S = 20.0
# Peak memory is read after this many rounds, a fixed amount of work, so a
# faster program does not show more cached pairs.  Two rounds also give
# every run at least twelve requests, enough for a tail with ten beyond it.
MIN_ROUNDS = 2
# Kernel runs before the first request, so the first timed one finds it warm.
REFERENCE_WARMUP = 3

ARGV = {
    "analyze": lambda path, out: ["analyze", path, "--json", "--assert-symmetric"],
    "verify": lambda path, out: ["verify", path, "--json"],
    "double": lambda path, out: ["double", path, "-o", out],
}


class RequestTimeout(BaseException):
    """Raised into a request that ran past ``REQUEST_TIMEOUT_S``.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise RequestTimeout()


def run_request(main, workload: str, space: workloads.Space, index: int, out_dir: str) -> dict:
    """Write, send and check one request; only ``main`` is timed."""
    name = "%s-%d" % (space.family, index)
    path = os.path.join(out_dir, name + ".json")
    double_path = os.path.join(out_dir, name + "_double.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(space.file_dict(name), handle)
    argv = ARGV[workloads.COMMANDS[workload]](path, double_path)

    out, err = io.StringIO(), io.StringIO()
    code, status, reason = None, "ok", None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        latency = time.perf_counter() - start
        status, reason = "timeout", "no answer after %.0f s" % REQUEST_TIMEOUT_S
    except SystemExit as exc:  # argparse rejects argv this way
        latency = time.perf_counter() - start
        code = exc.code
    except Exception as exc:  # RecursionError and any other crash count as failures
        latency = time.perf_counter() - start
        status, reason = "error", "%s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    if status == "ok":
        reason = workloads.check_answer(workload, space, name, code, out.getvalue(), double_path)
        if reason is not None:
            status = "wrong"
    for leftover in (path, double_path):
        if os.path.exists(leftover):
            os.remove(leftover)
    return {
        "index": index,
        "family": space.family,
        "faces": space.faces,
        "latency_s": latency,
        "status": status,
        "reason": reason,
    }


def serve(main, args, tracer=None):
    """The closed loop; returns the requests sent and the peak RSS after MIN_ROUNDS.

    A timed loop ends at the round boundary nearest to ``--seconds``: it
    starts another round only while more than half a round's time is left.
    """
    per_round = len(workloads.SLOTS[args.workload])
    start = round_start = time.perf_counter()
    index = 0
    peak_rss_mb = None
    for _ in range(REFERENCE_WARMUP):
        ref_before = reference.timed()
    while True:
        if index % per_round == 0:
            now = time.perf_counter()
            rounds, last_round, round_start = index // per_round, now - round_start, now
            if rounds == MIN_ROUNDS:
                peak_rss_mb = _peak_rss_mb()
            if args.requests is not None:
                if index >= args.requests:
                    break
            elif rounds >= MIN_ROUNDS and now - start + last_round / 2 >= args.seconds:
                break
        if tracer is not None:
            tracer.request = index
        space = workloads.space_for(args.workload, args.seed, index)
        record = run_request(main, args.workload, space, index, args.out)
        ref_after = reference.timed()
        record["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        print(json.dumps(record), flush=True)
        index += 1
    return index, peak_rss_mb if peak_rss_mb is not None else _peak_rss_mb()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--requests", type=int, help="send whole rounds until this many requests are sent")
    parser.add_argument("--out", required=True, help="directory for the request files")
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    import topsym.cli

    tracer = None
    main_fn = topsym.cli.main
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main_fn = tracer.wrap("cli.main", main_fn)

    requests, peak_rss_mb = serve(main_fn, args, tracer)
    totals = {"requests": requests, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        totals["trace"] = tracing.summary(tracer, requests)
        tracer.write(args.spans)
    print(json.dumps(totals), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
