"""A fixed reference kernel that measures the host's speed beside each request.

The host this benchmark runs on is shared, and its speed for pure Python
wanders by a quarter or more within seconds.  The client runs this kernel
between requests and reports request times in *ref*: a request's wall
time divided by the mean time of the kernel runs just before and just
after it.  A change to topsym moves times in ref as it moves wall times,
because the kernel does not import topsym and does the same work on every
run, while a slower or faster phase of the host moves the kernel and the
request alike and cancels out.

The kernel does the kinds of work topsym spends its time on: row
reduction of GF(2) matrices held as Python ints, subset tests between
simplices held as tuples and sets, and JSON encoding and decoding.

``setup_s`` must be given in seconds, so the benchmark scales each import
time to ``NOMINAL_S``, the kernel's median time on the host the benchmark
was defined on (2 cores of a shared x86-64 host, CPython 3.11): a probe
whose import took t seconds, in an interpreter where the kernel then took
k seconds, reports t * NOMINAL_S / k.
"""

from __future__ import annotations

import itertools
import json
import random
import time

NOMINAL_S = 0.025

_RNG = random.Random(20040828)
ROWS = [_RNG.getrandbits(288) for _ in range(256)]
N_COLS = 288
SIMPLICES = sorted(
    {tuple(sorted(_RNG.sample(range(90), 3))) for _ in range(70)}
)
PAYLOAD = {"maximal_simplices": [list(s) for s in SIMPLICES] * 6}


def _echelon(rows, n_cols):
    work = list(rows)
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        r += 1
        if r == len(work):
            break
    return r


def _maximal(simplices):
    faces = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            faces.update(itertools.combinations(s, k))
    return sum(
        1 for s in faces if not any(len(t) > len(s) and set(s).issubset(t) for t in faces)
    )


def kernel() -> int:
    """One run of the fixed work; returns a checksum so nothing is skipped."""
    out = _echelon(ROWS, N_COLS)
    out += _maximal(SIMPLICES)
    out += len(json.loads(json.dumps(PAYLOAD))["maximal_simplices"])
    return out


CHECKSUM = kernel()


def timed() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    if kernel() != CHECKSUM:
        raise AssertionError("reference kernel gave another checksum")
    return time.perf_counter() - start


if __name__ == "__main__":
    times = sorted(timed() for _ in range(20))
    print("reference kernel: median %.4f s over 20 runs" % times[10])
