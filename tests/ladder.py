"""Time ``topsym analyze`` and ``topsym verify`` on a fixed ladder of spaces.

    python3 tests/ladder.py BENCH_<n>.json
    python3 tests/ladder.py out.json --checkout PARENT --checkout . --rungs reeb_ball_5 --repeat 3

Each rung runs in a fresh child process, one at a time, which builds the
rung's split and calls ``cli.main([command, name, "--json"])`` on it.
For each run the ladder records the child's wall time for that command,
the child's own peak RSS (``os.wait4``), the domain's face count, the
exit code, a SHA-256 of the command's stdout, and the time in *ref*: the
wall time over the mean time of the reference kernel of
``bench/reference.py``, run in this process just before and just after
the child.  A child that dies or passes ``--timeout`` counts as failed.

Catalog rungs load through ``load_space``, as the command line does.
The n-gon and the boundary star splits are built in the child and handed
to ``main`` through a stand-in ``load_space``.  Rungs marked past-limit
are over ``MAX_FACES``; their child lifts the limit in itself only.

The output file holds the commit, ``nproc``, the median reference
kernel time and one record per rung, command and checkout.
``--checkout`` times another checkout's ``src`` (for the parent, ``git
clone`` it into a directory); given twice, the two alternate on each
rung, each going first in turn, and each record names its checkout's
commit, ``+dirty`` when its tracked files differ from it.  Pytest does
not collect this file, whose name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("analyze", "verify")
# name -> past the face limit
RUNGS = {
    "3000-gon": False,
    "wedge_2_1500": False,
    "wedge_2_3800": False,
    "brieskorn_5": False,
    "brieskorn_6": False,
    "reeb_ball_3": False,
    "reeb_ball_4": False,
    "sphere_8": False,
    "ball_9": False,
    "star_split_3": False,
    "star_split_4": False,
    "reeb_ball_5": True,
    "brieskorn_7": True,
    "star_split_5": True,
}
MEMORY_LIMIT = 6 << 30  # address space of a child, so a runaway rung fails alone


def build_split(name):
    """The split of a rung that is not a catalog name, or None."""
    from topsym import BoundarySplit, boundary_subcomplex, build_complex, builtin_example

    if name.endswith("-gon"):
        n = int(name[: -len("-gon")])
        return BoundarySplit(build_complex([(i, (i + 1) % n) for i in range(n)]))
    if name.startswith("star_split_"):
        # ``reeb_ball_n`` with the closed star of vertex 0 in its boundary
        # positive, as ``tests/conftest.py::boundary_star_split``.
        domain = builtin_example("reeb_ball_%s" % name.rpartition("_")[2]).domain
        star = [s for s in boundary_subcomplex(domain).maximal_simplices() if 0 in s]
        return BoundarySplit(domain, build_complex(star))
    return None


def child(name: str, command: str, src: str) -> None:
    """Run one rung in this process and print its record as one JSON line."""
    sys.path.insert(0, src)
    from topsym import cli, complexes

    if RUNGS[name]:
        complexes.MAX_FACES = 1 << 62
    start = time.perf_counter()
    split = build_split(name)
    if split is not None:
        cli.load_space = lambda locator: (name, split)
    loaded = []
    load = cli.load_space
    cli.load_space = lambda locator: loaded.append(load(locator)) or loaded[-1]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, name, "--json"])
    wall = time.perf_counter() - start
    faces = len(loaded[0][1].domain) if loaded else 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(json.dumps({"exit": code, "stdout_sha256": digest, "faces": faces, "wall_s": wall}))


def load_reference():
    spec = importlib.util.spec_from_file_location("ladder_reference", os.path.join(ROOT, "bench", "reference.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernel_time(reference, runs: int = 5) -> float:
    return statistics.median(reference.timed() for _ in range(runs))


def run_rung(name: str, command: str, src: str, timeout: float) -> dict:
    """Start one child, wait for it up to ``timeout`` and read its record."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    with tempfile.TemporaryFile() as out:
        argv = [sys.executable, os.path.abspath(__file__), "--child", name, command, "--src", src]
        process = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, preexec_fn=limit)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                process.kill()
                _, status, usage = os.wait4(process.pid, 0)
                process.returncode = -1
                return {"failed": "timed out after %g s" % timeout, "peak_rss_mb": usage.ru_maxrss / 1024}
            time.sleep(0.01)
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode().splitlines()
    record = {"peak_rss_mb": usage.ru_maxrss / 1024}
    if process.returncode != 0 or not lines:
        record["failed"] = "child exited with %d" % process.returncode
        return record
    record.update(json.loads(lines[-1]))
    return record


def commit_of(checkout: str) -> str:
    """The checkout's HEAD, with ``+dirty`` when its tracked files differ."""
    def git(*argv):
        try:
            return subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""

    head = git("rev-parse", "HEAD") or "unknown"
    return head + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else head


def summarized(name, command, checkout, runs):
    """One record per rung, command and checkout: the runs, and their
    medians when none failed."""
    record = {"rung": name, "command": command, "checkout": checkout, "past_limit": RUNGS[name], "runs": runs}
    record["failed"] = any("failed" in run for run in runs)
    if not record["failed"]:
        for key in ("wall_s", "wall_ref", "peak_rss_mb"):
            record[key] = statistics.median(run[key] for run in runs)
        for key in ("exit", "stdout_sha256", "faces"):
            values = {run[key] for run in runs}
            record[key] = values.pop() if len(values) == 1 else sorted(values)
    failures = "; ".join(run["failed"] for run in runs if "failed" in run)
    print("%-14s %-8s %-12.12s %s" % (name, command, checkout, "FAILED: " + failures if failures else
                                    "%.2f s  %.1f ref  %.0f MB  exit %s" % (
                                        record["wall_s"], record["wall_ref"], record["peak_rss_mb"], record["exit"])),
          flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", help="JSON file to write, by convention BENCH_<n>.json at the root")
    parser.add_argument("--checkout", action="append", metavar="ROOT",
                        help="root of a checkout whose src is timed; give it twice to alternate two (default: this one)")
    parser.add_argument("--rungs", nargs="*", default=list(RUNGS), choices=list(RUNGS), metavar="RUNG")
    parser.add_argument("--commands", nargs="*", default=list(COMMANDS), choices=COMMANDS)
    parser.add_argument("--repeat", type=int, default=1, help="runs per rung, command and checkout")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per run")
    parser.add_argument("--child", nargs=2, metavar=("RUNG", "COMMAND"), help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child, args.src)
        return 0
    if not args.output:
        parser.error("the output file is required")

    reference = load_reference()
    checkouts = {}
    for root in args.checkout or [ROOT]:
        commit = commit_of(root)
        checkouts[commit if commit not in checkouts else "%s#%d" % (commit, len(checkouts) + 1)] = os.path.join(
            os.path.abspath(root), "src")
    records, kernel_times = [], []
    for name in args.rungs:
        for command in args.commands:
            runs = {commit: [] for commit in checkouts}
            for i in range(args.repeat):
                for commit in list(checkouts)[:: 1 if i % 2 == 0 else -1]:  # each checkout goes first in turn
                    before = kernel_time(reference)
                    run = run_rung(name, command, checkouts[commit], args.timeout)
                    after = kernel_time(reference)
                    kernel_times += [before, after]
                    run["ref_s"] = (before + after) / 2
                    if "wall_s" in run:
                        run["wall_ref"] = run["wall_s"] / run["ref_s"]
                    runs[commit].append(run)
            records += [summarized(name, command, commit, commit_runs) for commit, commit_runs in runs.items()]
    summary = {
        "commit": list(checkouts),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "ref_s": statistics.median(kernel_times),
        "rungs": records,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
