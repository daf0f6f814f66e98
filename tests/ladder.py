"""Time ``topsym analyze``, ``verify`` and ``double`` on a fixed ladder of spaces.

    python3 tests/ladder.py BENCH_<n>.json
    python3 tests/ladder.py out.json --checkout PARENT --checkout . --rungs reeb_ball_5 --repeat 3
    python3 tests/ladder.py out.json --commands double

Each rung runs in a fresh child process, one at a time, which builds the
rung's split and calls ``cli.main([command, name, "--json"])`` on it, or
``cli.main(["double", name])``, which writes the double to stdout; a
double that ``double`` refuses records exit 2.  The default commands are
``analyze`` and ``verify``.
For each run the ladder records the child's wall time for that command,
the child's own peak RSS (``os.wait4``), the domain's face count, the
exit code, a SHA-256 of the command's stdout, and the time in *ref*: the
wall time over the mean time of the reference kernel of
``bench/reference.py``, run in this process just before and just after
the child.  A child that dies or passes ``--timeout`` counts as failed.

Catalog rungs load through ``load_space``, as the command line does.
The n-gon, the boundary star splits, the linear-action splits L(p, q)
(``linear_p_q``) and the n-by-4 cylinders with one end circle positive
(``cylinder_n``) are built in the child and handed to ``main`` through a
stand-in ``load_space``.  Rungs marked past-limit are over
``MAX_FACES``; their child lifts the limit in itself only.

The output file holds the commit, ``nproc``, the median reference
kernel time and one record per rung, command and checkout.
``--checkout`` times another checkout's ``src`` (for the parent, ``git
clone`` it into a directory); given twice, the two alternate on each
rung, each going first in turn, and each record names its checkout's
commit, ``+dirty`` when its tracked files differ from it.  Each printed
line starts with the rung, the command and the checkout's root as
given, so two copies of one commit are told apart.  Given two checkouts,
the first is the parent and the second the change: after each rung's
two lines comes a ``change/parent`` line with the ratios of the medians
of wall time, time in ref and peak RSS and whether the exit codes and
stdout hashes agree, which the output file keeps under ``ratios``.  Pytest does not collect this file, whose name does
not start with ``test_``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import itertools
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
COMMANDS = ("analyze", "verify", "double")
DEFAULT_COMMANDS = ("analyze", "verify")
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
    "linear_1_2": False,
    "cylinder_1000": False,
    "reeb_ball_5": True,
    "brieskorn_7": True,
    "star_split_5": True,
    "linear_1_3": True,
    "cylinder_8000": True,
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
    if name.startswith("linear_"):
        # L(p, q): the product of the balls of dimensions 2p and 2q, split by
        # the products with each factor's boundary, as
        # ``tests/conftest.py::linear_action_split``.
        p, q = map(int, name.split("_")[1:])
        first, second = builtin_example("ball_%d" % (2 * p)), builtin_example("ball_%d" % (2 * q))
        modulus = max(second.vertices) + 1
        return BoundarySplit(
            build_complex(staircase_chains(first, second, modulus)),
            build_complex(staircase_chains(boundary_subcomplex(first), second, modulus)),
            build_complex(staircase_chains(first, boundary_subcomplex(second), modulus)),
        )
    if name.startswith("cylinder_"):
        # n squares around and 4 up, each cut by one diagonal; the top end
        # circle is positive and the bottom one negative.
        n = int(name.rpartition("_")[2])
        triangles = []
        for j, i in itertools.product(range(4), range(n)):
            a, b, c, d = j * n + i, j * n + (i + 1) % n, (j + 1) * n + i, (j + 1) * n + (i + 1) % n
            triangles += [(a, b, d), (a, c, d)]
        top = [(4 * n + i, 4 * n + (i + 1) % n) for i in range(n)]
        return BoundarySplit(build_complex(triangles), build_complex(top))
    return None


def staircase_chains(first, second, modulus):
    """The top simplices of the staircase product of two complexes, vertex
    (i, j) numbered i * modulus + j, as ``tests/conftest.py::staircase``."""
    for s, t in itertools.product(first.maximal_simplices(), second.maximal_simplices()):
        for ups in itertools.combinations(range(len(s) + len(t) - 2), len(s) - 1):
            i = j = 0
            chain = [s[0] * modulus + t[0]]
            for step in range(len(s) + len(t) - 2):
                i, j = (i + 1, j) if step in ups else (i, j + 1)
                chain.append(s[i] * modulus + t[j])
            yield tuple(chain)


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
        code = cli.main([command, name] if command == "double" else [command, name, "--json"])
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


MEDIANS = ("wall_s", "wall_ref", "peak_rss_mb")


def summarized(name, command, checkout, root, runs):
    """One record per rung, command and checkout: the runs, and their
    medians when none failed."""
    record = {"rung": name, "command": command, "checkout": checkout, "past_limit": RUNGS[name], "runs": runs}
    record["failed"] = any("failed" in run for run in runs)
    if not record["failed"]:
        for key in MEDIANS:
            record[key] = statistics.median(run[key] for run in runs)
        for key in ("exit", "stdout_sha256", "faces"):
            values = {run[key] for run in runs}
            record[key] = values.pop() if len(values) == 1 else sorted(values)
    failures = "; ".join(run["failed"] for run in runs if "failed" in run)
    print("%-14s %-8s %-20s %s" % (name, command, root, "FAILED: " + failures if failures else
                                   "%.2f s  %.1f ref  %.0f MB  exit %s" % (
                                       record["wall_s"], record["wall_ref"], record["peak_rss_mb"], record["exit"])),
          flush=True)
    return record


def compared(parent, change):
    """The change's medians over the parent's for one rung and command,
    printed as one line; None when either failed."""
    if parent["failed"] or change["failed"]:
        return None
    ratios = {"rung": parent["rung"], "command": parent["command"], **{key: change[key] / parent[key] for key in MEDIANS}}
    ratios["same_answer"] = all(parent[key] == change[key] for key in ("exit", "stdout_sha256"))
    print("%-14s %-8s %-20s wall %.3f  ref %.3f  peak %.3f  %s" % (
        parent["rung"], parent["command"], "change/parent", *(ratios[key] for key in MEDIANS),
        "same answer" if ratios["same_answer"] else "ANSWER DIFFERS"), flush=True)
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", help="JSON file to write, by convention BENCH_<n>.json at the root")
    parser.add_argument("--checkout", action="append", metavar="ROOT",
                        help="root of a checkout whose src is timed; give it twice to alternate two (default: this one)")
    parser.add_argument("--rungs", nargs="*", default=list(RUNGS), choices=list(RUNGS), metavar="RUNG")
    parser.add_argument("--commands", nargs="*", default=list(DEFAULT_COMMANDS), choices=COMMANDS)
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
    checkouts, roots = {}, {}  # commit -> its src, and the root as given
    for root in args.checkout or [ROOT]:
        commit = commit_of(root)
        commit = commit if commit not in checkouts else "%s#%d" % (commit, len(checkouts) + 1)
        checkouts[commit], roots[commit] = os.path.join(os.path.abspath(root), "src"), root
    records, ratios, kernel_times = [], [], []
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
            rung = [summarized(name, command, commit, roots[commit], commit_runs) for commit, commit_runs in runs.items()]
            if len(rung) == 2 and (ratio := compared(*rung)) is not None:
                ratios.append(ratio)
            records += rung
    summary = {
        "commit": list(checkouts),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "ref_s": statistics.median(kernel_times),
        "rungs": records,
    }
    if len(checkouts) == 2:
        summary["ratios"] = ratios
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
