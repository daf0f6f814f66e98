"""Time two checkouts of topsym against each other, both in one process.

    python3 tests/ab_compare.py PARENT CHANGE --workload verify-mix --seed 3 --rounds 30

PARENT and CHANGE are the roots of two checkouts (the same root twice
gives an A/A run).  Each checkout's ``src/topsym`` is copied into a
temporary directory under its own package name, ``topsym_parent`` and
``topsym_change``, and both are imported into one child process, so the
two sides share one interpreter, one heap and one host state.  The inputs are the
seeded requests of ``bench/workloads.py`` from CHANGE, loaded by path.

Each round writes ``REQUESTS`` new requests and sends each of them to
both sides' ``cli.main`` back to back, as the bench client does
(``verify --json``, ``analyze --json --assert-symmetric``, ``double
-o``).  The side that goes first alternates from request to request, so
a drift of the host within a round, which lasts seconds, falls on both
sides alike; when a round gave all its requests to one side and then
to the other, such a drift landed on one side only, and an A/A run read
quartiles 0.97-1.11.  Every answer is checked against the workload's
closed form.  A round's ratio is the change's total time over the
parent's, so a ratio below 1 means the change is faster.  One untimed
round warms both sides up.

The side imported second runs about 0.5 % faster: with the parent
imported first, two A/A runs (``analyze-mix``, seed 5, 60 rounds) read
medians 0.995 and 0.994, and with the change imported first 1.000 and
1.002.  So the rounds run in two child processes, one after the other,
the first importing the parent first and the second the change first,
each with half of the rounds and its own warm-up round.  The script
prints each round's ratio and which side was imported first, then the
median ratio over both halves, its quartiles and the number of rounds
the change won.

It does not import ``bench/client.py``: that module puts its own
checkout's ``src`` first on ``sys.path``, so a comparison that imported
it would time one checkout against itself.  Pytest does not collect this
file, whose name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ARGV = {
    "analyze": lambda path, out: ["analyze", path, "--json", "--assert-symmetric"],
    "verify": lambda path, out: ["verify", path, "--json"],
    "double": lambda path, out: ["double", path, "-o", out],
}
SIDES = ("parent", "change")
REQUESTS = 70  # per round; both sides get the same requests


def load_workloads(checkout: str):
    """``bench/workloads.py`` of a checkout, imported by path."""
    spec = importlib.util.spec_from_file_location("ab_workloads", os.path.join(checkout, "bench", "workloads.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_copy(checkout: str, name: str, into: str):
    """The ``cli`` module of a copy of the checkout's package named ``name``."""
    shutil.copytree(os.path.join(checkout, "src", "topsym"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name + ".cli")


def timed_request(main, workloads, workload, request, out_dir) -> float:
    """Seconds spent in ``main`` on one request; a wrong answer stops the run."""
    index, space, name, path = request
    double_path = os.path.join(out_dir, name + "_double.json")
    argv = ARGV[workloads.COMMANDS[workload]](path, double_path)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    reason = workloads.check_answer(workload, space, name, code, out.getvalue(), double_path)
    if reason is not None:
        raise SystemExit("request %d (%s): %s" % (index, name, reason))
    return seconds


def run_rounds(args, workloads, first: str) -> list:
    """Time ``args.rounds`` rounds in this process, the side ``first``
    imported first, printing each round; the change's ratios."""
    with tempfile.TemporaryDirectory(prefix="ab_compare_") as workdir:
        packages = os.path.join(workdir, "packages")
        os.makedirs(packages)
        sys.path.insert(0, packages)
        roots = dict(zip(SIDES, (args.parent, args.change)))
        imported = (first, *(side for side in SIDES if side != first))
        mains = {side: import_copy(roots[side], "topsym_" + side, packages).main for side in imported}
        ratios = []
        for round_index in range(-1, args.rounds):  # round -1 warms up
            requests = []
            for i in range(REQUESTS):
                index = (args.first_round + round_index + 1) * REQUESTS + i
                space = workloads.space_for(args.workload, args.seed, index)
                name = "%s-%d" % (space.family, index)
                path = os.path.join(workdir, name + ".json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(space.file_dict(name), handle)
                requests.append((index, space, name, path))
            seconds = dict.fromkeys(SIDES, 0.0)
            for request in requests:
                for side in SIDES if request[0] % 2 == 0 else SIDES[::-1]:
                    seconds[side] += timed_request(mains[side], workloads, args.workload, request, workdir)
            for _, _, name, path in requests:
                for leftover in (path, os.path.join(workdir, name + "_double.json")):
                    if os.path.exists(leftover):
                        os.remove(leftover)
            if round_index >= 0:
                ratios.append(seconds["change"] / seconds["parent"])
                print("round %2d (%s imported first): parent %.4f s, change %.4f s, ratio %.3f"
                      % (args.first_round + round_index, first, seconds["parent"], seconds["change"], ratios[-1]),
                      flush=True)
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", default="verify-mix")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--imported-first", choices=SIDES, help=argparse.SUPPRESS)
    parser.add_argument("--first-round", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = load_workloads(args.change)
    if args.workload not in workloads.SLOTS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(sorted(workloads.SLOTS))))
    if args.imported_first:  # one half, in a child process
        print(json.dumps(run_rounds(args, workloads, args.imported_first)))
        return 0
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    ratios, half = [], (args.rounds + 1) // 2
    for first, first_round, rounds in (("parent", 0, half), ("change", half, args.rounds - half)):
        argv = [sys.executable, os.path.abspath(__file__), args.parent, args.change, "--workload", args.workload,
                "--seed", str(args.seed), "--rounds", str(rounds), "--imported-first", first,
                "--first-round", str(first_round)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            lines = [line if line.startswith("[") else print(line, end="", flush=True) for line in child.stdout]
        if child.returncode != 0:
            raise SystemExit("the half with the %s imported first exited with %d" % (first, child.returncode))
        ratios += json.loads(lines[-1])
    low, median, high = statistics.quantiles(ratios, n=4)
    wins = sum(r < 1 for r in ratios)
    print("%s seed %d: change/parent median %.3f (quartiles %.3f-%.3f), change faster in %d/%d rounds"
          % (args.workload, args.seed, median, low, high, wins, len(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
