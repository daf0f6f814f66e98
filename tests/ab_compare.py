"""Time two checkouts of topsym against each other in one process.

    python3 tests/ab_compare.py PARENT CHANGE --workload verify-mix --seed 3 --rounds 30

PARENT and CHANGE are the roots of two checkouts (the same root twice
gives an A/A run).  Each checkout's ``src/topsym`` is copied into a
temporary directory under its own package name, ``topsym_parent`` and
``topsym_change``, and both are imported here, so the two sides share
one interpreter, one heap and one host state.  The inputs are the
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
round warms both sides up.  The script prints each round's ratio, then
the median ratio, its quartiles and the number of rounds the change
won.

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", default="verify-mix")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)

    workloads = load_workloads(args.change)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    if args.workload not in workloads.SLOTS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(sorted(workloads.SLOTS))))
    with tempfile.TemporaryDirectory(prefix="ab_compare_") as workdir:
        packages = os.path.join(workdir, "packages")
        os.makedirs(packages)
        sys.path.insert(0, packages)
        mains = {side: import_copy(root, "topsym_" + side, packages).main
                 for side, root in zip(SIDES, (args.parent, args.change))}
        ratios = []
        for round_index in range(-1, args.rounds):  # round -1 warms up
            requests = []
            for i in range(REQUESTS):
                index = (round_index + 1) * REQUESTS + i
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
                print("round %2d: parent %.4f s, change %.4f s, ratio %.3f"
                      % (round_index, seconds["parent"], seconds["change"], ratios[-1]), flush=True)
    low, median, high = statistics.quantiles(ratios, n=4)
    wins = sum(r < 1 for r in ratios)
    print("%s seed %d: change/parent median %.3f (quartiles %.3f-%.3f), change faster in %d/%d rounds"
          % (args.workload, args.seed, median, low, high, wins, len(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
