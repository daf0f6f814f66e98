"""Print the exit code and standard output of each command on each input.

Two checkouts that must give the same answers give byte-identical dumps:

    python3 tests/dump_outputs.py > before.txt    # in one checkout
    python3 tests/dump_outputs.py > after.txt     # in the other
    diff before.txt after.txt

The commands are ``analyze``, ``analyze --json``, ``verify``, ``verify
--json`` and ``double``.  Without arguments the inputs are the catalog
splits of ``test_golden_cli.py``, the space files in ``tests/spaces``
and the seed-5 ``analyze-mix`` and ``verify-mix`` inputs of
``bench/workloads.py``; arguments name catalog entries or space files
instead.  Each record is one JSON line.  The script runs the commands in
this process and imports ``topsym`` from the ``src`` directory beside
``tests``, so it reads the checkout it lies in.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from topsym.cli import main  # noqa: E402
from topsym.spaces import catalog_splits  # noqa: E402

COMMANDS = (["analyze"], ["analyze", "--json"], ["verify"], ["verify", "--json"], ["double"])
BENCH_INPUTS = (("analyze-mix", 20), ("verify-mix", 28))
SEED = 5


def run(argv, cwd):
    """Exit code and standard output of ``topsym argv`` run from ``cwd``."""
    out, here = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue()


def bench_inputs(directory):
    """Write the seed-5 bench inputs into ``directory``; yield their file names."""
    import workloads

    for workload, count in BENCH_INPUTS:
        for index in range(count):
            name = "%s-%d-%02d" % (workload, SEED, index)
            space = workloads.space_for(workload, SEED, index)
            (Path(directory) / (name + ".json")).write_text(json.dumps(space.file_dict(name)), encoding="utf-8")
            yield name + ".json"


def inputs(args, directory):
    """(locator, working directory) of each input."""
    if args:
        return [(os.path.abspath(a) if a.endswith(".json") else a, HERE) for a in args]
    spaces = sorted("spaces/" + p.name for p in (HERE / "spaces").glob("*.json"))
    return [
        *((name, HERE) for name in catalog_splits()),
        *((path, HERE) for path in spaces),
        *((name, directory) for name in bench_inputs(directory)),
    ]


def dump(args, write=sys.stdout.write):
    with tempfile.TemporaryDirectory() as directory:
        for locator, cwd in inputs(args, directory):
            for command in COMMANDS:
                code, stdout = run([command[0], locator, *command[1:]], cwd)
                record = {"input": os.path.basename(locator), "command": " ".join(command)}
                write(json.dumps({**record, "exit": code, "stdout": stdout}) + "\n")


if __name__ == "__main__":
    dump(sys.argv[1:])
