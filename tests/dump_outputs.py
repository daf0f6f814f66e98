"""Print the exit code, standard output and standard error of each
command on each input.

Two checkouts that must give the same answers give byte-identical dumps:

    python3 tests/dump_outputs.py > before.txt    # in one checkout
    python3 tests/dump_outputs.py > after.txt     # in the other
    diff before.txt after.txt

The commands are ``analyze``, ``analyze --json``, ``verify``, ``verify
--json`` and ``double``.  Without arguments the inputs are the catalog
splits of ``test_golden_cli.py``, the space files in ``tests/spaces``,
the seed-5 ``analyze-mix`` and ``verify-mix`` inputs of
``bench/workloads.py`` and two refused space files (``REFUSED``), which
show that the error paths agree too; arguments name catalog entries or
space files instead.  Each record is one JSON line.  The script runs
the commands in this process and imports ``topsym`` from the ``src``
directory beside ``tests``, so it reads the checkout it lies in.
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
# A triangle whose regions meet in both ends of an edge, which every
# command refuses at the gluing locus, and a hexagon whose regions share
# the boundary edge (2, 3), which only ``double`` refuses.
REFUSED = (
    {"name": "triangle", "maximal_simplices": [[0, 1, 2]], "positive_region": [[0, 1]]},
    {
        "name": "hexagon",
        "maximal_simplices": [[0, 1, 6], [1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [0, 5, 6]],
        "positive_region": [[0, 1], [1, 2], [2, 3]],
        "negative_region": [[2, 3], [3, 4], [4, 5], [0, 5]],
    },
)


def run(argv, cwd):
    """Exit code, standard output and standard error of ``topsym argv``
    run from ``cwd``."""
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def bench_inputs(directory):
    """Write the seed-5 bench inputs into ``directory``; yield their file names."""
    import workloads

    for workload, count in BENCH_INPUTS:
        for index in range(count):
            name = "%s-%d-%02d" % (workload, SEED, index)
            space = workloads.space_for(workload, SEED, index)
            (Path(directory) / (name + ".json")).write_text(json.dumps(space.file_dict(name)), encoding="utf-8")
            yield name + ".json"


def refused_inputs(directory):
    """Write the ``REFUSED`` space files into ``directory``; yield their file names."""
    for space in REFUSED:
        name = "refused-%s.json" % space["name"]
        (Path(directory) / name).write_text(json.dumps(space), encoding="utf-8")
        yield name


def inputs(args, directory):
    """(locator, working directory) of each input."""
    if args:
        return [(os.path.abspath(a) if a.endswith(".json") else a, HERE) for a in args]
    spaces = sorted("spaces/" + p.name for p in (HERE / "spaces").glob("*.json"))
    return [
        *((name, HERE) for name in catalog_splits()),
        *((path, HERE) for path in spaces),
        *((name, directory) for name in bench_inputs(directory)),
        *((name, directory) for name in refused_inputs(directory)),
    ]


def dump(args, write=sys.stdout.write):
    with tempfile.TemporaryDirectory() as directory:
        for locator, cwd in inputs(args, directory):
            for command in COMMANDS:
                code, stdout, stderr = run([command[0], locator, *command[1:]], cwd)
                record = {"input": os.path.basename(locator), "command": " ".join(command)}
                write(json.dumps({**record, "exit": code, "stdout": stdout, "stderr": stderr}) + "\n")


if __name__ == "__main__":
    dump(sys.argv[1:])
