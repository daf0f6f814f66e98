"""The benchmark's span tracing wraps topsym callables by name.

The tier-1 suite does not collect ``bench/``, so a rename that breaks
``bench/run.py --trace 1`` has to fail here.  One check resolves the
names; another installs the tracer in a child process, so that a binding
moved between modules fails as it would in the benchmark, and checks
that a ``verify`` and a ``double`` request each record a double span.
A seeded round of each workload
also runs here, through ``topsym.cli.main`` in this process, and the
doubles of the homology workloads' inputs are checked to derive the
chain table their total's faces build.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topsym import complexes
from topsym.cli import main, parse_space_file

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"

# Run in a child: ``install`` rebinds topsym's functions for the whole process.
TRACED_REQUESTS = """
import contextlib, io, json, sys
import tracing
from topsym.cli import main

tracer = tracing.Tracer()
tracing.install(tracer)
spans = {}
for argv in (["verify", "disk_half_split", "--json"], ["double", "disk_half_split", "-o", sys.argv[1]]):
    before = tracer.calls["spaces.double"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    spans[argv[0]] = tracer.calls["spaces.double"] - before
print(json.dumps(spans))
"""


def load_tracing():
    path = BENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    functions, methods = load_tracing()._targets()
    assert functions and methods
    for key, owner, name, _ in functions:
        assert callable(getattr(owner, name, None)), (key, owner.__name__, name)
    for key, cls, name, _ in methods:
        # ``install`` reads methods from the class dictionary itself.
        assert name in vars(cls), (key, cls.__name__, name)


def test_installed_tracer_records_the_double_of_each_request(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(BENCH), str(SRC)))}
    run = subprocess.run(
        [sys.executable, "-c", TRACED_REQUESTS, str(tmp_path / "double.json")],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"verify": 1, "double": 1}


@pytest.mark.parametrize("workload", ["analyze-mix", "verify-mix", "double-large"])
def test_one_seeded_round_of_each_workload_gets_the_closed_form_answer(monkeypatch, tmp_path, capsys, workload):
    # The requests the benchmark sends, checked as the benchmark checks
    # them, so a writer or loader change it would count as a wrong answer
    # fails here first.
    monkeypatch.syspath_prepend(str(BENCH))
    client, workloads = importlib.import_module("client"), importlib.import_module("workloads")
    for index in range(len(workloads.SLOTS[workload])):
        space = workloads.space_for(workload, 5, index)
        name = "%s-%d" % (space.family, index)
        path, double_path = tmp_path / (name + ".json"), tmp_path / (name + "_double.json")
        path.write_text(json.dumps(space.file_dict(name)), encoding="utf-8")
        code = main(client.ARGV[workloads.COMMANDS[workload]](str(path), str(double_path)))
        stdout = capsys.readouterr().out
        assert workloads.check_answer(workload, space, name, code, stdout, str(double_path)) is None, name


@pytest.mark.parametrize("workload", ["analyze-mix", "verify-mix"])
def test_one_seeded_round_derives_each_double_table_as_built(monkeypatch, workload):
    # The total's chain table is derived from the domain's on every
    # request of these workloads, the only table of the double that is;
    # on their inputs it must be the table built from the same faces.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for index in range(len(workloads.SLOTS[workload])):
        space = workloads.space_for(workload, 5, index)
        split = parse_space_file(json.dumps(space.file_dict("x")).encode()).split()
        total = split.double.total
        assert total._chain_table == complexes._trusted(total.faces)._chain_table, index
