"""Committed command-line answers: exit code and standard output.

``golden_cli.json`` holds, for every case below, what ``topsym.cli.main``
printed and returned when the file was written.  Space-file cases are
keyed by a path relative to ``tests/`` and run from that directory.
A change that must not
alter any answer keeps this test green; a change meant to alter an
answer rewrites the file and shows the difference in review:

    PYTHONPATH=src python tests/test_golden_cli.py

``golden_dump.jsonl`` holds the dump of ``dump_outputs.py``: standard
error, the tracked engine's bases and the seeded bench inputs too.  It
is regenerated here in process, and the first record that differs is
named.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

import dump_outputs
from conftest import CORPUS_COMPLEX_NAMES, catalog_splits
from topsym.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_cli.json"
GOLDEN_DUMP = HERE / "golden_dump.jsonl"
# A disk with a positive arc, the same arc as the negative region, no
# region, both regions; an annulus with its outer circle positive.
SPACE_FILES = ("disk_positive", "disk_negative", "annulus_outer", "disk_bare", "disk_both")


def cases():
    out = []
    for name in catalog_splits():
        out += [["analyze", name, "--json"], ["analyze", name, "--mod", "2", "--json"], ["verify", name, "--json"]]
    out += [["double", name] for name in catalog_splits()]
    out += [["example", name] for name in (*catalog_splits(), "torus")]
    out += [["analyze", name, "--json"] for name in CORPUS_COMPLEX_NAMES]
    for name in SPACE_FILES:
        path = "spaces/%s.json" % name
        out += [["analyze", path, "--json"], ["analyze", path], ["verify", path, "--json"], ["double", path]]
    return out


def run(argv):
    buffer, cwd = io.StringIO(), os.getcwd()
    os.chdir(HERE)
    try:
        with redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": buffer.getvalue()}


@lru_cache(maxsize=None)
def golden():
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_answer_is_unchanged(argv):
    assert run(argv) == golden()[" ".join(argv)]


def test_dump_outputs_gives_one_record_per_input_and_command():
    # ``dump_outputs.py`` is the identity dump two checkouts are diffed
    # with; where it runs a case of this file, it must agree with it.
    paths = ["spaces/%s.json" % name for name in SPACE_FILES]
    script = subprocess.run(
        [sys.executable, str(HERE / "dump_outputs.py"), *(str(HERE / path) for path in paths)],
        capture_output=True, text=True, check=True,
    )
    records = list(map(json.loads, script.stdout.splitlines()))
    commands = ["analyze", "analyze --json", "verify", "verify --json", "double"]
    cases = [(path, command) for path in paths for command in commands + ["tracked", "excision", "morse"]]
    assert [(r["input"], r["command"]) for r in records] == [
        *((os.path.basename(p), c) for p, c in cases), ("seeded matrices", "gf2")
    ]
    # Every split here is valid, so each gets the tracked engine's bases
    # and the map that verify's Mayer-Vietoris suite checks.
    for record in records:
        if record["command"] == "tracked":
            assert set(record["record"]) == {"relative", "reduced", "les", "connecting"}
        if record["command"] == "excision":
            assert isinstance(record["record"], list) and record["record"], record["input"]
        if record["command"] == "morse":
            assert set(record["record"]) == {"positive", "negative", "exit"}, record["input"]
    compared = 0
    for record in records:
        name, *options = record["command"].split()
        entry = golden().get(" ".join([name, "spaces/" + record["input"], *options]))
        if entry is not None:
            assert (record["exit"], record["stdout"]) == (entry["exit"], entry["stdout"]), record["input"]
            compared += 1
    assert compared == 4 * len(paths)  # every command but plain ``verify`` is a case here


@lru_cache(maxsize=None)
def default_dump():
    """The lines ``dump_outputs.py`` prints without arguments, made in
    this process."""
    lines = []
    dump_outputs.dump([], lines.append)
    return tuple(lines)


def test_dump_is_unchanged():
    golden_lines = GOLDEN_DUMP.read_text(encoding="utf-8").splitlines(keepends=True)
    for number, (line, golden_line) in enumerate(zip(default_dump(), golden_lines), 1):
        if line != golden_line:
            got, want = json.loads(line), json.loads(golden_line)
            fields = sorted(key for key in {*got, *want} if got.get(key) != want.get(key))
            pytest.fail("dump record %d (%s, %s) differs in %s" % (number, want["input"], want["command"], fields))
    assert len(default_dump()) == len(golden_lines)


def test_dump_outputs_covers_every_default_input():
    # 6 catalog splits and 5 space files with five commands, a tracked,
    # an excision and a morse record each; 54 bench inputs, 2 refused
    # files, the hexagon with equal regions and the 2 domains listed with
    # generators of mixed sizes with five commands each; one gf2 record.
    records = list(map(json.loads, default_dump()))
    assert len(records) == 11 * 8 + 59 * 5 + 1 == 384
    exits = {}
    for record in filter(lambda r: "exit" in r, records):
        exits.setdefault(record["input"], []).append(record["exit"])
    assert exits["hexagon-equal-regions.json"] == [0, 0, 3, 3, 2]  # duality fails; double refuses the shared boundary
    assert exits["hexagon-mixed-sizes.json"] == [0] * 5
    assert exits["dangling-edge.json"] == [2] * 5  # not pure


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in cases()], indent=1) + "\n", encoding="utf-8")
