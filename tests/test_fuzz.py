"""Seeded mutants of the space files in ``tests/spaces``, run through
``analyze``, ``verify`` and ``double`` in process.

Each mutant takes one to three moves on its fields: drop, duplicate or
reverse a simplex; replace, add or drop a vertex, the new vertex drawn
from the file's own and from -1, 10^6 and 2^63; add a random simplex.
Whatever the mutant, a command ends in a verdict, an input error or a
suite mismatch (exit 0-3), an input error prints exactly one ``error:``
line, and no request takes long.  The moves reach the purity, ridge,
region and gluing checks of the load and of ``double``.  A suite
mismatch is explained: only duality fails, on a split that fails the
hypotheses of Lefschetz duality (``duality_hypotheses``), such as an
annulus with a pinched vertex.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import catalog_splits, duality_hypotheses, equal_regions_hexagon
from topsym.cli import EXIT_INPUT_ERROR, EXIT_SUITE_FAILED, load_space, main

SPACES = Path(__file__).with_name("spaces")
FIELDS = ("maximal_simplices", "positive_region", "negative_region")
ODD_VERTICES = (-1, 10**6, 2**63)
MUTANTS_PER_FILE = 60
SECONDS_PER_REQUEST = 2.0


def drop_simplex(simplices, rng, vertices):
    simplices.pop(rng.randrange(len(simplices)))


def duplicate_simplex(simplices, rng, vertices):
    simplices.append(list(rng.choice(simplices)))


def reverse_simplex(simplices, rng, vertices):
    simplices[rng.randrange(len(simplices))].reverse()


def replace_vertex(simplices, rng, vertices):
    simplex = rng.choice(simplices)
    simplex[rng.randrange(len(simplex))] = rng.choice(vertices)


def add_vertex(simplices, rng, vertices):
    simplex = rng.choice(simplices)
    simplex.insert(rng.randrange(len(simplex) + 1), rng.choice(vertices))


def drop_vertex(simplices, rng, vertices):
    simplex = rng.choice(simplices)
    simplex.pop(rng.randrange(len(simplex)))


def add_simplex(simplices, rng, vertices):
    simplices.append(rng.sample(vertices, rng.randint(1, 4)))


MOVES = (drop_simplex, duplicate_simplex, reverse_simplex, replace_vertex, add_vertex, drop_vertex, add_simplex)


def mutants():
    """(name, space file) of every seeded mutant."""
    rng = random.Random(8)
    for path in sorted(SPACES.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        vertices = sorted({v for s in raw["maximal_simplices"] for v in s}) + list(ODD_VERTICES)
        for i in range(MUTANTS_PER_FILE):
            data = json.loads(json.dumps(raw))
            for _ in range(rng.randint(1, 3)):
                simplices = data[rng.choice([field for field in FIELDS if field in data])]
                rng.choice(MOVES if simplices else (add_simplex,))(simplices, rng, vertices)
            yield "%s-%02d" % (path.stem, i), data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def test_mutated_space_files_end_in_a_verdict_or_one_error_line(tmp_path):
    codes = {}
    for name, data in mutants():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in ("analyze", "verify", "double"):
            code, stdout, stderr, seconds = run([command, str(path)])
            assert code in {0, 1, 2, 3}, (name, command, data, stderr)
            if code == EXIT_INPUT_ERROR:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1, (name, command, data, stderr)
            else:
                assert stderr == "", (name, command, data, stderr)
            assert seconds < SECONDS_PER_REQUEST, (name, command, data, seconds)
            if code == EXIT_SUITE_FAILED:
                failed = [line.split()[0] for line in stdout.splitlines()[:-1] if line.split()[1] == "fail"]
                assert (command, failed) == ("verify", ["duality"]), (name, command, data, stdout)
                assert duality_hypotheses(load_space(str(path))[1]), (name, data)
            codes[code] = codes.get(code, 0) + 1
    # The mutants reach valid splits, refusals and unmet duality hypotheses.
    assert min(codes.get(c, 0) for c in (0, EXIT_INPUT_ERROR, EXIT_SUITE_FAILED)) > 0, codes


def test_duality_hypotheses_fail_only_on_pinched_domains_and_overlapping_regions():
    # The brieskorn domains are wedges of spheres, pinched at vertex 0.
    splits = dict(catalog_splits())
    splits.update((path.name, load_space(str(path))[1]) for path in sorted(SPACES.glob("*.json")))
    assert {name for name, split in splits.items() if duality_hypotheses(split)} == {"brieskorn_2", "brieskorn_3"}
    # Both regions the whole circle: they meet outside their empty frontiers.
    assert duality_hypotheses(equal_regions_hexagon()) == ["the regions meet outside their common frontier"]
