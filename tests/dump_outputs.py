"""Print the exit code, standard output and standard error of each
command on each input, and what the tracked GF(2) engine gives.

Two checkouts that must give the same answers give byte-identical dumps:

    python3 tests/dump_outputs.py > before.txt    # in one checkout
    python3 tests/dump_outputs.py > after.txt     # in the other
    diff before.txt after.txt

The commands are ``analyze``, ``analyze --json``, ``verify``, ``verify
--json`` and ``double``.  Without arguments the inputs are the catalog
splits of ``test_golden_cli.py``, the space files in ``tests/spaces``,
the seed-5 ``analyze-mix`` and ``verify-mix`` inputs of
``bench/workloads.py``, one seed-5 round of its ``double-large`` inputs,
two refused space files (``REFUSED``), which show that the error paths
agree too, a hexagon with equal regions (``EQUAL_REGIONS``) and two
domains listed with generators of mixed sizes (``MIXED_SIZES``);
arguments name catalog entries or space files instead.  ``verify``
prints only pass or fail, so after the commands each catalog split and
space file gets a ``tracked`` record: the representatives of the
relative and reduced bases, the slots of the long exact sequences and
the matrices and witnesses of the connecting maps; and an ``excision``
record: per degree, the coordinates and witnesses of the positive
pair's representatives pushed into the exit pair's basis through copy
A's labels and through copy B's, as ``verify`` checks them; and a
``morse`` record: the critical cells per degree of each pair ``verify``
matches, in the default order and in seed order 0.  A last ``gf2``
record holds the kernel bases and preimages of seeded matrices.  Each
record is one JSON line.  The script runs the commands in this process
and imports ``topsym`` from the ``src`` directory beside ``tests``, so
it reads the checkout it lies in.

``golden_dump.jsonl`` beside this script is the default dump as the
answers stand; ``test_golden_cli.py`` regenerates it in process and
names the first record that differs.  A change that adds inputs or
records rewrites that file, so its diff shows only the added lines:

    python3 tests/dump_outputs.py > tests/golden_dump.jsonl
"""

import io
import json
import os
import random
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from topsym import (  # noqa: E402
    ComplexPair,
    Gf2Matrix,
    HomologyBasis,
    InputError,
    les_exactness_check,
)
from topsym.exactness import excision_check  # noqa: E402
from topsym.morse import build_matching, morse_complex  # noqa: E402
from topsym.cli import load_space, main  # noqa: E402
from conftest import catalog_splits, connecting_map  # noqa: E402

COMMANDS = (["analyze"], ["analyze", "--json"], ["verify"], ["verify", "--json"], ["double"])
BENCH_INPUTS = (("analyze-mix", 20), ("verify-mix", 28), ("double-large", 6))
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
# A hexagon whose two regions are both its whole boundary circle: a valid
# split whose positive and negative pairs are equal, on which duality
# fails, so ``verify`` exits 3 (the files in ``tests/spaces`` all exit 0).
CIRCLE = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]
EQUAL_REGIONS = {**REFUSED[1], "name": "hexagon-equal-regions", "positive_region": CIRCLE, "negative_region": CIRCLE}
# Generators of mixed sizes: the hexagon with some of its own edges and
# vertices listed too, a valid split, and a triangle with a dangling edge,
# which every command refuses as not pure.
MIXED_SIZES = (
    {
        **REFUSED[1],
        "name": "hexagon-mixed-sizes",
        "maximal_simplices": [*REFUSED[1]["maximal_simplices"], [1, 6], [0, 1], [3], [6], [1, 6]],
        "positive_region": [[0, 1], [1, 2]],
        "negative_region": [[2, 3], [3, 4], [4, 5], [0, 5], [0]],
    },
    {"name": "dangling-edge", "maximal_simplices": [[0, 1, 2], [2, 3]]},
)


@contextmanager
def working_directory(cwd):
    here = os.getcwd()
    os.chdir(cwd)
    try:
        yield
    finally:
        os.chdir(here)


def run(argv, cwd):
    """Exit code, standard output and standard error of ``topsym argv``
    run from ``cwd``."""
    out, err = io.StringIO(), io.StringIO()
    with working_directory(cwd), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def chains(cs):
    return [sorted(c) for c in cs]


def representatives(basis):
    return [[k, chains(basis.representatives(k))] for k in basis.degrees() if basis.betti_dim(k)]


def split_record(make, locator, cwd):
    """``make(split)`` of the split at ``locator``, or the refusal of the
    input."""
    try:
        with working_directory(cwd):
            _, split = load_space(locator)
        split.double  # building the double may refuse the split
    except InputError as exc:
        return {"refused": str(exc)}
    return make(split)


def tracked(split):
    """The bases, exactness slots and connecting maps of a split's
    positive, negative and exit pairs, and the reduced bases of its
    domain, regions and total."""
    double = split.double
    pairs = {"positive": split.positive_pair(), "negative": split.negative_pair(), "exit": double.exit_pair()}
    bare = {"domain": split.domain, "positive": split.positive, "negative": split.negative, "total": double.total}
    record = {
        "relative": {name: representatives(HomologyBasis(pair)) for name, pair in pairs.items()},
        "reduced": {
            name: representatives(HomologyBasis(ComplexPair.absolute(cx), augmented=True)) for name, cx in bare.items()
        },
        "les": {
            name: [
                [s.degree, s.at, s.middle_dim, s.incoming_rank, s.outgoing_rank, s.composition_zero]
                for s in les_exactness_check(pair).slots
            ]
            for name, pair in pairs.items()
        },
        "connecting": {},
    }
    for name, pair in pairs.items():
        maps = record["connecting"][name] = []
        for degree in range(-1, pair.ambient.dim):
            image = connecting_map(pair, degree)
            for k, matrix in sorted(image.matrices.items()):
                maps.append([k, matrix.n_rows, list(matrix.columns), [chains(w) for w in image.witnesses[k]]])
    return record


def excision(split):
    """Per degree of the exit pair's basis: its dimension, then the
    columns and witnesses of the positive representatives pushed through
    copy A's labels, then those pushed through copy B's."""
    double = split.double
    positive = HomologyBasis(split.positive_pair())
    reps = {k: positive.representatives(k) for k in positive.degrees()}
    report = excision_check(reps, double.labels, HomologyBasis(double.exit_pair()))
    record = []
    for k, matrix in sorted(report.matrices.items()):
        half = len(reps.get(k, ()))
        columns, witnesses = list(matrix.columns), [chains(w) for w in report.witnesses[k]]
        record.append([k, matrix.n_rows, columns[:half], columns[half:], witnesses[:half], witnesses[half:]])
    return record


def morse(split):
    """Per distinct pair that ``verify`` matches (the negative pair is
    left out when the regions are equal): the critical cells per degree
    of its matching in the default order, then in seed order 0."""
    pairs = {"positive": split.positive_pair(), "negative": split.negative_pair(), "exit": split.double.exit_pair()}
    if split.negative.faces == split.positive.faces:
        del pairs["negative"]
    return {
        name: [sorted(morse_complex(build_matching(pair, order)).critical.items()) for order in (None, 0)]
        for name, pair in pairs.items()
    }


def seeded_matrices():
    """Kernel bases and preimages of seeded matrices up to 40 by 40, half
    of them products of low rank."""
    rng, out = random.Random(SEED), []
    for i in range(16):
        n_rows, n_cols = rng.randint(0, 40), rng.randint(1, 40)
        m = Gf2Matrix(n_rows, n_cols, tuple(rng.getrandbits(n_rows) for _ in range(n_cols)))
        if i % 2:
            r = rng.randint(0, 6)
            a = Gf2Matrix(n_rows, r, tuple(rng.getrandbits(n_rows) for _ in range(r)))
            m = a.mat_mul(Gf2Matrix(r, n_cols, tuple(rng.getrandbits(r) for _ in range(n_cols))))
        targets = [m.mat_vec(rng.getrandbits(n_cols)) for _ in range(3)] + [rng.getrandbits(n_rows)]
        out.append([n_rows, list(m.columns), m.kernel_basis(), [m.solve_preimage(b) for b in targets]])
    return out


def bench_inputs(directory):
    """Write the seed-5 bench inputs into ``directory``; yield their file names."""
    import workloads

    for workload, count in BENCH_INPUTS:
        for index in range(count):
            name = "%s-%d-%02d" % (workload, SEED, index)
            space = workloads.space_for(workload, SEED, index)
            (Path(directory) / (name + ".json")).write_text(json.dumps(space.file_dict(name)), encoding="utf-8")
            yield name + ".json"


def written_inputs(directory):
    """Write the ``REFUSED`` space files, ``EQUAL_REGIONS`` and
    ``MIXED_SIZES`` into ``directory``; yield their file names."""
    names = ["refused-%s.json" % space["name"] for space in REFUSED]
    names += ["%s.json" % space["name"] for space in (EQUAL_REGIONS, *MIXED_SIZES)]
    for name, space in zip(names, (*REFUSED, EQUAL_REGIONS, *MIXED_SIZES)):
        (Path(directory) / name).write_text(json.dumps(space), encoding="utf-8")
        yield name


def inputs(args, directory):
    """(locator, working directory, whether it gets a ``tracked`` and an
    ``excision`` record) of each input."""
    if args:
        return [(os.path.abspath(a) if a.endswith(".json") else a, HERE, True) for a in args]
    spaces = sorted("spaces/" + p.name for p in (HERE / "spaces").glob("*.json"))
    return [
        *((name, HERE, True) for name in catalog_splits()),
        *((path, HERE, True) for path in spaces),
        *((name, directory, False) for name in bench_inputs(directory)),
        *((name, directory, False) for name in written_inputs(directory)),
    ]


def dump(args, write=sys.stdout.write):
    with tempfile.TemporaryDirectory() as directory:
        for locator, cwd, with_tracked in inputs(args, directory):
            name = os.path.basename(locator)
            for command in COMMANDS:
                code, stdout, stderr = run([command[0], locator, *command[1:]], cwd)
                record = {"input": name, "command": " ".join(command)}
                write(json.dumps({**record, "exit": code, "stdout": stdout, "stderr": stderr}) + "\n")
            if with_tracked:
                for make in (tracked, excision, morse):
                    record = split_record(make, locator, cwd)
                    write(json.dumps({"input": name, "command": make.__name__, "record": record}) + "\n")
    write(json.dumps({"input": "seeded matrices", "command": "gf2", "record": seeded_matrices()}) + "\n")


if __name__ == "__main__":
    dump(sys.argv[1:])
