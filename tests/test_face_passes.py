"""The per-face passes of ``complexes``, ``spaces`` and ``cli`` against the
loops they replaced (kept in ``conftest.py``), and their error paths.

Each pass must give the same faces, in the same order where the result is
ordered, and fail at the same first offender with the same message.
"""

import json
import random

import pytest
from hypothesis import assume, given, settings

from conftest import (
    catalog_splits,
    corpus_complexes,
    grown_regions,
    random_pairs,
    reference_boundary_faces,
    reference_closure,
    reference_double_faces,
    reference_dump,
    reference_facet_rows,
    reference_maximal_simplices,
    relabeled,
)
from topsym import InputError, boundary_subcomplex, build_complex, complexes
from topsym.cli import EXIT_INPUT_ERROR, EXIT_OK, _dump, main, report_json, run_identity_suites, space_file_dict
from topsym.errors import PseudomanifoldError
from topsym.spaces import BoundarySplit
from topsym.symmetry import analyze_action

DOUBLE_PARTS = ("total", "exit_boundary", "entry_boundary")


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (InputError, PseudomanifoldError) as exc:
        return type(exc), str(exc)


def check_complex(cx):
    faces = sorted(cx.faces)
    assert cx.dim == max((len(s) - 1 for s in faces), default=-1)
    assert cx.vertices == {v for s in faces for v in s}
    assert cx.maximal_simplices() == reference_maximal_simplices(cx)
    # Every face as input, each with its vertices reversed, so the closure
    # sorts them and meets each face many times.
    assert build_complex(s[::-1] for s in faces).faces == reference_closure(faces) == cx.faces
    expected = outcome(reference_boundary_faces, cx)
    got = outcome(boundary_subcomplex, cx)
    assert (got.faces if isinstance(got, complexes.SimplicialComplex) else got) == expected
    below = {(): 0}
    for k in range(cx.dim + 1):
        cells = cx.simplices(k)
        assert complexes._facet_rows(cells, below, k) == reference_facet_rows(cells, below, k), k
        below = {s: i for i, s in enumerate(cells)}
    half = set(sorted(cx.vertices)[::2])
    assert cx.induced_on(half).faces == {s for s in faces if half.issuperset(s)}


def check_pair(pair):
    for cx in (pair.ambient, pair.sub):
        check_complex(cx)
    for k in range(-1, pair.ambient.dim + 2):
        assert pair.cells(k) == tuple(s for s in pair.ambient.simplices(k) if s not in pair.sub.faces)


def check_double(split):
    try:
        double = split.double
    except InputError:  # the interface is not an induced subcomplex
        return False
    expected = reference_double_faces(split)
    assert double.tops == reference_maximal_simplices(double.total)
    for part in DOUBLE_PARTS:
        assert getattr(double, part).faces == expected[part], part
        check_complex(getattr(double, part))
    return True


def payloads(name, split):
    """Every payload the CLI writes for a split."""
    yield space_file_dict(name, split)
    yield space_file_dict(name + "_double", split.double)
    yield space_file_dict(name, split.domain)
    yield report_json(analyze_action(split, name=name))
    yield report_json(analyze_action(split, min_chern=2, name=name))
    results = run_identity_suites(split)
    yield {"name": name, "suites": results, "passed": all(v != "fail" for v in results.values())}


class TestAgainstTheLoops:
    @pytest.mark.parametrize("name", sorted(corpus_complexes()))
    def test_corpus(self, name):
        check_complex(corpus_complexes()[name])

    @pytest.mark.parametrize("name", sorted(catalog_splits()))
    def test_catalog_splits(self, name):
        split = catalog_splits()[name]
        for cx in (split.domain, split.positive, split.negative, split.boundary, split.interface):
            check_complex(cx)
        assert check_double(split)
        for payload in payloads(name, split):
            assert _dump(payload) == reference_dump(payload)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_pairs(self, pair):
        check_pair(pair)
        payload = space_file_dict("random", pair.ambient)
        assert _dump(payload) == reference_dump(payload)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(grown_regions())
    def test_grown_regions(self, drawn):
        domain, region, mapping = drawn
        split = BoundarySplit(relabeled(domain, mapping), relabeled(region, mapping))
        check_complex(split.positive)
        check_complex(split.negative)
        assume(check_double(split))
        payload = space_file_dict("grown", split)
        assert _dump(payload) == reference_dump(payload)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_isolated_points(self, n):
        # Below dimension 1 there are no ridges: the empty simplex is no
        # ridge, however many points share it.
        cx = build_complex([(v,) for v in range(n)])
        check_complex(cx)
        assert boundary_subcomplex(cx).faces == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_isolated_points_through_the_cli(self, tmp_path, capsys, n):
        path, out = tmp_path / "points.json", tmp_path / "double.json"
        path.write_text(json.dumps({"name": "points", "maximal_simplices": [[v] for v in range(n)]}))
        for argv in (["analyze", str(path), "--json"], ["verify", str(path)], ["double", str(path), "-o", str(out)]):
            assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
        double = json.loads(out.read_text())
        assert double["maximal_simplices"] == [[v] for v in range(2 * n)]
        assert double["positive_region"] == double["negative_region"] == []


def seeded_generator_lists():
    """Derandomized generator lists: simplices of one size with repeats,
    and simplices of mixed sizes that also list faces of others, a
    simplex or two that is no face, and repeats."""
    rng = random.Random(27)
    for i in range(60):
        size = rng.randint(1, 4)
        tops = [tuple(sorted(rng.sample(range(9), size))) for _ in range(rng.randint(1, 6))]
        gens = tops + rng.sample(tops, rng.randint(0, len(tops)))
        if i % 2:
            faces = [s for s in reference_closure(tops) if len(s) < size]
            gens += rng.sample(faces, min(len(faces), rng.randint(1, 4)))
            gens += [tuple(sorted(rng.sample(range(9, 13), rng.randint(1, size)))) for _ in range(rng.randint(1, 2))]
            gens += rng.sample(gens, 2)
        rng.shuffle(gens)
        yield gens


class TestSeededMaximalSimplices:
    """A closure of simplices of one size keeps them as its maximal
    simplices; purity and boundary extraction read them."""

    def test_seeded_and_found_maximal_simplices_agree_with_the_oracle(self):
        seen = set()
        for gens in seeded_generator_lists():
            cx = complexes._closure(gens)
            one_size = len(set(map(len, gens))) == 1
            assert ("_maximal" in vars(cx)) == one_size, gens
            assert cx.faces == reference_closure(gens), gens
            assert tuple(sorted(cx._maximal)) == reference_maximal_simplices(cx), gens
            seen.add((one_size, len(cx._maximal) < len(set(gens))))
        # Both kinds, and mixed lists that list faces of other generators.
        assert seen >= {(True, False), (False, True)}

    def test_purity_names_the_smallest_low_maximal_simplex(self):
        refused = 0
        for gens in seeded_generator_lists():
            cx = complexes._closure(gens)
            low = [s for s in reference_maximal_simplices(cx) if len(s) - 1 < cx.dim]
            expected = cx.dim
            if low:
                message = "complex is not pure: maximal simplex %r has dimension %d < %d"
                expected = (PseudomanifoldError, message % (low[0], len(low[0]) - 1, cx.dim))
            assert outcome(complexes.check_pure, cx) == expected, gens
            got = outcome(boundary_subcomplex, cx)
            assert (got.faces if isinstance(got, complexes.SimplicialComplex) else got) == outcome(reference_boundary_faces, cx)
            refused += bool(low)
        assert refused >= 10


def test_writer_lays_out_nested_and_empty_values_as_the_reference():
    payload = {
        "b": [[], [1, -2], []],
        "a": {"x": [], "y": {}, "z": [True, False], "w": [[[3]], 4, "s"]},
        "c": [[[]]],
        "d": None,
        "e": "café ☃",
    }
    assert _dump(payload) == reference_dump(payload)
    assert json.loads(_dump(payload)) == payload


class TestErrorPaths:
    """The first offender and the message stay those of the loops."""

    REPEATED = [[0, 1, 2], [3, 3, 4], [5, 5]]

    def test_repeated_vertices_in_a_list_and_in_a_one_shot_generator(self):
        message = "simplex has repeated vertices: [3, 3, 4]"
        assert outcome(reference_closure, self.REPEATED) == (InputError, message)
        assert outcome(build_complex, self.REPEATED) == (InputError, message)
        assert outcome(build_complex, (s for s in self.REPEATED)) == (InputError, message)

    def test_a_one_shot_generator_is_read_once(self):
        simplices = [(2, 0, 1), (1, 3), (4,)]
        assert build_complex(iter(simplices)).faces == reference_closure(simplices)

    @pytest.mark.parametrize("counts", [(3, 4), (4, 3), (5, 5)])
    def test_the_smallest_crowded_ridge_is_reported_with_its_count(self, counts):
        tops = [(0, 1, 10 + i) for i in range(counts[0])] + [(5, 6, 20 + i) for i in range(counts[1])]
        cx = build_complex(tops)
        message = "simplex (0, 1) lies in %d top simplices" % counts[0]
        assert outcome(reference_boundary_faces, cx) == (PseudomanifoldError, message)
        assert outcome(boundary_subcomplex, cx) == (PseudomanifoldError, message)

    def test_the_smallest_low_maximal_simplex_is_reported(self):
        # The smallest, (1, 7), is neither first nor last in set order.
        cx = build_complex([(4, 5, 6), (9,), (15, 16), (3, 8), (8, 11), (13,), (2, 12), (1, 7), (1, 14)])
        message = "complex is not pure: maximal simplex (1, 7) has dimension 1 < 2"
        assert outcome(reference_boundary_faces, cx) == (PseudomanifoldError, message)
        assert outcome(boundary_subcomplex, cx) == (PseudomanifoldError, message)
        assert outcome(complexes.check_pure, cx) == (PseudomanifoldError, message)

    def test_a_missing_facet_is_reported_first_in_row_order(self):
        # Row 0 drops vertex 0: (1, 2) and (2, 3) come before (0, 2) of row 1.
        cells = ((0, 1, 2), (0, 2, 3))
        below = {s: i for i, s in enumerate([(0, 1), (0, 3)])}
        expected = (InputError, "chain contains (1, 2), not a degree-1 cell here")
        assert outcome(reference_facet_rows, cells, below, 2) == expected
        assert outcome(complexes._facet_rows, cells, below, 2) == expected

    @pytest.mark.parametrize("field", ["maximal_simplices", "positive_region"])
    @pytest.mark.parametrize(
        "bad",
        [[[True]], [[0, False]], [[1.0]], [[0, 1.5]], [[[1]]], [[0, [1]]], [[]], [[0], []], [1], [[0], 1],
         "x", {"0": [0]}, [[None]], [["0"]], None],
    )
    def test_simplex_lists_that_are_not_integer_lists_exit_2(self, tmp_path, capsys, field, bad):
        raw = {"name": "bad", "maximal_simplices": [[0, 1]], field: bad}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["analyze", str(path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: %s must be a list of nonempty integer lists\n" % field

