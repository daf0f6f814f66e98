"""Command-line surface: space files, reports, exit codes."""

import gc
import json
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

import dump_outputs
from conftest import boundary_star_split, catalog_splits, grown_regions, relabeled
from topsym import (
    InputError,
    SimplicialComplex,
    betti,
    boundary_subcomplex,
    builtin_example,
    cli,
    complexes,
    exactness,
    glued,
)
from topsym.cli import (
    EXIT_ASSERT_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    main,
    parse_space_file,
    space_file_dict,
)
from topsym.complexes import MAX_FACES
from topsym.spaces import BoundarySplit
from topsym.symmetry import MAX_MIN_CHERN

SPACES = Path(__file__).with_name("spaces")

DISK_FILE = {
    "name": "disk",
    "maximal_simplices": [[0, 1, 3], [1, 2, 3]],
    "positive_region": [[0, 1]],
}

HEXAGON_SHARING_AN_EDGE = {
    "name": "hexagon",
    "maximal_simplices": [[0, 1, 6], [1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [0, 5, 6]],
    "positive_region": [[0, 1], [1, 2], [2, 3]],
    "negative_region": [[2, 3], [3, 4], [4, 5], [0, 5]],
}

OCTAGON_SHARING_TWO_EDGES = {
    "name": "octagon",
    "maximal_simplices": [[0, 1, 8], [1, 2, 8], [2, 3, 8], [3, 4, 8], [4, 5, 8], [5, 6, 8], [6, 7, 8], [0, 7, 8]],
    "positive_region": [[0, 1], [1, 2], [2, 3], [3, 4]],
    "negative_region": [[3, 4], [4, 5], [5, 6], [6, 7], [0, 7], [0, 1]],
}


class TestParseSpaceFile:
    def test_two_triangle_disk_with_one_region(self):
        space = parse_space_file(json.dumps(DISK_FILE).encode())
        split = space.split()
        assert [len(split.positive.simplices(k)) for k in range(3)] == [2, 1, 0]
        # Negative defaults to the closure of the complement.
        assert split.positive.union(split.negative) == split.boundary

    def test_point_without_regions(self):
        space = parse_space_file(b'{"name":"pt","maximal_simplices":[[0]]}')
        split = space.split()
        assert len(split.positive) == 0 and len(split.negative) == 0

    def test_region_off_the_boundary_rejected(self):
        bad = dict(DISK_FILE, positive_region=[[1, 3]])  # interior chord
        with pytest.raises(InputError) as err:
            parse_space_file(json.dumps(bad).encode())
        assert "(1, 3)" in str(err.value)

    def test_malformed_json_reports_offset(self):
        with pytest.raises(InputError) as err:
            parse_space_file(b'{"name": "x", ')
        assert "byte offset" in str(err.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError):
            parse_space_file(b'{"name":"x","maximal_simplices":[[0]],"colour":"red"}')

    def test_non_integer_vertices_rejected(self):
        with pytest.raises(InputError):
            parse_space_file(b'{"name":"x","maximal_simplices":[["a"]]}')

    def test_explicit_empty_region(self):
        raw = {
            "name": "disk",
            "maximal_simplices": [[0, 1, 3], [1, 2, 3]],
            "positive_region": [],
        }
        split = parse_space_file(json.dumps(raw).encode()).split()
        assert len(split.positive) == 0
        assert split.negative == split.boundary


class TestMalformedSpaceFiles:
    """Files that ``json.loads`` or the text report cannot take are
    input errors, not internal failures."""

    def refused(self, tmp_path, capsys, text, *flags):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code = main(["analyze", str(path), *flags])
        err = capsys.readouterr().err
        return code, err.startswith("error: ")

    def test_deeply_nested_simplices(self, tmp_path, capsys):
        depth = 100_000
        text = '{"name": "deep", "maximal_simplices": %s%s}' % ("[" * depth, "]" * depth)
        assert self.refused(tmp_path, capsys, text) == (EXIT_INPUT_ERROR, True)

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="no integer-digit limit below 5000 digits",
    )
    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        text = '{"name": "long", "maximal_simplices": [[%s]]}' % ("7" * 5000)
        assert self.refused(tmp_path, capsys, text) == (EXIT_INPUT_ERROR, True)

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_name_that_is_not_unicode_text(self, tmp_path, capsys, flags):
        text = '{"name": "\\ud800", "maximal_simplices": [[0]]}'
        assert self.refused(tmp_path, capsys, text, *flags) == (EXIT_INPUT_ERROR, True)


class TestCommands:
    def test_analyze_brieskorn_assert_symmetric_fails(self, capsys):
        code = main(["analyze", "brieskorn_2", "--assert-symmetric"])
        out = capsys.readouterr().out
        assert code == EXIT_ASSERT_FAILED
        assert "asymmetric" in out

    def test_analyze_reeb_ball_assert_symmetric_passes(self, capsys):
        code = main(["analyze", "reeb_ball_2", "--assert-symmetric"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "symmetric (shift 0)" in out

    def test_verify_disk_half_split_passes(self, capsys):
        code = main(["verify", "disk_half_split"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for suite in ("duality", "les", "mayer_vietoris", "factor2", "morse"):
            assert suite in out

    def test_verify_full_catalog_exit_status(self, capsys):
        names = (
            "point",
            "circle",
            "sphere_2",
            "ball_2",
            "wedge_2_4",
            "torus",
            "klein_bottle",
            "projective_plane",
            "disk_half_split",
            "annulus_split",
            "reeb_ball_1",
            "reeb_ball_2",
            "brieskorn_2",
            "brieskorn_3",
        )
        for name in names:
            assert main(["verify", name]) == EXIT_OK, name
        capsys.readouterr()

    @pytest.mark.parametrize("n", [2, 3])
    def test_boundary_star_split_answers(self, tmp_path, capsys, n):
        # The star of vertex 0 in the boundary of reeb_ball_n and the closure
        # of its complement are balls: both tables are empty, both verdicts
        # symmetric with shift 0, and every identity suite passes.
        path = tmp_path / "star.json"
        path.write_text(json.dumps(space_file_dict("star", boundary_star_split(n))))
        assert main(["analyze", str(path), "--json"]) == EXIT_OK
        verdict = {"symmetric": True, "shifts": [0]}
        assert json.loads(capsys.readouterr().out) == {
            "name": "star",
            "betti_positive": [],
            "betti_negative": [],
            "verdict_positive": verdict,
            "verdict_negative": verdict,
            "duality": "pass",
            "factor2": "pass",
        }
        assert main(["verify", str(path), "--json"]) == EXIT_OK
        suites = dict.fromkeys(("duality", "les", "mayer_vietoris", "factor2", "morse"), "pass")
        assert json.loads(capsys.readouterr().out) == {"name": "star", "suites": suites, "passed": True}

    def test_unknown_name_is_input_error(self, capsys):
        assert main(["analyze", "moebius"]) == EXIT_INPUT_ERROR
        assert "catalog" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "not/there.json"]) == EXIT_INPUT_ERROR

    def test_bad_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name":"x","maximal_simplices":[[0,0]]}')
        assert main(["analyze", str(path)]) == EXIT_INPUT_ERROR

    def test_space_file_past_the_face_limit_is_refused_unexpanded(self, tmp_path, monkeypatch, capsys):
        def unbuilt(*args):
            raise AssertionError("the face limit must be checked before expanding faces")

        monkeypatch.setattr(SimplicialComplex, "from_maximal", classmethod(unbuilt))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "maximal_simplices": [list(range(40))]}))
        assert main(["analyze", str(path)]) == EXIT_INPUT_ERROR
        assert "limit of %d faces" % MAX_FACES in capsys.readouterr().err

    def test_catalog_sphere_past_the_face_limit_is_refused_unbuilt(self, monkeypatch, capsys):
        def unbuilt(*args):
            raise AssertionError("the face limit must be checked before building")

        monkeypatch.setattr(SimplicialComplex, "from_maximal", classmethod(unbuilt))
        monkeypatch.setattr("topsym.spaces.cross_polytope_sphere", unbuilt)
        assert main(["analyze", "sphere_60"]) == EXIT_INPUT_ERROR
        assert "limit of %d faces" % MAX_FACES in capsys.readouterr().err

    def test_directory_as_space_file_is_input_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["double", "circle", "-o", str(target)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert not target.exists()

    def test_internal_failure_is_not_a_verdict(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise AssertionError("boundary composition is nonzero in degree 1")

        monkeypatch.setattr("topsym.cli.analyze_action", broken)
        assert main(["analyze", "reeb_ball_1", "--assert-symmetric"]) == EXIT_INTERNAL_ERROR
        assert "internal error: AssertionError" in capsys.readouterr().err

    def test_any_other_exception_is_an_internal_failure(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise KeyError((0, 1))

        monkeypatch.setattr("topsym.cli.analyze_action", broken)
        assert main(["analyze", "reeb_ball_1", "--assert-symmetric"]) == EXIT_INTERNAL_ERROR
        assert capsys.readouterr().err == "internal error: KeyError: (0, 1)\n"

    def test_huge_modulus_is_refused_before_the_rolled_table(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a rolled table was built")

        monkeypatch.setattr("topsym.symmetry.RolledTable", refuse)
        assert main(["analyze", "disk_half_split", "--mod", "1000000000000"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: minimal Chern number must be at most %d\n" % MAX_MIN_CHERN

    def test_analyze_json_structure(self, capsys):
        assert main(["analyze", "brieskorn_2", "--json", "--mod", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "brieskorn_2"
        assert report["betti_positive"] == [[0, 1], [1, 0], [2, 4]]
        assert report["verdict_positive"]["symmetric"] is False
        assert report["verdict_positive"]["witness"]["shift"] == 2
        assert report["duality"] == "skipped"
        assert report["factor2"] == "pass"
        assert report["rolled"]["modulus"] == 4
        assert report["rolled"]["entries"] == [1, 0, 4, 0]
        # Cyclically this table is a palindrome around 0 even though the
        # integer-graded table is not.
        assert report["rolled"]["verdict"]["symmetric"] is True
        assert report["rolled"]["verdict"]["shifts"] == [0]

    def test_example_round_trip_is_byte_identical(self, tmp_path, capsys):
        for name in ("disk_half_split", "reeb_ball_1", "torus", "brieskorn_2"):
            path = tmp_path / (name + ".json")
            assert main(["example", name, "-o", str(path)]) == EXIT_OK
            assert main(["analyze", name, "--json"]) == EXIT_OK
            from_name = capsys.readouterr().out
            assert main(["analyze", str(path), "--json"]) == EXIT_OK
            from_file = capsys.readouterr().out
            assert from_name == from_file, name

    def test_example_file_reparses_to_the_catalog_object(self, capsys):
        for name in ("annulus_split", "klein_bottle"):
            assert main(["example", name]) == EXIT_OK
            space = parse_space_file(capsys.readouterr().out)
            obj = builtin_example(name)
            domain = obj.domain if hasattr(obj, "domain") else obj
            assert space.split().domain == domain

    def test_double_emits_a_valid_space_file(self, tmp_path, capsys):
        assert main(["double", "disk_half_split"]) == EXIT_OK
        payload = capsys.readouterr().out
        space = parse_space_file(payload)
        assert space.name == "disk_half_split_double"
        split = space.split()
        # The emitted double is the homotopy circle computed upstream.
        assert betti(split.positive_pair()).total() == 0

    def test_double_of_closed_space_has_empty_regions(self, capsys):
        assert main(["double", "brieskorn_2"]) == EXIT_OK
        space = parse_space_file(capsys.readouterr().out)
        assert len(space.split().positive) == len(space.split().negative) == 0

    @pytest.mark.parametrize(
        "payload, shared", [(HEXAGON_SHARING_AN_EDGE, "(2, 3)"), (OCTAGON_SHARING_TWO_EDGES, "(0, 1)")]
    )
    def test_double_refuses_regions_that_share_a_boundary_simplex(self, tmp_path, capsys, payload, shared):
        # The double would glue a shared edge into its interior, so its
        # regions would not lie on its boundary; the smallest one is named.
        # The file itself is a valid split.
        path, output = tmp_path / "shared.json", tmp_path / "double.json"
        path.write_text(json.dumps(payload))
        for command in ("analyze", "verify"):
            assert main([command, str(path)]) == EXIT_OK, command
        capsys.readouterr()
        assert main(["double", str(path), "-o", str(output)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: positive and negative regions share boundary simplex %s, "
            "which the double glues into its interior\n" % shared
        )
        assert not output.exists()

    def test_glued_regions_of_a_shared_boundary_simplex_would_not_load(self):
        # What ``double`` would write if it did not refuse the shared edge:
        # the edge is interior to the double, so its boundary is less than
        # the glued regions, and topsym refuses to load the file, at a
        # label of the double.  Nothing checks a written split again, so
        # the refusal is what keeps such a file from being written.
        split = parse_space_file(json.dumps(HEXAGON_SHARING_AN_EDGE)).split()
        double = split.double
        glued = double.exit_boundary.union(double.entry_boundary)
        assert boundary_subcomplex(double.total).faces < glued.faces
        payload = {
            "name": "hexagon_double",
            "maximal_simplices": list(map(list, double.total.maximal_simplices())),
            "positive_region": list(map(list, double.exit_boundary.maximal_simplices())),
            "negative_region": list(map(list, double.entry_boundary.maximal_simplices())),
        }
        with pytest.raises(InputError, match=r"positive region simplex \(5, 6\) is not on the boundary"):
            parse_space_file(json.dumps(payload)).split()
        with pytest.raises(InputError, match="is not on the boundary"):
            BoundarySplit(double.total, double.exit_boundary, double.entry_boundary)


def check_written_double(locator, split, output):
    """``double`` writes the split of the total by the exit and entry
    boundaries without checking it; the boundary extracted from the
    total's faces must be theirs, and the file must reload to them."""
    double = split.double
    glued = double.exit_boundary.union(double.entry_boundary)
    assert boundary_subcomplex(double.total).faces == glued.faces
    assert main(["double", str(locator), "-o", str(output)]) == EXIT_OK
    written = parse_space_file(output.read_bytes()).split()
    assert (written.domain, written.positive, written.negative) == (double.total, double.exit_boundary, double.entry_boundary)


class TestDoubleIsValidByConstruction:
    @pytest.mark.parametrize("name", sorted(catalog_splits()))
    def test_catalog_splits(self, tmp_path, name):
        check_written_double(name, catalog_splits()[name], tmp_path / "double.json")

    @pytest.mark.parametrize("path", sorted(SPACES.glob("*.json")), ids=lambda path: path.name)
    def test_space_files(self, tmp_path, path):
        check_written_double(path, cli.load_space(str(path))[1], tmp_path / "double.json")

    def test_seeded_bench_inputs(self, tmp_path):
        # The seed-5 inputs of all three workloads, as the dump has them.
        names = list(dump_outputs.bench_inputs(tmp_path))
        assert len(names) == 54
        for name in names:
            path = tmp_path / name
            check_written_double(path, cli.load_space(str(path))[1], tmp_path / "double.json")

    def test_grown_regions(self, tmp_path_factory):
        directory, seen = tmp_path_factory.mktemp("grown"), {"draws": 0, "interface": 0}

        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @given(grown_regions())
        def check(drawn):
            domain, region, mapping = drawn
            split = BoundarySplit(relabeled(domain, mapping), relabeled(region, mapping))
            try:
                split.double
            except InputError:  # the interface is not an induced subcomplex
                assume(False)
            path = directory / "grown.json"
            path.write_text(json.dumps(space_file_dict("grown", split)))
            check_written_double(path, split, directory / "double.json")
            seen["draws"] += 1
            seen["interface"] += len(split.interface) > 0

        check()
        assert seen["draws"] >= 40 and seen["interface"] >= 20, seen


def polygon_file(directory, n):
    """A space file of the n-gon circle, which has no boundary."""
    path = directory / ("%d-gon.json" % n)
    path.write_text(json.dumps({"name": "%d-gon" % n, "maximal_simplices": [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]}))
    return path


class TestDoubleWritesOnlyLoadableFiles:
    """The load counts 2^|s| - 1 faces per listed simplex against the face
    limit; ``double`` and ``example`` apply the same count to the file
    they would write."""

    def test_a_double_past_the_limit_is_refused_and_nothing_is_written(self, tmp_path, capsys):
        # 27,000 counted faces load; the double, two 9000-gons, counts 54,000.
        path, output = polygon_file(tmp_path, 9000), tmp_path / "double.json"
        assert len(parse_space_file(path.read_bytes()).split().domain) == 18000
        message = "error: maximal_simplices expands to more than the limit of %d faces\n" % MAX_FACES
        for argv in (["double", str(path), "-o", str(output)], ["double", str(path)]):
            assert main(argv) == EXIT_INPUT_ERROR
            assert capsys.readouterr() == ("", message)
        assert not output.exists()

    def test_a_double_within_the_limit_is_written_and_reloads(self, tmp_path):
        # Two 8000-gons count 48,000 faces.
        path, output = polygon_file(tmp_path, 8000), tmp_path / "double.json"
        assert main(["double", str(path), "-o", str(output)]) == EXIT_OK
        written = parse_space_file(output.read_bytes())
        assert written.name == "8000-gon_double" and len(written.split().domain) == 32000
        assert written.split().domain == cli.load_space(str(path))[1].double.total

    def test_an_example_past_the_limit_is_refused_and_nothing_is_written(self, tmp_path, capsys):
        # reeb_ball_4 has 13,123 faces; its 256 listed top simplices count 130,816.
        output = tmp_path / "example.json"
        message = "error: maximal_simplices expands to more than the limit of %d faces\n" % MAX_FACES
        for argv in (["example", "reeb_ball_4", "-o", str(output)], ["example", "reeb_ball_4"]):
            assert main(argv) == EXIT_INPUT_ERROR
            assert capsys.readouterr() == ("", message)
        assert not output.exists()

    def test_an_example_within_the_limit_is_written_and_loads(self, tmp_path, capsys):
        output = tmp_path / "example.json"
        assert main(["example", "reeb_ball_3", "-o", str(output)]) == EXIT_OK
        assert main(["analyze", str(output)]) == EXIT_OK
        capsys.readouterr()


class TestSerialization:
    @pytest.mark.parametrize("name", ["w[1,2]", "w[1,  2]", "[ 7 ]"])
    def test_names_with_brackets_are_written_as_given(self, tmp_path, capsys, name):
        raw = json.loads((SPACES / "disk_positive.json").read_text())
        path = tmp_path / "named.json"
        path.write_text(json.dumps(dict(raw, name=name)))
        for command in ("analyze", "verify"):
            assert main([command, str(path), "--json"]) == EXIT_OK
            out = capsys.readouterr().out
            assert '\n  "name": %s,\n' % json.dumps(name) in out
            assert json.loads(out)["name"] == name
        target = tmp_path / "double.json"
        assert main(["double", str(path), "-o", str(target)]) == EXIT_OK
        assert parse_space_file(target.read_bytes()).name == name + "_double"

    def test_space_file_dict_orders_simplices(self):
        payload = space_file_dict("torus", builtin_example("torus"))
        simplices = payload["maximal_simplices"]
        assert simplices == sorted(simplices)
        assert all(len(s) == 3 for s in simplices)

    def test_split_payload_contains_both_regions(self):
        payload = space_file_dict("annulus_split", builtin_example("annulus_split"))
        assert payload["positive_region"] == [[6, 7], [6, 8], [7, 8]]
        assert payload["negative_region"] == [[0, 1], [0, 2], [1, 2]]


def count_chain_tables(monkeypatch):
    """Record each complex whose chain table is built from its faces, and
    each double's total, whose table is derived from its domain's."""
    built, derived = [], []
    build = complexes._build_chain_table

    def counted_build(complex_):
        built.append(complex_)
        return build(complex_)

    def counted(derive):
        def counted_derive(*args):
            derived.append(args[-1])
            return derive(*args)

        return counted_derive

    monkeypatch.setattr(complexes, "_build_chain_table", counted_build)
    monkeypatch.setattr(glued, "_total_table", counted(glued._total_table))
    return built, derived


class TestRequestLifetime:
    """Each request makes every complex's chain table once and leaves
    nothing of its input behind."""

    @pytest.mark.parametrize("space", ["reeb_ball_2", "annulus_split"])
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_each_complex_builds_its_chain_table_once(self, monkeypatch, capsys, command, space):
        splits, intersections = [], []
        built, derived = count_chain_tables(monkeypatch)
        load, intersection = cli.load_space, SimplicialComplex.intersection

        def record(locator):
            name, split = load(locator)
            splits.append(split)
            return name, split

        def recorded_intersection(self, other):
            intersections.append(intersection(self, other))
            return intersections[-1]

        monkeypatch.setattr(cli, "load_space", record)
        monkeypatch.setattr(SimplicialComplex, "intersection", recorded_intersection)
        assert main([command, space]) == EXIT_OK
        capsys.readouterr()
        split, = splits
        double = split.double
        # Only the double's total derives a table, from the domain's;
        # Mayer-Vietoris pushes chains through the copies' labels.
        assert list(map(id, derived)) == [id(double.total)]
        expected = [split.domain]
        if command == "verify":
            expected += [split.positive, split.negative, double.exit_boundary]
        made = built + derived
        assert len({id(cx) for cx in made}) == len(made)
        assert sorted(map(id, expected)) == sorted(id(cx) for cx in built if any(cx is e for e in expected))
        assert [cx for cx in built if not any(cx is e for e in expected)] == []
        # The one intersection is the split's interface: no overlap of the
        # copies or of their exit parts is built.
        assert list(map(id, intersections)) == [id(split.interface)]

    def test_verify_derives_only_the_totals_table_of_a_relabeled_double(self, monkeypatch, capsys):
        # The file's labels are not 0..n-1 and its interface is nonempty,
        # so both copies relabel the domain; still neither copy's faces
        # get a table, and the total derives its own.
        splits = []
        built, derived = count_chain_tables(monkeypatch)
        load = cli.load_space

        def record(locator):
            name, split = load(locator)
            splits.append(split)
            return name, split

        monkeypatch.setattr(cli, "load_space", record)
        assert main(["verify", str(SPACES / "disk_both.json")]) == EXIT_OK
        capsys.readouterr()
        split, = splits
        double = split.double
        assert sorted(split.domain.vertices) != list(range(len(split.domain.vertices)))
        copies = [relabeled(split.domain, label).faces for label in double.labels]
        assert len(split.interface) > 0 and split.domain.faces not in copies
        assert list(map(id, derived)) == [id(double.total)]
        assert not [cx for cx in built if cx.faces in (*copies, double.total.faces)]

    def test_verify_builds_no_table_twice_for_equal_faces(self, monkeypatch, capsys):
        built, derived = count_chain_tables(monkeypatch)
        assert main(["verify", "reeb_ball_2"]) == EXIT_OK
        capsys.readouterr()
        # The empty positive region and exit boundary are distinct objects,
        # each with a one-cell table; the domain, the negative region and
        # the derived total are the others.
        nonempty = [cx.faces for cx in built + derived if cx.faces]
        assert len(nonempty) == 3 and len(set(nonempty)) == len(nonempty)
        assert len(derived) == 1

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_space_file_checks_strong_connectivity_once_on_the_domain(self, monkeypatch, capsys, command):
        checked, splits = [], []
        check, load = complexes.check_strongly_connected, cli.load_space

        def count(complex_):
            checked.append(complex_)
            return check(complex_)

        def record(locator):
            name, split = load(locator)
            splits.append(split)
            return name, split

        monkeypatch.setattr(complexes, "check_strongly_connected", count)
        monkeypatch.setattr(exactness, "check_strongly_connected", count)
        monkeypatch.setattr(cli, "load_space", record)
        assert main([command, str(SPACES / "disk_positive.json")]) == EXIT_OK
        capsys.readouterr()
        split, = splits
        # Boundary extraction checks no connectivity; the duality check
        # walks the domain, once.
        assert len(checked) == 1 and checked[0] is split.domain

    def test_parsed_space_file_builds_one_split(self, monkeypatch):
        built = []
        validate = BoundarySplit.__post_init__

        def count(split):
            built.append(split)
            validate(split)

        monkeypatch.setattr(BoundarySplit, "__post_init__", count)
        split = parse_space_file((SPACES / "disk_positive.json").read_bytes()).split()
        assert len(built) == 1 and built[0] is split

    @pytest.mark.parametrize("space", ["annulus_split", "reeb_ball_2", "disk_positive.json"])
    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["analyze", "--json"], ["verify"], ["verify", "--json"], ["double"], ["double", "-o"]],
        ids=" ".join,
    )
    def test_a_request_frees_its_domain_by_reference_counting(self, monkeypatch, capsys, tmp_path, argv, space):
        # No reference cycle may hold the loaded domain: a cycle through
        # the split and its double would keep each request's complexes
        # alive until the next collection.
        domains = []
        load = cli.load_space

        def record(locator):
            name, split = load(locator)
            domains.append(weakref.ref(split.domain))
            return name, split

        monkeypatch.setattr(cli, "load_space", record)
        locator = str(SPACES / space) if space.endswith(".json") else space
        args = [argv[0], locator] + argv[1:] + ([str(tmp_path / "double.json")] if argv[1:] == ["-o"] else [])
        gc.collect()
        gc.disable()
        try:
            assert main(args) == EXIT_OK
            capsys.readouterr()
            assert len(domains) == 1 and domains[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("space", ["annulus_split", "reeb_ball_2", "disk_positive.json"])
    @pytest.mark.parametrize("command", ["analyze", "verify", "double"])
    def test_a_request_makes_no_reference_cycle(self, capsys, command, space):
        # main pauses the cyclic collector for the command, which loses
        # nothing only while a command leaves no cycle for it to find.
        locator = str(SPACES / space) if space.endswith(".json") else space
        cli._parser()  # building the parser leaves argparse's own cycles
        gc.collect()
        assert main([command, locator]) == EXIT_OK
        capsys.readouterr()
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("space", ["annulus_split", "no_such_file.json"])
    def test_main_pauses_the_collector_for_the_command_and_leaves_it_as_found(
        self, monkeypatch, capsys, enabled, space
    ):
        during = []
        load = cli.load_space

        def record(locator):
            during.append(gc.isenabled())
            return load(locator)

        monkeypatch.setattr(cli, "load_space", record)
        (gc.enable if enabled else gc.disable)()
        try:
            main(["double", str(SPACES / space) if space.endswith(".json") else space])
            capsys.readouterr()
            assert during == [False] and gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_a_request_keeps_no_complex_alive(self, monkeypatch, capsys):
        domains = []
        load = cli.load_space

        def record(locator):
            name, split = load(locator)
            domains.append(weakref.ref(split.domain))
            return name, split

        monkeypatch.setattr(cli, "load_space", record)
        assert main(["verify", "annulus_split"]) == EXIT_OK
        capsys.readouterr()
        gc.collect()
        assert len(domains) == 1 and domains[0]() is None
