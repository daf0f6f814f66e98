"""Generators, gluing constructions, and the catalog."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from conftest import (
    annulus_domains,
    boundary_star_split,
    catalog_splits,
    cell_counts,
    full_double,
    grown_regions,
    hollow_triangle,
    is_orientable_surfacelike,
    reference_composition_check,
    reference_fill,
    relabeled,
    relabeled_split,
    ridge_incidence,
    seeded_grown_regions,
)
from topsym import (
    ComplexPair,
    InputError,
    SimplicialComplex,
    analyze_action,
    betti,
    boundary_subcomplex,
    build_complex,
    builtin_example,
    cone,
    cross_polytope_sphere,
    mayer_vietoris_check,
    truncated_double,
    wedge_of_spheres,
)
from topsym import cli, complexes, glued, spaces
from topsym.cli import EXIT_OK, main, report_json
from topsym.complexes import MAX_FACES
from topsym.spaces import BoundarySplit

SPACES = Path(__file__).with_name("spaces")


def images(double, cx):
    """Copy A's and copy B's images of a complex of the domain, relabeled
    by the double's labelings."""
    return [relabeled(cx, label) for label in double.labels]


def table(cx_or_pair):
    if isinstance(cx_or_pair, SimplicialComplex):
        cx_or_pair = ComplexPair.absolute(cx_or_pair)
    return betti(cx_or_pair).as_dict()


class TestCrossPolytope:
    def test_dimension_zero_is_two_points(self):
        assert cell_counts(ComplexPair.absolute(cross_polytope_sphere(0))) == {0: 2}

    def test_square(self):
        assert cell_counts(ComplexPair.absolute(cross_polytope_sphere(1))) == {0: 4, 1: 4}

    def test_octahedron_counts_from_antipodal_rule(self):
        assert cell_counts(ComplexPair.absolute(cross_polytope_sphere(2))) == {0: 6, 1: 12, 2: 8}

    def test_sphere_tables(self):
        for d in range(4):
            expected = {0: 2} if d == 0 else {0: 1, d: 1}
            assert table(cross_polytope_sphere(d)) == expected


class TestCone:
    def test_cone_of_circle_is_disk(self):
        disk = cone(hollow_triangle())
        assert table(disk) == {0: 1}
        assert boundary_subcomplex(disk) == hollow_triangle()

    def test_cone_of_octahedron_is_contractible(self):
        assert table(cone(cross_polytope_sphere(2))) == {0: 1}

    def test_cone_of_empty_is_point(self):
        assert cell_counts(ComplexPair.absolute(cone(SimplicialComplex.empty()))) == {0: 1}


class TestWedge:
    def test_brieskorn_shape_n2(self):
        assert table(wedge_of_spheres(2, 4)) == {0: 1, 2: 4}

    def test_single_circle(self):
        assert table(wedge_of_spheres(1, 1)) == {0: 1, 1: 1}

    def test_brieskorn_shape_n3(self):
        assert table(wedge_of_spheres(3, 8)) == {0: 1, 3: 8}

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            wedge_of_spheres(0, 1)


class TestTruncatedDouble:
    def test_disk_half_split_is_a_homotopy_circle(self):
        d = truncated_double(builtin_example("disk_half_split"))
        assert table(d.total) == {0: 1, 1: 1}
        assert table(d.exit_boundary) == {0: 1, 1: 1}

    def test_two_disjoint_disks(self):
        d = truncated_double(builtin_example("reeb_ball_1"))
        assert table(d.total) == {0: 2}
        assert len(d.exit_boundary) == 0
        assert betti(d.exit_pair()).as_dict().get(0, 0) == 2

    def test_two_disjoint_annuli(self):
        d = truncated_double(builtin_example("annulus_split"))
        assert betti(d.exit_pair()).total() == 0

    def test_copies_meet_in_interface_image(self):
        for name, split in catalog_splits().items():
            d = truncated_double(split)
            (copy_a, copy_b), (exit_a, exit_b) = images(d, split.domain), images(d, split.positive)
            interface_image, = set(images(d, split.interface))  # both copies label the interface alike
            assert copy_a.intersection(copy_b) == interface_image, name
            # The interface sits inside the positive region, so the exit
            # copies meet in exactly its image.
            assert exit_a.intersection(exit_b) == interface_image, name

    def test_factor_two_identity_across_catalog(self):
        for name, split in catalog_splits().items():
            d = truncated_double(split)
            doubled = betti(split.positive_pair()).scaled(2)
            assert betti(d.exit_pair()) == doubled, name

    def test_doubles_of_one_split_are_equal_and_hash_alike(self):
        # The labelings are dicts, so they stay out of equality and hashing.
        for name, split in catalog_splits().items():
            first, second = truncated_double(split), truncated_double(split)
            assert first == second and hash(first) == hash(second) and first.labels == second.labels, name

    def test_copy_pairs_match_the_original_pair(self):
        for name, split in catalog_splits().items():
            d = truncated_double(split)
            original = betti(split.positive_pair())
            for copy, exit_part in zip(images(d, split.domain), images(d, split.positive)):
                assert betti(ComplexPair(copy, exit_part)) == original, name

    def test_vertices_are_integers_in_copy_order(self):
        # Copy-A-only vertices, then the shared interface, then copy-B-only,
        # each run in the order of the domain's labels.
        for name, split in catalog_splits().items():
            d = truncated_double(split)
            shared = sorted(split.interface.vertices)
            own = sorted(split.domain.vertices - split.interface.vertices)
            label_a = dict(zip(own + shared, range(len(own) + len(shared))))
            label_b = dict(zip(shared + own, range(len(own), 2 * len(own) + len(shared))))
            assert d.total.vertices == frozenset(range(2 * len(own) + len(shared))), name
            assert d.labels == (label_a, label_b), name
            for cx, glued_cx in (
                (split.domain, d.total),
                (split.positive, d.exit_boundary),
                (split.negative, d.entry_boundary),
            ):
                assert glued_cx == relabeled(cx, label_a).union(relabeled(cx, label_b)), name
            assert relabeled(split.interface, label_a) == relabeled(split.interface, label_b), name

    def test_tops_are_the_totals_top_simplices(self):
        for name, split in catalog_splits().items():
            d = truncated_double(split)
            assert d.tops == d.total.simplices(split.domain.dim), name
            assert set(d.tops) == {s for copy in images(d, split.domain) for s in copy.simplices(split.domain.dim)}, name

    def test_region_faces_are_the_totals_own_tuples(self):
        # A face is stored once: the total holds the very tuples of the exit
        # boundary, which analyze and verify read with it, not equal copies.
        # No command reads the entry boundary with the total.
        for name, split in catalog_splits().items():
            d = truncated_double(split)
            stored = {f: f for f in d.total.faces}
            assert all(stored[f] is f for f in d.exit_boundary.faces), name

    def test_each_request_builds_one_double(self, monkeypatch, capsys):
        # verify runs analyze and then the suites; both read the same double.
        calls = []
        original = spaces.truncated_double

        def counted(split):
            calls.append(split)
            return original(split)

        monkeypatch.setattr(spaces, "truncated_double", counted)
        for name in catalog_splits():
            for command in ("verify", "analyze", "double"):
                calls.clear()
                assert main([command, name]) == EXIT_OK, (command, name)
                assert len(calls) == 1, (command, name)

    def test_non_induced_interface_rejected(self):
        # Both boundary vertices of one edge, but not the edge itself.
        strip = build_complex([(0, 1, 2)])
        split = BoundarySplit(
            strip,
            build_complex([(0, 1), (1, 2)]),
            build_complex([(0, 2), (1, 2)]),
        )
        with pytest.raises(InputError):
            truncated_double(split)


class TestFullDouble:
    def test_interval_doubles_to_circle(self):
        interval = build_complex([(0, 1), (1, 2)])
        assert table(full_double(interval)) == {0: 1, 1: 1}

    def test_disk_doubles_to_sphere(self):
        doubled = full_double(cone(hollow_triangle()))
        assert table(doubled) == table(cross_polytope_sphere(2))

    def test_annulus_doubles_to_torus(self):
        from topsym.spaces import _ring_annulus

        doubled = full_double(_ring_annulus())
        assert table(doubled) == {0: 1, 1: 2, 2: 1}
        assert is_orientable_surfacelike(doubled)

    def test_doubles_are_closed(self):
        from topsym.spaces import _ring_annulus

        for domain in (cone(hollow_triangle()), _ring_annulus(), cone(cross_polytope_sphere(2))):
            closed = full_double(domain)
            assert len(boundary_subcomplex(closed)) == 0
            incidence = ridge_incidence(closed)
            assert all(len(tops) == 2 for tops in incidence.values())

    def test_double_has_integer_labels_to_cone_over(self):
        from topsym.spaces import _ring_annulus

        assert table(cone(full_double(_ring_annulus()))) == {0: 1}

    def test_closed_domain_rejected(self):
        with pytest.raises(InputError):
            full_double(cross_polytope_sphere(2))

    def test_non_induced_boundary_rejected(self):
        square_disk = build_complex([(0, 1, 3), (1, 2, 3)])  # chord 1-3 joins boundary vertices
        with pytest.raises(InputError):
            full_double(square_disk)


class TestCatalog:
    def test_reeb_ball_positive_region_is_empty(self):
        split = builtin_example("reeb_ball_2")
        assert len(split.positive) == 0
        assert split.negative == boundary_subcomplex(split.domain)

    def test_brieskorn_table(self):
        split = builtin_example("brieskorn_2")
        assert table(split.domain) == {0: 1, 2: 4}

    def test_klein_bottle_table(self):
        klein = builtin_example("klein_bottle")
        assert table(klein) == {0: 1, 1: 2, 2: 1}
        incidence = ridge_incidence(klein)
        assert all(len(tops) == 2 for tops in incidence.values())
        assert not is_orientable_surfacelike(klein)

    def test_torus_is_the_orientable_one(self):
        torus = builtin_example("torus")
        assert table(torus) == {0: 1, 1: 2, 2: 1}
        assert is_orientable_surfacelike(torus)

    def test_projective_plane_table(self):
        assert table(builtin_example("projective_plane")) == {0: 1, 1: 1, 2: 1}

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(InputError) as err:
            builtin_example("klein_bagel")
        assert "catalog" in str(err.value)
        assert "sphere_<d>" in str(err.value)

    def test_face_counts_of_parametrized_names(self):
        # The counts checked against the face limit before anything is built.
        for d in range(5):
            assert spaces._sphere_faces(d) == len(cross_polytope_sphere(d)), d
        for n, count in ((1, 1), (1, 3), (2, 4), (3, 2)):
            assert spaces._wedge_faces(n, count) == len(wedge_of_spheres(n, count)), (n, count)

    def test_parameter_out_of_range_is_named(self):
        cases = (
            ("reeb_ball_0", "reeb_ball_n needs n >= 1"),
            ("brieskorn_1", "brieskorn_n needs n >= 2"),
            ("ball_-1", "dimension must be nonnegative"),
            ("wedge_0_1", "need sphere_dim >= 1"),
        )
        for name, message in cases:
            with pytest.raises(InputError, match=message):
                builtin_example(name)

    def test_largest_entries_under_the_face_limit_are_built(self):
        # The largest of their families under the limit.
        assert len(builtin_example("reeb_ball_4").domain) <= MAX_FACES
        assert len(builtin_example("brieskorn_6").domain) <= MAX_FACES

    def test_parametrized_names_past_the_face_limit_are_refused(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the face limit must be checked before building")

        monkeypatch.setattr(spaces, "cross_polytope_sphere", unbuilt)
        monkeypatch.setattr(spaces, "wedge_of_spheres", unbuilt)
        for name in ("sphere_60", "ball_10", "wedge_30_1", "wedge_1_100000", "reeb_ball_5", "brieskorn_7", "brieskorn_99999"):
            with pytest.raises(InputError, match="limit of %d faces" % MAX_FACES):
                builtin_example(name)

    def test_parametrized_names(self):
        assert builtin_example("sphere_2") == cross_polytope_sphere(2)
        assert table(builtin_example("ball_3")) == {0: 1}
        assert table(builtin_example("wedge_2_3")) == {0: 1, 2: 3}


class TestSplitInvariants:
    def test_regions_cover_and_interface(self):
        for name, split in catalog_splits().items():
            boundary = boundary_subcomplex(split.domain)
            assert split.positive.union(split.negative) == boundary, name
            assert split.interface == split.positive.intersection(split.negative), name

    def test_region_off_boundary_rejected(self):
        disk = cone(hollow_triangle())
        with pytest.raises(InputError):
            BoundarySplit(disk, build_complex([(0, 3)]), hollow_triangle())

    def test_uncovered_boundary_rejected(self):
        disk = cone(hollow_triangle())
        with pytest.raises(InputError):
            BoundarySplit(disk, build_complex([(0, 1)]), build_complex([(1, 2)]))

    def test_missing_region_is_the_closure_of_the_complement(self):
        # Every catalog split has regions that meet only in the interface,
        # so either region alone determines the split.
        for name, split in catalog_splits().items():
            assert BoundarySplit(split.domain, positive=split.positive) == split, name
            assert BoundarySplit(split.domain, negative=split.negative) == split, name

    def test_no_region_makes_the_whole_boundary_negative(self):
        disk = cone(hollow_triangle())
        split = BoundarySplit(disk)
        assert len(split.positive) == 0
        assert split.negative == boundary_subcomplex(disk)


class TestRandomSplits:
    """Splits of catalog domains with a region grown across boundary ridges."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(grown_regions())
    def test_missing_region_is_the_closed_complement(self, drawn):
        domain, region, _ = drawn
        expected = reference_fill(boundary_subcomplex(domain), region)
        assert BoundarySplit(domain, region).negative == expected
        assert BoundarySplit(domain, None, region).positive == expected

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(grown_regions())
    def test_identities_hold_and_the_report_survives_relabeling(self, drawn):
        domain, region, mapping = drawn
        split = BoundarySplit(domain, region)
        try:
            double = split.double
        except InputError:  # the interface is not an induced subcomplex
            assume(False)
        report = analyze_action(split, name="grown")
        assert report.factor2_passed and report.duality_status == "pass"
        mv = mayer_vietoris_check(double.total, *images(double, split.domain), *images(double, split.positive))
        assert mv.passed is True
        permuted = BoundarySplit(relabeled(domain, mapping), relabeled(region, mapping))
        assert report_json(analyze_action(permuted, name="grown")) == report_json(report)


class TestRelabelingInvariance:
    def test_split_tables_survive_vertex_permutation(self):
        rng = random.Random(2)
        for name, split in catalog_splits().items():
            verts = sorted(split.domain.vertices)
            images = list(verts)
            rng.shuffle(images)
            mapping = dict(zip(verts, images))
            permuted = relabeled_split(split, mapping)
            assert betti(permuted.positive_pair()) == betti(split.positive_pair()), name
            doubled = truncated_double(permuted)
            assert betti(doubled.exit_pair()) == betti(truncated_double(split).exit_pair()), name


def space_file_splits():
    return {path.name: cli.load_space(str(path))[1] for path in sorted(SPACES.glob("*.json"))}


def reordered_degrees(split):
    """The degrees of the domain cells whose vertices either copy's
    labeling of the double reorders, found face by face."""
    shared = sorted(split.interface.vertices)
    own = sorted(split.domain.vertices - split.interface.vertices)
    labels = dict(zip(own + shared, itertools.count())), dict(zip(shared + own, itertools.count(len(own))))
    images = ([label[v] for v in s] for label in labels for s in split.domain.faces)
    return {len(image) - 1 for image in images if image != sorted(image)}


def composition_message(fn, *args):
    """The message of the composition check's error, or None when it passes."""
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    return None


class TestDerivedChainTable:
    """The double's total derives its chain table from the domain's; the
    oracle is ``_build_chain_table`` on the same faces.  ``check`` tells
    whether copy A's labeling moves a vertex of the domain."""

    def check(self, monkeypatch, split):
        derived, derive = [], glued._total_table

        def counted_derive(*args):
            derived.append(args[-1])
            return derive(*args)

        monkeypatch.setattr(glued, "_total_table", counted_derive)
        double = truncated_double(split)
        total = double.total
        cells, rows, memo = total._chain_table
        fresh = complexes._trusted(total.faces)
        assert (cells, rows) == complexes._build_chain_table(fresh) and memo == {}
        for k in range(-1, total.dim + 2):
            grouped = tuple(sorted(s for s in total.faces if len(s) == k + 1))
            assert total.simplices(k) == grouped, k
        assert [len(total.simplices(k)) for k in range(-1, total.dim + 2)] == [len(fresh.simplices(k)) for k in range(-1, total.dim + 2)]
        assert list(map(id, derived)) == [id(total)]
        return any(v != image for v, image in double.labels[0].items())

    def test_catalog_and_space_file_splits(self, monkeypatch):
        splits = {**catalog_splits(), **space_file_splits()}
        assert len(splits) == 11
        relabeled_a = [name for name, split in splits.items() if self.check(monkeypatch, split)]
        # Elsewhere copy A's labels, own vertices first, are the domain's.
        assert relabeled_a == ["disk_half_split", *(f"disk_{n}.json" for n in ("bare", "both", "negative", "positive"))]

    def test_seeded_relabelings(self, monkeypatch):
        rng, interface, reordered, relabeled_a = random.Random(14), 0, 0, 0
        for name, split in {**catalog_splits(), **space_file_splits()}.items():
            vertices = sorted(split.domain.vertices)
            for _ in range(4):
                mapping = dict(zip(vertices, rng.sample(range(3 * len(vertices)), len(vertices))))
                relabeled = relabeled_split(split, mapping)
                interface += len(relabeled.interface) > 0
                reordered += bool(reordered_degrees(relabeled))
                relabeled_a += self.check(monkeypatch, relabeled)
        assert reordered == interface == 16 and relabeled_a == 44

    def test_boundary_star_splits(self, monkeypatch):
        # Most cells hold own and interface vertices, so each degree is
        # ordered across both sides, and cells of the top degree, 4 or 6,
        # have their five or seven facet rows permuted.
        rng = random.Random(29)
        for n in (2, 3):
            split = boundary_star_split(n)
            vertices = sorted(split.domain.vertices)
            mapping = dict(zip(vertices, rng.sample(range(3 * len(vertices)), len(vertices))))
            for case in (split, relabeled_split(split, mapping)):
                self.check(monkeypatch, case)
                assert max(reordered_degrees(case)) == 2 * n

    def test_grown_annulus_splits(self, monkeypatch):
        seen = {"draws": 0, "interface": 0, "reordered": 0, "relabeled_a": 0}
        for domain, region, mapping in seeded_grown_regions(500, 150, annulus_domains()):
            split = relabeled_split(BoundarySplit(domain, region), mapping)
            try:
                split.double
            except InputError:  # an arc of one edge, or all but one, is not induced
                continue
            seen["draws"] += 1
            seen["interface"] += len(split.interface) > 0
            seen["reordered"] += bool(reordered_degrees(split))
            seen["relabeled_a"] += self.check(monkeypatch, split)
        # The permuted-facet path runs on every draw with an interface.
        assert seen["draws"] >= 60 and seen["reordered"] == seen["interface"] >= 20, seen
        assert seen["relabeled_a"] >= seen["interface"], seen

    @pytest.mark.parametrize("name", ["disk_half_split", "disk_both.json"])
    def test_corrupted_derived_rows_fail_the_composition_check(self, name):
        # Every entry of every derived facet row in turn is moved to
        # another position one degree down; the identities reject each
        # corruption with the message the dense check gives.
        split = cli.load_space(str(SPACES / name) if name.endswith(".json") else name)[1]
        split = relabeled_split(split, {v: 40 - 3 * v for v in split.domain.vertices})
        assert reordered_degrees(split)
        faces = truncated_double(split).total.faces
        derive = truncated_double(split).total.__dict__["_derive_chain_table"]
        cells, rows = complexes._build_chain_table(complexes._trusted(faces))
        target = {}

        def corrupt(complex_):
            derived_cells, derived_rows = derive(complex_)
            derived_rows[target["k"]][target["i"]][target["c"]] = target["p"]
            return derived_cells, derived_rows

        corruptions = 0
        for k in range(1, max(rows) + 1):
            for i, row in enumerate(rows[k]):
                for c, clean in enumerate(row):
                    p = (clean + 1) % len(cells[k - 1])
                    row[c] = p
                    dense = composition_message(reference_composition_check, cells, rows)
                    row[c] = clean
                    target.update(k=k, i=i, c=c, p=p)
                    assert dense is not None
                    assert composition_message(lambda: complexes._trusted(faces, corrupt)._chain_table) == dense
                    corruptions += 1
        assert corruptions > 50
