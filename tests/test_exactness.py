"""Long exact sequence, Mayer-Vietoris, excision and duality verification."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from hypothesis import assume, given, settings

from conftest import (
    annulus_domains,
    catalog_splits,
    connecting_map,
    corpus_complexes,
    corpus_pairs,
    grown_regions,
    hollow_triangle,
    random_pairs,
    random_subcomplex,
    reference_double,
    relabeled,
)
from topsym import (
    BoundarySplit,
    ComplexPair,
    HomologyBasis,
    InputError,
    PseudomanifoldError,
    SimplicialComplex,
    betti,
    build_complex,
    builtin_example,
    cli,
    cone,
    exactness,
    truncated_double,
)
from topsym.cli import EXIT_INTERNAL_ERROR, EXIT_SUITE_FAILED, load_space, main, run_identity_suites
from topsym.complexes import boundary_chain
from topsym.exactness import (
    SlotCheck,
    excision_check,
    lefschetz_duality_check,
    les_exactness_check,
    mayer_vietoris_check,
)
from topsym.gf2 import Gf2Matrix

SPACES = Path(__file__).with_name("spaces")


class TestConnectingMap:
    def test_disk_circle_connecting_is_iso(self):
        circle = hollow_triangle()
        pair = ComplexPair(cone(circle), circle)
        m = connecting_map(pair, 1)
        mat = m.matrices[2]  # out of relative degree 2 into reduced degree 1
        assert (mat.n_rows, mat.n_cols) == (1, 1)
        assert mat.rank() == 1

    def test_empty_sub_gives_zero_maps_in_nonnegative_degrees(self):
        for cx in (hollow_triangle(), builtin_example("torus")):
            pair = ComplexPair.absolute(cx)
            for k in range(cx.dim + 1):
                assert connecting_map(pair, k).matrices[k + 1].rank() == 0

    def test_empty_sub_augmentation_degree(self):
        # Into degree -1 the connecting map is the augmentation.
        pair = ComplexPair.absolute(hollow_triangle())
        assert connecting_map(pair, -1).matrices[0].rank() == 1

    def test_cone_over_two_points(self):
        two = build_complex([(0,), (1,)])
        pair = ComplexPair(cone(two), two)
        m = connecting_map(pair, 0)
        assert m.matrices[1].rank() == 1
        # Chain-level: the relative 1-class is a cone edge chain whose
        # boundary is the difference of the two base points.
        rep = m.source.representatives(1)[0]
        image = boundary_chain(rep, frozenset(), augmented=True)
        assert image <= frozenset({(0,), (1,), ()})


class TestLesExactness:
    def test_cone_pairs_pass_with_degree_shift(self):
        for name, base in corpus_complexes().items():
            if not all(isinstance(v, int) for v in base.vertices):
                continue
            pair = ComplexPair(cone(base), base)
            report = les_exactness_check(pair)
            assert report.passed, (name, report.slots)
            rel = betti(pair)
            red = betti(ComplexPair.absolute(base), augmented=True)
            assert {k + 1: d for k, d in red.entries} == rel.as_dict(), name

    def test_disk_circle_passes(self):
        circle = hollow_triangle()
        report = les_exactness_check(ComplexPair(cone(circle), circle))
        assert report.passed

    def test_the_circle_class_dies_in_the_disk(self):
        # The map induced by inclusion is the LES's first map, and its
        # rank is the incoming rank at the ambient slot of each degree.
        circle = hollow_triangle()
        report = les_exactness_check(ComplexPair(cone(circle), circle))
        into_ambient = {s.degree: s.incoming_rank for s in report.slots if s.at == "ambient"}
        sub_dims = {s.degree: s.middle_dim for s in report.slots if s.at == "sub"}
        assert sub_dims[1] == 1 and into_ambient[1] == 0
        # So the connecting map onto the circle's class is onto.
        assert {s.degree: s.outgoing_rank for s in report.slots if s.at == "pair"}[2] == 1

    def test_two_points_into_three_points_has_rank_one(self):
        two = build_complex([(0,), (1,)])
        report = les_exactness_check(ComplexPair(build_complex([(0,), (1,), (2,)]), two))
        ambient = {s.degree: s for s in report.slots if s.at == "ambient"}
        assert (ambient[0].middle_dim, ambient[0].incoming_rank) == (2, 1)
        assert report.passed

    def test_pair_with_itself_passes_with_zero_relative(self):
        cx = builtin_example("projective_plane")
        pair = ComplexPair(cx, cx)
        assert betti(pair).total() == 0
        assert les_exactness_check(pair).passed

    def test_rank_nullity_bookkeeping(self):
        circle = hollow_triangle()
        report = les_exactness_check(ComplexPair(cone(circle), circle))
        for slot in report.slots:
            assert slot.incoming_rank + slot.outgoing_rank == slot.middle_dim

    def test_corpus_pairs_pass(self):
        for name, pair in corpus_pairs().items():
            report = les_exactness_check(pair)
            assert report.passed, (name, report.slots)

    def test_the_report_keeps_the_pairs_relative_basis(self):
        for name, pair in corpus_pairs().items():
            report = les_exactness_check(pair)
            assert report.pair is pair and report.relative.pair is pair, name
            assert not report.relative.augmented and report.relative.betti() == betti(pair), name

    def test_a_shared_ambient_basis_gives_the_same_slots(self):
        for name, pair in corpus_pairs().items():
            basis = HomologyBasis(ComplexPair.absolute(pair.ambient), augmented=True)
            assert les_exactness_check(pair, basis).slots == les_exactness_check(pair).slots, name

    def test_an_ambient_basis_that_is_not_the_ambients_reduced_one_is_refused(self):
        pair = corpus_pairs()["annulus_split_pos"]
        copy = build_complex(pair.ambient.maximal_simplices())
        assert copy == pair.ambient and copy is not pair.ambient
        for basis in (
            HomologyBasis(ComplexPair.absolute(copy), augmented=True),
            HomologyBasis(ComplexPair.absolute(pair.sub), augmented=True),
            HomologyBasis(ComplexPair.absolute(pair.ambient)),
            HomologyBasis(pair),
        ):
            with pytest.raises(InputError, match="ambient basis"):
                les_exactness_check(pair, basis)

    def test_randomized_subcomplex_pairs_pass(self):
        rng = random.Random(424242)
        spaces = [
            corpus_complexes()[n]
            for n in ("sphere_2", "torus", "klein_bottle", "projective_plane", "ball_2", "wedge_2_4")
        ]
        checked = 0
        while checked < 8:
            ambient = spaces[checked % len(spaces)]
            sub = random_subcomplex(ambient, rng)
            report = les_exactness_check(ComplexPair(ambient, sub))
            assert report.passed, report.slots
            checked += 1


def reference_les_slots(pair):
    """The slots of ``les_exactness_check`` with no zero-group shortcut:
    every map's full matrix in every degree, a zero matrix of the group
    dimensions where no class maps, its rank, and the product of every
    two consecutive maps.  Each column is a class expression of a pushed
    representative."""
    sub_h = HomologyBasis(ComplexPair.absolute(pair.sub), augmented=True)
    amb_h = HomologyBasis(ComplexPair.absolute(pair.ambient), augmented=True)
    rel_h = HomologyBasis(pair)

    def matrix(source, target, push, k, shift=0):
        columns = [target.express_class(k + shift, push(rep))[0] for rep in source.representatives(k)]
        return Gf2Matrix.from_columns(columns, target.betti_dim(k + shift))

    def connect(k):
        return matrix(rel_h, sub_h, lambda c: boundary_chain(c, frozenset(), augmented=True), k, -1)

    def into_ambient(k):
        return matrix(sub_h, amb_h, lambda c: c, k)

    def onto_relative(k):
        return matrix(amb_h, rel_h, lambda c: c - pair.sub.faces - {()}, k)

    degrees = range(pair.ambient.dim + 1, -2, -1)
    maps = [m(k) for k in degrees for m in (into_ambient, onto_relative, connect)] + [into_ambient(-2)]
    groups = [g for k in degrees for g in ((k, "ambient", amb_h), (k, "pair", rel_h), (k - 1, "sub", sub_h))]
    return tuple(
        SlotCheck(d, at, h.betti_dim(d), maps[i].rank(), maps[i + 1].rank(), maps[i + 1].mat_mul(maps[i]).is_zero())
        for i, (d, at, h) in enumerate(groups)
    )


class TestZeroGroups:
    """The sequence skips the work of zero groups and gives the slots of
    the full computation."""

    def test_corpus_slots_match_the_full_computation(self):
        products = 0
        for name, pair in corpus_pairs().items():
            slots = les_exactness_check(pair).slots
            assert slots == reference_les_slots(pair), name
            products += sum(1 for s in slots if s.incoming_rank and s.outgoing_rank)
        # Some slot sits between two nonzero maps, so the product path runs.
        assert products > 0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_pair_slots_match_the_full_computation(self, pair):
        assert les_exactness_check(pair).slots == reference_les_slots(pair)

    @staticmethod
    def add_a_row_to_every_map(monkeypatch):
        # Every computed matrix gains a row, so the first map into a
        # nonzero group no longer has that group's dimension for its rows.
        expressed = exactness._expressed

        def one_row_too_many(target, k, images):
            matrix, witnesses = expressed(target, k, images)
            return Gf2Matrix(matrix.n_rows + 1, matrix.n_cols, matrix.columns), witnesses

        monkeypatch.setattr(exactness, "_expressed", one_row_too_many)

    def test_a_map_whose_shape_disagrees_with_its_groups_is_refused(self, monkeypatch):
        self.add_a_row_to_every_map(monkeypatch)
        with pytest.raises(AssertionError, match="shape disagrees with its groups"):
            les_exactness_check(corpus_pairs()["torus"])

    def test_verify_reports_a_shape_fault_as_an_internal_error(self, monkeypatch, capsys):
        # The maps are the package's own, so a bad shape is a fault in
        # the package, not in the input: exit 4, not 2.
        self.add_a_row_to_every_map(monkeypatch)
        assert main(["verify", "annulus_split"]) == EXIT_INTERNAL_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: AssertionError: ")


class TestRandomPairs:
    """The long exact sequence of random pairs, against witnesses checked
    chain by chain."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_les_is_exact(self, pair):
        report = les_exactness_check(pair)
        assert report.passed, report.slots

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_connecting_map_witnesses_hold_in_every_degree(self, pair):
        # Each relative (d+1)-class goes to the class of its boundary: the
        # boundary plus the chosen degree-d representatives of the
        # subcomplex bounds the witness.
        for d in range(-1, pair.ambient.dim + 1):
            m = connecting_map(pair, d)
            matrix = m.matrices[d + 1]
            sources, targets = m.source.representatives(d + 1), m.target.representatives(d)
            assert (matrix.n_rows, matrix.n_cols) == (len(targets), len(sources))
            assert len(m.witnesses.get(d + 1, ())) == len(sources)
            for j, (rep, witness) in enumerate(zip(sources, m.witnesses.get(d + 1, ()))):
                image = set(boundary_chain(rep, frozenset(), augmented=True))
                for i, target in enumerate(targets):
                    if matrix.columns[j] >> i & 1:
                        image ^= target
                assert frozenset(image) == boundary_chain(witness, frozenset(), augmented=True)
                assert witness <= pair.sub.faces


def mayer_vietoris_of_double(split):
    """``mayer_vietoris_check`` on the copies of the double of ``split``
    and their exit parts, from the reference double, whose total and exit
    boundary are checked to be the double's; with the reference parts."""
    d, parts = truncated_double(split), reference_double(split)
    assert (parts["total"], parts["exit_boundary"]) == (d.total, d.exit_boundary)
    return mayer_vietoris_check(*(parts[p] for p in ("total", "copy_a", "copy_b", "exit_a", "exit_b"))), parts


class TestMayerVietoris:
    def test_two_disks_sharing_two_vertices(self):
        report, _ = mayer_vietoris_of_double(builtin_example("disk_half_split"))
        assert report.overlap_trivial
        assert report.passed is True
        assert report.total_table.total() == 0
        assert report.parts_table.total() == 0

    def test_disjoint_union(self):
        a = build_complex([(0, 1, 2)])
        b = build_complex([(3, 4, 5)])
        x = a.union(b)
        empty = SimplicialComplex.empty()
        report = mayer_vietoris_check(x, a, b, empty, empty)
        assert report.overlap_trivial and report.passed is True

    def test_two_disjoint_disks_double_count(self):
        split = builtin_example("reeb_ball_1")
        report, _ = mayer_vietoris_of_double(split)
        assert report.passed is True
        assert report.total_table.as_dict().get(0, 0) == 2 == 2 * betti(split.positive_pair()).as_dict().get(0, 0)

    def test_nontrivial_overlap_is_an_obstruction(self):
        # Two solid triangles glued along an edge; overlap has homology.
        a = build_complex([(0, 1, 2)])
        b = build_complex([(0, 1, 3)])
        x = a.union(b)
        empty = SimplicialComplex.empty()
        report = mayer_vietoris_check(x, a, b, empty, empty)
        assert not report.overlap_trivial
        assert report.passed is None

    def test_cover_violation_rejected(self):
        x = build_complex([(0, 1), (1, 2)])
        a = build_complex([(0, 1)])
        empty = SimplicialComplex.empty()
        with pytest.raises(InputError):
            mayer_vietoris_check(x, a, a, empty, empty)

    @pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
    def test_doubles_pass_and_overlap_in_their_interface_image(self, space):
        # Both copies meet in the interface image, and so do their exit
        # parts, so the overlap pair has no homology: on a truncated
        # double the suite can never report an obstruction.
        split = load_space(str(SPACES / space) if space.endswith(".json") else space)[1]
        report, d = mayer_vietoris_of_double(split)
        assert d["copy_a"].intersection(d["copy_b"]) == d["interface_image"] == d["exit_a"].intersection(d["exit_b"])
        assert report.overlap_trivial and report.passed is True


def split_of(space):
    return load_space(str(SPACES / space) if space.endswith(".json") else space)[1]


def excision_of(split, labels=None):
    """``verify``'s Mayer-Vietoris map: the positive pair's representatives
    pushed through ``labels``, by default the copies', into the exit
    pair's basis; with the representatives and that basis."""
    positive = HomologyBasis(split.positive_pair())
    reps = {k: positive.representatives(k) for k in positive.degrees()}
    target = HomologyBasis(split.double.exit_pair())
    return excision_check(reps, labels or split.double.labels, target), reps, target


def checked_witnesses(report, reps, labels, target):
    """Check each column chain by chain: the pushed representative plus
    the target representatives its column selects is the boundary of its
    witness, relative to the exit boundary.  Returns how many witnesses
    are nonzero."""
    nonzero, drop = 0, target.pair.sub.faces
    for k, matrix in report.matrices.items():
        pushed = [{tuple(sorted(label[v] for v in s)) for s in rep} - drop for label in labels for rep in reps.get(k, [])]
        assert len(pushed) == matrix.n_cols == len(report.witnesses[k]), k
        for column, chain, witness in zip(matrix.columns, pushed, report.witnesses[k]):
            total = set(chain)
            for i, rep in enumerate(target.representatives(k)):
                if column >> i & 1:
                    total ^= rep
            assert frozenset(total) == boundary_chain(witness, drop, augmented=False), k
            nonzero += bool(witness)
    return nonzero


SPLIT_NAMES = [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))]


class TestExcision:
    """The inclusions of the two copies of (W, P) into a double's exit pair
    induce an isomorphism H(W, P) + H(W, P) -> H(total, exit)."""

    @pytest.mark.parametrize("space", SPLIT_NAMES)
    def test_doubles_pass_with_checked_witnesses(self, space):
        split = split_of(space)
        report, reps, target = excision_of(split)
        assert report.passed
        assert set(report.matrices) == set(target.degrees())
        doubled = betti(split.positive_pair()).scaled(2).as_dict()
        assert {k: m.n_cols for k, m in report.matrices.items() if m.n_cols} == doubled
        checked_witnesses(report, reps, split.double.labels, target)

    @pytest.mark.parametrize("domains", [None, annulus_domains()], ids=["catalog domains", "band annuli"])
    def test_grown_region_doubles_pass(self, domains):
        seen = {"draws": 0, "interface": 0, "classes": 0, "witnesses": 0}

        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @given(grown_regions(domains))
        def check(drawn):
            domain, region, mapping = drawn
            split = BoundarySplit(relabeled(domain, mapping), relabeled(region, mapping))
            try:
                split.double
            except InputError:  # the interface is not an induced subcomplex
                assume(False)
            report, reps, target = excision_of(split)
            assert report.passed
            seen["witnesses"] += checked_witnesses(report, reps, split.double.labels, target)
            seen["classes"] += sum(m.n_cols for m in report.matrices.values())
            seen["draws"] += 1
            seen["interface"] += len(split.interface) > 0

        check()
        assert seen["draws"] >= 25 and seen["interface"] >= 8 and seen["classes"] >= 10, seen
        # On the band annuli some pushed classes differ from the stored
        # ones by a boundary, so their witnesses are nonzero.
        assert domains is None or seen["witnesses"] > 0, seen

    @pytest.mark.parametrize("space", SPLIT_NAMES)
    def test_copy_a_labels_twice_fail_where_the_positive_homology_is_nonzero(self, space):
        # Both pushes land in copy A, so each class is hit twice and the
        # square map loses rank; with H(W, P) = 0 the map is 0 by 0.
        split = split_of(space)
        label_a = split.double.labels[0]
        report, reps, target = excision_of(split, (label_a, label_a))
        assert all(m.n_cols == m.n_rows for m in report.matrices.values())
        nonzero = betti(split.positive_pair()).total() > 0
        assert report.passed is not nonzero
        assert nonzero is (space.startswith(("reeb_ball", "brieskorn")) or space == "disk_bare.json")
        checked_witnesses(report, reps, (label_a, label_a), target)

    @pytest.mark.parametrize("space", ["disk_half_split", "annulus_split", "disk_positive.json"])
    def test_representatives_of_another_pair_fail_as_not_square(self, space):
        # The domain's absolute classes map into the exit pair too, less
        # their exit cells, but H(W) is not half of H(total, exit) here.
        split = split_of(space)
        absolute = HomologyBasis(ComplexPair.absolute(split.domain))
        reps = {k: absolute.representatives(k) for k in absolute.degrees()}
        assert betti(ComplexPair.absolute(split.domain)) != betti(split.positive_pair())
        report = excision_check(reps, split.double.labels, HomologyBasis(split.double.exit_pair()))
        assert not report.passed and any(m.n_cols != m.n_rows for m in report.matrices.values())

    @pytest.mark.parametrize("space", ["reeb_ball_2", "brieskorn_3"])
    def test_one_copy_alone_is_not_square(self, space):
        split = split_of(space)
        report, _, _ = excision_of(split, split.double.labels[:1])
        assert not report.passed and any(m.n_cols != m.n_rows for m in report.matrices.values())


class TestVerifyRunsTheExcisionCheck:
    def test_pushing_through_copy_a_twice_fails_the_suite(self, monkeypatch, capsys):
        check = cli.excision_check

        def copy_a_twice(reps, labels, target):
            return check(reps, (labels[0], labels[0]), target)

        monkeypatch.setattr(cli, "excision_check", copy_a_twice)
        assert main(["verify", "reeb_ball_2", "--json"]) == EXIT_SUITE_FAILED
        suites = json.loads(capsys.readouterr().out)["suites"]
        assert suites == {**suites, "les": "pass", "factor2": "pass", "mayer_vietoris": "fail"}

    def test_a_failing_domain_sequence_still_checks_the_exit_pair(self, monkeypatch):
        # The positive sequence is made to fail, so the negative one is
        # skipped; the exit pair's sequence still runs, and its basis is
        # the one the excision check reads.
        split, runs, targets = builtin_example("reeb_ball_2"), [], []
        les, check = cli.les_exactness_check, cli.excision_check

        def failing_first(pair, *args):
            report = les(pair, *args)
            runs.append(pair)
            if len(runs) == 1:
                return dataclasses.replace(report, slots=(dataclasses.replace(report.slots[0], composition_zero=False),))
            return report

        def recorded_check(reps, labels, target):
            targets.append(target.pair)
            return check(reps, labels, target)

        monkeypatch.setattr(cli, "les_exactness_check", failing_first)
        monkeypatch.setattr(cli, "excision_check", recorded_check)
        results = run_identity_suites(split)
        assert results == {**results, "les": "fail", "mayer_vietoris": "pass"}
        assert runs == [split.positive_pair(), split.double.exit_pair()]
        assert targets == [runs[-1]] and targets[0] is runs[-1]


class TestLefschetzDuality:
    def test_disk_against_full_circle(self):
        report = lefschetz_duality_check(builtin_example("reeb_ball_1"))
        assert report.passed
        assert report.negative_table.as_dict() == {2: 1}
        assert report.positive_table.as_dict() == {0: 1}

    def test_disk_split_into_arcs_both_sides_vanish(self):
        report = lefschetz_duality_check(builtin_example("disk_half_split"))
        assert report.passed
        assert report.negative_table.total() == 0
        assert report.positive_table.total() == 0

    def test_annulus_between_circles(self):
        report = lefschetz_duality_check(builtin_example("annulus_split"))
        assert report.passed
        assert report.negative_table.total() == 0
        assert report.positive_table.total() == 0

    def test_wedge_fails_pseudomanifold_gate(self):
        with pytest.raises(PseudomanifoldError):
            lefschetz_duality_check(builtin_example("brieskorn_2"))

    def test_swapped_split_also_passes(self):
        for name in ("reeb_ball_1", "reeb_ball_2", "disk_half_split", "annulus_split"):
            split = builtin_example(name)
            assert lefschetz_duality_check(split).passed, name
            swapped = BoundarySplit(split.domain, split.negative, split.positive)
            assert lefschetz_duality_check(swapped).passed, name
