"""Long exact sequence, Mayer-Vietoris, and duality verification."""

import random
from pathlib import Path

import pytest

from hypothesis import given, settings

from conftest import corpus_complexes, corpus_pairs, hollow_triangle, random_pairs, random_subcomplex
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
    cone,
    truncated_double,
)
from topsym.cli import load_space
from topsym.complexes import boundary_chain
from topsym.exactness import (
    connecting_map,
    induced_map,
    lefschetz_duality_check,
    les_exactness_check,
    mayer_vietoris_check,
)
from topsym.spaces import catalog_splits

SPACES = Path(__file__).with_name("spaces")


class TestInducedMap:
    def test_identity_inclusion_gives_identity_matrices(self):
        disk = cone(hollow_triangle())
        pair = ComplexPair(disk, hollow_triangle())
        m = induced_map(pair, pair)
        for k in range(disk.dim + 1):
            mat = m.matrix(k)
            assert mat.n_rows == mat.n_cols
            assert mat.columns == tuple(1 << i for i in range(mat.n_rows))

    def test_circle_into_disk_kills_degree_one(self):
        circle = hollow_triangle()
        disk = cone(circle)
        m = induced_map(ComplexPair.absolute(circle), ComplexPair.absolute(disk))
        mat = m.matrix(1)
        assert (mat.n_rows, mat.n_cols) == (0, 1)
        assert m.rank(1) == 0
        # The mapped 1-cycle bounds in the disk; the witness is the
        # bounding 2-chain, and its boundary is exactly the cycle.
        witness = m.witnesses[1][0]
        source_cycle = m.source.representatives(1)[0]
        assert witness
        assert boundary_chain(witness, frozenset(), augmented=False) == source_cycle

    def test_point_into_two_points_has_rank_one(self):
        point = build_complex([(0,)])
        two = build_complex([(0,), (1,)])
        m = induced_map(ComplexPair.absolute(point), ComplexPair.absolute(two))
        assert m.rank(0) == 1

    def test_non_inclusion_rejected(self):
        with pytest.raises(InputError):
            induced_map(
                ComplexPair.absolute(build_complex([(5,)])),
                ComplexPair.absolute(build_complex([(0,)])),
            )


class TestConnectingMap:
    def test_disk_circle_connecting_is_iso(self):
        circle = hollow_triangle()
        pair = ComplexPair(cone(circle), circle)
        m = connecting_map(pair, 1)
        mat = m.matrix(2)  # out of relative degree 2 into reduced degree 1
        assert (mat.n_rows, mat.n_cols) == (1, 1)
        assert m.rank(2) == 1

    def test_empty_sub_gives_zero_maps_in_nonnegative_degrees(self):
        for cx in (hollow_triangle(), builtin_example("torus")):
            pair = ComplexPair.absolute(cx)
            for k in range(cx.dim + 1):
                assert connecting_map(pair, k).rank(k + 1) == 0

    def test_empty_sub_augmentation_degree(self):
        # Into degree -1 the connecting map is the augmentation.
        pair = ComplexPair.absolute(hollow_triangle())
        assert connecting_map(pair, -1).rank(0) == 1

    def test_cone_over_two_points(self):
        two = build_complex([(0,), (1,)])
        pair = ComplexPair(cone(two), two)
        m = connecting_map(pair, 0)
        assert m.rank(1) == 1
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
            assert report.passed, (name, report.first_failure)
            rel = betti(pair)
            red = betti(ComplexPair.absolute(base), "reduced")
            assert {k + 1: d for k, d in red.entries} == rel.as_dict(), name

    def test_disk_circle_passes(self):
        circle = hollow_triangle()
        report = les_exactness_check(ComplexPair(cone(circle), circle))
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
            assert report.passed, (name, report.first_failure)

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
            assert report.passed, report.first_failure
            checked += 1


class TestRandomPairs:
    """The long exact sequence of random pairs, against witnesses checked
    chain by chain."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_les_is_exact(self, pair):
        report = les_exactness_check(pair)
        assert report.passed, report.first_failure

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_connecting_map_witnesses_hold_in_every_degree(self, pair):
        # Each relative (d+1)-class goes to the class of its boundary: the
        # boundary plus the chosen degree-d representatives of the
        # subcomplex bounds the witness.
        for d in range(-1, pair.ambient.dim + 1):
            m = connecting_map(pair, d)
            matrix = m.matrix(d + 1)
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


class TestMayerVietoris:
    def test_two_disks_sharing_two_vertices(self):
        split = builtin_example("disk_half_split")
        d = truncated_double(split)
        report = mayer_vietoris_check(d.total, d.copy_a, d.copy_b, d.exit_a, d.exit_b)
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
        d = truncated_double(split)
        report = mayer_vietoris_check(d.total, d.copy_a, d.copy_b, d.exit_a, d.exit_b)
        assert report.passed is True
        assert report.total_table.dim(0) == 2 == 2 * betti(split.positive_pair()).dim(0)

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
        d = split.double
        assert d.copy_a.intersection(d.copy_b) == d.interface_image == d.exit_a.intersection(d.exit_b)
        report = mayer_vietoris_check(d.total, d.copy_a, d.copy_b, d.exit_a, d.exit_b)
        assert report.overlap_trivial and report.passed is True


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
