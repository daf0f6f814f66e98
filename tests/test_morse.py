"""Discrete Morse matchings and the Morse-to-singular comparison."""

import random

import pytest
from hypothesis import given, settings

from conftest import (
    corpus_pairs,
    euler_characteristic,
    full_double,
    hollow_triangle,
    reference_hasse,
    reference_matching,
    reference_morse_boundaries,
)
from test_complexes import random_pairs
from topsym import (
    ComplexPair,
    HomologyBasis,
    MatchingError,
    SimplicialComplex,
    betti,
    build_complex,
    builtin_example,
    cone,
)
from topsym import cli, complexes, glued
from topsym.cli import EXIT_OK, main
from topsym.morse import AcyclicMatching, _v_path_order, build_matching, morse_betti, morse_complex


def disk_pair_rel_boundary():
    circle = hollow_triangle()
    return ComplexPair(cone(circle), circle)


class TestBuildMatching:
    def test_point_has_one_critical_cell(self):
        m = build_matching(ComplexPair.absolute(build_complex([(0,)])))
        assert m.matched == frozenset()
        assert m.critical == ((0,),)

    def test_solid_triangle_collapses_to_a_vertex(self):
        m = build_matching(ComplexPair.absolute(build_complex([(0, 1, 2)])))
        assert len(m.critical) == 1
        assert len(m.critical[0]) == 1  # a 0-cell
        assert morse_betti(m).as_dict() == {0: 1}

    def test_disk_rel_boundary_single_top_cell(self):
        m = build_matching(disk_pair_rel_boundary())
        assert len(m.critical) == 1
        assert len(m.critical[0]) == 3  # a 2-cell
        assert morse_betti(m).as_dict() == {2: 1}

    def test_critical_cell_is_lowest_dimension_then_earliest_in_order(self):
        # Edges come first in the order, so only the dimension rule makes
        # the vertex (2,) the first critical cell.
        order = [(1, 2), (0, 1), (0, 2), (2,), (0,), (1,)]
        m = build_matching(ComplexPair.absolute(hollow_triangle()), order)
        assert m.critical == ((2,), (0, 1))
        assert m.matched == frozenset({((1,), (1, 2)), ((0,), (0, 2))})

    def test_validation_rejects_exit_cells(self):
        pair = disk_pair_rel_boundary()
        with pytest.raises(MatchingError, match="matched pair touches the exit subcomplex"):
            AcyclicMatching.from_simplices(pair, frozenset({((0,), (0, 1))}))

    def test_validation_rejects_double_matching(self):
        cx = build_complex([(0, 1, 2)])
        pair = ComplexPair.absolute(cx)
        bad = frozenset({((0,), (0, 1)), ((0,), (0, 2))})
        with pytest.raises(MatchingError, match="cell matched twice"):
            AcyclicMatching.from_simplices(pair, bad)

    def test_validation_rejects_cyclic_matching(self):
        # Two triangles sharing two edges force a closed V-path when
        # each edge is matched into the other triangle's cofacet.
        cx = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        pair = ComplexPair.absolute(cx)
        matched = frozenset({((0, 1), (0, 1, 2)), ((0, 2), (0, 2, 3)), ((0, 3), (0, 1, 3))})
        with pytest.raises(MatchingError, match="reversed Hasse digraph has a cycle"):
            AcyclicMatching.from_simplices(pair, matched)

    def test_explicit_order_must_be_a_permutation(self):
        pair = ComplexPair.absolute(build_complex([(0, 1)]))
        with pytest.raises(Exception):
            build_matching(pair, [(0,), (1,)])


class TestNumberedDiagram:
    """The coreduction on cell numbers returns what the tuple-based
    reference coreduction returns, the flow in reverse V-path order gives
    the boundaries of the memoized depth-first reference flow, and both
    read one diagram per pair."""

    ORDERS = (None, 0, 1, 7)

    def check_against_reference(self, pair, seed_order, label):
        m = build_matching(pair, seed_order)
        assert (m.matched, m.critical) == reference_matching(pair, seed_order), label
        data = morse_complex(m)
        assert (data.critical, data.boundaries) == reference_morse_boundaries(m), label

    def test_corpus_pairs_match_the_reference(self):
        rng = random.Random(11)
        for name, pair in corpus_pairs().items():
            for seed_order in self.ORDERS:
                self.check_against_reference(pair, seed_order, (name, seed_order))
            shuffled = sorted(s for s in pair.ambient.faces if s not in pair.sub.faces)
            rng.shuffle(shuffled)
            self.check_against_reference(pair, shuffled, (name, "explicit"))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_pairs_match_the_reference(self, pair):
        for seed_order in self.ORDERS:
            self.check_against_reference(pair, seed_order, (sorted(pair.ambient.faces), seed_order))

    def test_verify_builds_one_diagram_per_matched_pair(self, monkeypatch, capsys):
        built, matched = [], []
        build, match = complexes._build_hasse, cli.build_matching

        def count(pair):
            built.append(pair)
            return build(pair)

        def record(pair, *args):
            matched.append(pair)
            return match(pair, *args)

        monkeypatch.setattr(complexes, "_build_hasse", count)
        monkeypatch.setattr(cli, "build_matching", record)
        assert main(["verify", "annulus_split"]) == EXIT_OK
        capsys.readouterr()
        assert len(matched) == 3
        assert sorted(map(id, built)) == sorted(map(id, matched))

    def test_morse_needs_no_chain_table_and_no_shared_facet_code(self, monkeypatch):
        # Fresh complexes have no chain table, so reading one would build it.
        fresh = [
            (name, ComplexPair(SimplicialComplex(pair.ambient.faces), SimplicialComplex(pair.sub.faces)), betti(pair))
            for name, pair in corpus_pairs().items()
        ]

        def refuse(*args):
            raise AssertionError("Morse homology read the code behind betti")

        monkeypatch.setattr(complexes, "_faces_of", refuse)
        monkeypatch.setattr(complexes, "_build_chain_table", refuse)
        for name in ("_relabeled", "_total_table"):
            monkeypatch.setattr(glued, name, refuse)
        for name, pair, table in fresh:
            assert morse_betti(build_matching(pair)) == table, name
        # The refusals guard the derivation a double's total runs.
        with pytest.raises(AssertionError, match="behind betti"):
            builtin_example("annulus_split").double.total._chain_table

    def test_validation_rejects_unknown_cells(self):
        pair = ComplexPair.absolute(build_complex([(0, 1)]))
        with pytest.raises(MatchingError, match="matched pair uses unknown cells"):
            AcyclicMatching.from_simplices(pair, frozenset({((0,), (0, 5))}))

    def test_validation_rejects_a_non_facet(self):
        pair = ComplexPair.absolute(build_complex([(0, 1), (1, 2)]))
        with pytest.raises(MatchingError, match=r"\(0,\) is not a facet of \(1, 2\)"):
            AcyclicMatching.from_simplices(pair, frozenset({((0,), (1, 2))}))

    def test_validation_rejects_numbers_out_of_range(self):
        pair = ComplexPair.absolute(build_complex([(0, 1)]))  # cells (0,), (1,), (0, 1)
        for facets, cofacets in (((0,), (3,)), ((3,), (2,)), ((-1,), (2,)), ((0,), (-1,))):
            with pytest.raises(MatchingError, match="matched pair uses unknown cells"):
                AcyclicMatching(pair, facets, cofacets)
        with pytest.raises(MatchingError, match="every matched facet needs one cofacet"):
            AcyclicMatching(pair, (0, 1), (2,))

    def test_validation_rejects_a_numbered_non_facet(self):
        pair = ComplexPair.absolute(build_complex([(0, 1), (1, 2)]))  # cells (0,), (1,), (2,), (0, 1), (1, 2)
        with pytest.raises(MatchingError, match=r"\(0,\) is not a facet of \(1, 2\)"):
            AcyclicMatching(pair, (0,), (4,))

    def test_numbered_and_simplex_matchings_agree(self):
        for name, pair in corpus_pairs().items():
            m = build_matching(pair, 0)
            again = AcyclicMatching.from_simplices(pair, m.matched)
            assert (again.matched, again.critical) == (m.matched, m.critical), name
            assert sorted(zip(again.facets, again.cofacets)) == sorted(zip(m.facets, m.cofacets)), name


class TestHasseDiagram:
    """The whole-degree facet pass gives the diagram that one ``facets``
    call per cell gives."""

    def check_against_reference(self, pair, label):
        cells, index, down = ComplexPair(pair.ambient, pair.sub)._hasse  # a fresh pair has no diagram yet
        assert (cells, index, list(map(list, down))) == reference_hasse(pair), label

    def test_corpus_pairs(self):
        for name, pair in corpus_pairs().items():
            self.check_against_reference(pair, name)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_pairs(self, pair):
        self.check_against_reference(pair, sorted(pair.ambient.faces))

    def test_edge_cases(self):
        ball = builtin_example("ball_3")
        ridge = build_complex([ball.simplices(2)[0]])  # the subcomplex reaches degree dim - 1
        top = build_complex([ball.simplices(3)[0]])  # ... and degree dim
        points = build_complex([(0,), (1,), (2,)])
        pairs = {
            "empty sub": ComplexPair.absolute(ball),
            "sub of degree dim - 1": ComplexPair(ball, ridge),
            "sub of degree dim": ComplexPair(ball, top),
            "whole complex as sub": ComplexPair(ball, ball),
            "0-dimensional": ComplexPair.absolute(points),
            "0-dimensional with a sub": ComplexPair(points, build_complex([(1,)])),
            "empty complex": ComplexPair.absolute(SimplicialComplex.empty()),
        }
        for label, pair in pairs.items():
            self.check_against_reference(pair, label)


def v_path_digraph(matching):
    """The cell numbers of the pair's diagram: each cell's facets, each
    cell's matched cofacet or -1, and the matched facets."""
    down = matching.pair._hasse[2]
    up = [-1] * len(down)
    for low, high in zip(matching.facets, matching.cofacets):
        up[low] = high
    return down, up, matching.facets


def unvalidated(pair, matched):
    """A matching of the given simplex pairs, numbered but not validated."""
    index = pair._hasse[1]
    corrupt = object.__new__(AcyclicMatching)
    object.__setattr__(corrupt, "pair", pair)
    object.__setattr__(corrupt, "facets", tuple(index[low] for low, _ in matched))
    object.__setattr__(corrupt, "cofacets", tuple(index[high] for _, high in matched))
    return corrupt


class TestVPathOrder:
    """``_v_path_order``: the order that proves a matching acyclic and
    that the gradient flow walks in reverse."""

    ORDERS = TestNumberedDiagram.ORDERS

    def test_v_path_order_lists_each_facet_before_the_facets_it_reaches(self):
        for name, pair in corpus_pairs().items():
            for seed_order in self.ORDERS:
                down, up, facets = v_path_digraph(build_matching(pair, seed_order))
                order = _v_path_order(down, up, facets)
                assert sorted(order) == sorted(facets), (name, seed_order)
                position = {f: i for i, f in enumerate(order)}
                for low in facets:
                    reached = [f for f in down[up[low]] if f != low and up[f] >= 0]
                    assert all(position[low] < position[f] for f in reached), (name, seed_order, low)

    def test_v_path_order_is_none_on_a_cycle(self):
        # The cyclic matching of test_validation_rejects_cyclic_matching.
        cyclic = [((0, 1), (0, 1, 2)), ((0, 2), (0, 2, 3)), ((0, 3), (0, 1, 3))]
        corrupt = unvalidated(ComplexPair.absolute(build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3)])), cyclic)
        assert _v_path_order(*v_path_digraph(corrupt)) is None


class TestMorseComplex:
    def test_empty_matching_reproduces_the_chain_complex(self):
        pair = disk_pair_rel_boundary()
        cells = []
        for k in range(pair.ambient.dim + 1):
            cells.extend(pair.cells(k))
        empty = AcyclicMatching.from_simplices(pair, frozenset())
        assert empty.critical == tuple(sorted(cells, key=lambda s: (len(s), s)))
        data = morse_complex(empty)
        basis = HomologyBasis(pair)
        for k in basis.degrees():
            assert data.boundaries[k] == basis.boundary_matrix(k)

    def test_hollow_triangle_with_one_pair(self):
        circle = hollow_triangle()
        pair = ComplexPair.absolute(circle)
        matched = frozenset({((0,), (0, 1))})
        criticals = tuple(
            sorted(
                (s for s in circle.faces if s not in {(0,), (0, 1)}),
                key=lambda s: (len(s), s),
            )
        )
        m = AcyclicMatching.from_simplices(pair, matched)
        assert m.critical == criticals
        data = morse_complex(m)
        assert {k: len(c) for k, c in data.critical.items()} == {0: 2, 1: 2}
        # Both surviving edges flow onto the same two vertices, checked
        # by listing the <=2 gradient paths by hand.
        mat = data.boundaries[1]
        assert mat.columns == (0b11, 0b11)
        assert morse_betti(m).as_dict() == {0: 1, 1: 1}

    def test_greedy_disk_has_zero_differential(self):
        pair = ComplexPair.absolute(cone(hollow_triangle()))
        m = build_matching(pair)
        data = morse_complex(m)
        assert {k: len(c) for k, c in data.critical.items()} == {0: 1, 1: 0, 2: 0}
        assert all(mat.is_zero() for mat in data.boundaries.values())


    def test_gradient_flow_rejects_cyclic_matching(self):
        # The cyclic matching of the validation test, with a critical
        # triangle on one of its edges, passed in without validation.
        cx = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 4)])
        matched = [((0, 1), (0, 1, 2)), ((0, 2), (0, 2, 3)), ((0, 3), (0, 1, 3))]
        used = {x for p in matched for x in p}
        corrupt = unvalidated(ComplexPair.absolute(cx), matched)
        object.__setattr__(corrupt, "critical", tuple(sorted(cx.faces - used, key=lambda s: (len(s), s))))
        with pytest.raises(MatchingError, match="gradient path cycle"):
            morse_complex(corrupt)


class TestMorseBetti:
    def test_truncated_double_pair_is_all_zero(self):
        pair = corpus_pairs()["disk_half_split_double"]
        m = build_matching(pair)
        assert morse_betti(m).total() == 0
        assert betti(pair).total() == 0

    def test_torus_from_doubling(self):
        from topsym.spaces import _ring_annulus

        torus = full_double(_ring_annulus())
        pair = ComplexPair.absolute(torus)
        assert morse_betti(build_matching(pair)).as_dict() == {0: 1, 1: 2, 2: 1}

    def test_long_circle_needs_no_deep_recursion(self):
        n = 3000
        circle = build_complex([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        assert morse_betti(build_matching(ComplexPair.absolute(circle))).as_dict() == {0: 1, 1: 1}

    def test_disk_rel_boundary(self):
        assert morse_betti(build_matching(disk_pair_rel_boundary())).as_dict() == {2: 1}

    def test_matches_singular_homology_across_corpus_and_seeds(self):
        for name, pair in corpus_pairs().items():
            expected = betti(pair)
            for seed in range(3):
                m = build_matching(pair, seed)
                assert morse_betti(m) == expected, (name, seed)

    def test_morse_inequalities(self):
        for name, pair in corpus_pairs().items():
            m = build_matching(pair)
            counts = {k: len(c) for k, c in morse_complex(m).critical.items()}
            dims = betti(pair).as_dict()
            for k, d in dims.items():
                assert counts.get(k, 0) >= d, (name, k)

    def test_euler_characteristic_invariance(self):
        for name, pair in corpus_pairs().items():
            counts = {k: len(c) for k, c in morse_complex(build_matching(pair)).critical.items()}
            alt = sum((-1) ** k * c for k, c in counts.items())
            assert alt == euler_characteristic(pair), name

    def test_exit_cells_never_critical(self):
        for name, pair in corpus_pairs().items():
            if len(pair.sub) == 0:
                continue
            m = build_matching(pair)
            for cell in m.critical:
                assert cell not in pair.sub.faces, name
            for low, high in m.matched:
                assert low not in pair.sub.faces and high not in pair.sub.faces, name
