"""Complexes, pairs, and Betti tables against hand-checked values."""

import importlib
import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import (
    catalog_splits,
    cell_counts,
    corpus_complexes,
    corpus_pairs,
    euler_characteristic,
    excise,
    full_double,
    grown_regions,
    hollow_triangle,
    random_pairs,
    random_subcomplex,
    reference_basis,
    reference_boundary_chain,
    reference_check_strongly_connected,
    reference_composition_check,
    relabeled,
)
from topsym import (
    BettiTable,
    ComplexPair,
    HomologyBasis,
    InputError,
    PseudomanifoldError,
    SimplicialComplex,
    betti,
    boundary_subcomplex,
    build_complex,
    cone,
    cross_polytope_sphere,
)
from topsym import complexes
from topsym.complexes import EMPTY_SIMPLEX, boundary_chain, check_strongly_connected
from topsym.gf2 import Gf2Matrix
from topsym.morse import build_matching, morse_betti
from topsym.spaces import BoundarySplit, truncated_double


BENCH = Path(__file__).resolve().parents[1] / "bench"


def table(pair, augmented=False):
    return betti(pair, augmented=augmented).as_dict()


class TestBuildComplex:
    def test_solid_triangle_counts(self):
        cx = build_complex([(0, 1, 2)])
        assert cell_counts(ComplexPair.absolute(cx)) == {0: 3, 1: 3, 2: 1}

    def test_hollow_triangle_has_no_top_cell(self):
        cx = hollow_triangle()
        assert cell_counts(ComplexPair.absolute(cx)) == {0: 3, 1: 3}

    def test_single_point(self):
        assert cell_counts(ComplexPair.absolute(build_complex([(0,)]))) == {0: 1}

    def test_rebuild_from_maximal_is_identity(self):
        cx = build_complex([(0, 1, 2), (2, 3), (4,)])
        assert build_complex(cx.maximal_simplices()) == cx

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InputError):
            build_complex([(0, 1, 0)])

    def test_unsorted_input_is_normalized(self):
        assert build_complex([(2, 0, 1)]) == build_complex([(0, 1, 2)])


class TestFaceValidation:
    """``SimplicialComplex(faces)`` is the entry point for face sets from
    outside the package and checks all of them."""

    def test_missing_facet_rejected(self):
        with pytest.raises(InputError, match="not face-closed"):
            SimplicialComplex(frozenset({(0,), (0, 1)}))

    @pytest.mark.parametrize("face", [(1, 0), (0, 0)])
    def test_face_not_strictly_ascending_rejected(self, face):
        with pytest.raises(InputError, match="strictly ascending"):
            SimplicialComplex(frozenset({(0,), (1,), face}))

    @pytest.mark.parametrize("face", [(), 0, "01", frozenset({0})])
    def test_empty_or_non_tuple_face_rejected(self, face):
        with pytest.raises(InputError, match="nonempty vertex tuples"):
            SimplicialComplex(frozenset({(0,), face}))


def derived_complexes():
    """Every complex the package derives from the corpus pairs and the
    catalog splits, by name."""
    out = {}
    for name, pair in corpus_pairs().items():
        ambient, sub = pair.ambient, pair.sub
        verts = sorted(ambient.vertices, key=repr)
        out[name + "/union"] = ambient.union(sub)
        out[name + "/intersection"] = ambient.intersection(sub)
        out[name + "/induced"] = ambient.induced_on(verts[::2])
        out[name + "/relabel"] = relabeled(ambient, lambda v: (len(verts) - verts.index(v),))
        out[name + "/relabel_sub"] = relabeled(sub, {v: i for i, v in enumerate(reversed(verts))})
        try:
            out[name + "/boundary"] = boundary_subcomplex(ambient)
        except PseudomanifoldError:
            pass
        for simplex in sorted(sub.faces):
            try:
                smaller = excise(pair, simplex)
            except InputError:
                continue
            out[name + "/excise_ambient%r" % (simplex,)] = smaller.ambient
            out[name + "/excise_sub%r" % (simplex,)] = smaller.sub
    for name, split in catalog_splits().items():
        out[name + "/split_boundary"] = split.boundary
        out[name + "/positive"] = split.positive
        out[name + "/negative"] = split.negative
        out[name + "/interface"] = split.interface
        double = truncated_double(split)
        for part in ("total", "exit_boundary", "entry_boundary"):
            out[name + "/double." + part] = getattr(double, part)
    return out


class TestDerivedComplexes:
    def test_every_derived_complex_passes_validation(self):
        derived = derived_complexes()
        assert len(derived) > 100
        for name, cx in derived.items():
            assert SimplicialComplex(cx.faces) == cx, name

    def test_simplices_by_degree_match_a_rescan(self):
        for name, cx in derived_complexes().items():
            for k in range(-1, cx.dim + 2):
                rescan = tuple(sorted(s for s in cx.faces if len(s) == k + 1))
                assert cx.simplices(k) == rescan, (name, k)


def boundary_matrices(pair):
    """Relative boundary matrices, degree 0 (a 0-row map) up to top degree."""
    basis = HomologyBasis(pair)
    return [basis.boundary_matrix(k) for k in basis.degrees()]


class TestChainComplex:
    def test_point(self):
        mats = boundary_matrices(ComplexPair.absolute(build_complex([(0,)])))
        assert len(mats) == 1
        assert (mats[0].n_rows, mats[0].n_cols) == (0, 1)

    def test_triangle_mod_boundary_single_generator(self):
        cx = build_complex([(0, 1, 2)])
        pair = ComplexPair(cx, hollow_triangle())
        mats = boundary_matrices(pair)
        assert [m.n_cols for m in mats] == [0, 0, 1]
        assert all(m.is_zero() for m in mats)
        # Boundary composition vanishes by direct multiplication.
        for low, high in zip(mats, mats[1:]):
            if low.n_cols == high.n_rows:
                assert low.mat_mul(high).is_zero()

    def test_hollow_triangle_rel_vertex_counts(self):
        pair = ComplexPair(hollow_triangle(), build_complex([(0,)]))
        assert cell_counts(pair) == {0: 2, 1: 3}

    def test_boundary_squares_to_zero_everywhere(self):
        for name, pair in corpus_pairs().items():
            mats = boundary_matrices(pair)
            for low, high in zip(mats, mats[1:]):
                assert low.mat_mul(high).is_zero(), name


class TestBetti:
    def test_octahedron_absolute(self):
        pair = ComplexPair.absolute(cross_polytope_sphere(2))
        assert table(pair) == {0: 1, 2: 1}

    def test_octahedron_reversed_labels_agree(self):
        # Second computation with reversed vertex order as the oracle.
        cx = cross_polytope_sphere(2)
        reversed_cx = relabeled(cx, {v: 5 - v for v in cx.vertices})
        assert table(ComplexPair.absolute(reversed_cx)) == {0: 1, 2: 1}

    def test_disk_rel_boundary(self):
        disk = cone(hollow_triangle())
        pair = ComplexPair(disk, hollow_triangle())
        # Long exact sequence of the pair, by hand: b(disk) = {0:1},
        # b(circle) = {0:1, 1:1}, so only degree 2 survives.
        assert table(pair) == {2: 1}

    def test_point_reduced_is_zero(self):
        pair = ComplexPair.absolute(build_complex([(0,)]))
        assert table(pair, augmented=True) == {}

    def test_empty_complex_reduced_has_degree_minus_one(self):
        pair = ComplexPair.absolute(SimplicialComplex.empty())
        assert table(pair, augmented=True) == {-1: 1}

    def test_relative_with_empty_sub_equals_absolute(self):
        for name, pair in corpus_pairs().items():
            if len(pair.sub) == 0:
                absolute = HomologyBasis(ComplexPair.absolute(SimplicialComplex(pair.ambient.faces))).betti()
                assert betti(pair) == absolute, name

    def test_reduced_on_genuine_pair_rejected(self):
        # ``betti`` and ``HomologyBasis`` refuse it with the one error.
        pair = ComplexPair(hollow_triangle(), build_complex([(0,)]))
        message = "reduced homology is defined for a bare complex, not a genuine pair"
        with pytest.raises(InputError, match=message):
            betti(pair, augmented=True)
        with pytest.raises(InputError, match=message):
            HomologyBasis(pair, augmented=True)

    def test_reduced_drops_one_component(self):
        two = build_complex([(0,), (1,)])
        assert table(ComplexPair.absolute(two), augmented=True) == {0: 1}

    def test_the_switch_is_keyword_only(self):
        pair = ComplexPair.absolute(hollow_triangle())
        with pytest.raises(TypeError):
            betti(pair, "reduced")
        with pytest.raises(TypeError):
            HomologyBasis(pair, "relative")
        expected = [
            ("pair", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("augmented", inspect.Parameter.KEYWORD_ONLY, False),
        ]
        for function in (betti, HomologyBasis):
            params = inspect.signature(function).parameters.values()
            assert [(p.name, p.kind, p.default) for p in params] == expected, function



class TestBoundaryChain:
    """``boundary_chain`` sums each simplex's facets in one call and drops
    faces after the sum; the reference drops them facet by facet."""

    CHAINS = [
        (),
        ((),),
        ((), (4,)),
        ((0,), (1,)),
        ((0,), (1,), (0, 1)),
        ((0, 1), (1, 2), (0, 2)),
        ((), (2,), (0, 1), (0, 1, 2)),
        ((0, 1, 2), (1, 2, 3), (0, 2, 3), (3,)),
        ((0, 1, 2, 3), (0, 1, 2), (0,)),
    ]
    DROPS = [frozenset(), frozenset({()}), frozenset({(0,), (1, 2)}), frozenset({(), (0, 1), (2,), (1, 2, 3)})]

    def check(self, chain, drop, augmented):
        got = boundary_chain(chain, drop, augmented)
        assert type(got) is frozenset
        assert got == reference_boundary_chain(chain, drop, augmented), (sorted(chain), sorted(drop), augmented)

    def test_hand_chains_agree_with_the_facet_by_facet_sum(self):
        for chain in self.CHAINS:
            for drop in self.DROPS:
                for augmented in (False, True):
                    self.check(frozenset(chain), drop, augmented)

    def test_random_chains_on_the_corpus_agree_with_the_facet_by_facet_sum(self):
        for name, cx in corpus_complexes().items():
            rng = random.Random(name)
            faces = sorted(cx.faces)
            for _ in range(20):
                chain = frozenset(s for s in faces if rng.random() < 0.3) | ({()} if rng.random() < 0.3 else set())
                drop = random_subcomplex(cx, rng).faces | ({()} if rng.random() < 0.3 else set())
                for augmented in (False, True):
                    self.check(chain, drop, augmented)


def reduced_from_absolute(table):
    """Reduced dims from absolute ones: one component less, or the empty simplex."""
    dims = table.as_dict()
    if not dims:
        return {-1: 1}
    dims[0] -= 1
    return {k: d for k, d in dims.items() if d}


def boundary_matrices_by_cell(pair, augmented):
    """Boundary matrices by degree, one entry at a time from the
    set-based ``boundary_chain``."""
    def cells(k):
        if k == -1:
            return [EMPTY_SIMPLEX] if augmented else []
        return sorted(s for s in pair.ambient.faces if len(s) == k + 1 and s not in pair.sub.faces)

    matrices = {}
    for k in range(-1 if augmented else 0, pair.ambient.dim + 1):
        boundaries = [boundary_chain([s], pair.sub.faces, augmented) for s in cells(k)]
        columns = [sum(1 << i for i, f in enumerate(cells(k - 1)) if f in b) for b in boundaries]
        matrices[k] = Gf2Matrix.from_columns(columns, len(cells(k - 1)))
    return matrices


class TestRankPass:
    """``betti`` takes ranks with clearing; ``HomologyBasis`` builds
    representatives.  Both read the same boundary columns."""

    def check_against_bases_and_morse(self, pair, label):
        table, basis = betti(pair), HomologyBasis(pair)
        assert table == basis.betti(), label
        assert table == morse_betti(build_matching(pair)), label
        plain = boundary_matrices_by_cell(pair, False)
        assert [basis.boundary_matrix(k) for k in basis.degrees()] == [plain[k] for k in sorted(plain)], label
        if len(pair.sub) == 0:
            reduced = betti(pair, augmented=True)
            augmented = HomologyBasis(pair, augmented=True)
            assert reduced == augmented.betti(), label
            assert reduced.as_dict() == reduced_from_absolute(table), label
            for k, matrix in boundary_matrices_by_cell(pair, True).items():
                assert augmented.boundary_matrix(k) == matrix, (label, k)

    def test_corpus_pairs_agree(self):
        for name, pair in corpus_pairs().items():
            self.check_against_bases_and_morse(pair, name)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_pairs_agree(self, pair):
        self.check_against_bases_and_morse(pair, sorted(pair.ambient.faces))

    def test_betti_builds_no_homology_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("betti built a HomologyBasis")

        monkeypatch.setattr(HomologyBasis, "__init__", refuse)
        for pair in corpus_pairs().values():
            # A fresh copy of the ambient starts with no stored tables.
            pair = ComplexPair(SimplicialComplex(pair.ambient.faces), pair.sub)
            betti(pair)
            if len(pair.sub) == 0:
                betti(pair, augmented=True)

    def check_against_reference(self, pair, label):
        rng = random.Random(repr(label))
        for augmented in (False, True) if len(pair.sub) == 0 else (False,):
            basis = HomologyBasis(pair, augmented=augmented)
            reps, express = reference_basis(pair, augmented)
            assert {k: basis.representatives(k) for k in basis.degrees()} == reps, (label, augmented)
            for k in basis.degrees():
                above = basis.cells(k + 1)
                boundary = boundary_chain(
                    [s for s in above if rng.random() < 0.5], pair.sub.faces, augmented
                )
                for cycle in reps[k] + [rep ^ boundary for rep in reps[k]] + [boundary]:
                    assert basis.express_class(k, cycle) == express(k, cycle), (label, augmented, k)

    def test_corpus_bases_match_the_greedy_reference(self):
        for name, pair in corpus_pairs().items():
            self.check_against_reference(pair, name)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_bases_match_the_greedy_reference(self, pair):
        self.check_against_reference(pair, sorted(pair.ambient.faces))

    def test_missing_cell_is_an_input_error_on_both_paths(self):
        # Derived complexes skip the face-closure check; the columns keep it.
        broken = complexes._trusted(frozenset({(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)}))
        pair = ComplexPair.absolute(broken)
        message = r"chain contains \(0, 2\), not a degree-1 cell here"
        with pytest.raises(InputError, match=message):
            betti(pair)
        with pytest.raises(InputError, match=message):
            HomologyBasis(pair)

    def test_corrupt_column_fails_the_composition_check_on_both_paths(self, monkeypatch):
        build = complexes._facet_rows

        def corrupt(cells, below, k):
            rows = build(cells, below, k)
            if k == 2:
                rows[0][0] = len(below) - 1  # the first triangle's first edge becomes the last edge
            return rows

        monkeypatch.setattr(complexes, "_facet_rows", corrupt)
        pair = ComplexPair.absolute(build_complex([(0, 1, 2), (1, 2, 3)]))
        message = "boundary composition is nonzero in degree 2"
        with pytest.raises(AssertionError, match=message):
            betti(pair)
        with pytest.raises(AssertionError, match=message):
            HomologyBasis(pair)


class TestRankOnly:
    """``betti`` reduces rank-only, the elimination of ``HomologyBasis``
    without combinations; its tables must be the dims of both bases."""

    def check(self, pair, label):
        fresh = ComplexPair(SimplicialComplex(pair.ambient.faces), pair.sub)  # no stored Betti tables
        for augmented in (False, True) if len(pair.sub) == 0 else (False,):
            table = betti(fresh, augmented=augmented)
            assert table == HomologyBasis(pair, augmented=augmented).betti(), (label, augmented)
            reps, _ = reference_basis(pair, augmented)
            assert table.as_dict() == {k: len(r) for k, r in reps.items() if r}, (label, augmented)

    def test_corpus_pairs(self):
        # Absolute and reduced homology of bare complexes, relative
        # homology of genuine pairs: the tables compare with ``==``.
        for name, pair in corpus_pairs().items():
            self.check(pair, name)
        assert {len(pair.sub) > 0 for pair in corpus_pairs().values()} == {False, True}

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_pairs(self, pair):
        self.check(pair, sorted(pair.ambient.faces))

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(grown_regions())
    def test_grown_regions(self, drawn):
        domain, region, mapping = drawn
        split = BoundarySplit(relabeled(domain, mapping), relabeled(region, mapping))
        self.check(split.positive_pair(), sorted(split.positive.faces))
        self.check(split.negative_pair(), sorted(split.negative.faces))


class TestBasisRecordsItsBettiTable:
    """A basis records its table where ``betti`` reads it, and refuses a
    different table recorded there first."""

    CASES = [("annulus_split_pos", False), ("disk_half_split_double", False), ("torus", False), ("torus", True)]

    @staticmethod
    def fresh(name):
        """A copy of a corpus pair whose ambient has no stored tables."""
        pair = corpus_pairs()[name]
        return ComplexPair(complexes._trusted(pair.ambient.faces), complexes._trusted(pair.sub.faces))

    @pytest.mark.parametrize("name, augmented", CASES)
    def test_a_wrong_table_recorded_first_is_refused(self, name, augmented):
        right = betti(self.fresh(name), augmented=augmented).entries
        wrongs = [(*right, (9, 1))]
        if right:
            (k, d), *rest = right
            wrongs += [((k, d + 1), *rest), tuple(rest)]
        for wrong in wrongs:
            pair = self.fresh(name)
            pair.ambient._chain_table[2][(pair.sub.faces, augmented)] = BettiTable(wrong)
            with pytest.raises(AssertionError, match="the basis and the rank-only pass give different Betti tables"):
                HomologyBasis(pair, augmented=augmented)

    @pytest.mark.parametrize("name, augmented", CASES)
    def test_a_table_betti_recorded_first_passes(self, name, augmented):
        pair = self.fresh(name)
        table = betti(pair, augmented=augmented)
        assert HomologyBasis(pair, augmented=augmented).betti() == table

    @pytest.mark.parametrize("name, augmented", CASES)
    def test_betti_reads_the_table_a_basis_recorded(self, monkeypatch, name, augmented):
        pair = self.fresh(name)
        basis = HomologyBasis(pair, augmented=augmented)

        def refuse(*args, **kwargs):
            raise AssertionError("betti reduced a pair its basis had recorded")

        monkeypatch.setattr(complexes, "_reductions", refuse)
        assert betti(pair, augmented=augmented) == basis.betti()
        assert betti(ComplexPair(pair.ambient, pair.sub), augmented=augmented) == basis.betti()


def composition_message(fn, *args):
    """The message of the composition check's error, or None when it passes."""
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    return None


class TestCompositionCheck:
    """``SimplicialComplex._chain_table`` checks d o d = 0 through the
    simplicial identities on facet positions; ``reference_composition_check``
    is the dense XOR check it replaced."""

    def check_both(self, cx):
        cells, rows, _ = complexes._trusted(cx.faces)._chain_table
        reference_composition_check(cells, rows)

    def test_corpus_and_catalog_complexes_pass_both_checks(self):
        for cx in corpus_complexes().values():
            self.check_both(cx)
        for split in catalog_splits().values():
            self.check_both(split.domain)
            self.check_both(truncated_double(split).total)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_complexes_pass_both_checks(self, pair):
        self.check_both(pair.ambient)
        self.check_both(pair.sub)

    @pytest.mark.parametrize("name", ["ball_3", "projective_plane", "sphere_3"])
    def test_identities_reject_every_corruption_the_dense_check_rejects(self, monkeypatch, name):
        # Each entry of each facet row in turn is set to every other
        # position one degree down.  Every cell of these complexes lies in
        # a top cell, so the dense check rejects each such corruption.
        cx = corpus_complexes()[name]
        cells, rows = complexes._build_chain_table(cx)
        build, target = complexes._facet_rows, {}

        def corrupt(cells_k, below, k):
            out = build(cells_k, below, k)
            if k == target["k"]:
                out[target["i"]][target["c"]] = target["p"]
            return out

        monkeypatch.setattr(complexes, "_facet_rows", corrupt)
        rejected, corruptions = 0, 0
        for k in range(1, cx.dim + 1):
            for i, row in enumerate(rows[k]):
                for c, clean in enumerate(row):
                    for p in range(len(cells[k - 1])):
                        if p == clean:
                            continue
                        row[c] = p
                        corruptions += 1
                        dense = composition_message(reference_composition_check, cells, rows)
                        row[c] = clean
                        if dense is not None:
                            target.update(k=k, i=i, c=c, p=p)
                            assert composition_message(lambda: complexes._trusted(cx.faces)._chain_table) == dense, (k, i, c, p)
                            rejected += 1
        assert rejected == corruptions > 0


class TestBoundarySubcomplex:
    def test_solid_triangle(self):
        assert boundary_subcomplex(build_complex([(0, 1, 2)])) == hollow_triangle()

    def test_closed_surface_has_empty_boundary(self):
        assert len(boundary_subcomplex(cross_polytope_sphere(2))) == 0

    def test_annulus_boundary_two_circles(self):
        from topsym.spaces import _ring_annulus

        boundary = boundary_subcomplex(_ring_annulus())
        assert table(ComplexPair.absolute(boundary)).get(0) == 2

    def test_plain_prism_annulus_boundary(self):
        # One prism band over the hollow triangle.
        prism = build_complex(
            [(0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 5), (0, 3, 5)]
        )
        boundary = boundary_subcomplex(prism)
        assert table(ComplexPair.absolute(boundary)) == {0: 2, 1: 2}

    def test_overcrowded_ridge_rejected(self):
        cx = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        with pytest.raises(PseudomanifoldError):
            boundary_subcomplex(cx)

    def test_impure_complex_rejected(self):
        cx = build_complex([(0, 1, 2), (3, 4)])
        with pytest.raises(PseudomanifoldError):
            boundary_subcomplex(cx)


def connectivity(check, cx):
    """The dimension ``check`` returns, or the message it raises."""
    try:
        return check(cx)
    except PseudomanifoldError as exc:
        return str(exc)


class TestStrongConnectivity:
    """The walk over each complex's ridge incidence against adjacency
    lists over pairs of top simplices and a breadth-first search."""

    def test_corpus_agrees_with_the_reference(self):
        extras = [
            SimplicialComplex.empty(),
            build_complex([(0,)]),
            build_complex([(0,), (1,)]),
            build_complex([(0, 1, 2), (2, 3, 4)]),  # two triangles on a vertex
            build_complex([(0, 1, 2), (3, 4)]),
        ]
        outcomes = []
        for cx in [pair.ambient for pair in corpus_pairs().values()] + extras:
            outcomes.append(connectivity(check_strongly_connected, cx))
            assert outcomes[-1] == connectivity(reference_check_strongly_connected, cx), sorted(cx.faces)
        assert {type(outcome) for outcome in outcomes} == {int, str}

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_pairs())
    def test_random_ambients_agree_with_the_reference(self, pair):
        cx = pair.ambient
        assert connectivity(check_strongly_connected, cx) == connectivity(reference_check_strongly_connected, cx)

    def test_deep_union_find_trees_agree_with_the_reference(self, monkeypatch):
        # Relabeled vertices put the top simplices in scrambled order, so
        # joining each to the first holder of a ridge builds deep trees; a
        # wrong path-halving step splits a connected piece there.
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        rng = random.Random(19)

        def shuffled(maximal, base):
            """The simplices with their vertices relabeled at random onto
            base, base + 1, ..."""
            vertices = sorted({v for s in maximal for v in s})
            targets = list(range(base, base + len(vertices)))
            rng.shuffle(targets)
            label = dict(zip(vertices, targets))
            return [tuple(sorted(label[v] for v in s)) for s in maximal]

        pieces = [shuffled([(i, i + 1, i + 2) for i in range(400)], 0)]
        for _ in range(4):
            disk = workloads.grid_disk(rng, rng.randint(4, 9), rng.randint(4, 9), 3)
            annulus = workloads.grid_annulus(rng, rng.randint(6, 14), rng.randint(2, 4), None)
            pieces += [workloads.relabeled(space, rng, 0).maximal for space in (disk, annulus)]
        checked = 0
        for a, b in zip(pieces, pieces[1:] + pieces[:1]):
            top = max(v for s in a for v in s)
            # ``b`` alone, ``b`` on the last vertex of ``a`` only, and
            # ``b`` apart from ``a``.
            cases = [(b, 2), (list(a) + shuffled(b, top), None), (list(a) + shuffled(b, top + 1), None)]
            for maximal, expected in cases:
                cx = build_complex(maximal)
                outcome = connectivity(check_strongly_connected, cx)
                assert outcome == connectivity(reference_check_strongly_connected, cx)
                if expected is None:
                    assert outcome == "complex is not strongly connected through codimension-1 faces"
                else:
                    assert outcome == expected
                checked += 1
        assert checked == 3 * len(pieces)


class TestEuler:
    def test_point(self):
        assert euler_characteristic(ComplexPair.absolute(build_complex([(0,)]))) == 1

    def test_octahedron(self):
        pair = ComplexPair.absolute(cross_polytope_sphere(2))
        assert euler_characteristic(pair) == 6 - 12 + 8 == 2

    def test_disk_rel_boundary(self):
        disk = cone(hollow_triangle())
        pair = ComplexPair(disk, hollow_triangle())
        # Quotient cells: 1 vertex, 3 edges, 3 triangles.
        assert euler_characteristic(pair) == 1 - 3 + 3 == 1

    def test_matches_alternating_betti_sum(self):
        for name, pair in corpus_pairs().items():
            dims = table(pair)
            alt = sum((-1) ** k * d for k, d in dims.items())
            assert euler_characteristic(pair) == alt, name


class TestExcision:
    def test_tables_unchanged_across_corpus(self):
        for name, pair in corpus_pairs().items():
            if len(pair.sub) == 0:
                continue
            before = betti(pair)
            for simplex in sorted(pair.sub.faces):
                try:
                    smaller = excise(pair, simplex)
                except InputError:
                    continue  # star leaves the subcomplex; not excisable
                assert betti(smaller) == before, (name, simplex)

    def test_rejects_interior_star(self):
        disk = cone(hollow_triangle())
        pair = ComplexPair(disk, hollow_triangle())
        with pytest.raises(InputError):
            excise(pair, (0, 1))  # its star contains interior triangles

    def test_excises_a_free_piece(self):
        # Two disjoint vertices in the subcomplex; one can be excised.
        cx = build_complex([(0, 1), (2,)])
        pair = ComplexPair(cx, build_complex([(2,)]))
        smaller = excise(pair, (2,))
        assert (2,) not in smaller.ambient.faces
        assert betti(smaller) == betti(pair)


class TestDualityOfDoubles:
    def test_closed_doubles_are_self_mirror(self):
        from topsym.spaces import _ring_annulus

        for domain in (cone(hollow_triangle()), _ring_annulus(), builtin_ball_3()):
            closed = full_double(domain)
            dims = table(ComplexPair.absolute(closed))
            d = closed.dim
            assert dims == {d - k: v for k, v in dims.items()}


def builtin_ball_3():
    return cone(cross_polytope_sphere(2))


class TestRelabeling:
    def test_random_permutations_preserve_tables(self):
        rng = random.Random(11)
        for name, pair in list(corpus_pairs().items())[:8]:
            verts = sorted(pair.ambient.vertices)
            if not verts or not all(isinstance(v, int) for v in verts):
                continue
            images = list(verts)
            rng.shuffle(images)
            mapping = dict(zip(verts, images))
            permuted = ComplexPair(relabeled(pair.ambient, mapping), relabeled(pair.sub, mapping))
            assert betti(permuted) == betti(pair), name

    def test_a_mapping_that_is_not_injective_reports_the_vertices(self):
        with pytest.raises(InputError) as caught:
            relabeled(build_complex([(0, 1)]), {0: 5, 1: 5})
        assert str(caught.value) == "simplex has repeated vertices: (5, 5)"
