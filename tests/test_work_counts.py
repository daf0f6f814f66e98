"""Guards on deterministic work counts of the homology core.

Each count is a property of the algorithm, not of the host, so a change
that brings back the old work fails here rather than only in the bench.
"""

import json
import tracemalloc
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from conftest import (
    CORPUS_COMPLEX_NAMES,
    catalog_splits,
    corpus_pairs,
    equal_regions_hexagon,
    reference_check_strongly_connected,
    reference_double,
)
from topsym import (
    BoundarySplit,
    ComplexPair,
    HomologyBasis,
    SimplicialComplex,
    betti,
    build_complex,
    builtin_example,
    cli,
    complexes,
    exactness,
    gf2,
    glued,
    les_exactness_check,
    morse,
    spaces,
)
from topsym.cli import EXIT_OK, EXIT_SUITE_FAILED, main, space_file_dict
from topsym.morse import build_matching, morse_betti

SPACES = Path(__file__).with_name("spaces")


def count_reduction_work(monkeypatch):
    """Count the columns reduced by every ``Reduction`` (those handed to
    ``extend`` and not cleared), the pivot steps (each XOR of a stored
    pivot into a column being reduced) and the ``solve`` calls."""
    counts = {"columns": 0, "steps": 0, "solves": 0}

    class Pivots(dict):
        def get(self, key, default=None):
            pivot = dict.get(self, key, default)
            counts["steps"] += pivot is not None
            return pivot

    extend, solve = gf2.Reduction.extend, gf2.Reduction.solve

    def counted_extend(self, columns, cleared=()):
        if type(self._pivots) is dict:
            self._pivots = Pivots(self._pivots)
        counts["columns"] += sum(j not in cleared for j in range(self.n_cols, self.n_cols + len(columns)))
        return extend(self, columns, cleared)

    def counted_solve(self, b):
        counts["solves"] += 1
        return solve(self, b)

    monkeypatch.setattr(gf2.Reduction, "extend", counted_extend)
    monkeypatch.setattr(gf2.Reduction, "solve", counted_solve)
    return counts


def test_wedge_of_spheres_needs_less_than_one_pivot_step_per_column(monkeypatch, capsys):
    # Every sphere of the wedge meets vertex 0, so with the pivot on the
    # lowest row each edge at vertex 0 would walk all earlier pivots.
    counts = count_reduction_work(monkeypatch)
    assert main(["analyze", "wedge_2_1200"]) == EXIT_OK
    capsys.readouterr()
    assert counts["columns"] > 8000
    assert counts["steps"] < counts["columns"]


def check_basis_work(monkeypatch, pair, augmented):
    """Building a basis reduces each column of d_k that clearing keeps,
    n_k - rank d_{k+1} of them, appends dim H_k representatives, and
    makes no ``solve`` call."""
    basis = HomologyBasis(pair, augmented=augmented)
    kept = sum(basis.n_cells(k) - basis.boundary_matrix(k + 1).rank() for k in basis.degrees())
    expected = kept + basis.betti().total()
    counts = count_reduction_work(monkeypatch)
    HomologyBasis(pair, augmented=augmented)
    assert (counts["columns"], counts["solves"]) == (expected, 0)
    return basis


def test_acyclic_domain_basis_makes_no_solve_call(monkeypatch):
    # The ball has H~_k = 0 in every degree, so no cycle needs testing
    # against the boundaries.
    domain = builtin_example("reeb_ball_2").domain
    basis = check_basis_work(monkeypatch, ComplexPair.absolute(domain), True)
    assert basis.betti().total() == 0


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("name", ["torus", "projective_plane", "wedge_2_4", "klein_bottle"])
def test_basis_with_homology_makes_no_solve_call(monkeypatch, name, augmented):
    # The representatives are the cycles clearing leaves, so none is
    # tested against the boundaries.
    basis = check_basis_work(monkeypatch, ComplexPair.absolute(builtin_example(name)), augmented)
    assert basis.betti().total() > 0


def reduction_pairs():
    """Corpus pairs, and the pairs of ``reeb_ball_2``, with and without augmentation."""
    pairs = dict(corpus_pairs())
    split = builtin_example("reeb_ball_2")
    pairs.update(reeb_pos=split.positive_pair(), reeb_double=split.double.exit_pair())
    for name, pair in pairs.items():
        for augmented in (False, True) if len(pair.sub) == 0 else (False,):
            yield (name, augmented), pair, augmented


def test_rank_only_pass_reduces_the_same_columns_with_the_same_pivot_steps(monkeypatch):
    # ``betti`` runs ``_reductions`` without combinations, ``HomologyBasis``
    # with them; the elimination itself must be the same.
    counts = count_reduction_work(monkeypatch)
    for label, pair, augmented in reduction_pairs():
        columns = complexes._chain_columns(pair, augmented)[1]
        passes = {}
        for track in (False, True):
            counts.update(columns=0, steps=0, solves=0)
            shapes = [(k, sorted(lower.pivot_rows), lower.nullity) for k, lower in complexes._reductions(columns, track)]
            passes[track] = dict(counts), shapes
        assert passes[False] == passes[True], label
        assert passes[True][0]["columns"] > 0, label


def test_wedge_of_spheres_builds_no_quadratic_column_list():
    # 9000 edges over 4501 vertices and 6000 triangles over 9000 edges:
    # dense columns, or a list of one-hot ints per degree, peak at 8 MB
    # for the chain table and 19 MB for the Betti table.
    fresh = complexes._trusted(builtin_example("wedge_2_1500").faces)
    tracemalloc.start()
    try:
        fresh._chain_table
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert betti(ComplexPair.absolute(fresh)).as_dict() == {0: 1, 2: 1500}
        betti_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_peak <= 3 << 20
    assert betti_peak <= 10 << 20


def count_ranks(monkeypatch):
    """Count the calls of ``Gf2Matrix.rank``."""
    calls = []
    rank = gf2.Gf2Matrix.rank

    def counted(self):
        calls.append(self)
        return rank(self)

    monkeypatch.setattr(gf2.Gf2Matrix, "rank", counted)
    return calls


def test_les_takes_a_rank_only_for_a_map_between_nonzero_groups(monkeypatch):
    # Map i runs from the group of slot i - 1 into the group of slot i.  A
    # map out of or into a zero group has rank 0 without a rank call, so
    # one rank is taken per pair of consecutive nonzero groups.
    calls = count_ranks(monkeypatch)
    counts = {}
    for name in ("annulus_split_pos", "disk_half_split_double", "torus", "disk_rel_boundary"):
        pair = corpus_pairs()[name]
        calls.clear()
        dims = [slot.middle_dim for slot in les_exactness_check(pair).slots]
        counts[name] = len(calls)
        assert counts[name] == sum(1 for a, b in zip(dims, dims[1:]) if a and b), name
    assert counts == {"annulus_split_pos": 1, "disk_half_split_double": 1, "torus": 3, "disk_rel_boundary": 1}


@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
def test_each_map_of_the_sequence_holds_a_matrix_only_where_its_source_is_nonzero(monkeypatch, capsys, space):
    # A degree with no source class maps nothing, so its matrix is not
    # made; the slots read a missing degree as a zero map.  Only the
    # excision check keeps every target degree, as a target class with no
    # source must still fail it.
    maps, map_on_homology = [], exactness._map_on_homology

    def recorded_map(*args, **kwargs):
        maps.append(map_on_homology(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(exactness, "_map_on_homology", recorded_map)
    assert main(["verify", str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    assert len(maps) in (6, 9)  # three per sequence, on two or three pairs
    for m in maps:
        assert list(m.matrices) == list(m.witnesses) == [k for k in m.source.degrees() if m.source.betti_dim(k)], space
        assert all(matrix.n_cols for matrix in m.matrices.values()), space


def test_morse_betti_takes_each_boundarys_rank_once(monkeypatch):
    # A boundary out of or into no critical cell has rank 0 without a rank
    # call, and a composition with such a boundary is zero without a
    # product; every other boundary's rank is taken once.
    calls, products, mat_mul = count_ranks(monkeypatch), [], gf2.Gf2Matrix.mat_mul

    def counted_mat_mul(self, other):
        products.append((self, other))
        return mat_mul(self, other)

    monkeypatch.setattr(gf2.Gf2Matrix, "mat_mul", counted_mat_mul)
    counts = {}
    for name, pair in corpus_pairs().items():
        calls.clear()
        products.clear()
        data = morse.morse_complex(build_matching(pair))
        assert data.betti() == morse_betti(build_matching(pair)) == betti(pair), name
        full = [m for m in data.boundaries.values() if m.n_rows and m.n_cols]
        assert calls[: len(full)] == full and len(calls) == 2 * len(full), name
        assert all(a.n_rows and a.n_cols and b.n_cols for a, b in products), name
        counts[name] = len(full), len(products) // 2
    assert counts["torus"] == counts["klein_bottle"] == (2, 1)
    assert counts["annulus_split_pos"] == counts["sphere_3"] == (0, 0)


def test_a_matching_peels_its_v_path_digraph_once(monkeypatch):
    # Validation peels it and the gradient flow walks the same order.
    calls = []
    peel = morse._v_path_order

    def counted(down, up, facets):
        calls.append(facets)
        return peel(down, up, facets)

    monkeypatch.setattr(morse, "_v_path_order", counted)
    for name, pair in corpus_pairs().items():
        for seed_order in (None, 0, 1):
            calls.clear()
            morse_betti(build_matching(pair, seed_order))
            assert len(calls) == 1, (name, seed_order)


class UnreadIndex(dict):
    """A Hasse diagram's cell index that refuses to be read."""

    def refuse(self, *args):
        raise AssertionError("Morse read the cell index after the diagram was built")

    __getitem__ = __contains__ = __iter__ = get = keys = values = items = refuse


def test_morse_runs_on_cell_numbers(monkeypatch):
    # ``build_matching`` hands over cell numbers, so no simplex is looked
    # up again and the simplex pairs are built only when read.
    build = complexes._build_hasse

    def unread_index(pair):
        cells, index, down = build(pair)
        return cells, UnreadIndex(index), down

    monkeypatch.setattr(complexes, "_build_hasse", unread_index)
    for name, pair in corpus_pairs().items():
        matching = build_matching(ComplexPair(pair.ambient, pair.sub))  # a fresh pair has no diagram yet
        assert morse_betti(matching) == betti(pair), name
        assert "matched" not in vars(matching), name


@pytest.mark.parametrize("space", ["annulus_split", "reeb_ball_2", "disk_both.json"])
def test_verify_checks_the_identities_once_per_chain_table(monkeypatch, capsys, space):
    # Built or derived, each table is checked once, by ``_chain_table``.
    made, checked = [], []
    check = complexes._check_identities

    def counted(make):
        def counted_make(*args):
            cells, rows = make(*args)
            made.append(rows)
            return cells, rows

        return counted_make

    def counted_check(rows):
        checked.append(rows)
        return check(rows)

    monkeypatch.setattr(complexes, "_build_chain_table", counted(complexes._build_chain_table))
    monkeypatch.setattr(glued, "_total_table", counted(glued._total_table))
    monkeypatch.setattr(complexes, "_check_identities", counted_check)
    assert main(["verify", str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    assert len(made) >= 5 and list(map(id, checked)) == list(map(id, made))


def test_split_space_file_scans_only_the_regions_for_maximal_simplices(monkeypatch):
    # The domain of a split is pure; its top simplices are its maximal ones.
    scanned = []
    maximal = SimplicialComplex.maximal_simplices

    def recorded(self):
        scanned.append(self)
        return maximal(self)

    monkeypatch.setattr(SimplicialComplex, "maximal_simplices", recorded)
    for name, split in catalog_splits().items():
        scanned.clear()
        space_file_dict(name, split)
        assert [id(c) for c in scanned] == [id(split.positive), id(split.negative)], name


class CountedList(list):
    """A list that counts the items read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        CountedList.reads += 1
        return list.__getitem__(self, i)

    def __iter__(self):
        for item in list.__iter__(self):
            CountedList.reads += 1
            yield item


def test_expressing_a_representative_reads_only_that_representative():
    basis = HomologyBasis(ComplexPair.absolute(builtin_example("wedge_2_40")))
    reps = basis.representatives(2)
    assert len(reps) == 40
    basis._reps[2] = CountedList(reps)
    for i in (0, 17, 39):
        CountedList.reads = 0
        assert basis.express_class(2, reps[i]) == (1 << i, frozenset())
        assert CountedList.reads == 1, i


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--json"], ["analyze", "--mod", "2", "--json"], ["analyze"], ["double"]],
)
def test_analyze_and_double_on_a_space_file_take_no_facets_one_simplex_at_a_time(monkeypatch, capsys, argv):
    # Closure, boundary extraction, chain tables and the double enumerate
    # the facets of a whole degree at once.  One simplex's facets are
    # taken only by chain boundaries, for homology bases, and these
    # commands build none.
    assert not hasattr(complexes, "facets")
    built = []
    init = HomologyBasis.__init__

    def counted(self, pair, *, augmented=False):
        built.append(pair)
        init(self, pair, augmented=augmented)

    monkeypatch.setattr(HomologyBasis, "__init__", counted)
    for path in sorted(SPACES.glob("*.json")):
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_OK, path
        capsys.readouterr()
        assert built == [], (argv, path.name)


def test_verify_on_a_space_file_takes_facets_only_for_chain_boundaries(monkeypatch, capsys):
    # The package keeps no one-simplex facet list: a chain boundary adds
    # each nonempty simplex's facets with one ``combinations`` call.
    assert not hasattr(complexes, "facets")
    counts, inside = Counter(), []
    combinations, boundary_chain = complexes.combinations, complexes.boundary_chain

    def counted_combinations(cells, size):
        counts["combinations in boundaries"] += bool(inside)
        return combinations(cells, size)

    def counted_boundary(chain, drop, augmented):
        chain = list(chain)
        counts["nonempty simplices"] += sum(map(bool, chain))
        inside.append(chain)
        try:
            return boundary_chain(chain, drop, augmented)
        finally:
            inside.pop()

    monkeypatch.setattr(complexes, "combinations", counted_combinations)
    for module in (complexes, exactness):
        monkeypatch.setattr(module, "boundary_chain", counted_boundary)
    for path in sorted(SPACES.glob("*.json")):
        counts.clear()
        assert main(["verify", str(path)]) == EXIT_OK, path
        capsys.readouterr()
        assert counts["combinations in boundaries"] == counts["nonempty simplices"] > 0, (path.name, counts)


def record_bases(monkeypatch):
    """Three lists: the bases ``HomologyBasis.__init__`` builds, the bases
    of pairs (X, empty) that ``_unreduced`` derives from X's reduced
    basis, and the reduced bases of doubles along an empty interface that
    ``_disjoint_double`` derives from their domain's, each in the order
    made."""
    built, derived, doubled = [], [], []
    init, unreduced, disjoint_double = HomologyBasis.__init__, HomologyBasis._unreduced, HomologyBasis._disjoint_double

    def recorded_init(self, pair, *, augmented=False):
        init(self, pair, augmented=augmented)
        built.append(self)

    def recorded_unreduced(self, pair):
        derived.append(unreduced(self, pair))
        return derived[-1]

    def recorded_disjoint_double(self, total):
        doubled.append(disjoint_double(self, total))
        return doubled[-1]

    monkeypatch.setattr(HomologyBasis, "__init__", recorded_init)
    monkeypatch.setattr(HomologyBasis, "_unreduced", recorded_unreduced)
    monkeypatch.setattr(HomologyBasis, "_disjoint_double", recorded_disjoint_double)
    return built, derived, doubled


def record_rank_only_runs(monkeypatch):
    """The (ambient faces, subcomplex faces, augmented) of the pair of
    each rank-only ``_reductions`` run, in order."""
    runs, made = [], {}
    chain_columns, reductions = complexes._chain_columns, complexes._reductions

    def recorded_columns(pair, augmented):
        cells, columns = chain_columns(pair, augmented)
        made[id(columns)] = columns, pair, augmented  # holding the columns keeps their id unique
        return cells, columns

    def recorded_reductions(columns, track=True, **kwargs):
        if not track:
            _, pair, augmented = made[id(columns)]
            runs.append((pair.ambient.faces, pair.sub.faces, augmented))
        return reductions(columns, track, **kwargs)

    monkeypatch.setattr(complexes, "_chain_columns", recorded_columns)
    monkeypatch.setattr(complexes, "_reductions", recorded_reductions)
    return runs


@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
def test_verify_reduces_each_pair_once(monkeypatch, capsys, space):
    # The bases of the long exact sequences record the tables of the
    # positive, negative and exit pairs, so no rank-only pass runs on
    # them, and Mayer-Vietoris expresses chains in the exit pair's basis,
    # so no rank-only pass runs at all.
    # A pair with an empty subcomplex shares its ambient's reduction and
    # records its table too.
    splits = []
    load = cli.load_space

    def record(locator):
        name, split = load(locator)
        splits.append(split)
        return name, split

    monkeypatch.setattr(cli, "load_space", record)
    bases, derived, doubled = record_bases(monkeypatch)
    runs = record_rank_only_runs(monkeypatch)
    assert main(["verify", str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    (split,) = splits
    double = split.double
    assert runs == []
    # Each recorded table is the one a fresh copy's rank-only pass gives.
    own = (split.positive_pair(), split.negative_pair(), double.exit_pair())
    assert len(doubled) == (not split.interface)
    bases += derived + doubled
    keys = {(basis.pair.ambient.faces, basis.pair.sub.faces, basis.augmented) for basis in bases}
    assert {(pair.ambient.faces, pair.sub.faces, False) for pair in own} <= keys
    assert len(derived) == len({(pair.ambient.faces, pair.sub.faces) for pair in own if not pair.sub})
    for basis in bases:
        pair, augmented = basis.pair, basis.augmented
        recorded = pair.ambient._chain_table[2][(pair.sub.faces, augmented)]
        fresh = ComplexPair(complexes._trusted(pair.ambient.faces), complexes._trusted(pair.sub.faces))
        assert recorded == betti(fresh, augmented=augmented)


@pytest.mark.parametrize("space", sorted(catalog_splits()))
def test_verify_indexes_only_the_degrees_in_which_a_class_is_expressed(monkeypatch, capsys, space):
    # A basis indexes a degree's cells on the first chain it turns into
    # bits there, and only a class expression does that.
    expressed, express = Counter(), HomologyBasis.express_class

    def recorded_express(self, k, chain):
        expressed[id(self), k] += 1
        return express(self, k, chain)

    bases, derived, doubled = record_bases(monkeypatch)
    monkeypatch.setattr(HomologyBasis, "express_class", recorded_express)
    assert main(["verify", space]) == EXIT_OK
    capsys.readouterr()
    bases += derived + doubled
    for basis in bases:
        assert set(basis._index) == {k for k in basis.degrees() if expressed[id(basis), k]}, (space, basis.pair)
    # Most of the bases' degrees express no class, so they stay unindexed.
    indexed, degrees = sum(len(basis._index) for basis in bases), sum(len(basis.degrees()) for basis in bases)
    assert 0 < indexed < degrees / 2, (indexed, degrees)


@pytest.mark.parametrize("space", ["disk_half_split", "annulus_split", "reeb_ball_2", "disk_both.json"])
def test_a_sequence_releases_the_ambient_basis_it_built_before_the_relative_one(monkeypatch, capsys, space):
    # When the relative basis of a pair with a nonempty subcomplex is
    # built, the reduced basis of the ambient that its sequence built
    # holds no classes, nor does the total's that ``verify`` derived from
    # the domain's and handed to the exit pair's sequence (the annulus,
    # whose interface is empty); the domain's, which the two domain
    # sequences share, keeps them.
    bases, _, doubled = record_bases(monkeypatch)
    recorded, held = HomologyBasis.__init__, []

    def checked_init(self, pair, *, augmented=False):
        if pair.sub and not augmented:
            (ambient,) = [b for b in bases + doubled if b.pair.ambient is pair.ambient and b.augmented]
            held.append((ambient.pair.ambient, len(ambient._classes)))
        recorded(self, pair, augmented=augmented)

    monkeypatch.setattr(HomologyBasis, "__init__", checked_init)
    assert main(["verify", str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    domain = bases[0].pair.ambient
    for ambient, classes in held:
        assert (classes > 0) is (ambient is domain), (space, classes)
    assert {ambient is domain for ambient, _ in held} == ({True, False} if space != "reeb_ball_2" else {True})
    assert len(doubled) == (space in ("annulus_split", "reeb_ball_2"))


@pytest.mark.parametrize("name", [*CORPUS_COMPLEX_NAMES, "wedge_2_40", "sphere_4"])
def test_a_derived_absolute_basis_runs_no_reduction_step_above_degree_0(monkeypatch, name):
    # (X, empty) shares X's reduced basis from degree 1 up.  Only its
    # vertex classes are appended, to a copy of the reduction of d_1:
    # no boundary column is made or reduced, and a vertex that is no
    # pivot row of d_1 meets no pivot.
    pair = ComplexPair.absolute(builtin_example(name))
    reduced = HomologyBasis(pair, augmented=True)

    def refuse(*args):
        raise AssertionError("a boundary column was made or reduced")

    monkeypatch.setattr(complexes, "_chain_columns", refuse)
    monkeypatch.setattr(complexes, "_reductions", refuse)
    counts = count_reduction_work(monkeypatch)
    derived = reduced._unreduced(pair)
    assert counts == {"columns": derived.betti_dim(0), "steps": 0, "solves": 0}
    assert all(derived._classes[k] is reduced._classes[k] for k in range(1, reduced.max_degree + 1))
    assert derived._classes[0] is not reduced._classes[0]


@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json")), "equal regions"])
def test_verify_builds_each_distinct_basis_and_matching_once(monkeypatch, capsys, tmp_path, space):
    # Equal regions, empty on the closed brieskorn domains or the whole
    # circle on the hexagon (where duality fails), give one domain pair,
    # and the two domain sequences share the domain's reduced basis.
    matched, match = [], cli.build_matching

    def recorded_match(pair, *args):
        matched.append(pair)
        return match(pair, *args)

    bases, derived, doubled = record_bases(monkeypatch)
    monkeypatch.setattr(cli, "build_matching", recorded_match)
    locator, code = str(SPACES / space) if space.endswith(".json") else space, EXIT_OK
    if space == "equal regions":
        locator, code = str(tmp_path / "hexagon.json"), EXIT_SUITE_FAILED
        (tmp_path / "hexagon.json").write_text(json.dumps(space_file_dict("hexagon", equal_regions_hexagon())))
    assert main(["verify", locator]) == code
    capsys.readouterr()
    # Each sequence makes its sub's and its pair's basis; the domain and
    # the double each add one reduced basis.  The basis of a pair with an
    # empty subcomplex is derived from its ambient's reduced basis, so
    # ``__init__`` runs once less for each: for the positive and the exit
    # pair of the reeb balls and of a file with an empty positive region,
    # and for the one domain pair and the exit pair of the closed domains.
    # Where the interface is empty, the double's reduced basis is derived
    # from the domain's, so ``__init__`` runs once less again.
    pairs = 2 if space.startswith("brieskorn") or space == "equal regions" else 3
    keys = [(id(basis.pair.ambient), basis.pair.sub.faces, basis.augmented) for basis in bases + derived + doubled]
    assert len(set(keys)) == len(keys) == 2 * pairs + 2
    empty = 2 if space.startswith(("reeb_ball", "brieskorn")) or space == "disk_bare.json" else 0
    disjoint = 1 if space.startswith(("annulus", "reeb_ball", "brieskorn")) or space == "disk_bare.json" else 0
    assert (len(bases), len(derived), len(doubled)) == (2 * pairs + 2 - empty - disjoint, empty, disjoint)
    assert all(not basis.pair.sub and basis.augmented is False for basis in derived)
    assert all(not basis.pair.sub and basis.augmented is True for basis in doubled)
    assert len(matched) == pairs


@pytest.mark.parametrize("space", ["annulus_split", "disk_half_split", "reeb_ball_2", "disk_positive.json"])
def test_analyze_looks_up_facets_only_for_the_domains_table(monkeypatch, capsys, space):
    # The double's table is derived from the domain's through the face
    # maps, so only the domain's cells go through the facet lookup.
    calls, splits = [], []
    facet_rows, load = complexes._facet_rows, cli.load_space

    def counted(cells, below, k):
        calls.append((k, cells))
        return facet_rows(cells, below, k)

    def record(locator):
        name, split = load(locator)
        splits.append(split)
        return name, split

    monkeypatch.setattr(complexes, "_facet_rows", counted)
    monkeypatch.setattr(cli, "load_space", record)
    assert main(["analyze", str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    domain = splits[0].domain
    assert [k for k, _ in calls] == list(range(domain.dim, -1, -1))
    assert all(cells is domain.simplices(k) for k, cells in calls)


def test_double_builds_and_derives_no_chain_table(monkeypatch, tmp_path):
    # Gluing and writing the double take no homology, so no table.
    made = []

    def refuse(*args):
        made.append(args)
        raise AssertionError("a chain table was made")

    monkeypatch.setattr(complexes, "_build_chain_table", refuse)
    monkeypatch.setattr(glued, "_total_table", refuse)
    for space in ["annulus_split", "disk_half_split", "reeb_ball_2", *sorted(SPACES.glob("*.json"))]:
        assert main(["double", str(space), "-o", str(tmp_path / "double.json")]) == EXIT_OK
        assert made == [], space
    # The refusals guard the derivation that verify runs.
    with pytest.raises(AssertionError, match="a chain table was made"):
        builtin_example("annulus_split").double.total._chain_table


@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
def test_double_builds_no_total_and_sorts_no_face_of_the_domain(monkeypatch, tmp_path, space):
    # The load extracts the domain's boundary from its maximal simplices,
    # which the closure kept.  The glued split is written from the images
    # of the maximal simplices of the domain and of each region, so no
    # region is glued face by face, the double's total is never made, and
    # the only complex sorted by degree is the interface, whose ridges the
    # refusal of a shared boundary simplex reads.
    extracted, sorted_by_degree, splits = [], [], []
    extract, by_degree, load = spaces.boundary_subcomplex, SimplicialComplex._by_degree.func, cli.load_space
    regions = record_glued_regions(monkeypatch)

    def recorded_extract(complex_):
        extracted.append(complex_)
        return extract(complex_)

    def recorded_by_degree(self):
        sorted_by_degree.append(self)
        return by_degree(self)

    def recorded_load(locator):
        name, split = load(locator)
        splits.append(split)
        return name, split

    recorded = cached_property(recorded_by_degree)
    recorded.__set_name__(SimplicialComplex, "_by_degree")
    monkeypatch.setattr(SimplicialComplex, "_by_degree", recorded)
    monkeypatch.setattr(spaces, "boundary_subcomplex", recorded_extract)
    monkeypatch.setattr(cli, "load_space", recorded_load)
    locator = str(SPACES / space) if space.endswith(".json") else space
    assert main(["double", locator, "-o", str(tmp_path / "double.json")]) == EXIT_OK
    (split,) = splits
    assert [id(c) for c in extracted] == [id(split.domain)]
    assert regions == [] and list(map(id, sorted_by_degree)) == [id(split.interface)]
    assert "total" not in vars(split.double) and "exit_boundary" not in vars(split.double)
    # What analyze and verify read is made on first read, and only then.
    assert split.double.total not in sorted_by_degree and "total" in vars(split.double)


def record_glued_regions(monkeypatch):
    """The regions whose copies the double glues, in the order glued."""
    regions, glue = [], glued._glued

    def recorded(region, *args):
        regions.append(region)
        return glue(region, *args)

    monkeypatch.setattr(glued, "_glued", recorded)
    return regions


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
def test_analyze_and_verify_glue_only_the_positive_region(monkeypatch, capsys, command, space):
    # verify reads the double's total and exit boundary only, so the
    # negative region is never relabeled; analyze reads neither, so it
    # glues no region.
    splits, load = [], cli.load_space

    def recorded_load(locator):
        name, split = load(locator)
        splits.append(split)
        return name, split

    regions = record_glued_regions(monkeypatch)
    monkeypatch.setattr(cli, "load_space", recorded_load)
    assert main([command, str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    (split,) = splits
    verify = command == "verify"
    assert list(map(id, regions)) == [id(split.positive)] * verify and ("total" in vars(split.double)) is verify


@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
def test_analyze_builds_no_total_and_no_exit_boundary(monkeypatch, capsys, space):
    # The factor-two identity holds by the double's construction, so
    # analyze only checks that the interface is induced: the double makes
    # its labelings and no part, derives no table and reduces no exit pair.
    splits, derived, load, derive = [], [], cli.load_space, glued._total_table

    def recorded_load(locator):
        name, split = load(locator)
        splits.append(split)
        return name, split

    def counted_derive(*args):
        derived.append(args[-1])
        return derive(*args)

    monkeypatch.setattr(cli, "load_space", recorded_load)
    monkeypatch.setattr(glued, "_total_table", counted_derive)
    assert main(["analyze", str(SPACES / space) if space.endswith(".json") else space]) == EXIT_OK
    capsys.readouterr()
    (split,) = splits
    assert derived == [] and "double" in vars(split)
    assert sorted(vars(split.double)) == ["domain", "labels", "negative", "positive"]


def test_doubles_of_different_domains_with_equal_regions_differ():
    # Two fans of a hexagon, from vertex 0 and from vertex 1, split alike
    # at vertices 2 and 4, which neither joins: the labelings and the
    # glued regions agree, and the domains tell the doubles apart.
    positive, negative = build_complex([(2, 3), (3, 4)]), build_complex([(4, 5), (0, 5), (0, 1), (1, 2)])
    splits = [
        BoundarySplit(build_complex(tops), positive, negative)
        for tops in ([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)], [(0, 1, 5), (1, 2, 3), (1, 3, 4), (1, 4, 5)])
    ]
    (first, first_parts), (second, second_parts) = ((split.double, reference_double(split)) for split in splits)
    assert (first.exit_boundary, first_parts["entry_boundary"], first.labels) == (
        second.exit_boundary, second_parts["entry_boundary"], second.labels
    )
    assert first != second and first.total != second.total


@pytest.mark.parametrize("parts", [("tops",), ("exit_boundary", "total"), ("payload", "tops", "exit_boundary", "total")])
def test_each_labeling_is_classified_once_per_double(monkeypatch, parts):
    # Whether a labeling is the identity and whether it reorders any two
    # vertices is decided once per double, whichever parts are read; the
    # payload ``double`` writes reads the glued tops of both regions.
    kinds, kind = [], glued._kind
    monkeypatch.setattr(glued, "_kind", lambda label: kinds.append(label) or kind(label))
    splits = {**catalog_splits(), **{p.name: cli.load_space(str(p))[1] for p in sorted(SPACES.glob("*.json"))}}
    for name, split in splits.items():
        kinds.clear()
        double = glued.truncated_double(split)
        for part in parts:
            space_file_dict(name, double) if part == "payload" else getattr(double, part)
        if "total" in parts:
            double.total._chain_table
        assert list(map(id, kinds)) == list(map(id, double.labels)), name


@pytest.mark.parametrize("space", [*catalog_splits(), *sorted(p.name for p in SPACES.glob("*.json"))])
def test_an_empty_interface_derives_the_total_without_sorting_a_copy(monkeypatch, space):
    # Neither labeling reorders exactly when the interface is empty; then
    # each copy keeps the domain's cell order, so the derivation sorts no
    # copy's cells.  Along an interface it sorts each degree of each copy.
    split = cli.load_space(str(SPACES / space) if space.endswith(".json") else space)[1]
    total = glued.truncated_double(split).total
    split.domain._chain_table
    sorts = []
    monkeypatch.setattr(glued, "sorted", lambda *args, **kwargs: sorts.append(args) or sorted(*args, **kwargs), raising=False)
    total._chain_table
    assert len(sorts) >= 2 * (split.domain.dim + 1) if len(split.interface) else sorts == []


def test_strong_connectivity_takes_no_facet_from_a_built_table(monkeypatch, capsys):
    # The ridges are positions in the top degree's facet rows, so on a
    # complex whose table exists no facet is enumerated again; analyze and
    # verify ask on a domain whose table betti has built.
    def refuse(*args):
        raise AssertionError("a facet was enumerated")

    names = ["ball_3", "sphere_3", "torus", "wedge_2_4", "wedge_1_1", "point"]
    complexes_ = [SimplicialComplex(builtin_example(name).faces) for name in names]
    complexes_ += [SimplicialComplex(split.domain.faces) for split in catalog_splits().values()]
    def outcome(check, cx):
        try:
            return check(cx)
        except complexes.PseudomanifoldError:
            return None

    expected = [outcome(reference_check_strongly_connected, cx) for cx in complexes_]
    assert expected == [3, 3, 2, None, 1, 0, 2, 2, 2, 4, None, None]
    for cx in complexes_:
        cx._chain_table
    with monkeypatch.context() as patched:
        patched.setattr(complexes, "_faces_of", refuse)
        assert [outcome(complexes.check_strongly_connected, cx) for cx in complexes_] == expected

    built, check = [], complexes.check_strongly_connected

    def checked(cx):
        built.append("_chain_table" in vars(cx))
        with monkeypatch.context() as patched:
            patched.setattr(complexes, "_faces_of", refuse)
            return check(cx)

    monkeypatch.setattr(exactness, "check_strongly_connected", checked)
    for command in ("analyze", "verify"):
        for space in ("annulus_split", "reeb_ball_2", str(SPACES / "disk_positive.json")):
            assert main([command, space]) == EXIT_OK
    capsys.readouterr()
    assert built == [True] * 6
