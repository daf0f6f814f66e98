"""GF(2) kernel: elimination results against exhaustive enumeration."""

import random

import pytest

from conftest import (
    canonical_kernel_by_enumeration,
    largest_independent_subset_size,
    rank_by_subset_enumeration,
)
from topsym import Gf2Matrix, InputError
from topsym.gf2 import Reduction, column_bits


def hollow_triangle_d1():
    # Rows: vertices 0,1,2; columns: edges (0,1),(0,2),(1,2).
    return Gf2Matrix.from_columns([0b011, 0b101, 0b110], 3)


def random_columns(rng, n_rows, n_cols):
    return tuple(rng.getrandbits(n_rows) for _ in range(n_cols))


def entries(m):
    """Entry (i, j) is bit i of column j, as nested lists of rows."""
    return [[col >> i & 1 for col in m.columns] for i in range(m.n_rows)]


def random_matrices(seed, count):
    """Seeded matrices up to 10x10, half of them products of low rank so
    that kernels of several dimensions occur."""
    rng = random.Random(seed)
    for i in range(count):
        n_rows, n_cols = rng.randint(0, 10), rng.randint(1, 10)
        m = Gf2Matrix(n_rows, n_cols, random_columns(rng, n_rows, n_cols))
        if i % 2:
            r = rng.randint(0, 4)
            a = Gf2Matrix(n_rows, r, random_columns(rng, n_rows, r))
            m = a.mat_mul(Gf2Matrix(r, n_cols, random_columns(rng, r, n_cols)))
        yield m, rng


class TestRank:
    def test_identity(self):
        assert Gf2Matrix.from_columns([0b001, 0b010, 0b100], 3).rank() == 3

    def test_zero(self):
        assert Gf2Matrix(4, 7, (0,) * 7).rank() == 0

    def test_hollow_triangle_boundary(self):
        m = hollow_triangle_d1()
        assert m.rank() == rank_by_subset_enumeration(list(m.columns)) == 2

    def test_matches_literal_subset_search_small(self):
        rng = random.Random(7)
        for _ in range(30):
            n_rows, n_cols = rng.randint(0, 5), rng.randint(1, 6)
            columns = random_columns(rng, n_rows, n_cols)
            m = Gf2Matrix(n_rows, n_cols, columns)
            assert m.rank() == largest_independent_subset_size(columns)

    def test_matches_enumeration_random(self):
        rng = random.Random(20260810)
        for _ in range(60):
            n_rows, n_cols = rng.randint(0, 12), rng.randint(1, 12)
            columns = random_columns(rng, n_rows, n_cols)
            m = Gf2Matrix(n_rows, n_cols, columns)
            assert m.rank() == rank_by_subset_enumeration(columns)

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(99)
        for _ in range(50):
            n_rows, n_cols = rng.randint(0, 10), rng.randint(0, 10)
            m = Gf2Matrix(n_rows, n_cols, random_columns(rng, n_rows, n_cols))
            assert m.rank() == m.transpose().rank()


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert Gf2Matrix.from_columns([0b01, 0b10], 2).kernel_basis() == []

    def test_rank_one_row(self):
        assert Gf2Matrix.from_columns([0b1, 0b1], 1).kernel_basis() == [0b11]

    def test_hollow_triangle_kernel_by_enumeration(self):
        m = hollow_triangle_d1()
        # Brute force: the chains killed by the boundary map.
        killed = [v for v in range(8) if m.mat_vec(v) == 0]
        assert killed == [0, 0b111]  # zero and the sum of all three edges
        assert m.kernel_basis() == [0b111]

    def test_kernel_vectors_are_solutions_and_independent(self):
        rng = random.Random(5)
        for _ in range(40):
            n_rows, n_cols = rng.randint(0, 9), rng.randint(1, 9)
            m = Gf2Matrix(n_rows, n_cols, random_columns(rng, n_rows, n_cols))
            basis = m.kernel_basis()
            assert len(basis) == n_cols - m.rank()
            for v in basis:
                assert m.mat_vec(v) == 0
            assert Gf2Matrix.from_columns(basis, n_cols).rank() == len(basis)

    def test_basis_is_canonical(self):
        sizes = set()
        for m, _ in random_matrices(2026, 80):
            expected, _ = canonical_kernel_by_enumeration(m)
            assert m.kernel_basis() == expected
            sizes.add(len(expected))
        assert max(sizes) >= 5


class TestSolvePreimage:
    def test_identity(self):
        m = Gf2Matrix.from_columns([0b0001, 0b0010, 0b0100, 0b1000], 4)
        assert m.solve_preimage(0b1010) == 0b1010

    def test_zero_matrix_unsolvable(self):
        assert Gf2Matrix(3, 2, (0,) * 2).solve_preimage(0b001) is None

    def test_hollow_triangle_path_by_enumeration(self):
        m = hollow_triangle_d1()
        target = 0b011  # vertex 0 plus vertex 1
        solutions = {v for v in range(8) if m.mat_vec(v) == target}
        got = m.solve_preimage(target)
        assert got in solutions
        assert m.mat_vec(got) == target

    def test_random_solutions_verify(self):
        rng = random.Random(13)
        for _ in range(60):
            n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 10)
            m = Gf2Matrix(n_rows, n_cols, random_columns(rng, n_rows, n_cols))
            b = m.mat_vec(rng.getrandbits(n_cols))  # guaranteed solvable
            x = m.solve_preimage(b)
            assert x is not None and m.mat_vec(x) == b
            outside = rng.getrandbits(n_rows)
            x2 = m.solve_preimage(outside)
            if x2 is not None:
                assert m.mat_vec(x2) == outside

    def test_solution_is_supported_on_independent_columns(self):
        for m, rng in random_matrices(1729, 80):
            _, independent = canonical_kernel_by_enumeration(m)
            for b in (m.mat_vec(rng.getrandbits(m.n_cols)), rng.getrandbits(m.n_rows)):
                solutions = [
                    x for x in range(1 << m.n_cols) if not x & ~independent and m.mat_vec(x) == b
                ]
                assert len(solutions) <= 1
                assert m.solve_preimage(b) == (solutions[0] if solutions else None)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            Gf2Matrix.from_columns([0b01, 0b10], 2).solve_preimage(0b100)


class TestSkip:
    def test_skipping_a_dependent_column_changes_only_its_kernel_vector(self):
        skipped = 0
        for m, rng in random_matrices(31, 80):
            columns = m.columns
            full = Reduction(columns)
            targets = [m.mat_vec(rng.getrandbits(m.n_cols)) for _ in range(3)] + [rng.getrandbits(m.n_rows)]
            for vector in full.kernel:
                j = vector.bit_length() - 1
                partial = Reduction(())
                partial.extend(columns, {j})
                assert partial.n_cols == full.n_cols
                assert partial._pivots == full._pivots
                assert partial._combos == full._combos
                assert partial.kernel == [v for v in full.kernel if v != vector]
                assert [partial.solve(b) for b in targets] == [full.solve(b) for b in targets]
                skipped += 1
        assert skipped >= 100


def sparse(col):
    """A bit-vector column as the tuple of its rows from the highest down."""
    return tuple(i for i in reversed(range(col.bit_length())) if col >> i & 1)


class TestSparseColumnsAndRankOnly:
    def test_column_bits_inverts_sparse(self):
        for m, _ in random_matrices(41, 60):
            assert [column_bits(sparse(col)) for col in m.columns] == list(m.columns)
        assert column_bits(()) == 0 and column_bits(0b101) == 0b101

    def test_sparse_columns_reduce_as_their_bits(self):
        for m, rng in random_matrices(43, 80):
            targets = [m.mat_vec(rng.getrandbits(m.n_cols)) for _ in range(3)] + [rng.getrandbits(m.n_rows)]
            dense, tuples = Reduction(m.columns), Reduction([sparse(col) for col in m.columns])
            assert tuples.kernel == dense.kernel and tuples._combos == dense._combos
            assert [tuples.solve(b) for b in targets] == [dense.solve(b) for b in targets]
            assert {row: column_bits(col) for row, col in tuples._pivots.items()} == dense._pivots

    def test_rank_only_mode_keeps_the_pivots_and_no_combination(self):
        for m, _ in random_matrices(47, 80):
            tracked = Reduction(m.columns)
            for columns in (m.columns, [sparse(col) for col in m.columns]):
                rank_only = Reduction(columns, track=False)
                assert rank_only.pivot_rows == tracked.pivot_rows
                assert rank_only.nullity == len(tracked.kernel) == tracked.nullity
                assert rank_only.kernel == [] and rank_only._combos == {}
            with pytest.raises(AssertionError, match="solve needs"):
                rank_only.solve(0)

    # One storage rule for both modes: a stored vector keeps the form it
    # was made in, and reading a tuple writes nothing back.

    def test_a_tuple_pivot_stays_the_same_tuple_after_columns_and_solve_meet_it(self):
        class Met(dict):
            def get(self, key, default=None):
                if key in self:
                    rows.add(key)
                return dict.get(self, key, default)

        met = 0
        for m, rng in random_matrices(53, 80):
            columns = [sparse(col) for col in m.columns]
            half = len(columns) // 2
            reduction, rows = Reduction(columns[:half]), set()
            stored = dict(reduction._pivots)
            reduction._pivots = Met(reduction._pivots)
            reduction.extend(columns[half:])
            for _ in range(4):
                reduction.solve(m.mat_vec(rng.getrandbits(m.n_cols)))
            for row, pivot in stored.items():
                assert reduction._pivots[row] is pivot
            met += sum(type(stored[row]) is tuple for row in rows & stored.keys())
        assert met >= 50

    @staticmethod
    def check_stored_forms(m, reduction):
        """Each pivot is the column that made it, unchanged, with the
        combination ``(j,)``, or a reduced int with an int combination;
        either way the combined columns sum to the pivot."""
        untouched = 0
        for row, pivot in reduction._pivots.items():
            combo = reduction._combos[row]
            j = column_bits(combo).bit_length() - 1
            if column_bits(pivot) == m.columns[j]:
                assert combo == (j,)
                untouched += 1
            else:
                assert type(pivot) is int and type(combo) is int
            assert m.mat_vec(column_bits(combo)) == column_bits(pivot)
        return untouched

    def test_a_column_that_met_no_pivot_stores_the_combination_of_itself(self):
        untouched = 0
        for m, _ in random_matrices(59, 80):
            # A zero column meets no pivot either; its kernel vector is an int.
            m = Gf2Matrix(m.n_rows, m.n_cols + 2, (0,) + m.columns + (0,))
            dense, tuples = Reduction(m.columns), Reduction([sparse(col) for col in m.columns])
            untouched += self.check_stored_forms(m, dense)
            assert self.check_stored_forms(m, tuples) == sum(type(p) is tuple for p in tuples._pivots.values())
            bits = {row: column_bits(combo) for row, combo in tuples._combos.items()}
            assert bits == {row: column_bits(combo) for row, combo in dense._combos.items()}
            for reduction in (dense, tuples):
                assert reduction.kernel[0] == 1 and all(type(v) is int for v in reduction.kernel)
        assert untouched >= 100

    def test_mixed_columns_and_both_modes_store_alike(self):
        for m, rng in random_matrices(67, 80):
            targets = [m.mat_vec(rng.getrandbits(m.n_cols)) for _ in range(3)] + [rng.getrandbits(m.n_rows)]
            mixed = [sparse(col) if rng.random() < 0.5 else col for col in m.columns]
            dense, tracked = Reduction(m.columns), Reduction(mixed)
            assert (tracked.rank, tracked.kernel) == (dense.rank, dense.kernel)
            assert [tracked.solve(b) for b in targets] == [dense.solve(b) for b in targets]
            # The modes differ only in the combinations and kernel they keep.
            assert Reduction(mixed, track=False)._pivots == tracked._pivots


class TestMatrixBasics:
    def test_rows_validated(self):
        with pytest.raises(InputError, match="column count does not match n_cols"):
            Gf2Matrix(1, 2, (0b100,))
        with pytest.raises(InputError, match="column has bits beyond n_rows"):
            Gf2Matrix(1, 1, (0b10,))
        with pytest.raises(InputError, match="column has bits beyond n_rows"):
            Gf2Matrix.from_columns([0b01, 0b100], 2)

    def test_mat_mul_associates_with_vectors(self):
        rng = random.Random(3)
        for _ in range(25):
            a = Gf2Matrix(4, 5, random_columns(rng, 4, 5))
            b = Gf2Matrix(5, 3, random_columns(rng, 5, 3))
            v = rng.getrandbits(3)
            assert a.mat_mul(b).mat_vec(v) == a.mat_vec(b.mat_vec(v))

    def test_transpose_round_trip(self):
        m = hollow_triangle_d1()
        assert m.transpose().transpose() == m

    def test_from_columns_matches_entries(self):
        m = Gf2Matrix.from_columns([0b01, 0b10, 0b11], 2)
        assert entries(m) == [[1, 0, 1], [0, 1, 1]]

    def test_transpose_matches_entries(self):
        m = Gf2Matrix.from_columns([0b01, 0b10, 0b11], 2)
        assert entries(m.transpose()) == [[1, 0], [0, 1], [1, 1]]
        rng = random.Random(41)
        for _ in range(30):
            n_rows, n_cols = rng.randint(0, 6), rng.randint(0, 6)
            m = Gf2Matrix(n_rows, n_cols, random_columns(rng, n_rows, n_cols))
            grid = entries(m)
            assert entries(m.transpose()) == [[grid[i][j] for i in range(n_rows)] for j in range(n_cols)]

    def test_mat_mul_matches_entries(self):
        rng = random.Random(43)
        for _ in range(30):
            n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            a = Gf2Matrix(n, k, random_columns(rng, n, k))
            b = Gf2Matrix(k, m, random_columns(rng, k, m))
            ea, eb = entries(a), entries(b)
            expected = [[sum(ea[i][t] & eb[t][j] for t in range(k)) & 1 for j in range(m)] for i in range(n)]
            assert entries(a.mat_mul(b)) == expected

    def test_stack_matches_entries(self):
        top = Gf2Matrix.from_columns([0b1, 0b0], 1)
        bottom = Gf2Matrix.from_columns([0b10, 0b01], 2)
        stacked = top.stack(bottom)
        assert (stacked.n_rows, stacked.n_cols) == (3, 2)
        assert entries(stacked) == [[1, 0], [0, 1], [1, 0]]
        rng = random.Random(47)
        for _ in range(30):
            n_cols = rng.randint(0, 6)
            a_rows, b_rows = rng.randint(0, 6), rng.randint(0, 6)
            a = Gf2Matrix(a_rows, n_cols, random_columns(rng, a_rows, n_cols))
            b = Gf2Matrix(b_rows, n_cols, random_columns(rng, b_rows, n_cols))
            assert entries(a.stack(b)) == entries(a) + entries(b)
        with pytest.raises(InputError, match="column counts do not match"):
            top.stack(Gf2Matrix(1, 3, (0,) * 3))
