"""Exact linear algebra over the two-element field.

Matrices are dense with bit-packed rows: each row is a Python int whose
bit ``i`` is the entry in column ``i``.  Vectors use the same encoding.
All elimination goes through one ``Reduction``: columns are added one at
a time and reduced against pivots keyed by their highest set bit, so
each reduction step is a single XOR at word speed.  The same pass gives
the rank, a canonical kernel basis and solutions of linear systems.  All
arithmetic is exact; there are no tolerances anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError


def vector_from_bits(bits: Iterable[int]) -> int:
    """Pack an iterable of 0/1 entries into a bit-vector int."""
    v = 0
    for i, b in enumerate(bits):
        if b & 1:
            v |= 1 << i
    return v


def _low(v: int) -> int:
    """Index of the lowest set bit of a nonzero vector."""
    return (v & -v).bit_length() - 1


class Reduction:
    """Column reduction over GF(2) with pivots keyed by the highest set bit.

    Columns are appended one at a time and numbered from zero.  A column
    independent of the earlier ones is stored, reduced, as a pivot
    together with the combination of input columns it equals.  A
    dependent column yields a kernel vector: its own bit plus the
    independent earlier columns that sum to it.  Every combination is
    therefore supported on independent columns, which makes the kernel
    basis and the solutions of ``solve`` unique: they depend on the
    column order and span alone, not on the pivot key.  The highest bit
    is PHAT's convention (Bauer, Kerber, Reininghaus and Wagner, J. Symb.
    Comput. 2017).  Keyed on the lowest bit, every edge at the shared
    vertex of a wedge of spheres starts on that vertex's row and walks
    the chain of earlier pivots.
    """

    def __init__(self, columns: Iterable[int]):
        self.n_cols = 0
        self.kernel: List[int] = []
        self._pivots: Dict[int, Tuple[int, int]] = {}  # high bit -> (reduced column, combination)
        for col in columns:
            self.add(col)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_rows(self):
        """The highest set bits of the stored reduced columns, one per pivot."""
        return self._pivots.keys()

    def _reduce(self, v: int) -> Tuple[int, int]:
        """(residue, combination) with v = residue + the combined columns."""
        combo = 0
        while v:
            pivot = self._pivots.get(v.bit_length() - 1)
            if pivot is None:
                break
            v ^= pivot[0]
            combo ^= pivot[1]
        return v, combo

    def add(self, col: int) -> bool:
        """Append a column; True when it is independent of the earlier ones."""
        residue, combo = self._reduce(col)
        combo |= 1 << self.n_cols
        self.n_cols += 1
        if residue:
            self._pivots[residue.bit_length() - 1] = (residue, combo)
        else:
            self.kernel.append(combo)
        return bool(residue)

    def skip(self) -> None:
        """Number a column without reducing it.  For a column that depends
        on the earlier ones this drops only its kernel vector: the pivots,
        the other kernel vectors and ``solve`` are as if it were added."""
        self.n_cols += 1

    def solve(self, b: int) -> Optional[int]:
        """The combination of columns summing to ``b``, or None when ``b``
        is outside their span."""
        residue, combo = self._reduce(b)
        return None if residue else combo


@dataclass(frozen=True)
class Gf2Matrix:
    """Immutable matrix over GF(2) with bit-packed rows.

    Reductions never mutate; they return fresh values, and they are
    deterministic given the construction order of the rows and columns.
    """

    n_rows: int
    n_cols: int
    rows: tuple

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.rows) != self.n_rows:
            raise InputError("row count does not match n_rows")
        mask = (1 << self.n_cols) - 1
        for r in self.rows:
            if r & ~mask:
                raise InputError("row has bits beyond n_cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n_cols: Optional[int] = None) -> "Gf2Matrix":
        """Build from explicit 0/1 entries, one inner sequence per row."""
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != n_cols:
                raise InputError("ragged rows")
            packed.append(vector_from_bits(row))
        return cls(len(packed), n_cols, tuple(packed))

    @classmethod
    def zero(cls, n_rows: int, n_cols: int) -> "Gf2Matrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_columns(cls, columns: Sequence[int], n_rows: int) -> "Gf2Matrix":
        """Build from bit-vector columns (bit ``i`` of a column = row ``i``)."""
        rows = [0] * n_rows
        for j, col in enumerate(columns):
            if col >> n_rows:
                raise InputError("column has bits beyond n_rows")
            while col:
                rows[_low(col)] |= 1 << j
                col &= col - 1
        return cls(n_rows, len(columns), tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def columns(self) -> List[int]:
        return list(self.transpose().rows)

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix.from_columns(list(self.rows), self.n_cols)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def mat_vec(self, v: int) -> int:
        """Matrix-vector product; returns a bit-vector over the rows."""
        if v >> self.n_cols:
            raise InputError("vector has bits beyond n_cols")
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row & v).bit_count() & 1) << i
        return out

    def mat_mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.n_cols != other.n_rows:
            raise InputError("inner dimensions do not match")
        # (AB) rows: row i of A selects rows of B to XOR together.
        out = []
        for row in self.rows:
            acc = 0
            r = row
            while r:
                acc ^= other.rows[_low(r)]
                r &= r - 1
            out.append(acc)
        return Gf2Matrix(self.n_rows, other.n_cols, tuple(out))

    def stack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Rows of self followed by rows of other."""
        if self.n_cols != other.n_cols:
            raise InputError("column counts do not match")
        return Gf2Matrix(self.n_rows + other.n_rows, self.n_cols, self.rows + other.rows)

    def rank(self) -> int:
        # The row space and the column space have the same dimension.
        return Reduction(self.rows).rank

    def kernel_basis(self) -> List[int]:
        """Basis of {v : Mv = 0}, one vector per column that depends on
        the columns before it, in column order.

        Each vector has its highest bit on that column and its other bits
        on independent columns, so the basis is canonical for the matrix.
        """
        return Reduction(self.columns()).kernel

    def solve_preimage(self, b: int) -> Optional[int]:
        """Some x with Mx = b, or None when b is outside the column space.

        The solution is the unique one supported on independent columns.
        It is re-checked by multiplying back before it is returned.
        """
        if b >> self.n_rows:
            raise InputError("right-hand side has bits beyond n_rows")
        x = Reduction(self.columns()).solve(b)
        if x is not None and self.mat_vec(x) != b:
            raise AssertionError("back-substitution check failed")
        return x
