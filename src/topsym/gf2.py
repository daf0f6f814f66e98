"""Exact linear algebra over the two-element field.

Matrices are dense with bit-packed columns: each column is a Python int
whose bit ``i`` is the entry in row ``i``.  Vectors use the same encoding.
All elimination goes through one ``Reduction``: columns are added in
batches and reduced against pivots keyed by their highest row, so each
reduction step is a single XOR at word speed.  A batch may also hand in
a column as the tuple of its nonzero rows, the sparse form of a boundary
column (Bauer, Kerber, Reininghaus and Wagner, J. Symb. Comput. 2017).
Every stored vector stays in the form it was made in: a column that
meets no pivot is stored as it was handed in, and its combination as
``(j,)``.  A tuple becomes an int where it is read, and nothing is
written back.  The same pass gives the rank, and when it tracks
combinations, a canonical kernel basis and solutions of linear systems.
All arithmetic is exact; there are no tolerances anywhere in this
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InputError

# A column as a bit vector, or as the tuple of its nonzero rows from the
# highest down, the form in which a chain table hands out boundaries.
Column = Union[int, Tuple[int, ...]]


def column_bits(col: Column) -> int:
    """The bit vector of a column.  A tuple's bits are set relative to its
    lowest row and shifted into place once, so only the last step builds
    an int as long as the column."""
    if type(col) is int:
        return col
    if not col:
        return 0
    low, bits = col[-1], 0
    for row in col:
        bits |= 1 << (row - low)
    return bits << low


class Reduction:
    """Column reduction over GF(2) with pivots keyed by the highest row.

    Columns are appended in batches and numbered from zero.  A column
    independent of the earlier ones is stored, reduced, as a pivot.  A
    dependent column adds one to the nullity.  With ``track`` the pass
    also keeps, for each pivot, the combination of input columns it
    equals, and for each dependent column a kernel vector: its own bit
    plus the independent earlier columns that sum to it.  Every
    combination is therefore supported on independent columns, which
    makes the kernel basis and the solutions of ``solve`` unique: they
    depend on the column order and span alone, not on the pivot key.
    Without ``track`` the pass is the same, pivot step for pivot step,
    and keeps no combination: the rank-only mode.  In both modes a
    pivot that met no earlier pivot is stored as it was handed in, and
    its combination as ``(j,)`` for column j; nothing read is written
    back, so a tuple stays a tuple.

    The highest row is PHAT's convention (Bauer, Kerber, Reininghaus and
    Wagner, J. Symb. Comput. 2017).  Keyed on the lowest row, every edge
    at the shared vertex of a wedge of spheres starts on that vertex's
    row and walks the chain of earlier pivots.
    """

    def __init__(self, columns: Sequence[Column] = (), track: bool = True):
        self.n_cols = 0
        self.nullity = 0
        self.kernel: List[int] = []  # kept with ``track`` only
        self._track = track
        self._pivots: Dict[int, Column] = {}  # highest row -> reduced column
        self._combos: Dict[int, Column] = {}  # highest row -> combination, with ``track``
        self.extend(columns)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_rows(self):
        """The highest rows of the stored reduced columns, one per pivot."""
        return self._pivots.keys()

    def _reduce(self, v: int, combo: int) -> Tuple[int, int]:
        """(residue, combination) with v = residue + the combined columns,
        given the combination ``v`` already stands for."""
        pivots, combos, track = self._pivots, self._combos, self._track
        while v:
            low = v.bit_length() - 1
            pivot = pivots.get(low)
            if pivot is None:
                break
            v ^= pivot if type(pivot) is int else column_bits(pivot)
            if track:
                part = combos[low]
                combo ^= part if type(part) is int else column_bits(part)
        return v, combo

    def extend(self, columns: Sequence[Column], cleared=()) -> None:
        """Append columns, numbered on from ``n_cols``.

        Each column is an int or a tuple of rows from the highest down.  A
        column whose number is in ``cleared`` is numbered but not
        reduced.  For a column that depends on the earlier ones this drops
        only its kernel vector: the pivots, the other kernel vectors and
        ``solve`` are as if it were added.
        """
        pivots, combos, kernel, track = self._pivots, self._combos, self.kernel, self._track
        start, nullity = self.n_cols, self.nullity
        for j, col in enumerate(columns, start):
            if j in cleared:
                continue
            if type(col) is int:
                low = col.bit_length() - 1
            else:
                low = col[0] if col else -1
            if low in pivots:
                col, combo = self._reduce(column_bits(col), 1 << j if track else 0)
                low = col.bit_length() - 1
            elif track:
                combo = (j,)
            if low < 0:
                nullity += 1
                if track:
                    kernel.append(column_bits(combo))
            else:
                pivots[low] = col
                if track:
                    combos[low] = combo
        self.n_cols, self.nullity = start + len(columns), nullity

    def solve(self, b: int) -> Optional[int]:
        """The combination of columns summing to ``b``, or None when ``b``
        is outside their span.  Needs ``track``."""
        if not self._track:
            raise AssertionError("solve needs the combinations of a tracked reduction")
        residue, combo = self._reduce(b, 0)
        return None if residue else combo


@dataclass(frozen=True)
class Gf2Matrix:
    """Immutable matrix over GF(2) with bit-packed columns.

    Column j is an int whose bit i is the entry in row i, the form in
    which boundary maps and homology maps are built, and the form
    ``Reduction`` reduces.  Reductions never mutate; they return fresh
    values, and they are deterministic given the order of the columns.
    """

    n_rows: int
    n_cols: int
    columns: tuple

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.columns) != self.n_cols:
            raise InputError("column count does not match n_cols")
        if any(col >> self.n_rows for col in self.columns):
            raise InputError("column has bits beyond n_rows")

    @classmethod
    def from_columns(cls, columns: Sequence[int], n_rows: int) -> "Gf2Matrix":
        """Build from bit-vector columns (bit ``i`` of a column = row ``i``)."""
        return cls(n_rows, len(columns), tuple(columns))

    def transpose(self) -> "Gf2Matrix":
        rows = [0] * self.n_rows
        for j, col in enumerate(self.columns):
            while col:
                rows[(col & -col).bit_length() - 1] |= 1 << j
                col &= col - 1
        return Gf2Matrix(self.n_cols, self.n_rows, tuple(rows))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def mat_vec(self, v: int) -> int:
        """Matrix-vector product: the XOR of the columns at the set bits of ``v``."""
        if v >> self.n_cols:
            raise InputError("vector has bits beyond n_cols")
        out = 0
        while v:
            out ^= self.columns[(v & -v).bit_length() - 1]
            v &= v - 1
        return out

    def mat_mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.n_cols != other.n_rows:
            raise InputError("inner dimensions do not match")
        return Gf2Matrix(self.n_rows, other.n_cols, tuple(map(self.mat_vec, other.columns)))

    def stack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Rows of self followed by rows of other."""
        if self.n_cols != other.n_cols:
            raise InputError("column counts do not match")
        columns = (top | bottom << self.n_rows for top, bottom in zip(self.columns, other.columns))
        return Gf2Matrix(self.n_rows + other.n_rows, self.n_cols, tuple(columns))

    def rank(self) -> int:
        return Reduction(self.columns, track=False).rank

    def kernel_basis(self) -> List[int]:
        """Basis of {v : Mv = 0}, one vector per column that depends on
        the columns before it, in column order.

        Each vector has its highest bit on that column and its other bits
        on independent columns, so the basis is canonical for the matrix.
        """
        return Reduction(self.columns).kernel

    def solve_preimage(self, b: int) -> Optional[int]:
        """Some x with Mx = b, or None when b is outside the column space.

        The solution is the unique one supported on independent columns.
        It is re-checked by multiplying back before it is returned.
        """
        if b >> self.n_rows:
            raise InputError("right-hand side has bits beyond n_rows")
        x = Reduction(self.columns).solve(b)
        if x is not None and self.mat_vec(x) != b:
            raise AssertionError("back-substitution check failed")
        return x
