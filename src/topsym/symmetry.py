"""Symmetry verdicts on dimension tables, and the full analysis pipeline.

A table is symmetric when some integer shift makes it palindromic.  For
a nonempty integer-graded table the only possible shift is the sum of
the smallest and largest supported degrees, so the verdict carries
either that shift or a concrete counterexample degree.  Cyclically
graded tables are scanned over all residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .complexes import BettiTable, betti
from .errors import InputError, PseudomanifoldError
from .exactness import DualityReport, lefschetz_duality_check
from .spaces import BoundarySplit


@dataclass(frozen=True)
class Witness:
    """A degree at which the palindrome test fails, with both values."""

    shift: int
    degree: int
    dim_at_degree: int
    dim_at_mirror: int


@dataclass(frozen=True)
class SymmetryVerdict:
    shifts: Tuple[int, ...]
    witness: Optional[Witness] = None

    @property
    def symmetric(self) -> bool:
        return bool(self.shifts)


def check_symmetry(table: BettiTable) -> SymmetryVerdict:
    """Palindrome verdict for an integer-graded table.

    Empty tables are vacuously symmetric with canonical shift 0;
    otherwise the unique candidate shift is min + max of the support.
    """
    dims = table.as_dict()
    if not dims:
        return SymmetryVerdict((0,))
    lo, hi = min(dims), max(dims)
    candidate = lo + hi
    for k in range(lo, hi + 1):
        left, right = dims.get(k, 0), dims.get(candidate - k, 0)
        if left != right:
            return SymmetryVerdict((), Witness(candidate, k, left, right))
    return SymmetryVerdict((candidate,))


@dataclass(frozen=True)
class RolledTable:
    """Dimensions summed over residue classes, one entry per residue."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 2 or len(self.entries) % 2:
            raise InputError("modulus must be a positive even number")
        if any(e < 0 for e in self.entries):
            raise InputError("entries must be nonnegative")

    @property
    def modulus(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        return sum(self.entries)


MAX_MIN_CHERN = 1000  # the cyclic verdict makes up to (2N)^2 comparisons


def roll_up(table: BettiTable, min_chern: int) -> RolledTable:
    """Sum table dimensions over residues modulo twice ``min_chern``."""
    if min_chern < 1:
        raise InputError("minimal Chern number must be at least 1")
    if min_chern > MAX_MIN_CHERN:
        raise InputError("minimal Chern number must be at most %d" % MAX_MIN_CHERN)
    modulus = 2 * min_chern
    entries = [0] * modulus
    for k, d in table.entries:
        entries[k % modulus] += d
    return RolledTable(tuple(entries))


def check_symmetry_rolled(rolled: RolledTable) -> SymmetryVerdict:
    """Cyclic palindrome verdict; every residue is a candidate shift.

    Shift m holds when the entries equal their reverse rotated to start
    at M - 1 - m, one tuple comparison, tried only if e[m] = e[0].  With
    no shift, the witness is shift 0's first failing residue.
    """
    e, last, back = rolled.entries, rolled.modulus - 1, rolled.entries[::-1]
    shifts = tuple(m for m in range(last + 1) if e[m] == e[0] and e == back[last - m :] + back[: last - m])
    if shifts:
        return SymmetryVerdict(shifts)
    k = next(k for k in range(last + 1) if e[k] != e[-k])
    return SymmetryVerdict((), Witness(0, k, e[k], e[-k]))


@dataclass(frozen=True)
class ActionReport:
    """Everything the analysis pipeline establishes about one split."""

    name: str
    positive_table: BettiTable
    negative_table: BettiTable
    positive_verdict: SymmetryVerdict
    negative_verdict: SymmetryVerdict
    duality: Optional[DualityReport]  # None when the domain fails the pseudomanifold check
    rolled: Optional[Tuple[RolledTable, SymmetryVerdict]]  # positive table rolled when asked

    @property
    def duality_status(self) -> str:
        if self.duality is None:
            return "skipped"
        return "pass" if self.duality.passed else "fail"


def analyze_action(split: BoundarySplit, min_chern: Optional[int] = None, name: str = "") -> ActionReport:
    """Compute both relative tables, verdicts and duality.

    ``min_chern`` switches on the cyclically rolled positive verdict as well.
    Duality is only asserted when the domain passes the full
    pseudomanifold check; otherwise it is reported as skipped.  The
    factor-two identity holds by the double's construction once the
    interface is induced, which ``split.double`` checks last, so nothing
    of the double is built or reduced here (``verify`` reduces it).
    """
    positive_table = betti(split.positive_pair())
    rolled = None
    if min_chern is not None:
        positive_rolled = roll_up(positive_table, min_chern)
        rolled = (positive_rolled, check_symmetry_rolled(positive_rolled))
    negative_table = betti(split.negative_pair())
    try:
        duality = lefschetz_duality_check(split)
    except PseudomanifoldError:
        duality = None
    split.double  # the induced-interface check: only the labelings are made
    return ActionReport(
        name=name,
        positive_table=positive_table,
        negative_table=negative_table,
        positive_verdict=check_symmetry(positive_table),
        negative_verdict=check_symmetry(negative_table),
        duality=duality,
        rolled=rolled,
    )
