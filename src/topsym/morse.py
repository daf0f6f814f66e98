"""Discrete Morse theory relative to a marked exit subcomplex.

Cells of the exit subcomplex are excluded from matching and from
criticality, so the Morse chain complex computes the homology of the
pair directly.  Matchings come from greedy coreduction (Mischaikow and
Nanda, Discrete Comput. Geom. 2013): repeatedly pair a cell with its
unique remaining facet, and when no such pair exists retire the first
remaining cell (lowest dimension first) as critical.  The resulting
matching is re-verified from scratch before use.

The coreduction, the validation and the gradient flow read one numbered
Hasse diagram per pair, built on first use and kept with the pair
(``ComplexPair._hasse``): the non-exit cells sorted by dimension, then
labels, and each cell's non-exit facets as cell numbers.  All three
work on those numbers; simplices come back only in ``matched`` and
``critical``.  The diagram is built from the pair's cells by its own
``combinations`` pass over each degree, never from ``_faces_of`` or the
chain table behind ``betti``, so that Morse homology stays an
independent check of the rank pass.

A matching is numbered and its V-path digraph peeled once, when it is
made (``AcyclicMatching._gradient``).  The peeling order proves it
acyclic and also orders the gradient flow: walked in reverse, each
matched facet's flow is a sum of flows already known.
"""

from __future__ import annotations

import operator
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import BettiTable, ComplexPair, Simplex
from .errors import InputError, MatchingError
from .gf2 import Gf2Matrix


@dataclass(frozen=True)
class AcyclicMatching:
    """A discrete gradient on the non-exit cells of a pair, validated as it
    is numbered into the gradient the flow reads (``_gradient``)."""

    pair: ComplexPair
    matched: frozenset  # pairs (facet, cofacet)

    def __post_init__(self):
        self._gradient

    @cached_property
    def _gradient(self) -> Tuple[Dict[int, int], List[int], List[int]]:
        """The matched pairs as cell numbers, each facet to its cofacet;
        the matched facets in V-path order; and the critical cells, the
        unmatched ones, as ascending numbers."""
        cells, index, down = self.pair._hasse
        up: Dict[int, int] = {}
        used = bytearray(len(cells))
        for low, high in self.matched:
            facet, cofacet = index.get(low), index.get(high)
            if facet is None or cofacet is None:  # an exit cell, or no cell at all
                sub = self.pair.sub.faces
                if low in sub or high in sub:
                    raise MatchingError("matched pair touches the exit subcomplex")
                raise MatchingError("matched pair uses unknown cells")
            if facet not in down[cofacet]:
                raise MatchingError("%r is not a facet of %r" % (low, high))
            if used[facet] or used[cofacet]:
                raise MatchingError("cell matched twice")
            used[facet] = used[cofacet] = 1
            up[facet] = cofacet
        order = _v_path_order(down, up)
        if order is None:
            raise MatchingError("gradient path cycle among the matched cells: the reversed Hasse digraph has a cycle")
        return up, order, list(compress(range(len(cells)), map(operator.not_, used)))

    @cached_property
    def critical(self) -> Tuple[Simplex, ...]:
        """The unmatched non-exit cells, sorted by dimension, then labels."""
        return tuple(map(self.pair._hasse[0].__getitem__, self._gradient[2]))


def _v_path_order(down: List[Tuple[int, ...]], up: Dict[int, int]) -> Optional[List[int]]:
    """The matched facets of the V-path digraph in peeling order, or None
    when the digraph has a cycle.

    ``down`` holds each cell's facets and ``up`` maps each matched facet
    to its cofacet, all as cell numbers.  An arc runs from facet a to
    facet b when a is matched up with some cofacet of which b is a
    different facet and b is matched up too; acyclicity of the reversed
    Hasse diagram is equivalent to this digraph being acyclic degree by
    degree.  Each facet comes before every facet its arcs reach (Kahn).
    """
    # Each matched facet is counted once as a facet of its own cofacet,
    # on top of its incoming arcs, so it is ready at a count of one and
    # peeling it takes that count to zero.  Only a cycle survives peeling.
    counts = dict.fromkeys(up, 0)
    for high in up.values():
        for f in down[high]:
            if f in counts:
                counts[f] += 1
    ready = [f for f in up if counts[f] == 1]
    order = []
    while ready:
        low = ready.pop()
        order.append(low)
        for nxt in down[up[low]]:
            if nxt in counts:
                n = counts[nxt] - 1
                counts[nxt] = n
                if n == 1:
                    ready.append(nxt)
    return order if len(order) == len(up) else None


def _order(pair: ComplexPair, seed_order) -> Sequence[int]:
    """The cell numbers in the order the coreduction visits them."""
    cells, index, _ = pair._hasse
    order = range(len(cells))
    if isinstance(seed_order, int):
        order = list(order)
        random.Random(seed_order).shuffle(order)
    elif seed_order is not None:
        explicit = [index.get(c, -1) for c in seed_order]
        if sorted(explicit) != list(order):
            raise InputError("explicit order is not a permutation of the non-exit cells")
        order = explicit
    return order


def build_matching(pair: ComplexPair, seed_order=None) -> AcyclicMatching:
    """Greedy coreduction matching in the given cell order.

    ``seed_order`` may be None (sorted by dimension then lexicographic),
    an int (seeded shuffle), or an explicit cell sequence.  The returned
    matching is validated against all invariants before use.
    """
    cells, _, down = pair._hasse
    order = _order(pair, seed_order)
    # Each cell's count of facets not yet retired.  A retired cell's
    # count is set to -1 and only falls from there, so it never reads one
    # again: the count alone tells which cells are retired.
    facet_count = list(map(len, down))
    cofacets: List[List[int]] = [[] for _ in cells]
    for c in order:
        for f in down[c]:
            cofacets[f].append(c)

    lows, highs = [], []  # the facet and the cofacet of each matched pair
    queue = deque(c for c in order if facet_count[c] == 1)
    # Critical candidates by dimension, then by position in ``order``
    # (the sort is stable; the diagram's own order is sorted already).
    # Retired cells never revive, so one iterator walks this list once.
    candidates = iter(order if seed_order is None else sorted(order, key=list(map(len, cells)).__getitem__))
    while True:
        if queue:
            high = queue.popleft()
            if facet_count[high] != 1:
                continue
            for low in down[high]:
                if facet_count[low] >= 0:
                    break
            lows.append(low)
            highs.append(high)
            facet_count[low] = facet_count[high] = -1
            retired = cofacets[low] + cofacets[high]
        else:
            # No free pair: retire the earliest remaining cell of lowest
            # dimension as critical; this unlocks its cofacets.
            for cell in candidates:
                if facet_count[cell] >= 0:
                    break
            else:
                break
            facet_count[cell] = -1
            retired = cofacets[cell]
        for up in retired:
            n = facet_count[up] - 1
            facet_count[up] = n
            if n == 1:
                queue.append(up)

    return AcyclicMatching(pair, frozenset(zip(map(cells.__getitem__, lows), map(cells.__getitem__, highs))))


@dataclass(frozen=True)
class MorseComplexData:
    """Critical cells per degree with GF(2) gradient-path boundary maps."""

    critical: Dict[int, Tuple[Simplex, ...]]
    boundaries: Dict[int, Gf2Matrix]  # degree k -> map into degree k-1

    def betti(self) -> BettiTable:
        ranks = {k: mat.rank() for k, mat in self.boundaries.items()}
        dims = {k: self.boundaries[k].n_cols - ranks[k] - ranks.get(k + 1, 0) for k in self.critical}
        return BettiTable.from_dict(dims)

    def counts(self) -> Dict[int, int]:
        return {k: len(v) for k, v in self.critical.items()}


def morse_complex(matching: AcyclicMatching) -> MorseComplexData:
    """Boundary maps counting alternating gradient paths modulo 2, read
    from the matching's validated gradient.

    For each critical cell the flow of every facet is accumulated; the
    flow of a facet is its own class when critical, zero when it is
    matched downward, and the combined flow of the sibling facets of its
    matched cofacet otherwise.  The flows of matched-up facets are
    filled in reverse V-path order, so every sibling's flow is final
    when it is read.
    """
    cells, _, down = matching.pair._hasse
    up, order, critical = matching._gradient
    max_dim = matching.pair.ambient.dim

    # Flow of each cell: a bit-vector over the critical cells of its
    # degree.  A matched-up facet's own flow is still 0 when its
    # cofacet's facets are summed.
    flow = [0] * len(cells)
    by_degree: Dict[int, List[int]] = {k: [] for k in range(max_dim + 1)}
    for c in critical:
        group = by_degree[len(cells[c]) - 1]
        flow[c] = 1 << len(group)
        group.append(c)
    for low in reversed(order):
        acc = 0
        for f in down[up[low]]:
            acc ^= flow[f]
        flow[low] = acc

    boundaries: Dict[int, Gf2Matrix] = {}
    for k, group in by_degree.items():
        cols = []
        for c in group:
            acc = 0
            for f in down[c]:
                acc ^= flow[f]
            cols.append(acc)
        n_rows = len(by_degree.get(k - 1, ()))
        boundaries[k] = Gf2Matrix.from_columns(cols, n_rows)
    for k in range(1, max_dim + 1):
        if not boundaries[k - 1].mat_mul(boundaries[k]).is_zero():
            raise MatchingError("Morse boundary composition is nonzero in degree %d" % k)
    crit = {k: tuple(map(cells.__getitem__, group)) for k, group in by_degree.items()}
    return MorseComplexData(crit, boundaries)


def morse_betti(matching: AcyclicMatching) -> BettiTable:
    """Betti table of the Morse complex; must agree with the pair's table."""
    return morse_complex(matching).betti()
