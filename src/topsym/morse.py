"""Discrete Morse theory relative to a marked exit subcomplex.

Cells of the exit subcomplex are excluded from matching and from
criticality, so the Morse chain complex computes the homology of the
pair directly.  Matchings come from greedy coreduction: repeatedly pair
a cell with its unique remaining facet, and when no such pair exists
retire the first remaining cell (lowest dimension first) as critical.
The resulting matching is re-verified from scratch before use.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .complexes import BettiTable, ComplexPair, Simplex, facets
from .errors import InputError, MatchingError
from .gf2 import Gf2Matrix


@dataclass(frozen=True)
class AcyclicMatching:
    """A discrete gradient on the non-exit cells of a pair."""

    pair: ComplexPair
    matched: frozenset  # pairs (facet, cofacet)
    critical: tuple  # unmatched non-exit cells, sorted

    def __post_init__(self):
        cells = set()
        for k in range(self.pair.ambient.dim + 1):
            cells.update(self.pair.cells(k))
        used = set()
        for low, high in self.matched:
            if low in self.pair.sub.faces or high in self.pair.sub.faces:
                raise MatchingError("matched pair touches the exit subcomplex")
            if low not in cells or high not in cells:
                raise MatchingError("matched pair uses unknown cells")
            if low not in facets(high):
                raise MatchingError("%r is not a facet of %r" % (low, high))
            if low in used or high in used:
                raise MatchingError("cell matched twice")
            used.update((low, high))
        expected_critical = tuple(sorted(cells - used, key=lambda s: (len(s), s)))
        if tuple(self.critical) != expected_critical:
            raise MatchingError("critical cells do not match the unmatched cells")
        if _has_cycle(self):
            raise MatchingError("reversed Hasse digraph has a cycle")

    def matched_up(self) -> Dict[Simplex, Simplex]:
        """Facet -> cofacet direction of the matching."""
        return {low: high for low, high in self.matched}

    def critical_by_degree(self) -> Dict[int, Tuple[Simplex, ...]]:
        out: Dict[int, List[Simplex]] = {}
        for c in self.critical:
            out.setdefault(len(c) - 1, []).append(c)
        return {k: tuple(v) for k, v in out.items()}


def _has_cycle(matching: AcyclicMatching) -> bool:
    """Cycle search in the V-path digraph on matched facets.

    An arc runs from facet a to facet b when a is matched up with some
    cofacet of which b is a different facet and b is matched up too;
    acyclicity of the reversed Hasse diagram is equivalent to this
    digraph being acyclic degree by degree.
    """
    up = matching.matched_up()
    sub = matching.pair.sub.faces
    arcs: Dict[Simplex, List[Simplex]] = {}
    for low, high in up.items():
        arcs[low] = [f for f in facets(high) if f != low and f not in sub and f in up]
    # Peel facets without incoming arcs; only a cycle survives peeling.
    incoming = Counter(f for targets in arcs.values() for f in targets)
    ready = [f for f in arcs if not incoming[f]]
    peeled = 0
    while ready:
        peeled += 1
        for nxt in arcs[ready.pop()]:
            incoming[nxt] -= 1
            if not incoming[nxt]:
                ready.append(nxt)
    return peeled < len(arcs)


def _cells_in_order(pair: ComplexPair, seed_order) -> List[Simplex]:
    cells: List[Simplex] = []
    for k in range(pair.ambient.dim + 1):
        cells.extend(pair.cells(k))
    cells.sort(key=lambda s: (len(s), s))
    if seed_order is None:
        return cells
    if isinstance(seed_order, int):
        rng = random.Random(seed_order)
        rng.shuffle(cells)
        return cells
    explicit = list(seed_order)
    if sorted(explicit, key=lambda s: (len(s), s)) != cells:
        raise InputError("explicit order is not a permutation of the non-exit cells")
    return explicit


def build_matching(pair: ComplexPair, seed_order=None) -> AcyclicMatching:
    """Greedy coreduction matching in the given cell order.

    ``seed_order`` may be None (sorted by dimension then lexicographic),
    an int (seeded shuffle), or an explicit cell sequence.  The returned
    matching is validated against all invariants before use.
    """
    order = _cells_in_order(pair, seed_order)
    sub = pair.sub.faces
    alive = set(order)
    facet_count: Dict[Simplex, int] = {}
    for c in order:
        facet_count[c] = sum(1 for f in facets(c) if f and f not in sub)
    cofacets: Dict[Simplex, List[Simplex]] = {c: [] for c in order}
    for c in order:
        for f in facets(c):
            if f and f not in sub:
                cofacets[f].append(c)

    matched: List[Tuple[Simplex, Simplex]] = []
    critical: List[Simplex] = []
    queue = deque(c for c in order if facet_count[c] == 1)

    def retire(cell: Simplex):
        alive.discard(cell)
        for up in cofacets[cell]:
            if up in alive:
                facet_count[up] -= 1
                if facet_count[up] == 1:
                    queue.append(up)

    # Critical candidates by dimension, then by position in ``order``
    # (the sort is stable).  Retired cells never revive, so one pointer
    # walks this list once.
    by_rank = sorted(order, key=len)
    next_critical = 0
    while alive:
        while queue:
            high = queue.popleft()
            if high not in alive or facet_count[high] != 1:
                continue
            low = next(f for f in facets(high) if f and f not in sub and f in alive)
            matched.append((low, high))
            alive.discard(high)
            retire(low)
            retire(high)
        if not alive:
            break
        # No free pair: retire the earliest remaining cell of lowest
        # dimension as critical; this unlocks its cofacets.
        while by_rank[next_critical] not in alive:
            next_critical += 1
        cell = by_rank[next_critical]
        critical.append(cell)
        retire(cell)

    return AcyclicMatching(
        pair,
        frozenset(matched),
        tuple(sorted(critical, key=lambda s: (len(s), s))),
    )


@dataclass(frozen=True)
class MorseComplexData:
    """Critical cells per degree with GF(2) gradient-path boundary maps."""

    critical: Dict[int, Tuple[Simplex, ...]]
    boundaries: Dict[int, Gf2Matrix]  # degree k -> map into degree k-1

    def betti(self) -> BettiTable:
        dims: Dict[int, int] = {}
        degrees = sorted(self.critical)
        for k in degrees:
            mat = self.boundaries[k]
            nxt = self.boundaries.get(k + 1)
            dims[k] = (mat.n_cols - mat.rank()) - (nxt.rank() if nxt is not None else 0)
        return BettiTable.from_dict("relative", dims)

    def counts(self) -> Dict[int, int]:
        return {k: len(v) for k, v in self.critical.items()}


def morse_complex(matching: AcyclicMatching) -> MorseComplexData:
    """Boundary maps counting alternating gradient paths modulo 2.

    For each critical cell the flow of every facet is accumulated; the
    flow of a facet is its own class when critical, zero when it is
    matched downward, and the combined flow of the sibling facets of its
    matched cofacet otherwise.  Acyclicity makes the memoized traversal
    finite; a cycle found here means the matching data is corrupt.
    """
    pair = matching.pair
    up = matching.matched_up()
    sub = pair.sub.faces
    by_degree = matching.critical_by_degree()
    max_dim = pair.ambient.dim

    index: Dict[int, Dict[Simplex, int]] = {
        k: {c: i for i, c in enumerate(by_degree.get(k, ()))} for k in range(max_dim + 1)
    }
    flow_memo: Dict[Simplex, int] = {}
    # A cell whose sibling flows were requested once and are still
    # missing when it is met again lies on a gradient path cycle.
    expanded = set()

    def flow(cell: Simplex) -> int:
        """Bit-vector over critical cells of the same degree."""
        pending = [cell]
        while pending:
            top = pending[-1]
            if top in flow_memo:
                pending.pop()
                continue
            k = len(top) - 1
            if top in index[k]:
                result = 1 << index[k][top]
            elif top in up:
                siblings = [f for f in facets(up[top]) if f != top and f and f not in sub]
                missing = [f for f in siblings if f not in flow_memo]
                if missing:
                    if top in expanded:
                        raise MatchingError("gradient path cycle through %r" % (top,))
                    expanded.add(top)
                    pending.extend(missing)
                    continue
                result = 0
                for f in siblings:
                    result ^= flow_memo[f]
            else:
                # Matched downward: paths entering here die.
                result = 0
            flow_memo[top] = result
            pending.pop()
        return flow_memo[cell]

    boundaries: Dict[int, Gf2Matrix] = {}
    for k in range(max_dim + 1):
        cols = []
        for cell in by_degree.get(k, ()):
            acc = 0
            for f in facets(cell):
                if f and f not in sub:
                    acc ^= flow(f)
            cols.append(acc)
        n_rows = len(by_degree.get(k - 1, ()))
        boundaries[k] = Gf2Matrix.from_columns(cols, n_rows)
    for k in range(1, max_dim + 1):
        if not boundaries[k - 1].mat_mul(boundaries[k]).is_zero():
            raise MatchingError("Morse boundary composition is nonzero in degree %d" % k)
    crit = {k: by_degree.get(k, ()) for k in range(max_dim + 1)}
    return MorseComplexData(crit, boundaries)


def morse_betti(matching: AcyclicMatching) -> BettiTable:
    """Betti table of the Morse complex; must agree with the pair's table."""
    return morse_complex(matching).betti()
