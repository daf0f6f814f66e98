"""The chain tables of a truncated double's total and copy B, derived
from their domain's.

The total is two copies of the domain glued along an induced interface
(``spaces.truncated_double``).  Copy A labels its own vertices below
``n_own`` and the shared ones from there, each run in the domain's
order; copy B gives the shared ones the same labels and its own ones the
labels above.  So each degree of the total is copy A's cells that hold
an own vertex, then all of copy B's, each part sorted.  Within either
copy the cells with only own vertices keep the domain's order, as do
those with only shared vertices, which belong to copy B and come first
there; only the cells with both kinds of vertex are placed by search,
and only they can have their vertices reordered by a labeling.  Copy B
alone is the second part of that layout.

A cell's facet rows are its domain cell's, mapped to positions in the
total.  Where a labeling reorders the cell's vertices, facet i of the
image is the image of the domain facet that drops the vertex the sorted
image holds at i.  ``SimplicialComplex._chain_table`` checks the d o d
identities on the derived rows as on built ones, so the derived table
equals the built one or the request fails.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

from .complexes import EMPTY_SIMPLEX, Simplex, SimplicialComplex


def _relabeled_cells(groups: List[Tuple[Simplex, ...]], label: Dict[int, int]) -> List[list]:
    """Each degree's cells relabeled, in the order of ``groups``, with
    their vertices sorted; a labeling that keeps the order of the
    vertices sorts nothing."""
    keys = sorted(label)
    values = list(map(label.__getitem__, keys))
    if values == keys:
        return list(groups)
    relabeled = (map(map, itertools.repeat(label.__getitem__), group) for group in groups)
    if values == sorted(values):
        return [list(map(tuple, map(list, group))) for group in relabeled]  # tuple() of a map overallocates
    return [list(map(tuple, map(sorted, group))) for group in relabeled]


def _double_chain_table(domain: SimplicialComplex, labels, images, n_own: int, copy_b_only: bool, complex_):
    """The cells and facet rows of the total, or of copy B alone, from the
    domain's, the copies' labelings and the images of the domain's cells
    (``_relabeled_cells``); the cells also seed the complex's
    ``_by_degree``.  Copy B alone is laid out as in the total with copy
    A's part left empty."""
    domain_cells, domain_rows, _ = domain._chain_table
    has_shared = n_own < len(domain.simplices(0))
    cells = {-1: (EMPTY_SIMPLEX,)}
    # Degree -> per copy: the domain positions of the copy's cells in the
    # total's order, each domain cell's position in the total, and each
    # cell whose vertices the labeling reorders, with its unsorted image.
    layout = {-1: (((), [0], ()), (range(1), [0], ()))}
    for k in range(domain.dim + 1):
        group, images_a, images_b = domain_cells[k], images[0][k], images[1][k]
        order_a = order_b = range(len(group))
        moved = ((), ())
        if has_shared:
            own, shared, mixed = [], [], []
            for c, image in enumerate(images_a):
                (own if image[-1] < n_own else shared if image[0] >= n_own else mixed).append(c)
            order_a, order_b = own, shared + own
            for c in mixed:
                bisect.insort(order_a, c, key=images_a.__getitem__)
                bisect.insort(order_b, c, key=images_b.__getitem__)
            moved = tuple(
                [(c, u) for c in mixed if (u := tuple(map(label.__getitem__, group[c]))) != image[c]]
                for label, image in zip(labels, (images_a, images_b))
            )
        if copy_b_only:
            order_a, moved = (), ((), moved[1])
        cells[k] = (*map(images_a.__getitem__, order_a), *map(images_b.__getitem__, order_b))
        positions_b = _positions(order_b, len(order_a), len(group))
        positions_a = _positions(order_a, 0, len(group), positions_b)
        layout[k] = ((order_a, positions_a, moved[0]), (order_b, positions_b, moved[1]))
    rows = {k: _double_rows(domain_rows[k], layout[k], layout[k - 1]) for k in range(domain.dim, -1, -1)}
    complex_.__dict__.setdefault("_by_degree", {k: cells[k] for k in range(domain.dim + 1)})
    return cells, rows


def _double_rows(domain_rows: List[List[int]], layout, layout_below) -> List[List[int]]:
    """The facet rows of one degree of the total: each copy's part of a
    domain row, read at the copy's cells in the total's order and mapped
    to positions one degree down, with the reordered cells' facets
    permuted."""
    parts = [(order, positions, moved, below) for (order, positions, moved), (_, below, _) in zip(layout, layout_below)]
    rows = [
        list(itertools.chain.from_iterable(
            map(below.__getitem__, row) if type(order) is range else [below[row[c]] for c in order]
            for order, _, _, below in parts
        ))
        for row in domain_rows
    ]
    for _, positions, moved, below in parts:
        for c, unsorted in moved:
            for i, j in enumerate(sorted(range(len(domain_rows)), key=unsorted.__getitem__)):
                rows[i][positions[c]] = below[domain_rows[j][c]]
    return rows


def _positions(order, start: int, n: int, others: Optional[List[int]] = None) -> List[int]:
    """Each of n domain cells' position in the total: start + t for the
    t-th cell of ``order``, its entry in ``others`` for any other cell."""
    if type(order) is range:  # every cell, in the domain's order
        return list(range(start, start + n))
    positions = [0] * n if others is None else list(others)
    for t, c in enumerate(order, start):
        positions[c] = t
    return positions
