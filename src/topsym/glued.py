"""The truncated double of a boundary split, and the chain table of its
total, derived from its domain's.

The double glues two copies of the domain along the interface, in the
integer labels 0..n-1: copy A's own vertices first (below ``n_own``),
then the interface vertices both copies share, then copy B's own ones,
each run in the order of the domain's labels.  Each copy is the domain
relabeled.  The double decides once per labeling whether it is the
identity and whether it reorders any two vertices (``_kind``), and
every part reads that decision: ``_relabeled_cells`` maps the vertices
of every cell and sorts those of a cell the labeling reorders.
Neither labeling reorders exactly when the interface is empty, as copy
A lists its own vertices before the shared ones and copy B after them;
then each copy keeps the domain's cell order and nothing is sorted.
Otherwise ``_relabeled`` orders each degree by one sort of the images,
total since a labeling is injective.  Facet i of an image is the image
of the domain facet that drops the vertex the sorted image holds at i,
so only the facet rows of the sorted cells are permuted.

The double keeps no copy, only the domain, the split's two regions and
the two labelings, through which ``verify`` pushes the domain's chains.
Each part is made when first read; ``analyze`` reads none, as making
the labelings checks that the interface is induced.  ``double`` writes
the images of the maximal simplices of the domain and of each region,
so it glues no region face by face; ``verify`` reads the exit boundary
and the total, which holds the exit boundary's tuples, so it never
relabels the negative region.

The interface is induced, so each degree of the total is copy A's cells
that hold an own vertex, then copy B's: the total maps copy B's facets
to copy B's positions moved up by copy A's part, and copy A's shared
facets to their places in copy B; along an empty interface its rows are
the domain's followed by the same moved up.  ``_chain_table`` checks
the identities on the rows.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Dict, List, Tuple

from .complexes import EMPTY_SIMPLEX, ComplexPair, Simplex, SimplicialComplex, _trusted
from .errors import InputError

if TYPE_CHECKING:
    from .spaces import BoundarySplit


@dataclass(frozen=True)
class TruncatedDouble:
    """Two copies of a domain glued along the interface.

    ``positive`` and ``negative`` are the split's regions, in the
    domain's labels.  ``labels`` are the vertex labelings that make the
    copies from the domain, copy A's first, and the image of a domain
    simplex under a labeling is its relabeled vertices, sorted.
    ``exit_boundary`` is the union of the two positive-region copies,
    the part of the boundary a gradient flow would leave through; it,
    the total and its top simplices (``tops``) are made when first read.
    ``_glued_tops`` gives a glued region's maximal simplices as the images
    of the region's: copy A's own labels never occur in copy B and a
    shared vertex has one label in both, so an image inside the other
    copy lies in the interface, where both copies give it.  When no ridge
    of the domain lies in the interface, each ridge of the total lies in
    the top simplices of one copy only, so the glued regions split the
    total's boundary as the regions split the domain's.
    """

    domain: SimplicialComplex
    positive: SimplicialComplex
    negative: SimplicialComplex
    labels: Tuple[Dict[int, int], Dict[int, int]] = field(compare=False)  # dicts: kept out of eq and hash

    @cached_property
    def _kinds(self) -> Tuple[Tuple[bool, bool], ...]:
        """Per labeling, whether it is the identity and whether it
        reorders any two vertices (``_kind``), decided once for every part."""
        return tuple(map(_kind, self.labels))

    @cached_property
    def tops(self) -> Tuple[Simplex, ...]:
        return self._glued_tops(self.domain, pure=True)

    def _glued_tops(self, region: SimplicialComplex, pure: bool = False) -> Tuple[Simplex, ...]:
        """The glued copies' maximal simplices: those of ``region`` relabeled,
        sorted, less copy B's in the shared labels, which are copy A's.  The
        domain is ``pure``: of one size, and none lies in the interface."""
        (images_a, _), (images_b, _) = _copies(region._maximal, self.labels, self._kinds, pure)
        cells_b = list(itertools.chain.from_iterable(images_b))
        own_b = cells_b if pure else itertools.compress(cells_b, map(len(self.labels[0]).__le__, map(operator.itemgetter(-1), cells_b)))
        return tuple(sorted(itertools.chain(itertools.chain.from_iterable(images_a), own_b)))

    @cached_property
    def exit_boundary(self) -> SimplicialComplex:
        return _glued(self.positive, self.labels, self._kinds)

    @cached_property
    def total(self) -> SimplicialComplex:
        """Both copies' faces, holding the exit boundary's tuples; its
        chain table is derived from the domain's when asked for
        (``_total_table``)."""
        domain, labels, kinds = self.domain, self.labels, self._kinds
        groups = [domain.simplices(k) for k in range(domain.dim + 1)]
        copies = list(map(_relabeled_cells, itertools.repeat(groups), labels, kinds))
        exit_faces = self.exit_boundary.faces
        if exit_faces:
            held = {face: face for face in exit_faces}
            for images, _ in copies:
                images[:-1] = [list(map(held.get, cells, cells)) for cells in images[:-1]]  # no region has a top simplex
        faces = frozenset(itertools.chain.from_iterable(copies[0][0])) | frozenset(itertools.chain.from_iterable(copies[1][0]))
        ordered = not any(reorders for _, reorders in kinds)
        return _trusted(faces, partial(_total_table, domain, labels, copies, min(labels[1].values(), default=0), ordered))

    def exit_pair(self) -> ComplexPair:
        return ComplexPair(self.total, self.exit_boundary)


def truncated_double(split: BoundarySplit) -> TruncatedDouble:
    """Glue two copies of the domain along the interface of the split.

    The interface must be an induced subcomplex of the domain (every
    simplex spanned by its vertices lies in it); otherwise identifying
    vertices would silently merge simplices of the two copies.  Only the
    labelings are made here; each part of the double is made when first
    read.
    """
    domain, interface = split.domain, split.interface
    induced = domain.induced_on(interface.vertices)
    if induced.faces != interface.faces:
        bad = sorted(induced.faces - interface.faces)[0]
        raise InputError(
            "gluing locus is not an induced subcomplex: %r is spanned by its vertices "
            "but lies outside it; retriangulate the domain" % (bad,)
        )
    shared = sorted(interface.vertices)
    own = sorted(frozenset(itertools.chain.from_iterable(domain._maximal)).difference(shared))  # the domain is pure
    labels = dict(zip(own + shared, itertools.count())), dict(zip(shared + own, itertools.count(len(own))))
    return TruncatedDouble(domain, split.positive, split.negative, labels)


def _glued(region: SimplicialComplex, labels, kinds) -> SimplicialComplex:
    """Both copies of a region, face by face; a union of two sets is sized once."""
    copy_a, copy_b = (frozenset(itertools.chain.from_iterable(images)) for images, _ in _copies(region.faces, labels, kinds))
    return _trusted(copy_a | copy_b)


def _copies(cells, labels, kinds, pure: bool = False):
    """``_relabeled_cells`` of ``cells`` under each labeling, grouped by size
    unless ``pure``: a group's size is read off its first cell."""
    groups = [list(cells)] if pure else [list(group) for _, group in itertools.groupby(sorted(cells, key=len), len)]
    return map(_relabeled_cells, itertools.repeat(groups), labels, kinds)


def _kind(label: Dict[int, int]) -> Tuple[bool, bool]:
    """Whether the labeling is the identity, and whether it reorders any
    two vertices."""
    keys = sorted(label)
    values = list(map(label.__getitem__, keys))
    return values == keys, values != sorted(values)


def _relabeled_cells(groups: List[Tuple[Simplex, ...]], label: Dict[int, int], kind: Tuple[bool, bool]) -> Tuple[List[list], list]:
    """Each group's cells, all of one size, relabeled in order with sorted
    vertices, and per group the positions of the cells sorted: the
    vertices are mapped in one pass and, if the labeling reorders any
    (``kind``, from ``_kind``), only a cell whose image has one above the
    next is sorted."""
    identity, reorders = kind
    if identity:
        return list(groups), [()] * len(groups)
    relabeled, moved = [], []
    for group in groups:
        size = len(group[0]) if group else 1
        flat = list(map(label.__getitem__, itertools.chain.from_iterable(group)))
        cells, descents = list(zip(*[iter(flat)] * size)), set()
        if reorders:
            columns = [flat[i::size] for i in range(size)]
            pairs = (itertools.compress(itertools.count(), map(operator.gt, a, b)) for a, b in zip(columns, columns[1:]))
            descents.update(itertools.chain.from_iterable(pairs))
        for c in descents:
            cells[c] = tuple(sorted(cells[c]))
        relabeled.append(cells)
        moved.append(descents)
    return relabeled, moved


def _relabeled(domain: SimplicialComplex, label: Dict[int, int], images, moved):
    """Per degree, the domain positions of the cells in the order of their
    images, by one sort (total: a labeling is injective, so no two images
    are equal), and the domain's facet rows with those of the cells
    ``_relabeled_cells`` sorted (``moved``) permuted."""
    cells, rows = domain._chain_table[:2]
    for k in range(domain.dim + 1):
        permuted = list(map(list, rows[k])) if moved[k] else rows[k]
        for c in moved[k]:
            unsorted = tuple(map(label.__getitem__, cells[k][c]))
            for i, j in enumerate(sorted(range(k + 1), key=unsorted.__getitem__)):
                permuted[i][c] = rows[k][j][c]
        yield sorted(range(len(images[k])), key=images[k].__getitem__), permuted


def _placed(order, positions: List[int], start: int = 0) -> List[int]:
    """``positions`` with the cells of ``order`` at their places there,
    counted from ``start``."""
    for p, c in enumerate(order, start):
        positions[c] = p
    return positions


def _total_table(domain: SimplicialComplex, labels, copies, n_own: int, ordered: bool, complex_: SimplicialComplex):
    """Cells and facet rows of the total, from the domain, the copies'
    labelings, images and sorted cells (``_relabeled_cells``), the number
    of copy A's own vertices and whether neither labeling reorders the
    vertices; the cells seed ``_by_degree``, and the domain's dimension
    the total's.
    Neither labeling reorders exactly when the interface is empty: copy A
    lists its own vertices before the shared ones and copy B after them.
    Then each copy keeps the domain's cell order, with no cell shared, so
    each degree is copy A's images then copy B's, and each facet row is
    the domain's followed by the same moved up past copy A's cells one
    degree down; nothing is sorted or placed."""
    cells, rows = {-1: (EMPTY_SIMPLEX,)}, {}
    (label_a, label_b), ((images_a, moved_a), (images_b, moved_b)) = labels, copies
    if ordered:
        domain_rows, below_b = domain._chain_table[1], [0]  # the empty simplex is both copies' one (-1)-cell
        for k in range(domain.dim + 1):
            cells[k] = (*images_a[k], *images_b[k])
            rows[k] = [r + list(map(below_b.__getitem__, r)) for r in domain_rows[k]]  # one int object per position
            below_b = list(range(len(images_a[k]), 2 * len(images_a[k])))
    else:
        relabeled = zip(_relabeled(domain, label_a, images_a, moved_a), _relabeled(domain, label_b, images_b, moved_b))
        below_a, below_b = [0], [0]
        for k, ((order_a, rows_a), (order_b, rows_b)) in enumerate(relabeled):
            cells_a = tuple(map(images_a[k].__getitem__, order_a))
            order_a = order_a[: bisect.bisect_left(cells_a, (n_own,))]  # copy A's shared cells come last
            cells[k] = cells_a[: len(order_a)] + tuple(map(images_b[k].__getitem__, order_b))
            rows[k] = [[below_a[r[c]] for c in order_a] + [below_b[s[c]] for c in order_b] for r, s in zip(rows_a, rows_b)]
            below_b = _placed(order_b, [0] * len(order_b), len(order_a))
            below_a = _placed(order_a, list(below_b))
    complex_.__dict__.setdefault("_by_degree", {k: cells[k] for k in range(domain.dim + 1)})
    complex_.__dict__.setdefault("dim", domain.dim)
    return cells, rows
