"""Simplicial complexes, pairs, and their homology over the two-element field.

A simplex is a strictly ascending tuple of vertex labels; a complex is a
face-closed set of simplices.  Vertex labels are integers: space files
and catalog entries use them, and glued doubles keep them.

Each complex has one chain table: sorted cells by degree, the empty
simplex ``()`` being the only cell in degree -1, and each cell's facets
as positions one degree down.  A complex builds it from its faces, but
a truncated double's total derives its own from the domain's table
(``glued``); ``_chain_table`` checks the d o d identities on both
(``_check_identities``).  A pair (X, A) reads X's table with A's cells
masked out, the quotient chain complex, and hands its boundary columns
to ``Reduction`` as the positions of their unmasked facets.  Reduced
homology (``augmented``) leaves degree -1 unmasked: the empty complex
has reduced homology {-1: 1}.

Passes over every face (closure, maximal simplices, purity, boundary
extraction, strong connectivity, the chain table's facet rows) take the
facets of one degree's sorted cells at once from ``_faces_of``, which
runs ``combinations`` over the cells.  Each cell's facets come out from
the one that drops its last vertex to the one that drops its first, so
the facets that drop vertex i of every cell are a stride slice.  The
validating constructor takes one simplex's facets from it, and a chain
boundary (``boundary_chain``) adds each simplex's ``combinations`` to
its sum in one call.  Purity and boundary extraction read the maximal
simplices, which a closure of simplices of one size keeps, and sort no
face.  The Morse diagram (``_build_hasse``) runs its own
whole-degree ``combinations`` pass, so that Morse homology shares no
facet code with the chain table it checks.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, combinations, compress, count, filterfalse, groupby, repeat
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .errors import InputError, PseudomanifoldError
from .gf2 import Column, Gf2Matrix, Reduction, column_bits

Simplex = Tuple
Chain = FrozenSet  # GF(2) chain: a set of simplices; addition is symmetric difference

EMPTY_SIMPLEX: Simplex = ()

MAX_FACES = 50_000


def check_face_count(count: int, what: str) -> None:
    """Refuse input that would expand to more than ``MAX_FACES`` faces."""
    if count > MAX_FACES:
        raise InputError("%s expands to more than the limit of %d faces" % (what, MAX_FACES))


def _faces_of(cells: Iterable[Simplex], size: int) -> Iterator[Simplex]:
    """The faces with ``size`` vertices of each cell in turn, as
    ``combinations`` lists them.  For cells of ``size + 1`` vertices these
    are the facets, from the one that drops the last vertex to the one
    that drops the first."""
    return chain.from_iterable(map(combinations, cells, repeat(size)))


def _closure(simplices: List[Simplex]) -> "SimplicialComplex":
    """Face closure of strictly ascending simplices; simplices of one size
    are its maximal ones, and it keeps them, as ``_maximal``."""
    sizes = set(map(len, simplices))
    complex_ = _trusted(frozenset(chain(simplices, *(_faces_of(simplices, k) for k in range(1, max(sizes, default=0))))))
    if len(sizes) <= 1:
        complex_.__dict__["_maximal"] = frozenset(simplices)
    return complex_


def _as_simplex(vertices: Iterable) -> Simplex:
    s = tuple(sorted(vertices))
    if len(set(s)) != len(s):
        raise InputError("simplex has repeated vertices: %r" % (vertices,))
    return s


@dataclass(frozen=True)
class SimplicialComplex:
    """Face-closed set of simplices, immutable; the chain table is built
    on first use.

    The public constructor ``SimplicialComplex(faces)`` validates its
    input: every face is a nonempty, strictly ascending tuple and every
    facet of a face is present.  Complexes derived inside the package
    (face closures, unions, intersections, induced subcomplexes, the
    parts of a glued double) are face-closed by construction and are
    built without the re-check.
    """

    faces: frozenset

    def __post_init__(self):
        for s in self.faces:
            if not isinstance(s, tuple) or len(s) == 0:
                raise InputError("faces must be nonempty vertex tuples")
            if list(s) != sorted(set(s)):
                raise InputError("face %r is not strictly ascending" % (s,))
            if len(s) > 1 and not self.faces.issuperset(_faces_of((s,), len(s) - 1)):
                raise InputError("complex is not face-closed at %r" % (s,))

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return _trusted(frozenset())

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable]) -> "SimplicialComplex":
        """Face closure of the given simplices; ``maximal`` is read once."""
        return _closure(list(map(_as_simplex, maximal)))

    @cached_property
    def dim(self) -> int:
        """Top dimension present; -1 for the empty complex."""
        return max(map(len, self.faces), default=0) - 1

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(chain.from_iterable(self.faces))

    @cached_property
    def _by_degree(self) -> Dict[int, Tuple[Simplex, ...]]:
        by_size = groupby(sorted(self.faces, key=len), len)
        return {size - 1: tuple(sorted(group)) for size, group in by_size}

    def simplices(self, k: int) -> Tuple[Simplex, ...]:
        """Simplices of dimension ``k`` in sorted order."""
        return self._by_degree.get(k, ())

    @cached_property
    def _chain_table(self) -> Tuple[Dict[int, Tuple[Simplex, ...]], Dict[int, List[List[int]]], Dict]:
        """Cells and facet rows by degree, checked, and a memo of Betti tables."""
        derive = self.__dict__.pop("_derive_chain_table", None)  # made once, so let go of its inputs
        cells, rows = _build_chain_table(self) if derive is None else derive(self)
        _check_identities(rows)
        return cells, rows, {}

    def maximal_simplices(self) -> Tuple[Simplex, ...]:
        """Simplices that are not a proper face of any other, sorted.

        The complex is face-closed, so every proper face of a simplex is
        a facet of some simplex.
        """
        return tuple(sorted(self._maximal))

    @cached_property
    def _maximal(self) -> frozenset:  # given by ``_closure`` for simplices of one size
        return self.faces.difference(*(_faces_of(self.simplices(k), k) for k in range(1, self.dim + 1)))

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self.faces

    def __len__(self) -> int:
        return len(self.faces)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.faces <= other.faces

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return _trusted(self.faces | other.faces)

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return _trusted(self.faces & other.faces)

    def induced_on(self, vertex_set) -> "SimplicialComplex":
        """Subcomplex of faces whose vertices all lie in ``vertex_set``."""
        vs = frozenset(vertex_set)
        return _trusted(frozenset(filter(vs.issuperset, self.faces)))


def _trusted(faces: frozenset, derive=None) -> SimplicialComplex:
    """A complex from faces known to be face-closed, without the check;
    ``derive(complex)``, when given, makes its chain table in place of
    ``_build_chain_table``."""
    complex_ = object.__new__(SimplicialComplex)
    object.__setattr__(complex_, "faces", faces)
    if derive is not None:
        complex_.__dict__["_derive_chain_table"] = derive
    return complex_


def build_complex(maximal_simplices: Iterable[Iterable]) -> SimplicialComplex:
    """Face closure of the given maximal simplices.

    Rebuilding from ``maximal_simplices()`` of the result is the identity.
    """
    return SimplicialComplex.from_maximal(maximal_simplices)


@dataclass(frozen=True)
class ComplexPair:
    """A complex with a distinguished subcomplex."""

    ambient: SimplicialComplex
    sub: SimplicialComplex

    def __post_init__(self):
        if not self.sub.is_subcomplex_of(self.ambient):
            extra = sorted(self.sub.faces - self.ambient.faces)
            raise InputError("sub is not a subcomplex of ambient; first offender %r" % (extra[0],))

    @classmethod
    def absolute(cls, ambient: SimplicialComplex) -> "ComplexPair":
        return cls(ambient, SimplicialComplex.empty())

    def cells(self, k: int) -> Tuple[Simplex, ...]:
        """Relative k-cells: simplices of ambient not in sub, sorted."""
        return tuple(filterfalse(self.sub.faces.__contains__, self.ambient.simplices(k)))

    @cached_property
    def _hasse(self) -> Tuple[Tuple[Simplex, ...], Dict[Simplex, int], List[Tuple[int, ...]]]:
        return _build_hasse(self)


def _build_hasse(pair: ComplexPair) -> Tuple[Tuple[Simplex, ...], Dict[Simplex, int], List[Tuple[int, ...]]]:
    """The numbered Hasse diagram the Morse code reads: the relative cells
    sorted by degree, then labels; each cell's number; and each cell's
    relative facets as numbers, from the one that drops its first vertex.

    Each degree's facets come from one ``combinations`` pass over its
    cells taken last to first, so the reversed list holds each cell's
    facets from the one that drops its first vertex.  A vertex has no
    facet cell; above, a facet that is no cell lies in the subcomplex, so
    only a row up to one degree above its top that holds one is filtered."""
    groups = [pair.cells(k) for k in range(pair.ambient.dim + 1)]
    cells = tuple(chain.from_iterable(groups))
    index = dict(zip(cells, count()))
    down: List[Tuple[int, ...]] = [()] * len(groups[0]) if groups else []
    not_none = partial(operator.is_not, None)
    for k, group in enumerate(groups[1:], 1):
        numbers = list(map(index.get, chain.from_iterable(map(combinations, reversed(group), repeat(k)))))
        numbers.reverse()
        rows = zip(*[iter(numbers)] * (k + 1))
        if k <= pair.sub.dim + 1:
            rows = (r if None not in r else tuple(filter(not_none, r)) for r in rows)
        down.extend(rows)
    return cells, index, down


@dataclass(frozen=True)
class BettiTable:
    """Dimension table of a homology computation; zero entries are dropped."""

    entries: tuple  # sorted ((degree, dim), ...)

    @classmethod
    def from_dict(cls, dims: Dict[int, int]) -> "BettiTable":
        return cls(tuple(sorted((k, d) for k, d in dims.items() if d)))

    def as_dict(self) -> Dict[int, int]:
        return dict(self.entries)

    def total(self) -> int:
        return sum(d for _, d in self.entries)

    def scaled(self, factor: int) -> "BettiTable":
        return BettiTable(tuple((k, factor * d) for k, d in self.entries))

    def added(self, other: "BettiTable") -> "BettiTable":
        dims = self.as_dict()
        for k, d in other.entries:
            dims[k] = dims.get(k, 0) + d
        return BettiTable.from_dict(dims)


def boundary_chain(chain: Iterable[Simplex], drop: frozenset, augmented: bool) -> Chain:
    """Boundary of a GF(2) chain, discarding faces in ``drop``.

    With ``augmented`` the empty simplex appears as the face of each
    vertex, which realizes the augmentation map.  Faces are dropped
    after the sum, as dropping cells is linear.
    """
    acc = set()
    for s in chain:
        if s:  # the empty simplex has no facets
            acc.symmetric_difference_update(combinations(s, len(s) - 1))
    acc.difference_update(drop)
    if not augmented:
        acc.discard(EMPTY_SIMPLEX)
    return frozenset(acc)


class HomologyBasis:
    """Chain complex of a pair with homology bases and class arithmetic.

    Cells in degree k are the relative k-cells in sorted order; with
    ``augmented`` (reduced homology, as in ``betti``) degree -1 holds
    the empty simplex.  The representatives are the kernels of
    ``_reductions``; appended to the reduction of d_{k+1}, they express
    classes reproducibly.  A degree's cell index, which turns a chain
    into bits, is built by the first ``chain_to_bits`` in that degree, so
    a degree in which no class is expressed is never indexed.  The basis
    records its Betti table where ``betti`` reads it, and a table
    ``betti`` recorded first must equal it.
    """

    def __init__(self, pair: ComplexPair, *, augmented: bool = False):
        self.pair = pair
        self.augmented = augmented
        self.min_degree = -1 if augmented else 0
        self.max_degree = pair.ambient.dim
        self._cells, self._columns = _chain_columns(pair, augmented)
        self._index: Dict[int, Dict[Simplex, int]] = {}  # filled per degree by ``chain_to_bits``
        self._reps: Dict[int, List[Chain]] = {}
        # Degree k -> reduction of the boundary columns from degree k+1,
        # followed by the degree-k representatives.
        self._classes: Dict[int, Reduction] = {}
        upper = Reduction()  # nothing above the top degree
        for k, lower in _reductions(self._columns):
            rank = upper.rank
            upper.extend(lower.kernel)
            if upper.rank - rank != len(lower.kernel):
                raise AssertionError("a degree-%d representative is a boundary plus earlier ones" % k)
            self._reps[k] = [self.bits_to_chain(k, cycle) for cycle in lower.kernel]
            self._classes[k], upper = upper, lower
        memo, table = pair.ambient._chain_table[2], self.betti()
        if memo.setdefault((pair.sub.faces, augmented), table) != table:
            raise AssertionError("the basis and the rank-only pass give different Betti tables")

    # -- cell bookkeeping ------------------------------------------------

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def cells(self, k: int) -> Tuple[Simplex, ...]:
        return self._cells.get(k, ())

    def n_cells(self, k: int) -> int:
        return len(self.cells(k))

    def chain_to_bits(self, k: int, chain: Iterable[Simplex]) -> int:
        index = self._index.get(k)
        if index is None:  # the first chain in degree k indexes its cells
            index = self._index[k] = dict(zip(self.cells(k), count()))
        v = 0
        for s in chain:
            if s not in index:
                raise InputError("chain contains %r, not a degree-%d cell here" % (s, k))
            v |= 1 << index[s]
        return v

    def bits_to_chain(self, k: int, bits: int) -> Chain:
        cells = self.cells(k)
        chain = []
        while bits:
            chain.append(cells[(bits & -bits).bit_length() - 1])
            bits &= bits - 1
        return frozenset(chain)

    # -- chain complex ---------------------------------------------------

    def boundary_matrix(self, k: int) -> Gf2Matrix:
        """Map from degree-k cells to degree-(k-1) cells."""
        return Gf2Matrix.from_columns(list(map(column_bits, self._columns.get(k, []))), self.n_cells(k - 1))

    # -- homology --------------------------------------------------------

    def representatives(self, k: int) -> List[Chain]:
        return list(self._reps.get(k, []))

    def betti_dim(self, k: int) -> int:
        return len(self._reps.get(k, []))

    def betti(self) -> BettiTable:
        return BettiTable.from_dict({k: self.betti_dim(k) for k in self.degrees()})

    def express_class(self, k: int, chain: Chain) -> Tuple[int, Chain]:
        """Coordinates of a cycle's class in the stored basis.

        Returns ``(coeffs, witness)`` where ``coeffs`` is a bit-vector
        over the degree-k representatives and ``witness`` is a
        degree-(k+1) chain whose boundary corrects the representative
        mismatch.  The witness identity is re-checked exactly.
        """
        if boundary_chain(chain, self.pair.sub.faces, self.augmented):
            raise InputError("chain is not a cycle in degree %d" % k)
        if k < self.min_degree or k > self.max_degree:
            if chain:
                raise InputError("nonzero chain outside the degree range")
            return 0, frozenset()
        target = self.chain_to_bits(k, chain)
        sol = self._classes[k].solve(target)
        if sol is None:
            raise AssertionError("cycle class not expressible; basis construction is broken")
        n_bdry = self.n_cells(k + 1)
        witness = self.bits_to_chain(k + 1, sol & ((1 << n_bdry) - 1))
        coeffs = sol >> n_bdry
        # Chain-level verification: chain + sum(reps) = boundary(witness).
        check, reps, bits = set(chain), self._reps[k], coeffs
        while bits:
            check.symmetric_difference_update(reps[(bits & -bits).bit_length() - 1])
            bits &= bits - 1
        if frozenset(check) != boundary_chain(witness, self.pair.sub.faces, self.augmented):
            raise AssertionError("class expression witness failed")
        return coeffs, witness


def _facet_rows(cells: Tuple[Simplex, ...], below: Dict[Simplex, int], k: int) -> List[List[int]]:
    """Entry j of list i is the position in ``below`` of the facet of the
    j-th k-cell that drops vertex i.  A facet that is not a cell is an
    input error, reported at the first one in that row order."""
    try:
        flat = list(map(below.__getitem__, _faces_of(cells, k)))
    except KeyError:
        flat = list(_faces_of(cells, k))
        rows = (flat[k - i :: k + 1] for i in range(k + 1))
        missing = next(f for f in chain.from_iterable(rows) if f not in below)
        raise InputError("chain contains %r, not a degree-%d cell here" % (missing, k - 1)) from None
    return [flat[k - i :: k + 1] for i in range(k + 1)]


def _check_identities(rows: Dict[int, List[List[int]]]) -> None:
    """Check d o d = 0 from the top degree down on the facet rows: for
    j < i, facet j of facet i of each cell is facet i - 1 of its facet j.
    Summed over i and j these identities give d o d = 0."""
    for k in range(max(rows, default=0), 0, -1):
        upper, lower = rows[k], rows[k - 1]
        facet = [operator.itemgetter(*row) for row in upper]  # facet[i](row) reads row at each cell's facet i
        if not all(facet[i](lower[j]) == facet[j](lower[i - 1]) for i in range(len(upper)) for j in range(i)):
            raise AssertionError("boundary composition is nonzero in degree %d" % k)


def _build_chain_table(complex_: SimplicialComplex) -> Tuple[Dict[int, Tuple[Simplex, ...]], Dict[int, List[List[int]]]]:
    """Sorted cells by degree from -1 and facet rows by degree from 0,
    filled from the top down."""
    cells = {k: complex_.simplices(k) if k >= 0 else (EMPTY_SIMPLEX,) for k in range(-1, complex_.dim + 1)}
    rows = {k: _facet_rows(cells[k], dict(zip(cells[k - 1], count())), k) for k in range(complex_.dim, -1, -1)}
    return cells, rows


def _chain_columns(pair: ComplexPair, augmented: bool) -> Tuple[Dict[int, Tuple[Simplex, ...]], Dict[int, List[Column]]]:
    """Cells and boundary columns by degree from -1 (reduced homology) or
    0 up: the ambient's table with the subcomplex's cells masked out and
    the rest renumbered in order.  Column j is the boundary of cell j, as
    the positions of its unmasked facets one degree down, from the
    highest; ``Reduction`` turns it into bits only if it meets a pivot.
    Reduced homology of a genuine pair is refused here, for both callers."""
    if augmented and len(pair.sub) > 0:
        raise InputError("reduced homology is defined for a bare complex, not a genuine pair")
    table, rows, _ = pair.ambient._chain_table
    sub = pair.sub.faces  # empty in reduced homology
    cells, columns = ({-1: table[-1]}, {-1: [()]}) if augmented else ({}, {})
    renumber = None  # each cell's position one degree down, -1 when masked; None when none is
    for k in range(pair.ambient.dim + 1):
        group, facet_rows = table[k], rows[k]
        if k <= pair.sub.dim:
            keep = list(map(operator.not_, map(sub.__contains__, group)))
            group, facet_rows = tuple(compress(group, keep)), [compress(row, keep) for row in facet_rows]
        if k == 0 and not augmented:
            cols = [()] * len(group)  # no degree -1 below the vertices
        elif renumber is None:
            cols = list(zip(*facet_rows))
        else:
            cols = list(zip(*(map(renumber.__getitem__, row) for row in facet_rows)))
            for j in list(compress(count(), map(operator.contains, cols, repeat(-1)))):
                cols[j] = tuple(filter((-1).__lt__, cols[j]))  # drop the masked facets
        cells[k], columns[k] = group, cols
        renumber = None
        if k <= pair.sub.dim:
            renumber = list(accumulate(keep, initial=0))  # kept cells before each cell
            for i in compress(count(), map(operator.not_, keep)):
                renumber[i] = -1
    return cells, columns


def _reductions(columns: Dict[int, List[Column]], track: bool = True) -> Iterator[Tuple[int, Reduction]]:
    """Yield (k, reduction of d_k) from the top degree down; with
    ``track`` the combinations are over cell positions, without it the
    reductions are rank-only.  Only the pivot rows of d_{k+1} are kept
    while d_k is reduced, so a caller that lets each reduction go holds
    one degree's pivots at a time.

    Clearing (Chen and Kerber, EuroCG 2011): a reduced column of d_{k+1}
    with highest row i is cell i plus lower cells, so column i of d_k
    depends on earlier ones and is handed to ``Reduction.extend`` as
    cleared.  The kernel of d_k keeps one cycle z_j, cell j plus
    independent earlier cells, for each dependent column j that is not a
    pivot row of d_{k+1}.  These z_j and the boundaries span all cycles:
    the cycle of a cleared i is the pivot at row i plus cycles of lower
    highest row.  No nonzero sum of z_j is a boundary, as its highest row
    is not a pivot row.  So the z_j are a basis of H_k, and each stays
    independent when appended to the reduction of d_{k+1}.
    """
    cleared = frozenset()  # nothing above the top degree
    for k in reversed(columns):
        lower = Reduction(track=track)
        lower.extend(columns[k], cleared)
        cleared = frozenset(lower.pivot_rows)
        yield k, lower


def betti(pair: ComplexPair, *, augmented: bool = False) -> BettiTable:
    """Betti table of a pair: dim H_k is the nullity left in degree k by
    the rank-only ``_reductions``, which keep no combinations.

    An empty subcomplex gives the absolute homology of the ambient;
    ``augmented`` appends the augmentation row for reduced homology, as
    in ``HomologyBasis``, and requires an empty subcomplex.  The table
    is kept in the ambient's chain table, keyed by the subcomplex's
    faces and ``augmented``, so it goes with the complex.
    """
    memo, key = pair.ambient._chain_table[2], (pair.sub.faces, augmented)
    if key not in memo:
        dims = {}
        for k, lower in _reductions(_chain_columns(pair, augmented)[1], track=False):
            dims[k] = lower.nullity
            del lower  # its pivots go before the next degree is reduced
        memo[key] = BettiTable.from_dict(dims)
    return memo[key]


def check_pure(complex_: SimplicialComplex) -> int:
    """Top dimension if every maximal simplex attains it, else an error
    at the smallest one that does not; reads only their lengths."""
    d = complex_.dim
    if min(map(len, complex_._maximal), default=d + 1) <= d:
        s = min(filter(lambda s: len(s) <= d, complex_._maximal))
        raise PseudomanifoldError(
            "complex is not pure: maximal simplex %r has dimension %d < %d" % (s, len(s) - 1, d)
        )
    return d


def boundary_subcomplex(complex_: SimplicialComplex) -> SimplicialComplex:
    """Closure of the codimension-1 simplices lying in exactly one top simplex.

    Requires a pure complex in which every codimension-1 simplex lies in
    at most two top simplices; otherwise the error names the smallest
    offender.
    """
    if len(complex_) == 0:
        return SimplicialComplex.empty()
    d = check_pure(complex_)
    if d < 1:
        return SimplicialComplex.empty()
    in_tops = Counter(_faces_of(complex_._maximal, d))  # pure: the maximal simplices are the tops
    if max(in_tops.values(), default=0) > 2:
        ridge = min(r for r, n in in_tops.items() if n > 2)
        raise PseudomanifoldError("simplex %r lies in %d top simplices" % (ridge, in_tops[ridge]))
    return _closure(list(compress(in_tops, map((1).__eq__, in_tops.values()))))


def check_strongly_connected(complex_: SimplicialComplex) -> int:
    """Dimension of a nonempty complex whose top simplices are connected
    through codimension-1 faces, else an error.

    On a complex whose boundary has been extracted (purity and ridge
    incidence at most two, as for the domain of a ``BoundarySplit``)
    this completes the pseudomanifold check.
    """
    if len(complex_) == 0:
        raise PseudomanifoldError("empty complex")
    d = complex_.dim
    tops = complex_.simplices(d)
    parent = list(range(len(tops)))

    def root(a: int) -> int:
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # Each top simplex joins the first one that holds the same ridge.  A
    # 0-dimensional complex has no ridges.
    first: Dict[Simplex, int] = {}
    owners = chain.from_iterable(map(repeat, range(len(tops)), repeat(d + 1)))
    for ridge, i in zip(_faces_of(tops, d) if d >= 1 else (), owners):
        j = first.setdefault(ridge, i)
        if j != i:
            parent[root(i)] = root(j)
    if sum(map(operator.eq, parent, count())) != 1:
        raise PseudomanifoldError("complex is not strongly connected through codimension-1 faces")
    return d


def check_pseudomanifold(complex_: SimplicialComplex) -> int:
    """Full pseudomanifold check: pure, ridge incidence <= 2, strongly connected.

    Returns the dimension.  Duality statements are only asserted for
    complexes passing this; boundary extraction needs only the first two
    conditions.
    """
    boundary_subcomplex(complex_)  # purity + incidence
    return check_strongly_connected(complex_)
