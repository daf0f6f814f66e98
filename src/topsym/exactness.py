"""Exact-sequence, excision and duality checks on the homology level.

Maps between homology groups are computed with chain-level witnesses:
the image of each basis class is re-expressed in the target basis, and
the bounding chain that reconciles the two representatives is solved
for and verified exactly.  Exactness of a two-map segment is then the
pair of facts "composition vanishes" and "rank(in) + rank(out) equals
the middle dimension", which together say image = kernel as subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .complexes import (
    BettiTable,
    Chain,
    ComplexPair,
    HomologyBasis,
    SimplicialComplex,
    betti,
    boundary_chain,
    check_strongly_connected,
)
from .errors import InputError
from .gf2 import Gf2Matrix
from .spaces import BoundarySplit


@dataclass(frozen=True)
class HomologyMap:
    """Per-degree matrices of a homology-level map in stored bases.

    ``matrices`` is keyed by source degree; the matrix in degree k maps
    into target degree ``k + degree_shift``.  A degree absent from
    ``matrices`` was not computed, and the map is zero there.
    ``witnesses[k][i]`` is the chain whose boundary connects the pushed
    i-th source representative to the stored combination of target
    representatives.
    """

    source: HomologyBasis
    target: HomologyBasis
    degree_shift: int
    matrices: Dict[int, Gf2Matrix]
    witnesses: Dict[int, Tuple[Chain, ...]]


def _map_on_homology(
    source: HomologyBasis,
    target: HomologyBasis,
    push: Callable[[int, Chain], Chain],
    degrees: Iterable[int],
    degree_shift: int = 0,
) -> HomologyMap:
    """The map in the given source degrees, which alone are in its
    ``matrices``; it is zero in every other degree."""
    matrices, witnesses = {}, {}
    for k in degrees:
        images = (push(k, rep) for rep in source.representatives(k))
        matrices[k], witnesses[k] = _expressed(target, k + degree_shift, images)
    return HomologyMap(source, target, degree_shift, matrices, witnesses)


def _expressed(target: HomologyBasis, k: int, images: Iterable[Chain]) -> Tuple[Gf2Matrix, Tuple[Chain, ...]]:
    """The coordinates of each image's class in the degree-k basis of
    ``target``, as the columns of a matrix, and the witness of each."""
    expressed = [target.express_class(k, image) for image in images]
    return Gf2Matrix.from_columns([c for c, _ in expressed], target.betti_dim(k)), tuple(w for _, w in expressed)


def _connecting(source: HomologyBasis, target: HomologyBasis, degrees: Iterable[int]) -> HomologyMap:
    def push(k: int, chain: Chain) -> Chain:
        image = boundary_chain(chain, frozenset(), augmented=True)
        outside = [s for s in image if s != () and s not in source.pair.sub.faces]
        if outside:
            raise AssertionError("relative cycle has boundary outside the subcomplex: %r" % (outside[0],))
        return image

    return _map_on_homology(source, target, push, degrees, degree_shift=-1)


@dataclass(frozen=True)
class SlotCheck:
    """Exactness data at one group of the long exact sequence."""

    degree: int
    at: str
    middle_dim: int
    incoming_rank: int
    outgoing_rank: int
    composition_zero: bool

    @property
    def exact(self) -> bool:
        return self.composition_zero and self.incoming_rank + self.outgoing_rank == self.middle_dim


@dataclass(frozen=True)
class LesReport:
    relative: HomologyBasis
    slots: Tuple[SlotCheck, ...]

    @property
    def pair(self) -> ComplexPair:
        return self.relative.pair

    @property
    def passed(self) -> bool:
        return all(s.exact for s in self.slots)


def les_exactness_check(pair: ComplexPair, ambient_basis: Optional[HomologyBasis] = None) -> LesReport:
    """Verify the reduced long exact sequence of the pair, slot by slot.

    The sequence runs ... -> H~_k(sub) -> H~_k(ambient) -> H_k(pair) ->
    H~_{k-1}(sub) -> ... and is checked at every group from the top
    degree down to the augmentation degree.  It is laid out as one list
    of maps, each read from the degrees its ``HomologyMap`` computed; a
    degree it did not compute maps out of or into a zero group.  The
    slot at the target of map i reads maps i and i + 1.  Only a map with
    rows and columns has its rank taken, once; any other has rank 0.
    Two maps are multiplied only when both ranks are nonzero, as
    otherwise the composition is zero.  A given ``ambient_basis`` must
    be the reduced basis of ``pair.ambient`` itself, with its classes;
    else it is built here.  With an empty subcomplex the relative basis
    of (X, empty) shares X's reduction above degree 0.  Otherwise a
    sequence that built the ambient basis releases its classes once the
    subcomplex's classes are expressed in it, before it builds the
    relative basis, so that one large reduction is alive at a time; a
    given basis is kept.  The report keeps the pair's relative basis,
    for a caller to reuse.
    """
    amb_h = ambient_basis
    if amb_h is not None and not (
        amb_h.pair.ambient is pair.ambient and amb_h.augmented and not amb_h.pair.sub and amb_h._classes
    ):
        raise InputError("the ambient basis must be the unreleased reduced basis of the pair's own ambient complex")
    sub_h = HomologyBasis(ComplexPair.absolute(pair.sub), augmented=True)
    amb_h = amb_h or HomologyBasis(ComplexPair.absolute(pair.ambient), augmented=True)
    into_ambient = _map_on_homology(sub_h, amb_h, lambda k, c: c, sub_h.degrees())
    if pair.sub and ambient_basis is None:
        amb_h._classes.clear()  # it expresses no more classes, so one large reduction is alive at a time
    rel_h = HomologyBasis(pair) if pair.sub else amb_h._unreduced(pair)
    onto_relative = _map_on_homology(amb_h, rel_h, lambda k, c: c.difference(pair.sub.faces, ((),)), amb_h.degrees())
    connect = _connecting(rel_h, sub_h, rel_h.degrees())

    # One degree above the top dimension, all groups vanish; starting
    # there covers the subcomplex slot in the top degree as well.
    degrees = range(pair.ambient.dim + 1, -2, -1)
    maps = [m.matrices.get(k) for k in degrees for m in (into_ambient, onto_relative, connect)]
    maps.append(None)  # out of H~_{-2}(sub), which is zero
    ranks = [m.rank() if m is not None and m.n_rows and m.n_cols else 0 for m in maps]
    # Map i runs into group i; the last map only closes the last slot.
    groups = [g for k in degrees for g in ((k, "ambient", amb_h), (k, "pair", rel_h), (k - 1, "sub", sub_h))]
    slots = []
    for i, (d, at, h) in enumerate(groups):
        middle, into, out = h.betti_dim(d), maps[i], maps[i + 1]
        if (into is not None and into.n_rows != middle) or (out is not None and out.n_cols != middle):
            raise AssertionError("a map's shape disagrees with its groups at the %s slot of degree %d" % (at, d))
        composition_zero = not (ranks[i] and ranks[i + 1]) or out.mat_mul(into).is_zero()
        slots.append(SlotCheck(d, at, middle, ranks[i], ranks[i + 1], composition_zero))
    return LesReport(rel_h, tuple(slots))


@dataclass(frozen=True)
class MayerVietorisReport:
    overlap_table: BettiTable
    total_table: BettiTable
    parts_table: BettiTable

    @property
    def overlap_trivial(self) -> bool:
        return self.overlap_table.total() == 0

    @property
    def passed(self) -> Optional[bool]:
        """True/False when the overlap vanishes; None when obstructed."""
        if not self.overlap_trivial:
            return None
        return self.total_table == self.parts_table


def mayer_vietoris_check(
    total: SimplicialComplex,
    piece_a: SimplicialComplex,
    piece_b: SimplicialComplex,
    sub_a: SimplicialComplex,
    sub_b: SimplicialComplex,
) -> MayerVietorisReport:
    """Additivity of relative homology over a two-piece cover.

    When the overlap pair has vanishing homology, the dimensions of
    H(total, sub_a+sub_b) must equal the degreewise sums over the two
    pieces; a nonvanishing overlap is reported as an obstruction.  This
    compares dimensions only, for general covers; ``verify`` checks a
    truncated double's map itself (``excision_check``).
    """
    if not (piece_a.faces | piece_b.faces) >= total.faces:
        missing = sorted(total.faces - (piece_a.faces | piece_b.faces))[0]
        raise InputError("pieces do not cover the complex; %r is missing" % (missing,))
    if not sub_a.is_subcomplex_of(piece_a) or not sub_b.is_subcomplex_of(piece_b):
        raise InputError("marked subcomplexes must sit inside their pieces")
    overlap = betti(ComplexPair(piece_a.intersection(piece_b), sub_a.intersection(sub_b)))
    lhs = betti(ComplexPair(total, sub_a.union(sub_b)))
    rhs = betti(ComplexPair(piece_a, sub_a)).added(betti(ComplexPair(piece_b, sub_b)))
    return MayerVietorisReport(overlap, lhs, rhs)


@dataclass(frozen=True)
class ExcisionReport:
    """Column j of ``matrices[k]`` holds the target coordinates of the
    j-th pushed degree-k representative, the first labeling's first, and
    ``witnesses[k][j]`` the chain that checked them."""

    matrices: Dict[int, Gf2Matrix]
    witnesses: Dict[int, Tuple[Chain, ...]]

    @property
    def passed(self) -> bool:
        """Whether the map is an isomorphism: square, of full rank."""
        return all(m.n_cols == m.n_rows == m.rank() for m in self.matrices.values())


def excision_check(representatives: Dict[int, List[Chain]], labels: Sequence[Dict], target: HomologyBasis) -> ExcisionReport:
    """Push each representative through each vertex labeling, as the
    sorted images of its simplices outside the target's subcomplex, into
    every degree of ``target``.

    ``verify`` pushes the positive pair's basis of H(W, P) through the
    copies of a double into its exit pair's basis.  The copies, and
    their exit parts, meet in the interface image, so the overlap pair
    is acyclic, and by Mayer-Vietoris for pairs (Hatcher, Algebraic
    Topology, section 2.2) the map H(W, P) + H(W, P) -> H(total, exit)
    is an isomorphism.
    """
    matrices, witnesses, drop = {}, {}, target.pair.sub.faces
    for k in target.degrees():
        reps = representatives.get(k, ())
        images = (frozenset(tuple(sorted(map(label.__getitem__, s))) for s in rep) - drop for label in labels for rep in reps)
        matrices[k], witnesses[k] = _expressed(target, k, images)
    return ExcisionReport(matrices, witnesses)


@dataclass(frozen=True)
class DualityReport:
    dimension: int
    negative_table: BettiTable
    positive_table: BettiTable

    @property
    def passed(self) -> bool:
        lhs = self.negative_table.as_dict()
        rhs = {self.dimension - k: d for k, d in self.positive_table.entries}
        return lhs == rhs


def lefschetz_duality_check(split: BoundarySplit) -> DualityReport:
    """Compare H_k(domain, negative) with H_{d-k}(domain, positive).

    Over a field the two tables must be mirror images; the domain has to
    be a genuine pseudomanifold (pure, ridge-incidence at most two,
    strongly connected) for the assertion to be meaningful, and anything
    else is rejected.
    """
    # Building the split extracted its boundary, which checked purity
    # and ridge incidence.
    d = check_strongly_connected(split.domain)
    return DualityReport(
        d,
        betti(split.negative_pair()),
        betti(split.positive_pair()),
    )
