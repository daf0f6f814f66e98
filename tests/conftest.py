"""Shared corpus definitions and independent test oracles."""

import itertools
import json
import random
import re
from collections import deque
from functools import lru_cache

from hypothesis import strategies as st

from topsym import (
    ComplexPair,
    HomologyBasis,
    SimplicialComplex,
    boundary_subcomplex,
    build_complex,
    builtin_example,
    truncated_double,
)
from topsym import exactness
from topsym.complexes import _trusted, boundary_chain
from topsym.errors import InputError, MatchingError, PseudomanifoldError
from topsym.gf2 import Gf2Matrix, Reduction
from topsym.spaces import BoundarySplit

# Catalog complexes small enough to run every check on.
CORPUS_COMPLEX_NAMES = (
    "point",
    "circle",
    "sphere_1",
    "sphere_2",
    "sphere_3",
    "ball_1",
    "ball_2",
    "ball_3",
    "wedge_1_1",
    "wedge_2_4",
    "torus",
    "klein_bottle",
    "projective_plane",
)


def catalog_splits():
    """The catalog's boundary splits exercised by the verification suites."""
    names = ("disk_half_split", "annulus_split", "reeb_ball_1", "reeb_ball_2", "brieskorn_2", "brieskorn_3")
    return {n: builtin_example(n) for n in names}


def boundary_star_split(n):
    """``reeb_ball_n`` with the closed star of vertex 0 in its boundary as
    the positive region.  The interface is the link of vertex 0, an
    induced sphere; the star and the closure of its complement are balls,
    and most cells of the domain hold both own and interface vertices."""
    domain = builtin_example("reeb_ball_%d" % n).domain
    star = [s for s in boundary_subcomplex(domain).maximal_simplices() if 0 in s]
    return BoundarySplit(domain, build_complex(star))


def staircase(first, second, modulus=None):
    """The product of two complexes, triangulated by staircase chains
    (Eilenberg and Zilber, 1953): for each pair of top simplices, every
    lattice path through their vertex grid that steps up one factor at a
    time.  Vertex (i, j) is i * modulus + j, with ``modulus`` one more than
    the second factor's largest vertex by default, so each chain is
    ascending; subcomplexes of one product take the modulus of the whole."""
    modulus = max(second.vertices) + 1 if modulus is None else modulus
    tops = []
    for s, t in itertools.product(first.maximal_simplices(), second.maximal_simplices()):
        for ups in itertools.combinations(range(len(s) + len(t) - 2), len(s) - 1):
            i = j = 0
            chain = [s[0] * modulus + t[0]]
            for step in range(len(s) + len(t) - 2):
                i, j = (i + 1, j) if step in ups else (i, j + 1)
                chain.append(s[i] * modulus + t[j])
            tops.append(tuple(chain))
    return build_complex(tops)


def linear_action_split(p, q):
    """L(p, q): the split of the free linear circle action on S^{2n-1},
    n = p + q, with p weights +1 and q weights -1, on the ball it bounds.
    The domain is the product of the balls of dimensions 2p and 2q; the
    positive region is the first ball's boundary times the second ball,
    the negative region the first ball times the second's boundary.  The
    domain is a ball, so the positive table is {2p: 1} with shift 4p and
    the negative one {2q: 1} with shift 4q."""
    first, second = builtin_example("ball_%d" % (2 * p)), builtin_example("ball_%d" % (2 * q))
    modulus = max(second.vertices) + 1
    return BoundarySplit(
        staircase(first, second),
        staircase(boundary_subcomplex(first), second, modulus),
        staircase(first, boundary_subcomplex(second), modulus),
    )


@lru_cache(maxsize=None)
def corpus_complexes():
    return {name: builtin_example(name) for name in CORPUS_COMPLEX_NAMES}


@lru_cache(maxsize=None)
def corpus_pairs():
    """Named pairs exercised by the exactness and Morse suites."""
    pairs = {}
    for name, cx in corpus_complexes().items():
        pairs[name] = ComplexPair.absolute(cx)
    disk = builtin_example("ball_2")
    pairs["disk_rel_boundary"] = ComplexPair(disk, boundary_subcomplex(disk))
    for name, split in catalog_splits().items():
        pairs[name + "_pos"] = split.positive_pair()
        pairs[name + "_neg"] = split.negative_pair()
        pairs[name + "_double"] = truncated_double(split).exit_pair()
    return pairs


def hollow_triangle():
    return build_complex([(0, 1), (1, 2), (0, 2)])


def random_subcomplex(cx, rng):
    """Face closure of a random subset of the simplices."""
    faces = sorted(cx.faces)
    chosen = [s for s in faces if rng.random() < 0.4]
    if not chosen:
        return SimplicialComplex.empty()
    return SimplicialComplex.from_maximal(chosen)


@st.composite
def random_pairs(draw):
    """Pairs on at most 7 vertices: a complex from up to 7 simplices and
    the closure of up to 4 of its faces."""
    simplex = st.frozensets(st.integers(0, 6), min_size=1, max_size=4)
    ambient = build_complex(draw(st.lists(simplex, min_size=1, max_size=7)))
    chosen = draw(st.lists(st.sampled_from(sorted(ambient.faces)), max_size=4))
    return ComplexPair(ambient, build_complex(chosen))


# Catalog domains that random splits are grown on; ball_4 is also the
# domain of reeb_ball_2, and the split entries give the disk and annulus.
SPLIT_DOMAIN_NAMES = ("ball_2", "ball_3", "ball_4", "disk_half_split", "annulus_split")


def with_boundary_tops(domain):
    """A domain with its boundary's top simplices and their ridge incidence."""
    boundary = boundary_subcomplex(domain)
    return domain, boundary.simplices(boundary.dim), ridge_incidence(boundary)


@lru_cache(maxsize=None)
def split_domains():
    """Each catalog domain of ``SPLIT_DOMAIN_NAMES`` with its boundary tops."""
    objects = [builtin_example(name) for name in SPLIT_DOMAIN_NAMES]
    return tuple(with_boundary_tops(obj.domain if isinstance(obj, BoundarySplit) else obj) for obj in objects)


def band_annulus(n):
    """An annulus of one band between the n-gons 0..n-1 and n..2n-1."""
    return build_complex(
        triangle for i in range(n) for triangle in ((i, (i + 1) % n, n + (i + 1) % n), (i, n + i, n + (i + 1) % n))
    )


@lru_cache(maxsize=None)
def annulus_domains():
    """Band annuli with their boundary tops.  An arc of a ring from two
    edges to all but two is an induced region whose ends are the
    interface; the catalog annulus has triangles for rings, on which no
    arc is."""
    return tuple(with_boundary_tops(band_annulus(n)) for n in (6, 8))


def _grown_region(domains, choice, integer, permutation):
    """A domain (one of ``domains``, by default of ``split_domains``), a
    region of its boundary and an injective relabeling of its vertices.
    The region is the closure of boundary top simplices grown from one of
    them across shared ridges.  ``choice(items)``, ``integer(low, high)``
    and ``permutation(n)`` make the draws."""
    domain, tops, incidence = choice(domains or split_domains())
    grown = [choice(tops)]
    for _ in range(integer(0, len(tops) - 1)):
        frontier = sorted({u for t in grown for f in facets(t) for u in incidence[f]} - set(grown))
        if not frontier:  # the grown tops fill a component of the boundary
            break
        grown.append(choice(frontier))
    vertices = sorted(domain.vertices)
    offset, images = integer(0, 99), permutation(len(vertices))
    return domain, build_complex(grown), {v: offset + 3 * image for v, image in zip(vertices, images)}


@st.composite
def grown_regions(draw, domains=None):
    """``_grown_region`` drawn by Hypothesis."""
    return _grown_region(
        domains,
        lambda items: draw(st.sampled_from(items)),
        lambda low, high: draw(st.integers(low, high)),
        lambda n: draw(st.permutations(range(n))),
    )


def seeded_grown_regions(seed, count, domains=None):
    """``count`` draws of ``_grown_region`` from ``random.Random(seed)``,
    so that they depend on the seed alone and not, as derandomized
    Hypothesis draws do, on the test's source."""
    rng = random.Random(seed)
    for _ in range(count):
        yield _grown_region(domains, rng.choice, rng.randint, lambda n: rng.sample(range(n), n))


def equal_regions_hexagon():
    """The hexagon disk with both regions its whole boundary circle."""
    disk = build_complex([(0, 1, 6), (1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (0, 5, 6)])
    circle = boundary_subcomplex(disk)
    return BoundarySplit(disk, circle, circle)


def full_double(domain):
    """Two copies of a domain glued along its entire boundary: a closed
    complex."""
    boundary = boundary_subcomplex(domain)
    if len(boundary) == 0:
        raise InputError("domain has empty boundary; nothing to glue along")
    return truncated_double(BoundarySplit(domain, boundary, boundary)).total


def excise(pair, simplex):
    """Remove the open star of a subcomplex simplex from both members.

    Legal only when every ambient simplex containing ``simplex`` lies in
    the subcomplex, which keeps the relative chain complex unchanged.
    """
    s = tuple(simplex)
    if s not in pair.sub.faces:
        raise InputError("can only excise a simplex of the subcomplex")
    vs = set(s)
    star = frozenset(t for t in pair.ambient.faces if vs.issubset(t))
    if not star <= pair.sub.faces:
        offender = sorted(star - pair.sub.faces)[0]
        raise InputError("open star leaves the subcomplex at %r" % (offender,))
    return ComplexPair(_trusted(pair.ambient.faces - star), _trusted(pair.sub.faces - star))


def relabeled(cx, mapping):
    """The complex with each vertex v renamed ``mapping[v]``, or
    ``mapping(v)`` for a callable; a face whose vertices the mapping
    merges is an ``InputError``."""
    get = mapping.__getitem__ if isinstance(mapping, dict) else mapping
    faces = set()
    for s in cx.faces:
        image = tuple(map(get, s))
        if len(set(image)) != len(image):
            raise InputError("simplex has repeated vertices: %r" % (image,))
        faces.add(tuple(sorted(image)))
    return _trusted(frozenset(faces))


def relabeled_split(split, mapping):
    """The split with its domain and both regions ``relabeled``."""
    return BoundarySplit(*(relabeled(cx, mapping) for cx in (split.domain, split.positive, split.negative)))


def stellar_subdivide(split, simplex):
    """``split`` with the star of ``simplex`` coned from a new vertex, one
    above the largest, in the domain and in each region that holds the
    simplex: the faces that contain it go, and every face that misses
    some of its vertices but spans a face with it gains the new vertex.
    A stellar move is a PL homeomorphism, and the regions are moved with
    the domain, so every table and verdict of the split stays the same."""
    sigma, apex = frozenset(simplex), max(split.domain.vertices) + 1

    def moved(cx):
        if tuple(simplex) not in cx.faces:
            return cx
        kept = [t for t in cx.faces if not sigma.issubset(t)]
        coned = [t + (apex,) for t in kept if tuple(sorted(sigma.union(t))) in cx.faces]
        return SimplicialComplex(frozenset(kept + coned + [(apex,)]))

    return BoundarySplit(*map(moved, (split.domain, split.positive, split.negative)))


def connecting_map(pair, degree):
    """The map H_{degree+1}(pair) -> reduced H_degree(sub) of the pair's
    long exact sequence, from fresh bases, as ``les_exactness_check`` builds it."""
    source, target = HomologyBasis(pair), HomologyBasis(ComplexPair.absolute(pair.sub), augmented=True)
    return exactness._connecting(source, target, (degree + 1,))


# -- independent oracles -----------------------------------------------------


def cell_counts(pair):
    """The number of relative cells in each degree that has any."""
    return {k: n for k in range(pair.ambient.dim + 1) if (n := len(pair.cells(k)))}


def euler_characteristic(pair):
    """Alternating sum of relative cell counts."""
    return sum((-1) ** k * n for k, n in cell_counts(pair).items())


def subset_xors(vectors):
    """The XOR of every subset of ``vectors``, indexed by its bit mask."""
    xors = [0] * (1 << len(vectors))
    for mask in range(1, 1 << len(vectors)):
        low = mask & -mask
        xors[mask] = xors[mask ^ low] ^ vectors[low.bit_length() - 1]
    return xors


def rank_by_subset_enumeration(columns):
    """Rank as the size of the largest independent column subset.

    Enumerates the XOR of every one of the 2^m column subsets; the span
    size is a power of two whose exponent is the answer.  No
    elimination is involved.
    """
    size = len(set(subset_xors(columns)))
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def largest_independent_subset_size(columns):
    """Literal search over subsets; only viable for a handful of columns."""
    m = len(columns)
    best = 0
    for mask in range(1 << m):
        chosen = [columns[i] for i in range(m) if (mask >> i) & 1]
        seen = set()
        ok = True
        for sub in range(1 << len(chosen)):
            acc = 0
            for i in range(len(chosen)):
                if (sub >> i) & 1:
                    acc ^= chosen[i]
            if acc in seen:
                ok = False
                break
            seen.add(acc)
        if ok:
            best = max(best, len(chosen))
    return best


def canonical_kernel_by_enumeration(m):
    """Canonical kernel basis of a small matrix, from all 2^n vectors.

    Column j depends on the columns before it exactly when some kernel
    vector has its highest bit at j.  For each such j the basis holds the
    one kernel vector with its highest bit at j and its other bits on
    independent columns.  Returns (basis, bit mask of the independent
    columns).  No elimination and no matrix product is involved.
    """
    images = subset_xors(m.columns)
    kernel = [v for v in range(1, 1 << m.n_cols) if not images[v]]
    dependent = sorted({v.bit_length() - 1 for v in kernel})
    independent = sum(1 << j for j in range(m.n_cols) if j not in dependent)
    basis = []
    for j in dependent:
        fits = [v for v in kernel if v.bit_length() - 1 == j and not (v ^ (1 << j)) & ~independent]
        assert len(fits) == 1
        basis.append(fits[0])
    return basis, independent


def ridge_incidence(cx):
    """Top-simplex incidence over codimension-1 faces, built from scratch."""
    d = cx.dim
    incidence = {}
    for top in cx.simplices(d):
        for k in range(len(top)):
            face = top[:k] + top[k + 1 :]
            incidence.setdefault(face, []).append(top)
    return incidence


def gf2_rank(columns):
    """Rank of bit-vector columns by elimination on the lowest set bit."""
    pivots = {}
    for col in columns:
        while col:
            low = col & -col
            if low not in pivots:
                pivots[low] = col
                break
            col ^= pivots[low]
    return len(pivots)


def reduced_betti(faces):
    """Reduced GF(2) Betti numbers of a face-closed set of nonempty
    simplices, with the empty simplex as the one cell of degree -1, from
    the ranks of boundary columns built with ``facets``."""
    cells = {-1: [()]}
    for s in sorted(faces):
        cells.setdefault(len(s) - 1, []).append(s)
    index = {k: {s: i for i, s in enumerate(group)} for k, group in cells.items()}
    ranks = {
        k: gf2_rank([sum(1 << index[k - 1][f] for f in facets(s)) for s in group])
        for k, group in cells.items()
        if k >= 0
    }
    dims = {k: len(group) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, group in cells.items()}
    return {k: d for k, d in dims.items() if d}


def links(faces):
    """The link of each face: the faces of its cofaces with its own
    vertices removed, the empty simplex included."""
    out = {}
    for t in faces:
        for r in range(1, len(t) + 1):
            for s in itertools.combinations(t, r):
                out.setdefault(s, set()).add(tuple(v for v in t if v not in s))
    return out


def duality_hypotheses(split):
    """The hypotheses of Lefschetz duality for a split (Hatcher, Thm.
    3.43) that fail, as messages; empty when all hold.

    The domain must be a GF(2) homology manifold: the link of each simplex
    has the reduced homology of a sphere of dimension d - |simplex|, or,
    for a simplex on the boundary, of a point.  The regions must meet only
    in their common frontier: their intersection is the boundary of each.
    The boundary and the frontiers are those of
    ``reference_boundary_faces``, and a region that has none fails."""
    domain, failed = split.domain, []
    d, boundary = domain.dim, reference_boundary_faces(domain)
    for s, link in sorted(links(domain.faces).items()):
        dims = reduced_betti(link - {()})
        if dims != ({} if s in boundary else {d - len(s): 1}):
            failed.append("link of %r has reduced homology %r" % (s, dims))
            break
    try:
        frontiers = [reference_boundary_faces(region) for region in (split.positive, split.negative)]
    except PseudomanifoldError as exc:
        failed.append("a region has no frontier: %s" % exc)
    else:
        meet = split.positive.faces & split.negative.faces
        if frontiers != [meet, meet]:
            failed.append("the regions meet outside their common frontier")
    return failed


# -- per-face loops, kept as references for the passes that replaced them ----


def facets(simplex):
    """The codimension-1 faces, one slice each; a vertex has the empty
    simplex as its facet."""
    return [simplex[:k] + simplex[k + 1 :] for k in range(len(simplex))]


def reference_boundary_chain(chain, drop, augmented):
    """``boundary_chain`` one facet at a time: each facet of each simplex
    that is not dropped, and not the empty simplex unless ``augmented``,
    is added to the sum as it comes."""
    acc = set()
    for s in chain:
        for f in facets(s):
            if f == () and not augmented:
                continue
            if f in drop:
                continue
            acc.symmetric_difference_update((f,))
    return frozenset(acc)


def reference_closure(maximal):
    """Faces of ``SimplicialComplex.from_maximal``: every nonempty subset of
    each simplex, one simplex and one size at a time."""
    faces = set()
    for m in maximal:
        s = tuple(sorted(m))
        if len(set(s)) != len(s):
            raise InputError("simplex has repeated vertices: %r" % (m,))
        for k in range(1, len(s) + 1):
            faces.update(itertools.combinations(s, k))
    return frozenset(faces)


def reference_maximal_simplices(cx):
    """``maximal_simplices``: the faces that are no face's facet, sorted."""
    covered = {f for s in cx.faces for f in facets(s)}
    return tuple(sorted(cx.faces - covered))


def reference_boundary_faces(cx):
    """Faces of ``boundary_subcomplex``, or the same ``PseudomanifoldError``:
    purity from ``reference_maximal_simplices``, then the ridges of
    ``ridge_incidence`` in sorted order."""
    if len(cx) == 0:
        return frozenset()
    d = cx.dim
    for s in reference_maximal_simplices(cx):
        if len(s) - 1 != d:
            raise PseudomanifoldError(
                "complex is not pure: maximal simplex %r has dimension %d < %d" % (s, len(s) - 1, d)
            )
    incidence = ridge_incidence(cx) if d >= 1 else {}
    free = []
    for ridge in sorted(incidence):
        if len(incidence[ridge]) > 2:
            raise PseudomanifoldError("simplex %r lies in %d top simplices" % (ridge, len(incidence[ridge])))
        if len(incidence[ridge]) == 1:
            free.append(ridge)
    return reference_closure(free)


def reference_facet_rows(cells, below, k):
    """``_facet_rows`` by slicing: row i holds, for each k-cell, the
    position of the facet that drops vertex i."""
    try:
        return [[below[s[:i] + s[i + 1 :]] for s in cells] for i in range(k + 1)]
    except KeyError as exc:
        raise InputError("chain contains %r, not a degree-%d cell here" % (exc.args[0], k - 1)) from None


def reference_composition_check(cells, rows):
    """The d o d = 0 check of a chain table by dense columns: each degree's
    boundary columns are XORs of one-hot ints, the next degree's columns
    are XORs of those, and every composition must be zero.  Degrees go
    from the top down, and the error names the upper degree, as in
    ``_build_chain_table``."""

    def columns(facet_rows, bits):
        out = [0] * len(facet_rows[0])
        for positions in facet_rows:
            out = [col ^ bits[p] for col, p in zip(out, positions)]
        return out

    for k in range(len(rows) - 2, -1, -1):
        lower = columns(rows[k], [1 << i for i in range(len(cells[k - 1]))])
        if any(columns(rows[k + 1], lower)):
            raise AssertionError("boundary composition is nonzero in degree %d" % (k + 1))


def reference_double_faces(split):
    """The faces of each part of the truncated double of ``split``,
    relabeled face by face with a dict comprehension: its two copies,
    their exit and entry parts and the interface image, and the total
    and the exit and entry boundaries that these make up."""
    domain, interface = split.domain, split.interface
    shared = sorted(interface.vertices)
    own = sorted(domain.vertices - interface.vertices)
    labels = dict(zip(own + shared, itertools.count())), dict(zip(shared + own, itertools.count(len(own))))
    face_a, face_b = ({s: tuple(sorted(label[v] for v in s)) for s in domain.faces} for label in labels)
    parts = {"copy_a": face_a.values(), "copy_b": face_b.values()}
    for part, region in (("exit", split.positive), ("entry", split.negative)):
        parts[part + "_a"] = (face_a[s] for s in region.faces)
        parts[part + "_b"] = (face_b[s] for s in region.faces)
    parts["interface_image"] = (face_a[s] for s in interface.faces)
    parts = {part: frozenset(faces) for part, faces in parts.items()}
    parts["total"] = parts["copy_a"] | parts["copy_b"]
    parts["exit_boundary"] = parts["exit_a"] | parts["exit_b"]
    parts["entry_boundary"] = parts["entry_a"] | parts["entry_b"]
    return parts


def reference_double(split):
    """``reference_double_faces`` as complexes, each checked face-closed."""
    return {part: SimplicialComplex(faces) for part, faces in reference_double_faces(split).items()}


_INT_LIST = re.compile(r"\[\s*((?:-?\d+,\s*)*-?\d+)\s*\]")


def reference_dump(payload):
    """The space-file and report writer as indented JSON with each
    innermost integer list collapsed by a regular expression.  The
    expression also rewrites text inside strings, so it agrees with
    ``cli._dump`` only on payloads whose strings hold no brackets."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    text = _INT_LIST.sub(lambda m: "[" + re.sub(r",\s*", ", ", m.group(1)) + "]", text)
    return text + "\n"


def reference_check_strongly_connected(cx):
    """``check_strongly_connected`` by adjacency lists over every pair of
    top simplices on a ridge and a breadth-first search: the dimension,
    or the same ``PseudomanifoldError``."""
    if len(cx) == 0:
        raise PseudomanifoldError("empty complex")
    d = cx.dim
    tops = cx.simplices(d)
    adjacency = {t: [] for t in tops}
    for tops_here in ridge_incidence(cx).values() if d > 0 else ():
        for a, b in itertools.combinations(tops_here, 2):
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = {tops[0]}
    queue = deque([tops[0]])
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != len(tops):
        raise PseudomanifoldError("complex is not strongly connected through codimension-1 faces")
    return d


def reference_fill(boundary, region):
    """The region a split fills in opposite ``region``: the closure of
    every boundary face outside it."""
    return build_complex(boundary.faces - region.faces)


def is_orientable_surfacelike(cx):
    """Consistent top-cell orientations across shared ridges, by 2-coloring."""
    d = cx.dim
    incidence = ridge_incidence(cx)
    sign = {}
    for start in cx.simplices(d):
        if start in sign:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for i in range(len(t)):
                ridge = t[:i] + t[i + 1 :]
                for u in incidence[ridge]:
                    if u == t:
                        continue
                    j = next(k for k in range(len(u)) if u[:k] + u[k + 1 :] == ridge)
                    needed = -sign[t] * (-1) ** i * (-1) ** j
                    if u in sign:
                        if sign[u] != needed:
                            return False
                    else:
                        sign[u] = needed
                        stack.append(u)
    return True


def _by_dimension(s):
    return len(s), s


def reference_hasse(pair):
    """``ComplexPair._hasse`` one cell at a time: the relative cells sorted
    by dimension, then labels; each cell's number; and each cell's
    relative facets as numbers, in ``facets`` order."""
    cells = tuple(sorted((s for s in pair.ambient.faces if s not in pair.sub.faces), key=_by_dimension))
    index = {s: i for i, s in enumerate(cells)}
    return cells, index, [[index[f] for f in facets(s) if f in index] for s in cells]


def reference_matching(pair, seed_order=None):
    """Greedy coreduction on simplex tuples: ``(matched, critical)`` as
    ``build_matching`` must return them.

    Cells are visited sorted by dimension then labels, in a seeded
    shuffle of that list, or in an explicit order; each cell's facet
    and cofacet lists are rebuilt from ``facets`` and the exit faces.
    """
    sub = pair.sub.faces
    cells = sorted((s for s in pair.ambient.faces if s not in sub), key=_by_dimension)
    if isinstance(seed_order, int):
        random.Random(seed_order).shuffle(cells)
    elif seed_order is not None:
        assert sorted(seed_order, key=_by_dimension) == cells
        cells = list(seed_order)
    alive = set(cells)
    facet_count = {c: sum(1 for f in facets(c) if f and f not in sub) for c in cells}
    cofacets = {c: [] for c in cells}
    for c in cells:
        for f in facets(c):
            if f and f not in sub:
                cofacets[f].append(c)
    matched, critical = [], []
    queue = deque(c for c in cells if facet_count[c] == 1)

    def retire(cell):
        alive.discard(cell)
        for up in cofacets[cell]:
            if up in alive:
                facet_count[up] -= 1
                if facet_count[up] == 1:
                    queue.append(up)

    by_rank = sorted(cells, key=len)
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
        while by_rank[next_critical] not in alive:
            next_critical += 1
        critical.append(by_rank[next_critical])
        retire(by_rank[next_critical])
    return frozenset(matched), tuple(sorted(critical, key=_by_dimension))


def reference_morse_boundaries(matching):
    """Critical cells by degree and the Morse boundary matrices, as
    ``morse_complex`` must give them, from a memoized depth-first flow.

    The flow of a facet is its own bit when critical, zero when matched
    downward, and otherwise the sum of the flows of the other facets of
    its matched cofacet.  An explicit stack fills the memo on demand; a
    cell met again while its siblings are still missing lies on a
    gradient path cycle.
    """
    pair = matching.pair
    cells, index, down = pair._hasse
    up = {index[low]: index[high] for low, high in matching.matched}
    by_degree = {}
    for c in matching.critical:
        by_degree.setdefault(len(c) - 1, []).append(c)
    memo = [None] * len(cells)
    for group in by_degree.values():
        for i, c in enumerate(group):
            memo[index[c]] = 1 << i
    expanded = set()

    def flow(cell):
        pending = [cell]
        while pending:
            top = pending[-1]
            if memo[top] is not None:
                pending.pop()
                continue
            if top in up:
                siblings = [f for f in down[up[top]] if f != top]
                missing = [f for f in siblings if memo[f] is None]
                if missing:
                    if top in expanded:
                        raise MatchingError("gradient path cycle through %r" % (cells[top],))
                    expanded.add(top)
                    pending.extend(missing)
                    continue
                result = 0
                for f in siblings:
                    result ^= memo[f]
            else:
                result = 0  # matched downward: paths entering here die
            memo[top] = result
            pending.pop()
        return memo[cell]

    critical, boundaries = {}, {}
    for k in range(pair.ambient.dim + 1):
        critical[k] = tuple(by_degree.get(k, ()))
        cols = []
        for cell in critical[k]:
            acc = 0
            for f in down[index[cell]]:
                acc ^= flow(f)
            cols.append(acc)
        boundaries[k] = Gf2Matrix.from_columns(cols, len(by_degree.get(k - 1, ())))
    return critical, boundaries


def reference_basis(pair, augmented=False):
    """Representatives by a greedy scan, and class expressions read from
    it: ``(reps, express)`` as ``HomologyBasis`` must give them.

    Cells and boundary columns are rebuilt from ``boundary_chain``.  Each
    boundary map is reduced in full, with no clearing.  In degree k the
    representatives are, in order, the kernel vectors of d_k that are
    independent of the columns of d_{k+1} and the representatives before
    them, each tested with ``solve``.  ``express(k, cycle)`` returns the
    coefficients over the representatives and the witness chain.
    """
    sub = pair.sub.faces
    cells = {-1: [()]} if augmented else {}
    for k in range(pair.ambient.dim + 1):
        cells[k] = sorted(s for s in pair.ambient.faces if len(s) == k + 1 and s not in sub)

    def to_bits(k, chain):
        return sum(1 << cells[k].index(s) for s in chain)

    def to_chain(k, bits):
        return frozenset(s for i, s in enumerate(cells.get(k, ())) if bits >> i & 1)

    reps, classes = {}, {}
    upper = Reduction(())
    for k in sorted(cells, reverse=True):
        lower = Reduction([to_bits(k - 1, boundary_chain([s], sub, augmented)) for s in cells[k]])
        reps[k] = []
        for cycle in lower.kernel:
            if upper.solve(cycle) is None:
                upper.extend([cycle])
                reps[k].append(to_chain(k, cycle))
        classes[k] = upper
        upper = lower

    def express(k, cycle):
        solution = classes[k].solve(to_bits(k, cycle))
        n_above = len(cells.get(k + 1, ()))
        return solution >> n_above, to_chain(k + 1, solution & ((1 << n_above) - 1))

    return reps, express
