"""Boundary splits, example spaces and the catalog.

A split's truncated double (``BoundarySplit.double``) is glued by
``glued.truncated_double``, which refuses a gluing locus that is not an
induced subcomplex of the domain; the catalog spaces are triangulated
so the condition holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .complexes import ComplexPair, SimplicialComplex, boundary_subcomplex, build_complex, check_face_count
from .errors import InputError
from .glued import TruncatedDouble, truncated_double


@dataclass(frozen=True)
class BoundarySplit:
    """A domain with its boundary covered by two closed regions.

    ``positive`` and ``negative`` are the closures of the regions where
    the action's contact Hamiltonian is positive resp. negative; their
    intersection is the interface.  Either region may be empty.

    A region left out (None) is filled in from the domain's boundary:
    when one region is given, the other is the closure of its complement
    in the boundary; when neither is given, the positive region is empty
    and the whole boundary is negative.  That is the convention for a
    plain complex, and what the Reeb flow on a sphere induces on its
    filling ball.  Space files and catalog entries follow this rule.
    The complement is closed from the boundary's top simplices outside
    the given region: the faces outside a subcomplex are closed upward,
    and the boundary is pure, so each of them lies in such a top simplex.
    """

    domain: SimplicialComplex
    positive: Optional[SimplicialComplex] = None
    negative: Optional[SimplicialComplex] = None

    def __post_init__(self):
        boundary = self.boundary
        if self.positive is None and self.negative is None:
            object.__setattr__(self, "positive", SimplicialComplex.empty())
            object.__setattr__(self, "negative", boundary)
        elif self.positive is None or self.negative is None:
            missing, given = ("negative", self.positive) if self.negative is None else ("positive", self.negative)
            tops = boundary._maximal  # the boundary is pure
            object.__setattr__(self, missing, build_complex(itertools.filterfalse(given.faces.__contains__, tops)))
        for name, region in (("positive", self.positive), ("negative", self.negative)):
            if not region.is_subcomplex_of(boundary):
                bad = sorted(region.faces - boundary.faces)[0]
                raise InputError("%s region simplex %r is not on the boundary" % (name, bad))
        covered = self.positive.faces | self.negative.faces
        if covered != boundary.faces:
            missing = sorted(boundary.faces - covered)[0]
            raise InputError("regions do not cover the boundary; %r is uncovered" % (missing,))

    @cached_property
    def boundary(self) -> SimplicialComplex:
        return boundary_subcomplex(self.domain)

    @cached_property
    def interface(self) -> SimplicialComplex:
        return self.positive.intersection(self.negative)

    @cached_property
    def double(self) -> TruncatedDouble:
        """The truncated double (``glued``), built once per split."""
        return truncated_double(self)

    def positive_pair(self) -> ComplexPair:
        return ComplexPair(self.domain, self.positive)

    def negative_pair(self) -> ComplexPair:
        return ComplexPair(self.domain, self.negative)


def cross_polytope_sphere(d: int) -> SimplicialComplex:
    """Boundary of the (d+1)-cross-polytope: the smallest standard d-sphere.

    Vertices 0..2d+1 with antipodal pairs (2i, 2i+1); simplices are the
    vertex sets containing no antipodal pair.
    """
    if d < 0:
        raise InputError("dimension must be nonnegative")
    maximal = [
        tuple(sorted(2 * i + eps[i] for i in range(d + 1)))
        for eps in itertools.product((0, 1), repeat=d + 1)
    ]
    return build_complex(maximal)


def cone(base: SimplicialComplex) -> SimplicialComplex:
    """Join with one fresh apex vertex; contractible by construction."""
    if len(base) == 0:
        return build_complex([(0,)])
    if not all(isinstance(v, int) for v in base.vertices):
        raise InputError("cone needs integer vertex labels; relabel the vertices to integers first")
    apex = max(base.vertices) + 1
    return build_complex([s + (apex,) for s in base.maximal_simplices()])


def wedge_of_spheres(sphere_dim: int, count: int) -> SimplicialComplex:
    """``count`` simplex-boundary spheres of dimension ``sphere_dim`` sharing vertex 0."""
    if sphere_dim < 1 or count < 1:
        raise InputError("need sphere_dim >= 1 and count >= 1")
    maximal = []
    for j in range(count):
        verts = (0,) + tuple(j * (sphere_dim + 1) + i for i in range(1, sphere_dim + 2))
        maximal.extend(itertools.combinations(verts, sphere_dim + 1))
    return build_complex(maximal)


def _ring_annulus() -> SimplicialComplex:
    """Annulus as two prism bands over a triangle; middle ring is interior."""
    maximal = []
    for r in range(2):
        lo = [3 * r + i for i in range(3)]
        hi = [3 * (r + 1) + i for i in range(3)]
        for i in range(3):
            j = (i + 1) % 3
            maximal.append((lo[i], lo[j], hi[j]))
            maximal.append((lo[i], hi[j], hi[i]))
    return build_complex(maximal)


def _hexagon_disk() -> SimplicialComplex:
    """Disk as the cone over a hexagon; apex is the only interior vertex."""
    return build_complex([tuple(sorted((i, (i + 1) % 6, 6))) for i in range(6)])


def _seven_vertex_torus() -> SimplicialComplex:
    maximal = []
    for i in range(7):
        maximal.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        maximal.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return build_complex(maximal)


def _grid_klein_bottle(n: int = 3) -> SimplicialComplex:
    """Klein bottle from an n-by-n grid: one straight and one reflecting gluing."""
    def vertex(i: int, j: int) -> int:
        # Row wrap reflects the column index, which is the orientation flip.
        if j >= n:
            i, j = (-i) % n, j - n
        return (j % n) * n + (i % n)

    maximal = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            maximal.append(tuple(sorted((a, b, d))))
            maximal.append(tuple(sorted((a, d, c))))
    return build_complex(maximal)


def _projective_plane() -> SimplicialComplex:
    maximal = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    return build_complex(maximal)


def _circle() -> SimplicialComplex:
    return build_complex([(0, 1), (1, 2), (0, 2)])


def _disk_half_split() -> BoundarySplit:
    disk = _hexagon_disk()
    positive = build_complex([(0, 1), (1, 2), (2, 3)])
    negative = build_complex([(3, 4), (4, 5), (0, 5)])
    return BoundarySplit(disk, positive, negative)


def _annulus_split() -> BoundarySplit:
    annulus = _ring_annulus()
    outer = build_complex([(6, 7), (7, 8), (6, 8)])
    inner = build_complex([(0, 1), (1, 2), (0, 2)])
    return BoundarySplit(annulus, outer, inner)


CATALOG_NAMES = (
    "point",
    "circle",
    "sphere_<d>",
    "ball_<d>",
    "wedge_<n>_<c>",
    "torus",
    "klein_bottle",
    "projective_plane",
    "reeb_ball_<n>",
    "brieskorn_<n>",
    "disk_half_split",
    "annulus_split",
)


def _sphere_faces(d: int) -> int:
    # Each antipodal pair gives a vertex, its partner or neither; the
    # exponent is capped where the count is past any face limit anyway.
    return 3 ** min(d + 1, 64) - 1


def _wedge_faces(sphere_dim: int, count: int) -> int:
    # ``count`` simplex boundaries on sphere_dim + 2 vertices, sharing one vertex.
    return count * (2 ** min(sphere_dim + 2, 64) - 3) + 1


def _ball(d: int) -> SimplicialComplex:
    # A negative d is refused by cross_polytope_sphere.
    return cone(cross_polytope_sphere(d - 1)) if d else build_complex([(0,)])


# Parametrized families: name -> (number of integers, least first integer,
# face count, builder).  The face count is checked before anything is built;
# builders look the generators up when called, so a stand-in takes effect.
_FAMILIES = {
    "sphere": (1, None, _sphere_faces, lambda d: cross_polytope_sphere(d)),
    "ball": (1, None, lambda d: 2 * _sphere_faces(d - 1) + 1, _ball),
    "wedge": (2, None, _wedge_faces, lambda n, count: wedge_of_spheres(n, count)),
    "reeb_ball": (1, 1, lambda n: 2 * _sphere_faces(2 * n - 1) + 1, lambda n: BoundarySplit(_ball(2 * n))),
    "brieskorn": (  # closed: both regions empty
        1, 2, lambda n: _wedge_faces(n, 2 ** min(n, 64)), lambda n: BoundarySplit(wedge_of_spheres(n, 2 ** n))
    ),
}


def builtin_example(name: str) -> Union[SimplicialComplex, BoundarySplit]:
    """Catalog lookup; parametrized names use trailing integers.

    Complexes: point, circle, sphere_d, ball_d, wedge_n_c, torus,
    klein_bottle, projective_plane.  Boundary splits: reeb_ball_n
    (ball with empty positive region), brieskorn_n (wedge of 2^n
    n-spheres, both regions empty), disk_half_split, annulus_split.
    """
    fixed = {
        "point": lambda: build_complex([(0,)]),
        "circle": _circle,
        "torus": _seven_vertex_torus,
        "klein_bottle": _grid_klein_bottle,
        "projective_plane": _projective_plane,
        "disk_half_split": _disk_half_split,
        "annulus_split": _annulus_split,
    }
    if name in fixed:
        return fixed[name]()
    parts = name.split("_")
    if parts[:2] == ["reeb", "ball"]:
        parts[:2] = ["reeb_ball"]
    try:
        params = [int(p) for p in parts[1:]]
    except ValueError:
        params = []
    family = _FAMILIES.get(parts[0])
    if family is not None and len(params) == family[0]:
        _, least, faces, build = family
        if least is not None and params[0] < least:
            raise InputError("%s_n needs n >= %d" % (parts[0], least))
        check_face_count(faces(*params), "catalog entry %r" % name)
        return build(*params)
    raise InputError(
        "unknown catalog name %r; available: %s" % (name, ", ".join(CATALOG_NAMES))
    )
