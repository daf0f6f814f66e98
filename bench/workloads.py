"""Seeded inputs for the topsym benchmark, each with its closed-form answer.

Every request is a space file built here from the workload seed and the
request index, never read from the repository, together with the answer
the CLI must give for it.  The answers come from the topology of each
family, not from topsym:

* n-gon circle: H = {0:1, 1:1} for both regions (both empty), shift 1;
* ``reeb_ball_n`` (cone over the cross-polytope sphere S^{2n-1}, whole
  boundary negative): H(W, +) = {0:1}, H(W, -) = {2n:1};
* ``brieskorn_n`` (wedge of 2^n simplex-boundary n-spheres):
  H = {0:1, n:2^n}, asymmetric with witness at shift n, degree 0;
  the wedge is not strongly connected, so duality is skipped;
* grid disk, positive region a boundary arc: both tables empty;
* grid annulus, positive region the outer circle: both tables empty;
* grid annulus, positive region an arc of the outer circle:
  both tables {1:1}, shift 2.

For ``double`` the glued space has 2|W| - |I| faces and Euler
characteristic 2 chi(W) - chi(I), where I is the interface of the split;
its regions have 2|P| - |I| and 2|N| - |I| faces.

Each workload cycles through a fixed list of slots (family and size) in
an order shuffled per round.  The seed chooses that order, the vertex
relabeling of every request (which sets pivot and matching order but not
the answer), grid diagonals and arc positions.  Sizes are fixed per slot,
so call counts per round, such as the number of ranks taken, repeat
exactly across seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

Simplex = Tuple[int, ...]


@dataclass(frozen=True)
class Space:
    """One generated input: a space file plus everything needed to check it."""

    family: str
    maximal: Tuple[Simplex, ...]
    positive: Optional[Tuple[Simplex, ...]]  # None: the file gives no regions
    faces: int  # |W|, faces of the domain
    euler: int  # chi(W)
    positive_faces: int  # |P|
    negative_faces: int  # |N|
    interface_faces: int  # |I| = |P n N|; every interface here is a set of vertices
    table_pos: Dict[int, int]
    table_neg: Dict[int, int]
    duality: str

    def file_dict(self, name: str) -> Dict:
        out = {"name": name, "maximal_simplices": [list(s) for s in self.maximal]}
        if self.positive is not None:
            out["positive_region"] = [list(s) for s in self.positive]
        return out


def _space(family, maximal, positive=None, **facts) -> Space:
    return Space(family, tuple(maximal), None if positive is None else tuple(positive), **facts)


def relabeled(space: Space, rng: random.Random, base: int) -> Space:
    """The same space under a random injective relabeling into base, base+1, ...

    A distinct ``base`` per request means no two requests share an input,
    so the betti cache never serves one request from another.
    """
    vertices = sorted({v for s in space.maximal for v in s})
    targets = list(range(base, base + len(vertices)))
    rng.shuffle(targets)
    label = dict(zip(vertices, targets))

    def apply(simplices):
        return tuple(tuple(sorted(label[v] for v in s)) for s in simplices)

    return replace(
        space,
        maximal=apply(space.maximal),
        positive=None if space.positive is None else apply(space.positive),
    )


def ngon(rng: random.Random, n: int) -> Space:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _space(
        "ngon", edges,
        faces=2 * n, euler=0, positive_faces=0, negative_faces=0, interface_faces=0,
        table_pos={0: 1, 1: 1}, table_neg={0: 1, 1: 1}, duality="pass",
    )


def reeb_ball(rng: random.Random, n: int) -> Space:
    """Cone over the boundary of the 2n-cross-polytope; the apex is vertex 4n."""
    m = 2 * n
    maximal = [
        tuple(2 * i + eps[i] for i in range(m)) + (2 * m,)
        for eps in itertools.product((0, 1), repeat=m)
    ]
    sphere = 3 ** m - 1
    return _space(
        "reeb_ball", maximal,
        faces=2 * sphere + 1, euler=1, positive_faces=0, negative_faces=sphere, interface_faces=0,
        table_pos={0: 1}, table_neg={m: 1}, duality="pass",
    )


def brieskorn(rng: random.Random, n: int) -> Space:
    """Wedge of 2^n boundaries of (n+1)-simplices sharing vertex 0."""
    count = 2 ** n
    maximal = []
    for j in range(count):
        verts = (0,) + tuple(j * (n + 1) + i for i in range(1, n + 2))
        maximal.extend(itertools.combinations(verts, n + 1))
    return _space(
        "brieskorn", maximal,
        faces=count * (2 ** (n + 2) - 2) - (count - 1), euler=1 + (-1) ** n * count,
        positive_faces=0, negative_faces=0, interface_faces=0,
        table_pos={0: 1, n: count}, table_neg={0: 1, n: count}, duality="skipped",
    )


def _grid_triangles(rng, cols: int, rows: int, vertex) -> List[Simplex]:
    """Two triangles per grid square, with a random diagonal in each."""
    out = []
    for i in range(cols):
        for j in range(rows):
            p, q, r, s = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            if rng.random() < 0.5:
                out += [(p, q, s), (p, s, r)]
            else:
                out += [(p, q, r), (q, s, r)]
    return out


def _arc(rng, cycle: Sequence[int], length: int, edges) -> List[Simplex]:
    """``length`` consecutive edges of a boundary cycle whose two endpoints
    share no edge of the domain, so the interface is an induced subcomplex."""
    n = len(cycle)
    while True:
        start = rng.randrange(n)
        ends = (cycle[start], cycle[(start + length) % n])
        if tuple(sorted(ends)) not in edges:
            return [(cycle[(start + k) % n], cycle[(start + k + 1) % n]) for k in range(length)]


def _edges(triangles) -> frozenset:
    return frozenset(tuple(sorted(e)) for t in triangles for e in itertools.combinations(t, 2))


def grid_disk(rng: random.Random, a: int, b: int, arc: int) -> Space:
    """An a-by-b grid of squares; the positive region is an arc of ``arc`` edges."""
    def vertex(i, j):
        return i * (b + 1) + j

    triangles = _grid_triangles(rng, a, b, vertex)
    cycle = (
        [vertex(i, 0) for i in range(a)]
        + [vertex(a, j) for j in range(b)]
        + [vertex(i, b) for i in range(a, 0, -1)]
        + [vertex(0, j) for j in range(b, 0, -1)]
    )
    perimeter = 2 * (a + b)
    return _space(
        "grid_disk", triangles, _arc(rng, cycle, arc, _edges(triangles)),
        faces=6 * a * b + 2 * a + 2 * b + 1, euler=1,
        positive_faces=2 * arc + 1, negative_faces=2 * (perimeter - arc) + 1, interface_faces=2,
        table_pos={}, table_neg={}, duality="pass",
    )


def grid_annulus(rng: random.Random, c: int, w: int, arc: Optional[int]) -> Space:
    """A c-by-w cylinder grid; the positive region is the outer circle, or
    an arc of ``arc`` edges on it."""
    def vertex(i, j):
        return j * c + i % c

    triangles = _grid_triangles(rng, c, w, vertex)
    outer = [vertex(i, w) for i in range(c)]
    if arc is None:
        positive = [(outer[i], outer[(i + 1) % c]) for i in range(c)]
        facts = dict(positive_faces=2 * c, negative_faces=2 * c, interface_faces=0,
                     table_pos={}, table_neg={})
    else:
        positive = _arc(rng, outer, arc, _edges(triangles))
        facts = dict(positive_faces=2 * arc + 1, negative_faces=2 * (c - arc) + 1 + 2 * c,
                     interface_faces=2, table_pos={1: 1}, table_neg={1: 1})
    return _space(
        "grid_annulus", triangles, positive,
        faces=c * (6 * w + 2), euler=0, duality="pass", **facts,
    )


FAMILIES = {
    "ngon": ngon,
    "reeb_ball": reeb_ball,
    "brieskorn": brieskorn,
    "grid_disk": grid_disk,
    "grid_annulus": grid_annulus,
}

# Slots per workload: (family, size arguments).  Sizes are chosen so that
# all slots but the one fixed-size outlier take about the same time at the
# seed.  The median and the tail then fall inside one dense latency cluster,
# not in a gap between clusters, where a one-request shift would move them.
SLOTS = {
    "analyze-mix": (
        ("reeb_ball", (2,)),
        ("brieskorn", (3,)),
        ("ngon", (74,)),
        ("ngon", (76,)),
        ("grid_disk", (5, 6, 7)),
        ("grid_annulus", (14, 2, 5)),
        ("grid_annulus", (10, 3, None)),
    ),
    "verify-mix": (
        ("reeb_ball", (2,)),
        ("brieskorn", (2,)),
        ("ngon", (51,)),
        ("ngon", (52,)),
        ("grid_disk", (4, 5, 5)),
        ("grid_annulus", (10, 2, 4)),
        ("grid_annulus", (10, 2, None)),
    ),
    "double-large": (
        ("grid_disk", (9, 13, 14)),
        ("grid_disk", (10, 12, 16)),
        ("grid_annulus", (28, 4, None)),
        ("grid_annulus", (29, 4, 11)),
        ("ngon", (340,)),
        ("ngon", (346,)),
    ),
}

COMMANDS = {"analyze-mix": "analyze", "verify-mix": "verify", "double-large": "double"}


def round_order(workload: str, seed: int, round_index: int) -> List[int]:
    order = list(range(len(SLOTS[workload])))
    random.Random("order:%s:%d:%d" % (workload, seed, round_index)).shuffle(order)
    return order


def space_for(workload: str, seed: int, index: int) -> Space:
    """The input of request ``index``; the same arguments give the same space."""
    slots = SLOTS[workload]
    slot = round_order(workload, seed, index // len(slots))[index % len(slots)]
    family, args = slots[slot]
    rng = random.Random("space:%s:%d:%d" % (workload, seed, index))
    # Every family has fewer than 2**20 vertices, so label ranges never overlap.
    return relabeled(FAMILIES[family](rng, *args), rng, index << 20)


# -- expected answers ---------------------------------------------------------


def _table_json(dims: Dict[int, int]) -> List[List[int]]:
    if not dims:
        return []
    lo, hi = min(dims), max(dims)
    return [[k, dims.get(k, 0)] for k in range(lo, hi + 1)]


def _verdict_json(dims: Dict[int, int]) -> Dict:
    """Closed-form verdicts of the families above: each symmetric table
    here is palindromic about min + max of its support, and the only
    asymmetric one (brieskorn) first fails at degree 0."""
    if not dims:
        return {"symmetric": True, "shifts": [0]}
    lo, hi = min(dims), max(dims)
    if dims[lo] == dims[hi]:
        return {"symmetric": True, "shifts": [lo + hi]}
    return {
        "symmetric": False,
        "shifts": [],
        "witness": {"shift": lo + hi, "degree": lo, "dim_at_degree": dims[lo], "dim_at_mirror": dims[hi]},
    }


def expected_analyze(space: Space, name: str) -> Tuple[int, Dict]:
    """Exit code of ``analyze --json --assert-symmetric`` and its output."""
    verdict = _verdict_json(space.table_pos)
    return (0 if verdict["symmetric"] else 1), {
        "name": name,
        "betti_positive": _table_json(space.table_pos),
        "betti_negative": _table_json(space.table_neg),
        "verdict_positive": verdict,
        "verdict_negative": _verdict_json(space.table_neg),
        "duality": space.duality,
        "factor2": "pass",
    }


def expected_verify(space: Space, name: str) -> Tuple[int, Dict]:
    suites = {"duality": space.duality, "les": "pass", "mayer_vietoris": "pass",
              "factor2": "pass", "morse": "pass"}
    return 0, {"name": name, "suites": suites, "passed": True}


def expected_double(space: Space, name: str) -> Dict:
    i = space.interface_faces
    return {
        "name": name + "_double",
        "faces": 2 * space.faces - i,
        "euler": 2 * space.euler - i,  # the interface is i isolated vertices
        "positive_faces": 2 * space.positive_faces - i,
        "negative_faces": 2 * space.negative_faces - i,
    }


def closure(maximal) -> frozenset:
    faces = set()
    for s in maximal:
        for k in range(1, len(s) + 1):
            faces.update(itertools.combinations(sorted(s), k))
    return frozenset(faces)


def summarize_double(payload: Dict) -> Dict:
    """Face counts and Euler characteristic of an emitted double."""
    faces = closure(payload["maximal_simplices"])
    vertices = sorted({v for s in faces for v in s})
    if vertices != list(range(len(vertices))):
        raise ValueError("double is not labeled 0..n-1")
    return {
        "name": payload["name"],
        "faces": len(faces),
        "euler": sum((-1) ** (len(s) - 1) for s in faces),
        "positive_faces": len(closure(payload["positive_region"])),
        "negative_faces": len(closure(payload["negative_region"])),
    }


def check_answer(workload: str, space: Space, name: str, code, stdout: str, double_path: str) -> Optional[str]:
    """None when the CLI's answer matches the closed form, else why not."""
    if workload == "double-large":
        if code != 0:
            return "exit code %r, expected 0" % (code,)
        try:
            with open(double_path, encoding="utf-8") as handle:
                got = summarize_double(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return "unreadable double: %s" % exc
        want = expected_double(space, name)
    else:
        expect = expected_analyze if workload == "analyze-mix" else expected_verify
        want_code, want = expect(space, name)
        if code != want_code:
            return "exit code %r, expected %d" % (code, want_code)
        try:
            got = json.loads(stdout)
        except ValueError as exc:
            return "output is not JSON: %s" % exc
    return None if got == want else "got %s, expected %s" % (json.dumps(got), json.dumps(want))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the seeded space files of a workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, help="number of requests (default: one round)")
    parser.add_argument("--out", required=True, help="directory for the space files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for index in range(args.count or len(SLOTS[args.workload])):
        space = space_for(args.workload, args.seed, index)
        name = "%s-%d" % (space.family, index)
        with open(os.path.join(args.out, name + ".json"), "w", encoding="utf-8") as handle:
            json.dump(space.file_dict(name), handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
