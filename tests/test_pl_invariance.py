"""Every answer is a PL invariant of the split.

A stellar move (``stellar_subdivide``) is a PL homeomorphism of the
domain, and the regions that hold the moved simplex move with it; a
relabeling renames vertices only.  So the Betti tables, verdicts,
duality status and factor-two result that ``analyze`` reports, and every
``verify`` suite, must come out as they did before.  Each split takes a
move at a top simplex of the domain, then one at a top simplex of its
boundary outside the interface, when it has a boundary, then a
relabeling onto scattered labels.  Generators seeded with the split's
name and a round number pick the simplices and the labels.
"""

import random
from pathlib import Path

import pytest

from conftest import relabeled_split, stellar_subdivide
from topsym import analyze_action, builtin_example
from topsym.cli import load_space, report_json, run_identity_suites

SPACES = Path(__file__).with_name("spaces")
CATALOG = ("reeb_ball_1", "reeb_ball_2", "brieskorn_2", "disk_half_split", "annulus_split")
FILES = tuple(sorted(path.name for path in SPACES.glob("*.json")))


def split_of(name):
    return load_space(str(SPACES / name))[1] if name in FILES else builtin_example(name)


def moved(split, rng):
    """``split`` after the two stellar moves and the relabeling."""
    d = split.domain.dim
    split = stellar_subdivide(split, rng.choice(split.domain.simplices(d)))
    outside = [s for s in split.boundary.simplices(d - 1) if s not in split.interface.faces]
    if outside:
        split = stellar_subdivide(split, rng.choice(outside))
    vertices = sorted(split.domain.vertices)
    return relabeled_split(split, dict(zip(vertices, rng.sample(range(3 * len(vertices)), len(vertices)))))


def answers(split):
    report = report_json(analyze_action(split))
    del report["name"]
    return report, run_identity_suites(split)


@pytest.mark.parametrize("name", CATALOG + FILES)
def test_stellar_moves_and_a_relabeling_keep_every_answer(name):
    split = split_of(name)
    before = answers(split)
    for round_ in range(3):
        after = moved(split, random.Random("%s/%d" % (name, round_)))
        # Each move adds a vertex; the second runs on a boundary.
        assert len(after.domain.vertices) == len(split.domain.vertices) + 1 + (len(split.boundary) > 0)
        assert answers(after) == before, (name, round_)


def test_a_move_on_a_region_subdivides_it_with_the_domain():
    # The disk's positive region is the arc 0-1-2-3 of its hexagon
    # boundary; a move at an edge of the arc puts the new vertex on it.
    split = builtin_example("disk_half_split")
    edge = next(s for s in split.positive.simplices(1) if s not in split.interface.faces)
    after = stellar_subdivide(split, edge)
    apex = max(split.domain.vertices) + 1
    assert edge not in after.domain.faces and (apex,) in after.positive.faces
    assert {(edge[0], apex), (edge[1], apex)} <= after.positive.faces
    assert after.negative == split.negative
    assert after.boundary == after.positive.union(after.negative)
