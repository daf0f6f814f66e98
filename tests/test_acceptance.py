"""Acceptance criteria, one test per criterion.

Every check is exact integer arithmetic, and each timed criterion
asserts its wall-clock budget.  Run with
``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import random
import sys
import time
from contextlib import contextmanager

from conftest import (
    catalog_splits,
    check_sphere_action,
    corpus_complexes,
    corpus_pairs,
    random_subcomplex,
    rank_by_subset_enumeration,
)
from topsym import (
    ComplexPair,
    Gf2Matrix,
    SimplicialComplex,
    betti,
    builtin_example,
    truncated_double,
)
from topsym.complexes import BettiTable, check_pseudomanifold
from topsym.errors import PseudomanifoldError
from topsym.exactness import lefschetz_duality_check, les_exactness_check
from topsym.morse import build_matching, morse_betti
from topsym.symmetry import (
    RolledTable,
    analyze_action,
    check_symmetry,
    check_symmetry_rolled,
    roll_up,
)


@contextmanager
def criterion(label, budget_seconds=None):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print("[PASS] %-28s %6.2fs" % (label, elapsed), file=sys.stderr)
    if budget_seconds is not None:
        assert elapsed < budget_seconds, "%s exceeded %ss budget" % (label, budget_seconds)


def test_brieskorn_asymmetry():
    with criterion("brieskorn asymmetry", 1.0):
        for n in (2, 3):
            report = analyze_action(builtin_example("brieskorn_%d" % n))
            verdict = report.positive_verdict
            assert not verdict.symmetric
            assert verdict.witness.shift == n
            table = report.positive_table
            assert table.as_dict().get(n, 0) == 2 ** n
            assert table.as_dict().get(0, 0) == 1
            assert {verdict.witness.dim_at_degree, verdict.witness.dim_at_mirror} == {1, 2 ** n}


def test_reeb_symmetry():
    with criterion("reeb symmetry", 1.0):
        for n in (1, 2):
            report = analyze_action(builtin_example("reeb_ball_%d" % n))
            assert report.positive_verdict.symmetric
            assert report.positive_verdict.shifts == (0,)
        # The empty-region formulation agrees after the degree-two shift
        # between reduced and pair gradings.
        reduced = check_sphere_action(SimplicialComplex.empty())
        assert reduced.symmetric
        assert tuple(m + 2 for m in reduced.shifts) == (0,)


def test_factor_two_identity():
    with criterion("factor-2 identity", 5.0):
        splits = catalog_splits()
        assert len(splits) >= 5
        assert {"disk_half_split", "annulus_split", "reeb_ball_2"} <= set(splits)
        for name, split in splits.items():
            doubled = betti(split.positive_pair()).scaled(2)
            total = betti(truncated_double(split).exit_pair())
            assert total == doubled, name


def test_lefschetz_duality():
    with criterion("lefschetz duality"):
        checked = 0
        for name, split in catalog_splits().items():
            try:
                check_pseudomanifold(split.domain)
            except PseudomanifoldError:
                continue
            assert lefschetz_duality_check(split).passed, name
            checked += 1
        assert checked >= 4


def test_les_exactness():
    with criterion("les exactness", 30.0):
        for name, pair in corpus_pairs().items():
            report = les_exactness_check(pair)
            assert report.passed, (name, report.slots)
        rng = random.Random(20260810)
        spaces = [
            corpus_complexes()[n]
            for n in ("sphere_2", "sphere_3", "ball_2", "ball_3", "torus", "klein_bottle", "projective_plane", "wedge_2_4")
        ]
        for i in range(20):
            ambient = spaces[i % len(spaces)]
            assert len(ambient) <= 500
            sub = random_subcomplex(ambient, rng)
            report = les_exactness_check(ComplexPair(ambient, sub))
            assert report.passed, report.slots


def test_morse_to_singular():
    with criterion("morse vs singular"):
        for name, pair in corpus_pairs().items():
            expected = betti(pair)
            for seed in range(10):
                assert morse_betti(build_matching(pair, seed)) == expected, (name, seed)


def test_gf2_rank_oracle():
    with criterion("gf2 rank oracle", 10.0):
        rng = random.Random(12)
        for _ in range(200):
            n_rows = rng.randint(0, 12)
            n_cols = rng.randint(1, 12)
            columns = [rng.getrandbits(n_rows) for _ in range(n_cols)]
            m = Gf2Matrix(n_rows, n_cols, tuple(columns))
            assert m.rank() == rank_by_subset_enumeration(columns)


def test_rolled_grading_consistency():
    with criterion("rolled grading"):
        rng = random.Random(3)
        # Modulus two: negation is the identity on residues, so every
        # table is a cyclic palindrome around 0.
        for _ in range(25):
            dims = {k: rng.randint(0, 4) for k in range(rng.randint(0, 6))}
            rolled = roll_up(BettiTable.from_dict(dims), 1)
            assert 0 in check_symmetry_rolled(rolled).shifts
        # Integer-symmetric tables stay symmetric after rolling.
        for dims in ({0: 1}, {0: 1, 1: 1}, {0: 1, 1: 2, 2: 1}, {2: 3, 3: 1, 4: 3}):
            base = check_symmetry(BettiTable.from_dict(dims))
            assert base.symmetric
            for n in (1, 2, 3):
                rolled_verdict = check_symmetry_rolled(
                    roll_up(BettiTable.from_dict(dims), n)
                )
                assert rolled_verdict.symmetric
                assert base.shifts[0] % (2 * n) in rolled_verdict.shifts
        # The stated counterexample stays asymmetric.
        assert not check_symmetry_rolled(RolledTable((1, 2, 0, 0))).symmetric
