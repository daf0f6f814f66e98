"""Verdicts: palindromic tables, reduced variant, rolled variant, pipeline."""

import json
import random
from dataclasses import astuple, replace

import pytest

import ladder
from conftest import (
    SPLIT_DOMAIN_NAMES,
    boundary_star_split,
    catalog_splits,
    check_sphere_action,
    linear_action_split,
    relabeled_split,
    seeded_grown_regions,
    split_domains,
)
from topsym import (
    BoundarySplit,
    ComplexPair,
    InputError,
    SimplicialComplex,
    betti,
    build_complex,
    builtin_example,
    cli,
    cone,
)
from topsym.cli import EXIT_OK, main
from topsym.complexes import BettiTable
from topsym.symmetry import (
    MAX_MIN_CHERN,
    RolledTable,
    SymmetryVerdict,
    analyze_action,
    check_symmetry,
    check_symmetry_rolled,
    roll_up,
)


def make_table(dims):
    return BettiTable.from_dict(dims)


class TestCheckSymmetry:
    def test_ball_table_is_symmetric_at_zero(self):
        verdict = check_symmetry(make_table({0: 1}))
        assert verdict.symmetric and verdict.shifts == (0,)

    def test_brieskorn_table_is_asymmetric_with_witness(self):
        verdict = check_symmetry(make_table({0: 1, 2: 4}))
        assert not verdict.symmetric
        w = verdict.witness
        assert w.shift == 2
        assert {w.dim_at_degree, w.dim_at_mirror} == {1, 4}

    def test_palindrome_by_construction(self):
        verdict = check_symmetry(make_table({0: 1, 1: 3, 2: 3, 3: 1}))
        assert verdict.symmetric and verdict.shifts == (3,)

    def test_empty_table_is_vacuously_symmetric(self):
        verdict = check_symmetry(make_table({}))
        assert verdict.symmetric and verdict.shifts == (0,)

    def test_candidate_shift_is_unique_by_exhaustive_scan(self):
        tables = [
            {0: 1},
            {0: 1, 1: 1},
            {0: 2, 2: 2},
            {0: 1, 1: 2, 2: 1},
            {1: 1, 4: 1},
            {-1: 1},
        ]
        for dims in tables:
            support = sorted(dims)
            candidate = support[0] + support[-1]
            valid = []
            top = max(abs(k) for k in support)
            for m in range(-2 * top - 2, 2 * top + 3):
                if all(dims.get(k, 0) == dims.get(m - k, 0) for k in range(-3 * top - 3, 3 * top + 4)):
                    valid.append(m)
            verdict = check_symmetry(make_table(dims))
            assert valid == list(verdict.shifts)
            if valid:
                assert valid == [candidate]

    def test_verdict_stable_under_degree_offset(self):
        dims = {0: 1, 1: 2, 2: 1}
        base = check_symmetry(make_table(dims))
        for offset in (-2, 1, 5):
            shifted = check_symmetry(make_table({k + offset: d for k, d in dims.items()}))
            assert shifted.symmetric == base.symmetric
            assert shifted.shifts == tuple(m + 2 * offset for m in base.shifts)


def sphere_case(split):
    """The paper's reduction from B^{2n} to S^{2n-1}, on a split whose
    domain W is a ball, for its positive region P.  H_k(W, P) is the
    reduced H_{k-1}(P), so the positive table (``analyze``'s, whose
    verdict is ``check_symmetry`` of it) is P's reduced table moved up one
    degree: each shift of the sphere's verdict is raised by 2, and an
    asymmetric witness moves by 2 in shift and 1 in degree.  An acyclic P
    is the exception: both tables are empty and both verdicts are the
    vacuous shift 0.  Returns whether P is acyclic."""
    reduced, table = betti(ComplexPair.absolute(split.positive), augmented=True), betti(split.positive_pair())
    assert table.entries == tuple((k + 1, d) for k, d in reduced.entries)
    verdict, sphere = check_symmetry(table), check_sphere_action(split.positive)
    if not reduced.entries:
        assert verdict == sphere == SymmetryVerdict((0,))
        return True
    assert verdict.shifts == tuple(m + 2 for m in sphere.shifts)
    witness = sphere.witness
    assert verdict.witness == (witness and replace(witness, shift=witness.shift + 2, degree=witness.degree + 1))
    return False


class TestCheckSphereAction:
    def test_empty_region(self):
        verdict = check_sphere_action(SimplicialComplex.empty())
        assert verdict.symmetric and verdict.shifts == (-2,)

    def test_two_points(self):
        verdict = check_sphere_action(build_complex([(0,), (1,)]))
        assert verdict.symmetric and verdict.shifts == (0,)

    def test_point_plus_circle(self):
        region = build_complex([(0,), (1, 2), (2, 3), (1, 3)])
        reduced = betti(ComplexPair.absolute(region), augmented=True)
        assert reduced.as_dict() == {0: 1, 1: 1}
        verdict = check_sphere_action(region)
        assert verdict.symmetric and verdict.shifts == (1,)

    def test_agrees_with_cone_pair_up_to_shift_two(self):
        regions = {
            "empty": SimplicialComplex.empty(),
            "point": build_complex([(0,)]),
            "two_points": build_complex([(0,), (1,)]),
            "circle": build_complex([(0, 1), (1, 2), (0, 2)]),
            "sphere": builtin_example("sphere_2"),
            "torus": builtin_example("torus"),
            "wedge": builtin_example("wedge_2_4"),
        }
        for name, region in regions.items():
            reduced_table = betti(ComplexPair.absolute(region), augmented=True)
            reduced = check_sphere_action(region)
            pair = ComplexPair(cone(region), region)
            relative = check_symmetry(betti(pair))
            assert reduced.symmetric == relative.symmetric, name
            if not reduced.symmetric:
                continue
            if reduced_table.total():
                # The pair table is the reduced table shifted up one
                # degree, so the palindrome shift moves up by two.
                assert relative.shifts == tuple(m + 2 for m in reduced.shifts), name
            else:
                # Contractible region: both tables are empty and both
                # verdicts carry the canonical shift.
                assert reduced.shifts == relative.shifts == (0,), name

    def test_splits_of_balls_have_the_sphere_cases_verdict(self):
        # A Reeb ball's region is empty, whose reduced homology is one
        # class in degree -1; the star of a vertex and the half circle are
        # balls, so acyclic: their verdict is the vacuous shift 0, not 2.
        splits = {name: builtin_example(name) for name in ("reeb_ball_1", "reeb_ball_2", "reeb_ball_3", "disk_half_split")}
        splits["star_split_3"] = boundary_star_split(3)
        acyclic = {name: sphere_case(split) for name, split in splits.items()}
        assert acyclic == {"reeb_ball_1": False, "reeb_ball_2": False, "reeb_ball_3": False, "disk_half_split": True, "star_split_3": True}

    def test_grown_regions_on_balls_have_the_sphere_cases_verdict(self):
        # No double is made, so every draw counts, induced interface or not.
        balls = tuple(domain for name, domain in zip(SPLIT_DOMAIN_NAMES, split_domains()) if name != "annulus_split")
        acyclic = [
            sphere_case(relabeled_split(BoundarySplit(domain, region), mapping))
            for domain, region, mapping in seeded_grown_regions(61, 300, balls)
        ]
        assert acyclic.count(True) >= 200 and acyclic.count(False) >= 50, acyclic.count(True)


class TestRollUp:
    def test_modulus_two(self):
        rolled = roll_up(make_table({0: 1, 2: 2, 4: 1}), 1)
        assert (rolled.modulus, rolled.entries) == (2, (4, 0))

    def test_modulus_four(self):
        rolled = roll_up(make_table({0: 1, 2: 2, 4: 1}), 2)
        assert rolled.entries == (2, 0, 2, 0)

    def test_empty_table(self):
        assert roll_up(make_table({}), 3).entries == (0,) * 6

    def test_negative_degree_wraps(self):
        assert roll_up(make_table({-1: 1}), 2).entries == (0, 0, 0, 1)

    def test_mass_preserved(self):
        table = make_table({0: 1, 1: 5, 7: 2})
        for n in (1, 2, 3, 5):
            assert roll_up(table, n).total() == table.total()

    def test_zero_modulus_rejected(self):
        with pytest.raises(InputError):
            roll_up(make_table({0: 1}), 0)

    def test_minimal_chern_number_is_bounded(self):
        assert len(roll_up(make_table({0: 1}), MAX_MIN_CHERN).entries) == 2 * MAX_MIN_CHERN
        with pytest.raises(InputError, match="at most %d" % MAX_MIN_CHERN):
            roll_up(make_table({0: 1}), MAX_MIN_CHERN + 1)


class TestCheckSymmetryRolled:
    def test_modulus_two_always_symmetric(self):
        for entries in ((0, 0), (1, 0), (2, 3), (5, 5)):
            verdict = check_symmetry_rolled(RolledTable(entries))
            assert verdict.symmetric
            assert 0 in verdict.shifts

    def test_shift_zero_case(self):
        verdict = check_symmetry_rolled(RolledTable((1, 0, 2, 0)))
        assert verdict.symmetric and 0 in verdict.shifts

    def test_asymmetric_case(self):
        verdict = check_symmetry_rolled(RolledTable((1, 2, 0, 0)))
        assert not verdict.symmetric
        assert verdict.witness is not None

    def test_exhaustive_scan_agreement(self):
        for entries in ((1, 0, 2, 0), (1, 2, 0, 0), (1, 1, 1, 1), (0, 1, 0, 2)):
            rolled = RolledTable(entries)
            valid = [
                m
                for m in range(4)
                if all(entries[k] == entries[(m - k) % 4] for k in range(4))
            ]
            verdict = check_symmetry_rolled(rolled)
            assert list(verdict.shifts) == valid

    @staticmethod
    def scan(entries):
        """Shifts and witness by the residue-by-residue scan: every shift
        in turn, and the first failing residue of the first failing shift."""
        modulus, shifts, witness = len(entries), [], None
        for m in range(modulus):
            bad = next((k for k in range(modulus) if entries[k] != entries[(m - k) % modulus]), None)
            if bad is None:
                shifts.append(m)
            elif witness is None:
                witness = (m, bad, entries[bad], entries[(m - bad) % modulus])
        return tuple(shifts), None if shifts else witness

    def test_scan_oracle_agreement(self):
        # Random tables over small values fail mostly; palindromes about a
        # random shift, with an entry bumped or not, reach the symmetric
        # verdicts and the late witnesses.
        rng = random.Random(20)
        for modulus in range(2, 25, 2):
            for trial in range(60):
                entries = [rng.randrange(3) for _ in range(modulus)]
                if trial % 2:
                    m = rng.randrange(modulus)
                    entries = [max(entries[k], entries[(m - k) % modulus]) for k in range(modulus)]
                    if trial % 4 == 3:
                        entries[rng.randrange(modulus)] += 1
                shifts, witness = self.scan(entries)
                verdict = check_symmetry_rolled(RolledTable(tuple(entries)))
                assert verdict.shifts == shifts, entries
                assert verdict.symmetric == bool(shifts), entries
                got = verdict.witness and astuple(verdict.witness)
                assert got == witness, entries

    def test_modulus_is_the_number_of_entries(self):
        assert RolledTable((0,) * 6).modulus == 6
        for entries in ((), (1,), (1, 2, 3)):
            with pytest.raises(InputError, match="positive even"):
                RolledTable(entries)

    def test_rolled_consistency_with_integer_verdict(self):
        dims = {0: 1, 1: 2, 2: 1}
        base = check_symmetry(make_table(dims))
        assert base.symmetric
        for n in (1, 2, 3):
            rolled = check_symmetry_rolled(roll_up(make_table(dims), n))
            assert rolled.symmetric
            assert base.shifts[0] % (2 * n) in rolled.shifts


class TestAnalyzeAction:
    def test_reeb_ball(self):
        report = analyze_action(builtin_example("reeb_ball_2"), name="reeb_ball_2")
        assert report.positive_verdict.symmetric
        assert report.positive_verdict.shifts == (0,)
        assert report.duality_status == "pass"
        assert report.positive_verdict.symmetric == report.negative_verdict.symmetric

    def test_disk_half_split_all_vacuous(self):
        report = analyze_action(builtin_example("disk_half_split"))
        assert report.positive_table.total() == 0
        assert report.negative_table.total() == 0
        assert report.positive_verdict.symmetric
        assert report.duality_status == "pass"

    def test_brieskorn_asymmetric(self):
        report = analyze_action(builtin_example("brieskorn_2"))
        assert not report.positive_verdict.symmetric
        assert report.duality_status == "skipped"

    def test_rolled_block(self):
        report = analyze_action(builtin_example("reeb_ball_1"), min_chern=2)
        assert report.rolled is not None
        table, verdict = report.rolled
        assert table.modulus == 4
        assert verdict.symmetric

    def test_region_equivalence_on_manifold_splits(self):
        for name, split in catalog_splits().items():
            try:
                from topsym.complexes import check_pseudomanifold

                check_pseudomanifold(split.domain)
            except Exception:
                continue
            report = analyze_action(split)
            assert report.positive_verdict.symmetric == report.negative_verdict.symmetric, name


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1)])
def test_linear_actions_have_their_closed_form(monkeypatch, capsys, p, q):
    # L(p, q) has large regions and interfaces at every size, and a known
    # answer: the positive table {2p: 1} with shift 4p, the negative one
    # {2q: 1} with shift 4q.  Its file is past the load's face limit from
    # L(1, 2) on, so both commands load one relabeled split through the
    # library, and verify reads the tables analyze kept with it.
    split = linear_action_split(p, q)
    vertices = sorted(split.domain.vertices)
    labels = random.Random(p * 10 + q).sample(range(2 * len(vertices)), len(vertices))
    split, name = relabeled_split(split, dict(zip(vertices, labels))), "L(%d,%d)" % (p, q)
    monkeypatch.setattr(cli, "load_space", lambda locator: (locator, split))
    assert main(["analyze", "--json", name]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "name": name,
        "betti_positive": [[2 * p, 1]],
        "betti_negative": [[2 * q, 1]],
        "verdict_positive": {"symmetric": True, "shifts": [4 * p]},
        "verdict_negative": {"symmetric": True, "shifts": [4 * q]},
        "duality": "pass",
        "factor2": "pass",
    }
    assert main(["verify", name]) == EXIT_OK
    assert capsys.readouterr().out.endswith("verify %s: pass\n" % name)
    # The domain is a ball, and P, a sphere times a ball, is not acyclic.
    assert not sphere_case(split)


def test_the_ladder_builds_the_test_splits():
    # The ladder's child builds its splits without the test helpers, whose
    # import would count in its time and memory.
    assert ladder.build_split("linear_2_1") == linear_action_split(2, 1)
    assert ladder.build_split("star_split_3") == boundary_star_split(3)
