"""Guards on deterministic work counts of the homology core.

Each count is a property of the algorithm, not of the host, so a change
that brings back the old work fails here rather than only in the bench.
"""

from topsym import ComplexPair, HomologyBasis, builtin_example, gf2
from topsym.cli import EXIT_OK, main


def count_reduction_work(monkeypatch):
    """Count the columns added to every ``Reduction``, the pivot steps
    (each XOR of a stored pivot into a column being reduced) and the
    ``solve`` calls."""
    counts = {"columns": 0, "steps": 0, "solves": 0}

    class Pivots(dict):
        def get(self, key, default=None):
            pivot = dict.get(self, key, default)
            counts["steps"] += pivot is not None
            return pivot

    add, solve = gf2.Reduction.add, gf2.Reduction.solve

    def counted_add(self, col):
        if type(self._pivots) is dict:
            self._pivots = Pivots(self._pivots)
        counts["columns"] += 1
        return add(self, col)

    def counted_solve(self, b):
        counts["solves"] += 1
        return solve(self, b)

    monkeypatch.setattr(gf2.Reduction, "add", counted_add)
    monkeypatch.setattr(gf2.Reduction, "solve", counted_solve)
    return counts


def test_wedge_of_spheres_needs_less_than_one_pivot_step_per_column(monkeypatch, capsys):
    # Every sphere of the wedge meets vertex 0, so with the pivot on the
    # lowest row each edge at vertex 0 would walk all earlier pivots.
    counts = count_reduction_work(monkeypatch)
    assert main(["analyze", "wedge_2_400"]) == EXIT_OK
    capsys.readouterr()
    assert counts["columns"] > 8000
    assert counts["steps"] < counts["columns"]


def test_acyclic_domain_basis_makes_no_solve_call(monkeypatch):
    # The ball has H~_k = 0 in every degree, so no cycle needs testing
    # against the boundaries.
    domain = builtin_example("reeb_ball_2").domain
    counts = count_reduction_work(monkeypatch)
    basis = HomologyBasis(ComplexPair.absolute(domain), augmented=True)
    assert basis.betti().total() == 0
    assert counts["columns"] > 0 and counts["solves"] == 0
