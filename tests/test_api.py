"""The public API is the literal list below.

Adding or removing a name from ``topsym.__all__`` has to change this
list too, so a public-API change is always an explicit line in a diff.
"""

import dataclasses

import topsym

PUBLIC_NAMES = [
    "AcyclicMatching",
    "BettiTable",
    "BoundarySplit",
    "ComplexPair",
    "Gf2Matrix",
    "HomologyBasis",
    "HomologyMap",
    "InputError",
    "MatchingError",
    "MorseComplexData",
    "PseudomanifoldError",
    "RolledTable",
    "SimplicialComplex",
    "SymmetryVerdict",
    "TruncatedDouble",
    "analyze_action",
    "betti",
    "boundary_subcomplex",
    "build_complex",
    "build_matching",
    "builtin_example",
    "check_sphere_action",
    "check_symmetry",
    "check_symmetry_rolled",
    "cone",
    "connecting_map",
    "cross_polytope_sphere",
    "lefschetz_duality_check",
    "les_exactness_check",
    "mayer_vietoris_check",
    "morse_betti",
    "morse_complex",
    "roll_up",
    "truncated_double",
    "wedge_of_spheres",
]


def test_all_is_the_literal_list():
    assert sorted(topsym.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(topsym, name, None) is not None, name


def test_acyclic_matching_is_its_pair_and_matched_cells():
    # The critical cells follow from these two, so they are not a field.
    assert tuple(f.name for f in dataclasses.fields(topsym.AcyclicMatching)) == ("pair", "matched")


def test_truncated_double_keeps_only_what_its_callers_read():
    # The copies are the domain relabeled by ``labels``, so they are not a field.
    fields = tuple(f.name for f in dataclasses.fields(topsym.TruncatedDouble))
    assert fields == ("total", "exit_boundary", "entry_boundary", "tops", "labels")
