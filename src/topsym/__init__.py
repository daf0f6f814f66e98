"""Topological symmetry verdicts for triangulated boundary splits.

The package decides whether the dimension table of the relative
homology H(domain, positive region) over the two-element field admits a
palindromic shift, and mechanically verifies the homological identities
that connect the question to its equivalent formulations: long exact
sequences, Mayer-Vietoris additivity, Lefschetz-style duality, the
factor-two identity of the glued double, and discrete Morse homology.
"""

from .complexes import (
    BettiTable,
    ComplexPair,
    HomologyBasis,
    SimplicialComplex,
    betti,
    boundary_subcomplex,
    build_complex,
)
from .errors import InputError, MatchingError, PseudomanifoldError
from .exactness import (
    HomologyMap,
    lefschetz_duality_check,
    les_exactness_check,
    mayer_vietoris_check,
)
from .gf2 import Gf2Matrix
from .glued import TruncatedDouble, truncated_double
from .morse import AcyclicMatching, MorseComplexData, build_matching, morse_betti, morse_complex
from .spaces import BoundarySplit, builtin_example, cone, cross_polytope_sphere, wedge_of_spheres
from .symmetry import (
    RolledTable,
    SymmetryVerdict,
    analyze_action,
    check_symmetry,
    check_symmetry_rolled,
    roll_up,
)

__all__ = [
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
    "check_symmetry",
    "check_symmetry_rolled",
    "cone",
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
