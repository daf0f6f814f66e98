"""The public API is the literal list and dict below.

Adding or removing a name from ``topsym.__all__`` has to change the
list too, and adding or removing a field of a public record has to
change the dict, so a public-API change is always an explicit line in
a diff.  A fact that follows from a record's fields is not a field.
"""

import dataclasses
import importlib

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

# The fields of every dataclass in ``topsym.__all__``, and of the records
# that public functions return, named by module.
PUBLIC_FIELDS = {
    # The critical cells follow from these two.
    "AcyclicMatching": ("pair", "matched"),
    # A table is its dimensions: which homology it holds is the caller's.
    "BettiTable": ("entries",),
    "BoundarySplit": ("domain", "positive", "negative"),
    "ComplexPair": ("ambient", "sub"),
    "Gf2Matrix": ("n_rows", "n_cols", "columns"),
    "HomologyMap": ("source", "target", "degree_shift", "matrices", "witnesses"),
    "MorseComplexData": ("critical", "boundaries"),
    # The modulus is the number of entries.
    "RolledTable": ("entries",),
    "SimplicialComplex": ("faces",),
    # A verdict is symmetric when it has a shift.
    "SymmetryVerdict": ("shifts", "witness"),
    # The copies are the domain relabeled by ``labels``.
    "TruncatedDouble": ("total", "exit_boundary", "entry_boundary", "tops", "labels"),
    "exactness.DualityReport": ("dimension", "negative_table", "positive_table"),
    "exactness.LesReport": ("relative", "slots"),
    "exactness.MayerVietorisReport": ("overlap_table", "total_table", "parts_table"),
    "exactness.SlotCheck": ("degree", "at", "middle_dim", "incoming_rank", "outgoing_rank", "composition_zero"),
    # The doubled positive table follows from the positive table.
    "symmetry.ActionReport": (
        "name",
        "positive_table",
        "negative_table",
        "positive_verdict",
        "negative_verdict",
        "duality",
        "factor2_total",
        "rolled",
    ),
    "symmetry.Witness": ("shift", "degree", "dim_at_degree", "dim_at_mirror"),
}


def test_all_is_the_literal_list():
    assert sorted(topsym.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(topsym, name, None) is not None, name


def resolve(name):
    """A name of ``topsym``, or ``module.Name`` of one of its modules."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module("topsym." + module) if module else topsym, attr)


def test_every_public_record_has_its_fields_pinned():
    public = {name for name in topsym.__all__ if dataclasses.is_dataclass(getattr(topsym, name))}
    assert sorted(public - PUBLIC_FIELDS.keys()) == []
    fields = {name: tuple(f.name for f in dataclasses.fields(resolve(name))) for name in PUBLIC_FIELDS}
    assert fields == PUBLIC_FIELDS
