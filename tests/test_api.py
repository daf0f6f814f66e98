"""The public API is the literal list and dicts below.

Adding or removing a name from ``topsym.__all__`` has to change the
list too, and adding or removing a field of a public record has to
change the dict, so a public-API change is always an explicit line in
a diff.  A fact that follows from a record's fields is not a field.
A public callable that nothing in the package reads is dead code,
unless the benchmark's tracer wraps it or ``LIBRARY_ONLY`` says why it
stays.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import topsym

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

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

# Public callables that no module of the package reads, each with the
# reason it stays; keyed ``name`` for a function, ``Class.name`` for a
# method.
LIBRARY_ONLY = {
    "check_sphere_action": "the paper's sphere case: the action's verdict for a closed sphere's filling",
    "AcyclicMatching.from_simplices": "numbers and validates a matching given from outside as simplex pairs",
}

# The fields of every dataclass in ``topsym.__all__``, and of the records
# that public functions return, named by module.
PUBLIC_FIELDS = {
    # The matched pairs are cell numbers of the pair's Hasse diagram, as
    # the coreduction makes them and the validation and the flow read
    # them; the simplex pairs (``matched``) and the critical cells follow.
    "AcyclicMatching": ("pair", "facets", "cofacets"),
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
    # The copies are the domain relabeled by ``labels``; the boundaries are
    # the copies of the split's regions, and they, the total and its top
    # simplices follow from them and are made when first read.
    "TruncatedDouble": ("domain", "positive", "negative", "labels"),
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


def traced_names():
    """The callables ``bench/tracing.py`` wraps, keyed as ``LIBRARY_ONLY`` is."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    functions, methods = tracing._targets()
    return {name for _, _, name, _ in functions} | {"%s.%s" % (cls.__name__, name) for _, cls, name, _ in methods}


def test_every_public_callable_has_a_reader():
    # A reader is any use of the name, as a name or an attribute, in a
    # module of the package other than ``__init__``, which re-exports.
    defined, read = [], set()
    for path in sorted(Path(topsym.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append(node.name)
            elif isinstance(node, ast.ClassDef):
                defined += ["%s.%s" % (node.name, m.name) for m in node.body if isinstance(m, ast.FunctionDef)]
        if path.name != "__init__.py":
            nodes = ast.walk(tree)
            read.update(n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute)))
    public = [q for q in defined if not any(part.startswith("_") for part in q.split("."))]
    unread = [q for q in public if q.rpartition(".")[2] not in read]
    assert sorted(set(unread) - traced_names() - LIBRARY_ONLY.keys()) == []
    assert sorted(LIBRARY_ONLY.keys() - set(unread)) == []  # an exemption goes once its callable has a reader
