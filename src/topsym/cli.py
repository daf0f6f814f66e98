"""Command-line front end: space files in, reports and verdicts out.

Space files are JSON with a name, the maximal simplices, and optional
closed boundary regions.  A missing region is filled in by the rule in
the ``BoundarySplit`` docstring (``topsym.spaces``).  Space files and
``--json`` reports are written as indented JSON with sorted keys and
each list of integers on one line (``_dump``); every string, number and
list of simplices in them is encoded by ``json.dumps``, so names are
written exactly as given.

Exit codes: 0 success, 1 failed --assert-symmetric, 2 input or
validation error, every malformed space file included (see
``parse_space_file``), 3 identity-suite mismatch in ``verify``, 4
internal failure (any other exception), so that a crash never reads as
a verdict.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

from .complexes import ComplexPair, HomologyBasis, SimplicialComplex, betti, build_complex, check_face_count
from .errors import InputError
from .exactness import excision_check, les_exactness_check
from .morse import build_matching, morse_betti
from .glued import TruncatedDouble
from .spaces import BoundarySplit, builtin_example
from .symmetry import MAX_MIN_CHERN, ActionReport, SymmetryVerdict, analyze_action

EXIT_OK = 0
EXIT_ASSERT_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SUITE_FAILED = 3
EXIT_INTERNAL_ERROR = 4


@dataclass(frozen=True)
class SpaceFile:
    """A parsed space file: its name and the split its fields give, which
    ``parse_space_file`` built and validated."""

    name: str
    _split: BoundarySplit

    def split(self) -> BoundarySplit:
        return self._split


def _simplex_list(raw, label: str) -> Tuple[Tuple[int, ...], ...]:
    # JSON decodes integers to exact ``int`` and true/false to ``bool``,
    # so testing types keeps booleans out.
    if not (
        isinstance(raw, list)
        and set(map(type, raw)) <= {list}
        and all(raw)
        and set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        raise InputError("%s must be a list of nonempty integer lists" % label)
    _check_listed_faces(raw, label)
    return tuple(map(tuple, raw))


def _check_listed_faces(simplices, label: str) -> None:
    """The load's face limit on a listed field: 2^|s| - 1 faces a simplex."""
    check_face_count(sum(1 << len(s) for s in simplices) - len(simplices), label)


def parse_space_file(data: Union[bytes, str]) -> SpaceFile:
    """Decode a space file, check its fields and build its split.

    Every malformed file is an ``InputError`` (exit 2): text that is not
    UTF-8 or not JSON, JSON nested too deeply or holding an integer past
    Python's digit limit, a name that is not Unicode text, a field of the
    wrong shape, too many faces, or regions that do not split the
    boundary.  Every field is checked for shape and face count before
    any is closed, and the returned SpaceFile holds the validated split.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError("space file is not UTF-8: %s" % exc) from exc
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON at byte offset %d: %s" % (exc.pos, exc.msg)) from exc
    except (RecursionError, ValueError) as exc:
        raise InputError("space file cannot be decoded: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise InputError("space file must be a JSON object")
    unknown = set(raw) - {"name", "maximal_simplices", "positive_region", "negative_region"}
    if unknown:
        raise InputError("unknown space-file fields: %s" % ", ".join(sorted(unknown)))
    if not isinstance(raw.get("name"), str):
        raise InputError("space file needs a string 'name'")
    try:
        raw["name"].encode("utf-8")
    except UnicodeEncodeError:
        raise InputError("space-file 'name' is not Unicode text") from None
    if "maximal_simplices" not in raw:
        raise InputError("space file needs 'maximal_simplices'")
    keys = ("maximal_simplices", "positive_region", "negative_region")
    maximal, *listed = [_simplex_list(raw[key], key) if key in raw else None for key in keys]
    regions = [None if r is None else build_complex(r) for r in listed]  # closed first, so reported first
    return SpaceFile(raw["name"], BoundarySplit(build_complex(maximal), *regions))


def space_file_dict(name: str, obj: Union[SimplicialComplex, BoundarySplit, TruncatedDouble]) -> Dict:
    """Serializable space-file payload with deterministic ordering.

    A split's domain is pure, as extracting its boundary checked, so its
    maximal simplices are its top simplices; a double is the split of its
    total by its exit and entry boundaries.  The regions may be impure.
    """
    if isinstance(obj, SimplicialComplex):
        return {"name": name, "maximal_simplices": list(map(list, obj.maximal_simplices()))}
    double = isinstance(obj, TruncatedDouble)
    tops = obj.tops if double else obj.domain.simplices(obj.domain.dim)
    regions = (obj.exit_boundary, obj.entry_boundary) if double else (obj.positive, obj.negative)
    return {
        "name": name,
        "maximal_simplices": list(map(list, tops)),
        "positive_region": list(map(list, regions[0].maximal_simplices())),
        "negative_region": list(map(list, regions[1].maximal_simplices())),
    }


def _layout(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` lays it
    out at ``indent``, except that each list of integers takes one line.

    Strings, numbers and integer lists come from ``json.dumps`` itself,
    and a list of integer lists, such as the simplices of a space file,
    is encoded by one call of it and broken into lines between items.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        body = (",\n" + inner).join(json.dumps(key) + ": " + _layout(value[key], inner) for key in sorted(value))
        return "{\n%s%s\n%s}" % (inner, body, indent)
    if not (isinstance(value, list) and value) or set(map(type, value)) == {int}:
        return json.dumps(value)
    if set(map(type, value)) == {list} and set(map(type, chain.from_iterable(value))) <= {int}:
        body = json.dumps(value)[1:-1].replace("], [", "],\n%s[" % inner)
    else:
        body = (",\n" + inner).join(_layout(item, inner) for item in value)
    return "[\n%s%s\n%s]" % (inner, body, indent)


def _dump(payload: Dict) -> str:
    """Indented JSON with each list of integers on one line."""
    return _layout(payload, "") + "\n"


def load_space(locator: str) -> Tuple[str, BoundarySplit]:
    """Resolve a catalog name or a space-file path to a named split."""
    if os.path.exists(locator):
        try:
            with open(locator, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise InputError("cannot read %s: %s" % (locator, exc.strerror)) from exc
        space = parse_space_file(data)
        return space.name, space.split()
    if os.sep in locator or locator.endswith(".json"):
        raise InputError("no such file: %s" % locator)
    obj = builtin_example(locator)
    return locator, obj if isinstance(obj, BoundarySplit) else BoundarySplit(obj)


# -- report formatting -------------------------------------------------------


def _table_json(table) -> List[List[int]]:
    dims = table.as_dict()
    if not dims:
        return []
    lo, hi = min(dims), max(dims)
    return [[k, dims.get(k, 0)] for k in range(lo, hi + 1)]


def _verdict_json(verdict: SymmetryVerdict) -> Dict:
    out: Dict = {"symmetric": verdict.symmetric, "shifts": list(verdict.shifts)}
    if verdict.witness is not None:
        out["witness"] = asdict(verdict.witness)
    return out


def report_json(report: ActionReport) -> Dict:
    out = {
        "name": report.name,
        "betti_positive": _table_json(report.positive_table),
        "betti_negative": _table_json(report.negative_table),
        "verdict_positive": _verdict_json(report.positive_verdict),
        "verdict_negative": _verdict_json(report.negative_verdict),
        "duality": report.duality_status,
        "factor2": "pass" if report.factor2_passed else "fail",
    }
    if report.rolled is not None:
        table, verdict = report.rolled
        out["rolled"] = {
            "modulus": table.modulus,
            "entries": list(table.entries),
            "verdict": _verdict_json(verdict),
        }
    return out


def _format_table(cells: List[List[int]]) -> str:
    return "  ".join("%d:%d" % (k, d) for k, d in cells) or "0"


def _format_verdict(verdict: Dict) -> str:
    if verdict["symmetric"]:
        return "symmetric (shift %s)" % ", ".join(map(str, verdict["shifts"]))
    return "asymmetric (shift %d fails at degree %d: %d vs %d)" % tuple(verdict["witness"].values())


def report_text(report: ActionReport) -> str:
    """The lines of the ``report_json`` payload, so text and JSON agree."""
    out = report_json(report)
    lines = [
        "space: %s" % out["name"],
        "betti (domain, positive): %s" % _format_table(out["betti_positive"]),
        "betti (domain, negative): %s" % _format_table(out["betti_negative"]),
        "verdict positive: %s" % _format_verdict(out["verdict_positive"]),
        "verdict negative: %s" % _format_verdict(out["verdict_negative"]),
        "duality: %s" % out["duality"],
        "factor2: %s" % out["factor2"],
    ]
    if "rolled" in out:
        rolled = out["rolled"]
        entries = ", ".join(map(str, rolled["entries"]))
        lines.append("rolled mod %d: (%s) %s" % (rolled["modulus"], entries, _format_verdict(rolled["verdict"])))
    return "\n".join(lines) + "\n"


# -- identity suites ---------------------------------------------------------


def run_identity_suites(split: BoundarySplit) -> Dict[str, str]:
    """The five checks behind ``verify``; values are pass/fail/skipped.

    Duality and the factor-2 identity are read from ``analyze_action``.
    The long exact sequences run first, so that ``analyze_action`` and
    Morse read the pairs' Betti tables their bases recorded.  Equal
    regions, as on a closed domain, give one pair; the domain pairs
    share one reduced domain basis, dropped before the exit pair's LES.
    Mayer-Vietoris is ``excision_check`` on the bases the sequences
    built: only the positive basis's representatives outlive its LES,
    and the exit pair's basis goes once they are pushed into it.
    """
    double = split.double
    pairs = [split.positive_pair(), split.negative_pair(), double.exit_pair()]
    if split.negative.faces == split.positive.faces:
        del pairs[1]
    domain_basis = HomologyBasis(ComplexPair.absolute(split.domain), augmented=True)
    positive = les_exactness_check(pairs[0], domain_basis)
    exact, reps = positive.passed, {k: positive.relative.representatives(k) for k in positive.relative.degrees()}
    del positive
    exact = exact and all(les_exactness_check(p, domain_basis).passed for p in pairs[1:-1])
    del domain_basis
    exit_les = les_exactness_check(pairs[-1])
    exact, excision = exact and exit_les.passed, excision_check(reps, double.labels, exit_les.relative).passed
    del exit_les

    report = analyze_action(split)
    morse = all(morse_betti(build_matching(p)) == betti(p) for p in pairs)
    passed = {"les": exact, "mayer_vietoris": excision, "factor2": report.factor2_passed, "morse": morse}
    return {"duality": report.duality_status, **{suite: "pass" if ok else "fail" for suite, ok in passed.items()}}


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args) -> int:
    name, split = load_space(args.space)
    report = analyze_action(split, min_chern=args.mod, name=name)
    if args.json:
        sys.stdout.write(_dump(report_json(report)))
    else:
        sys.stdout.write(report_text(report))
    if args.assert_symmetric and not report.positive_verdict.symmetric:
        return EXIT_ASSERT_FAILED
    return EXIT_OK


def _write_space_file(payload: Dict, output: Optional[str]) -> None:
    """Write to ``output`` when given, else to stdout, only a file that
    loads: the load's face limit holds on each listed field."""
    for key in ("maximal_simplices", "positive_region", "negative_region"):
        _check_listed_faces(payload.get(key, ()), key)
    text = _dump(payload)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (output, exc.strerror)) from exc
    else:
        sys.stdout.write(text)


def cmd_example(args) -> int:
    _write_space_file(space_file_dict(args.name, builtin_example(args.name)), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    name, split = load_space(args.space)
    results = run_identity_suites(split)
    passed = all(v != "fail" for v in results.values())
    if args.json:
        sys.stdout.write(_dump({"name": name, "suites": results, "passed": passed}))
    else:
        for suite in ("duality", "les", "mayer_vietoris", "factor2", "morse"):
            sys.stdout.write("%-14s %s\n" % (suite, results[suite]))
        sys.stdout.write("verify %s: %s\n" % (name, "pass" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_SUITE_FAILED


def cmd_double(args) -> int:
    name, split = load_space(args.space)
    # Nothing checks the written split again; this refusal keeps it valid.
    # The load checked the domain and its regions and gluing checks the
    # interface, so with no ridge in the interface the double's boundary is
    # its exit and entry boundaries (``TruncatedDouble``).
    if shared := split.interface.simplices(split.domain.dim - 1):
        message = "positive and negative regions share boundary simplex %r, which the double glues into its interior"
        raise InputError(message % (shared[0],))
    _write_space_file(space_file_dict(name + "_double", split.double), args.output)
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="topsym",
        description="Symmetry verdicts and homological identity checks for "
        "triangulated boundary splits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="Betti tables and symmetry verdicts")
    analyze.add_argument("space", help="space file or catalog name")
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.add_argument("--mod", type=int, metavar="N", help="add verdicts rolled modulo 2N, N <= %d" % MAX_MIN_CHERN)
    analyze.add_argument(
        "--assert-symmetric",
        action="store_true",
        help="exit 1 when the positive verdict is asymmetric",
    )
    analyze.set_defaults(func=cmd_analyze)

    example = sub.add_parser("example", help="write a catalog space file")
    example.add_argument("name", help="catalog name")
    example.add_argument("-o", "--output", help="write to a file instead of stdout")
    example.set_defaults(func=cmd_example)

    verify = sub.add_parser("verify", help="run the homological identity suites")
    verify.add_argument("space", help="space file or catalog name")
    verify.add_argument("--json", action="store_true", help="machine-readable output")
    verify.set_defaults(func=cmd_verify)

    double = sub.add_parser("double", help="emit the truncated double as a space file")
    double.add_argument("space", help="space file or catalog name")
    double.add_argument("-o", "--output", help="write to a file instead of stdout")
    double.set_defaults(func=cmd_double)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command builds many tuples, sets and dicts and no reference cycle,
    # so reference counting frees all of it, and a collection during the
    # command would walk every live object to free nothing.  The cyclic
    # collector is paused for the command and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
