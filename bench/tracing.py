"""Span tracing for the benchmark, installed from outside the topsym package.

``install`` wraps public callables of every topsym module.  A function is
replaced at every module binding that holds it (``cli``, ``symmetry`` and
``exactness`` import ``betti`` by name, for example); a method is replaced
on its class, so ``Gf2Matrix.rank`` is traced for every caller.  Spans stay
in memory and are written out by ``Tracer.write`` when the run ends.

Each span has a key ``<layer>.<what>``; the layer is the topsym module.
Self time is a span's duration minus the durations of its child spans.
Inclusive time is counted only for the outermost span of a key, so nested
calls of one key (``build_complex`` -> ``from_maximal`` -> validation) are
not counted twice.

Which end-to-end metric each layer metric should move, and on which
workload, is listed in ``bench/README.md``.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder with online self and inclusive time."""

    def __init__(self):
        self.keys: List[str] = []
        self._key_ids: Dict[str, int] = {}
        # One row per span, in start order: key id, start, end, parent row, request.
        self.columns = {name: array("q") for name in ("key", "start_ns", "end_ns", "parent", "request")}
        self.request = -1
        self._stack: List[list] = []  # [row, child_ns] per open span
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def _key_id(self, key: str) -> int:
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def wrap(self, key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span ``key``; ``after(tracer, args, result)``
        adds counts once the call has returned."""
        key_id = self._key_id(key)
        cols = self.columns
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(cols["key"])
            cols["key"].append(key_id)
            cols["parent"].append(stack[-1][0] if stack else -1)
            cols["request"].append(self.request)
            frame = [row, 0]
            stack.append(frame)
            depth[key] += 1
            cols["end_ns"].append(0)
            start = perf_counter_ns()
            cols["start_ns"].append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                cols["end_ns"][row] = end
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                depth[key] -= 1
                if depth[key] == 0:
                    self.inclusive_ns[key] += duration
                self.self_ns[key] += duration - frame[1]
                self.calls[key] += 1
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def spans_with_parent_key(self, key: str, parent_key: str) -> int:
        """Number of ``key`` spans whose direct parent is a ``parent_key`` span."""
        if key not in self._key_ids or parent_key not in self._key_ids:
            return 0
        k, p = self._key_ids[key], self._key_ids[parent_key]
        keys, parents = self.columns["key"], self.columns["parent"]
        return sum(1 for row in range(len(keys)) if keys[row] == k and parents[row] >= 0 and keys[parents[row]] == p)

    def write(self, path: str) -> None:
        """All spans as one JSON object of parallel columns."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"keys": self.keys, **{n: c.tolist() for n, c in self.columns.items()}}, handle)


def _count_bits(extra_cols: int):
    def after(tracer: Tracer, args, result) -> None:
        matrix = args[0]
        tracer.counts["gf2.bits_reduced"] += matrix.n_rows * (matrix.n_cols + extra_cols)

    return after


def _count_critical(tracer: Tracer, args, matching) -> None:
    pair = matching.pair
    tracer.counts["morse.critical"] += len(matching.critical)
    tracer.counts["morse.cells"] += len(pair.ambient) - len(pair.sub)


def _targets():
    from topsym import cli, complexes, exactness, gf2, morse, spaces, symmetry

    functions = [
        ("cli.load", cli, "load_space", None),
        ("cli.parse", cli, "parse_space_file", None),
        ("cli.emit", cli, "report_json", None),
        ("cli.emit", cli, "space_file_dict", None),
        ("cli.suites", cli, "run_identity_suites", None),
        ("complexes.construct", complexes, "build_complex", None),
        ("complexes.boundary_subcomplex", complexes, "boundary_subcomplex", None),
        ("complexes.betti", complexes, "betti", None),
        ("complexes.pseudomanifold", complexes, "check_pseudomanifold", None),
        ("exactness.les", exactness, "les_exactness_check", None),
        ("exactness.mv", exactness, "mayer_vietoris_check", None),
        ("exactness.duality", exactness, "lefschetz_duality_check", None),
        ("morse.matching", morse, "build_matching", _count_critical),
        ("morse.complex", morse, "morse_complex", None),
        ("morse.betti", morse, "morse_betti", None),
        ("spaces.double", spaces, "truncated_double", None),
        ("symmetry.analyze", symmetry, "analyze_action", None),
        ("symmetry.verdict", symmetry, "check_symmetry", None),
    ]
    methods = [
        ("cli.split", cli.SpaceFile, "split", None),
        ("complexes.construct", complexes.SimplicialComplex, "__post_init__", None),
        ("complexes.construct", complexes.SimplicialComplex, "from_maximal", None),
        ("complexes.maximal_simplices", complexes.SimplicialComplex, "maximal_simplices", None),
        ("complexes.pair", complexes.ComplexPair, "__post_init__", None),
        ("complexes.homology_basis", complexes.HomologyBasis, "__init__", None),
        ("complexes.boundary_matrix", complexes.HomologyBasis, "boundary_matrix", None),
        ("complexes.express", complexes.HomologyBasis, "express_class", None),
        ("spaces.split", spaces.BoundarySplit, "__post_init__", None),
        ("gf2.rank", gf2.Gf2Matrix, "rank", _count_bits(0)),
        ("gf2.kernel", gf2.Gf2Matrix, "kernel_basis", _count_bits(0)),
        ("gf2.solve", gf2.Gf2Matrix, "solve_preimage", _count_bits(1)),
        ("gf2.mat_mul", gf2.Gf2Matrix, "mat_mul", None),
        ("gf2.build", gf2.Gf2Matrix, "__post_init__", None),
        ("gf2.build", gf2.Gf2Matrix, "from_columns", None),
        ("gf2.build", gf2.Gf2Matrix, "transpose", None),
        ("gf2.build", gf2.Gf2Matrix, "stack", None),
    ]
    return functions, methods


def install(tracer: Tracer) -> None:
    """Wrap every target; raises if a binding a caller uses was missed."""
    functions, methods = _targets()
    modules = [m for name, m in sys.modules.items() if name == "topsym" or name.startswith("topsym.")]
    for key, owner, name, after in functions:
        original = getattr(owner, name)
        traced = tracer.wrap(key, original, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    for key, cls, name, after in methods:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(key, raw.__func__, after)))
        else:
            setattr(cls, name, tracer.wrap(key, raw, after))
    originals = {id(getattr(owner, name).__wrapped__) for _, owner, name, _ in functions}
    for module in modules:
        for attr, value in vars(module).items():
            if id(value) in originals:
                raise RuntimeError("untraced binding %s.%s" % (module.__name__, attr))


# Layer metric -> (kind, span key or count); "self" and "incl" are seconds.
LAYER_METRICS = {
    "gf2.rank_s": ("incl", "gf2.rank"),
    "gf2.rank_calls": ("calls", "gf2.rank"),
    "gf2.kernel_s": ("incl", "gf2.kernel"),
    "gf2.solve_s": ("incl", "gf2.solve"),
    "gf2.solve_calls": ("calls", "gf2.solve"),
    "gf2.bits_reduced": ("count", "gf2.bits_reduced"),
    "complexes.homology_basis_s": ("self", "complexes.homology_basis"),
    "complexes.homology_basis_calls": ("calls", "complexes.homology_basis"),
    "complexes.boundary_matrix_s": ("incl", "complexes.boundary_matrix"),
    "complexes.betti_calls": ("calls", "complexes.betti"),
    "complexes.betti_misses": ("count", "complexes.betti_misses"),
    "complexes.maximal_simplices_s": ("incl", "complexes.maximal_simplices"),
    "complexes.boundary_subcomplex_s": ("incl", "complexes.boundary_subcomplex"),
    "complexes.construct_s": ("incl", "complexes.construct"),
    "morse.matching_s": ("incl", "morse.matching"),
    "morse.complex_s": ("incl", "morse.complex"),
    "exactness.les_s": ("incl", "exactness.les"),
    "exactness.mv_s": ("incl", "exactness.mv"),
    "exactness.duality_s": ("incl", "exactness.duality"),
    "exactness.express_calls": ("calls", "complexes.express"),
    "spaces.split_s": ("incl", "spaces.split"),
    "spaces.double_s": ("incl", "spaces.double"),
    "symmetry.analyze_s": ("self", "symmetry.analyze"),
    "cli.load_s": ("incl", "cli.load"),
    "cli.emit_s": ("incl", "cli.emit"),
}


def summary(tracer: Tracer, requests: int) -> Dict:
    """Per-request layer metrics, the self-time table and the critical ratio."""
    tracer.counts["complexes.betti_misses"] = tracer.spans_with_parent_key(
        "complexes.homology_basis", "complexes.betti"
    )
    metrics = {}
    for name, (kind, key) in LAYER_METRICS.items():
        if kind == "self":
            value = tracer.self_ns[key] / 1e9
        elif kind == "incl":
            value = tracer.inclusive_ns[key] / 1e9
        elif kind == "calls":
            value = tracer.calls[key]
        else:
            value = tracer.counts[key]
        metrics[name] = value / requests
    cells = tracer.counts["morse.cells"]
    metrics["morse.critical_ratio"] = tracer.counts["morse.critical"] / cells if cells else 0.0
    return {
        "metrics": metrics,
        "self_s": {key: tracer.self_ns[key] / 1e9 for key in tracer.keys},
        "calls": {key: tracer.calls[key] for key in tracer.keys},
        "spans": len(tracer.columns["key"]),
    }
