"""Outside-in tracing of lincat's layers.

The tracer wraps the public entry points of each layer module in every
`lincat.*` namespace that binds them (modules import with
`from .x import y`), plus `Matrix.__matmul__` on the class.  Each call
becomes a span (name, start, end, parent span, job id) kept in memory
and written out at the end.  A span's self time is its duration minus
the time its child spans cover; the time spent computing counters is
charged to the `trace` layer, so the self times of all layers, the
harness and the trace add up to the traced wall time.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("exactlinalg", "kcat", "covering", "galois", "grading",
          "cohomology", "groups", "pi1pres", "formats", "cli")

# public entry points per layer; names a later version of the library no
# longer has are skipped
ENTRY_POINTS = {
    "exactlinalg": ("rref", "rank", "kernel_basis", "solve", "inverse",
                    "column_space_basis", "quotient_basis",
                    "smith_normal_form"),
    "kcat": ("compose", "validate_category", "functor_compose",
             "functor_equal", "functor_is_isomorphism", "inverse_functor",
             "identity_functor", "validate_functor", "is_connected",
             "present", "functor_from_arrows"),
    "covering": ("star", "fibre", "check_covering", "validate_morphism",
                 "check_morphism", "extend_morphism", "aut1",
                 "galois_obstruction", "lambda_map"),
    "galois": ("check_action", "quotient", "action_from_deck", "is_galois",
               "structure_iso", "hom_coverings", "gset_analysis",
               "check_universal"),
    "grading": ("trivial_grading", "grading_on_basis", "validate_grading",
                "induced_grading", "regrade", "validate_hwalk",
                "walk_degree", "is_connected_grading", "smash",
                "component_span", "same_components"),
    "cohomology": ("validate_derivation", "derivation_space",
                   "inner_derivations", "h1", "is_inner",
                   "in_derivation_space", "validate_character",
                   "characters", "delta", "delta_injectivity_check"),
    "groups": ("cyclic_group", "trivial_group", "find_isomorphism",
               "is_isomorphic"),
    "pi1pres": ("pi1_presentation", "abelianization", "bounded_order"),
    "formats": ("load_value", "load_doc", "presentation_from_text",
                "canonical_dumps", "category_to_doc", "functor_to_doc",
                "grading_to_doc", "group_to_doc"),
    "cli": ("run",),
}

# counters computed from the arguments (before) or the result (after)


def _rref_shape(counters: Counter, m) -> None:
    counters["exactlinalg.rref.cells"] += m.rows * m.cols
    counters["exactlinalg.rref.nonzeros"] += sum(1 for e in m.entries if e)


def _matmul_shape(counters: Counter, a, b) -> None:
    counters["exactlinalg.matmul.empty"] += not (a.rows and a.cols and b.cols)


def _extend_result(counters: Counter, h) -> None:
    counters["covering.extend_morphism.hits"] += h is not None


def _order_result(counters: Counter, order) -> None:
    if isinstance(order, int):
        counters["pi1pres.cosets"] += order


def _file_size(counters: Counter, path, *_) -> None:
    counters["formats.bytes_in"] += os.path.getsize(path)


BEFORE = {"exactlinalg.rref": _rref_shape,
          "exactlinalg.matmul": _matmul_shape,
          "formats.load_value": _file_size}
AFTER = {"covering.extend_morphism": _extend_result,
         "pi1pres.bounded_order": _order_result}


class Tracer:
    """Span recorder.  Spans live in flat arrays (one row per call) so a
    pass with millions of calls stays within a few hundred megabytes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.trace_s = 0.0
        self.job = -1
        self._stack: list[list] = []   # [span index, name id, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append([idx, nid, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def measure(self, hook, *args) -> None:
        """Run a counter hook and charge its time to the trace itself.  A
        hook that cannot read a changed library object is counted, not
        raised, so the traced pass still completes."""
        start = time.perf_counter()
        try:
            hook(self.counters, *args)
        except (AttributeError, TypeError):
            self.counters[f"unreadable {hook.__name__}"] += 1
        spent = time.perf_counter() - start
        self.trace_s += spent
        if self._stack:
            self._stack[-1][2] += spent

    # -- wrapping --------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                tracer.measure(before, *args)
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                tracer.measure(after, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every entry point in each lincat namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lincat" or n.startswith("lincat.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules.get(f"lincat.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if getattr(original, "__module__", None) != home.__name__:
                    continue
                wrapped = self._wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        matrix = sys.modules["lincat.exactlinalg"].Matrix
        self._patch(matrix, "__matmul__",
                    self._wrap(matrix.__matmul__, "exactlinalg.matmul"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def layer_of(self, name: str) -> str:
        return name.split(".", 1)[0]

    def metrics(self, wall_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics of one traced pass, by the names that
        BENCHMARK.json lists."""
        calls = {self.names[i]: n for i, n in self.calls.items()}
        self_s = {self.names[i]: s for i, s in self.self_s.items()}
        c = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS + ("harness",):
            out[f"{layer}.self_s"] = sum(
                s for n, s in self_s.items() if self.layer_of(n) == layer)
            if layer != "harness":
                out[f"{layer}.calls"] = sum(
                    k for n, k in calls.items() if self.layer_of(n) == layer)
        out["trace.self_s"] = self.trace_s
        out["trace.wall_s"] = wall_s
        out["trace.overhead_ratio"] = overhead_ratio

        def ratio(a, b):
            return a / b if b else 0.0

        for name in ("exactlinalg.rref", "exactlinalg.solve",
                     "exactlinalg.rank", "exactlinalg.matmul",
                     "kcat.functor_compose", "kcat.functor_equal",
                     "kcat.validate_category", "kcat.validate_functor",
                     "kcat.present", "kcat.compose", "covering.aut1",
                     "covering.extend_morphism", "covering.check_covering",
                     "galois.check_action", "galois.quotient",
                     "groups.find_isomorphism",
                     "cohomology.derivation_space",
                     "cohomology.inner_derivations",
                     "grading.validate_grading", "pi1pres.bounded_order",
                     "formats.load_value"):
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in ("exactlinalg.rref", "exactlinalg.matmul"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["exactlinalg.rref.cells"] = c["exactlinalg.rref.cells"]
        out["exactlinalg.rref.density"] = ratio(
            c["exactlinalg.rref.nonzeros"], c["exactlinalg.rref.cells"])
        out["exactlinalg.matmul.empty_ratio"] = ratio(
            c["exactlinalg.matmul.empty"], calls.get("exactlinalg.matmul", 0))
        out["covering.extend_morphism.hit_ratio"] = ratio(
            c["covering.extend_morphism.hits"],
            calls.get("covering.extend_morphism", 0))
        out["pi1pres.cosets"] = c["pi1pres.cosets"]
        out["formats.bytes_in"] = c["formats.bytes_in"]
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: [name, start, end, parent, job], times in
        seconds from the first span; the first line holds the legend."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end",
                                             "parent", "job"],
                                 "names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"[{self.span_name[i]},"
                         f"{self.span_start[i] - t0:.7f},"
                         f"{self.span_end[i] - t0:.7f},"
                         f"{self.span_parent[i]},{self.span_job[i]}]\n")
