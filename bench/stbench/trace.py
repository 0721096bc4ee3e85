"""Traced run: spans around the calls into each stairtile layer.

The wrappers are installed from the benchmark's own files, in every
``stairtile`` module namespace that holds the wrapped function, and removed
when the traced pass ends.  Spans are kept in memory and written out at the
end of the run.  A target the program no longer has is reported as
``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from .core import Checker, Op, Outcome, run_op

ABSENT = "absent"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "size")

    def __init__(self, name: str, start: float, end: Optional[float],
                 parent: int, op: int, size: Optional[int] = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.op = op          # index into Tracer.op_names
        self.size = size      # work count read off the call (see TARGETS)


def _grid_cells(result, args) -> int:
    xs, ys = result
    return (len(xs) - 1) * (len(ys) - 1)


# (module, function, span name, size of the call's work)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("lattice", "points_in_box", "lattice.points_in_box",
     lambda r, a: len(r)),
    ("multiplicity", "_halfopen_grid", "multiplicity._halfopen_grid",
     _grid_cells),
    ("multiplicity", "_exact_counts", "multiplicity._exact_counts",
     lambda r, a: len(a[2])),
    ("multiplicity", "count_at", "multiplicity.count_at", None),
    ("multiplicity", "multiplicity_extrema",
     "multiplicity.multiplicity_extrema", None),
    ("multiplicity", "_triangle_faces", "multiplicity._triangle_faces",
     lambda r, a: len(r)),
    ("multiplicity", "is_jfold_packing", "multiplicity.is_jfold",
     lambda r, a: int(r)),
    ("multiplicity", "is_jfold_covering", "multiplicity.is_jfold",
     lambda r, a: int(r)),
    ("scales", "candidate_scales", "scales.candidate_scales",
     lambda r, a: len(r)),
    ("scales", "covering_predicate", "scales.predicate", None),
    ("scales", "packing_predicate", "scales.predicate", None),
    ("scales", "lambda_lower", "scales.lambda", None),
    ("scales", "lambda_upper", "scales.lambda", None),
    ("stairs", "selection_stair", "stairs.selection_stair", None),
    ("stairs", "verify_stair_tiling_converse", "stairs.verify_converse",
     None),
    ("search", "_search", "search.search", None),
    ("arith", "phi_k", "arith.phi_k", None),
    ("cli", "run", "cli.run", None),
    ("svgout", "render", "svgout.render", None),
]

# Counted, not spanned: there are too many to time one by one.
LATTICE_COUNTER = "lattice.Lattice.constructed"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_names: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.current = -1
        self.op = -1

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), None, tracer.current,
                        tracer.op)
            tracer.current = len(tracer.spans)
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.current = span.parent
            if measure is not None:
                span.size = measure(result, args)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def run_op(self, op: Op, limit: float, checker: Checker) -> Outcome:
        self.op = len(self.op_names)
        self.op_names.append(op.name)
        outcome = run_op(op, limit, checker)
        # a timeout can land between a span's creation and its try block
        now = time.perf_counter()
        for span in self.spans[-1::-1]:
            if span.op != self.op:
                break
            if span.end is None:
                span.end = now
        self.current = -1
        return outcome

    def write(self, path: str) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "size"],
                       "names": names, "ops": self.op_names,
                       "counters": dict(self.counters),
                       "spans": [[index[s.name], s.start, s.end, s.parent,
                                  s.op, s.size] for s in self.spans]},
                      handle, separators=(",", ":"))


def _stairtile_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "stairtile" or name.startswith("stairtile.")]


def _module(name: str):
    try:
        return importlib.import_module(f"stairtile.{name}")
    except ImportError:
        return None


@contextmanager
def instrumented(tracer: Tracer, targets=TARGETS) -> Iterator[set[str]]:
    """Install the wrappers; yield the set of span names with no target."""
    patches = []
    present: set[str] = set()
    try:
        for module_name, attr, span_name, measure in targets:
            original = getattr(_module(module_name), attr, None)
            if original is None:
                continue
            present.add(span_name)
            wrapper = tracer.wrap(span_name, original, measure)
            for mod in _stairtile_modules():
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        lattice_cls = getattr(_module("lattice"), "Lattice", None)
        init = vars(lattice_cls).get("__init__") if lattice_cls else None
        if init is not None:
            patches.append((lattice_cls, "__init__", init))
            lattice_cls.__init__ = tracer.count(LATTICE_COUNTER, init)
            present.add(LATTICE_COUNTER)
        yield ({t[2] for t in targets} | {LATTICE_COUNTER}) - present
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for k in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# (metric, unit, span names it needs)
PER_LAYER: list[tuple[str, str, tuple[str, ...]]] = [
    ("lattice.points_in_box.calls", "count", ("lattice.points_in_box",)),
    ("lattice.points_in_box.self_s", "s", ("lattice.points_in_box",)),
    ("lattice.points_in_box.points", "count", ("lattice.points_in_box",)),
    ("lattice.points_in_box.s_per_point", "s", ("lattice.points_in_box",)),
    ("lattice.Lattice.constructed", "count", (LATTICE_COUNTER,)),
    ("multiplicity._halfopen_grid.self_s", "s",
     ("multiplicity._halfopen_grid",)),
    ("multiplicity._halfopen_grid.cells", "count",
     ("multiplicity._halfopen_grid",)),
    ("multiplicity._exact_counts.self_s", "s",
     ("multiplicity._exact_counts",)),
    ("multiplicity._exact_counts.samples", "count",
     ("multiplicity._exact_counts",)),
    ("multiplicity._exact_counts.translates", "count",
     ("multiplicity._exact_counts", "lattice.points_in_box")),
    ("multiplicity._exact_counts.pairs", "count",
     ("multiplicity._exact_counts", "lattice.points_in_box")),
    ("multiplicity._exact_counts.fallback_calls", "count",
     ("multiplicity._exact_counts", "multiplicity.count_at")),
    ("multiplicity.multiplicity_extrema.calls", "count",
     ("multiplicity.multiplicity_extrema",)),
    ("multiplicity.multiplicity_extrema.self_s", "s",
     ("multiplicity.multiplicity_extrema",)),
    ("multiplicity._triangle_faces.self_s", "s",
     ("multiplicity._triangle_faces",)),
    ("multiplicity._triangle_faces.faces", "count",
     ("multiplicity._triangle_faces",)),
    ("scales.candidate_scales.self_s", "s", ("scales.candidate_scales",)),
    ("scales.candidate_scales.candidates", "count",
     ("scales.candidate_scales",)),
    ("scales.candidate_scales.window_points", "count",
     ("scales.candidate_scales", "lattice.points_in_box")),
    ("scales.predicate.evals", "count", ("scales.predicate",)),
    ("scales.predicate.self_s", "s", ("scales.predicate",)),
    ("scales.predicate.evals_per_lambda", "count",
     ("scales.predicate", "scales.lambda")),
    ("scales.lambda.calls", "count", ("scales.lambda",)),
    ("scales.lambda.self_s", "s", ("scales.lambda",)),
    ("stairs.selection_stair.calls", "count", ("stairs.selection_stair",)),
    ("stairs.selection_stair.self_s", "s", ("stairs.selection_stair",)),
    ("search.search.self_s", "s", ("search.search",)),
    ("search.search.lattices_tested", "count",
     ("search.search", "multiplicity.is_jfold")),
    ("search.search.pass_ratio", "ratio",
     ("search.search", "multiplicity.is_jfold")),
    ("stairs.verify_converse.self_s", "s", ("stairs.verify_converse",)),
    ("arith.phi_k.self_s", "s", ("arith.phi_k",)),
    ("cli.run.self_s", "s", ("cli.run",)),
    ("svgout.render.self_s", "s", ("svgout.render",)),
    ("import.numpy_s", "s", ()),
    ("import.stairtile_s", "s", ()),
    ("trace.overhead_frac", "ratio", ()),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, passes: int,
                 op_scale: list[float]) -> dict[str, float]:
    """Per-layer values per traced pass, before the import split and the
    overhead are added.  Ratios are taken over all traced passes.  Self
    times are brought to reference speed by their op's factor in
    ``op_scale``."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own * op_scale[span.op]
        size[span.name] += span.size or 0

    translates = pairs = fallback = window = tested = passed = 0
    box_points: dict[int, int] = defaultdict(int)
    has_count_at: set[int] = set()
    for span in spans:
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        if span.name == "lattice.points_in_box":
            box_points[span.parent] += span.size or 0
            if parent.name == "scales.candidate_scales":
                window += span.size or 0
        elif span.name == "multiplicity.count_at":
            has_count_at.add(span.parent)
        elif (span.name == "multiplicity.is_jfold"
              and parent.name == "search.search"):
            tested += 1
            passed += span.size or 0
    for i, span in enumerate(spans):
        if span.name == "multiplicity._exact_counts":
            translates += box_points[i]
            pairs += (span.size or 0) * box_points[i]
            fallback += i in has_count_at

    n = max(passes, 1)
    pib = "lattice.points_in_box"
    values = {
        f"{pib}.calls": calls[pib] / n,
        f"{pib}.self_s": self_s[pib] / n,
        f"{pib}.points": size[pib] / n,
        f"{pib}.s_per_point": _ratio(self_s[pib], size[pib]),
        LATTICE_COUNTER: tracer.counters[LATTICE_COUNTER] / n,
        "multiplicity._exact_counts.translates": translates / n,
        "multiplicity._exact_counts.pairs": pairs / n,
        "multiplicity._exact_counts.fallback_calls": fallback / n,
        "scales.candidate_scales.window_points": window / n,
        "scales.predicate.evals": calls["scales.predicate"] / n,
        "scales.predicate.evals_per_lambda": _ratio(
            calls["scales.predicate"], calls["scales.lambda"]),
        "search.search.lattices_tested": tested / n,
        "search.search.pass_ratio": _ratio(passed, tested),
        "multiplicity._halfopen_grid.cells":
            size["multiplicity._halfopen_grid"] / n,
        "multiplicity._exact_counts.samples":
            size["multiplicity._exact_counts"] / n,
        "multiplicity._triangle_faces.faces":
            size["multiplicity._triangle_faces"] / n,
        "scales.candidate_scales.candidates":
            size["scales.candidate_scales"] / n,
    }
    for metric, _, _ in PER_LAYER:
        stem, _, stat = metric.rpartition(".")
        if metric not in values and stat == "self_s":
            values[metric] = self_s[stem] / n
        elif metric not in values and stat == "calls":
            values[metric] = calls[stem] / n
    return values


def layer_metrics(values: dict[str, float],
                  absent: set[str]) -> dict[str, dict]:
    """The per-layer result block; metrics whose spans are gone read
    ``absent``."""
    out = {}
    for metric, unit, needs in PER_LAYER:
        value = ABSENT if absent.intersection(needs) else values[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
