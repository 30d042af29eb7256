"""Spans around boxcalc's public functions, installed from outside the package.

`traced(tracer)` replaces every module attribute in boxcalc that binds a
wrapped function (a module that did `from .oracle import gauss_legendre_box`
holds its own binding, so each binding is patched), wraps a few methods on
their classes, and gives `oracle` a copy of `math` whose `fsum` is timed.
Everything is restored on exit, so untraced runs measure unmodified code.

A span records name, start, end, parent and request id.  Spans stay in
memory (up to KEEP_SPANS) and are written out by the caller.  Layer self time is
a span's duration minus the time its child spans cover; counts are taken at
the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class _Frame:
    __slots__ = ("id", "name", "layer", "start", "child", "rows", "tag")

    def __init__(self, span_id, name, layer, start, tag=None):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.rows = 0
        self.tag = tag


# Spans kept for the run record; counts and times cover every span.
KEEP_SPANS = 100_000


class Tracer:
    """Collects spans, per-layer self time, per-name inclusive time and counts.

    Times come from `clock`; the benchmark passes one that leaves out its
    own speed sampling.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.span_count = 0
        self.stack: list[_Frame] = []
        self.request = None
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def enter(self, name: str, layer: str, tag=None) -> _Frame:
        self.span_count += 1
        frame = _Frame(self.span_count, name, layer, self.clock(), tag)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        self.self_s[frame.layer] += duration - frame.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
            parent.rows += frame.rows
        if not any(f.name == frame.name for f in self.stack):
            self.inclusive_s[frame.name] += duration
        self.counts[frame.name + ".calls"] += 1
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (frame.id, frame.name, frame.start, end, parent.id if parent else None, self.request)
            )

    def parent(self, skip: tuple[str, ...] = ()) -> _Frame | None:
        """Innermost open span (the caller's own span excluded), skipping the given names."""
        for frame in reversed(self.stack[:-1]):
            if frame.name not in skip:
                return frame
        return None


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    return module.split(".")[1] if module.startswith("boxcalc.") else "other"


def _polynomial_terms(values) -> int:
    return sum(len(v.terms) for v in values if type(v).__name__ == "Polynomial")


# --- wrappers ------------------------------------------------------------------
# Each maker takes (tracer, original) and returns the replacement.


def _span(name, layer, before=None, after=None):
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, layer)
            try:
                if before is not None:
                    before(tracer, frame, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, frame, args, kwargs, result)
                return result
            finally:
                tracer.exit(frame)

        return wrapper

    return make


def _eval_rows(tracer, frame, args, kwargs, result):
    rows = int(np.shape(result)[0])
    frame.rows += rows
    tracer.counts["expression.eval.points"] += rows


def _cubature_enter(tracer, frame, args, kwargs):
    parent = tracer.parent()
    if parent is not None and parent.tag == "numeric-antiderivative":
        tracer.counts["antiderivative.F_cubatures"] += 1


def _count_rows(key):
    def after(tracer, frame, args, kwargs, result):
        tracer.counts[key] += frame.rows

    return after


def _monte_carlo_samples(tracer, frame, args, kwargs, result):
    tracer.counts["oracle.monte_carlo.samples"] += int(getattr(result, "samples", 0))


def _polycalc_boundary(tracer, frame, args, kwargs, result):
    parent = tracer.parent()
    if parent is None or parent.layer != "polycalc":
        tracer.counts["polycalc.entry_calls"] += 1
        tracer.counts["polycalc.terms"] += _polynomial_terms((*args, *kwargs.values(), result))


def _make_field_evaluate(tracer: Tracer, fn):
    @functools.wraps(fn)
    def evaluate(self, points):
        tag = getattr(self, "tag", None)
        frame = tracer.enter("field.evaluate", _layer_of(getattr(self, "fn", None)), tag)
        try:
            out = fn(self, points)
            rows = int(np.shape(out)[0])
            if tag == "numeric-antiderivative":
                tracer.counts["antiderivative.F_queries"] += rows
            caller = tracer.parent(skip=("antiderivative.point_call",))
            if caller is not None and caller.name in _VERTEX_SUMS:
                tracer.counts["ftc.vertex_evals"] += rows
            return out
        finally:
            tracer.exit(frame)

    return evaluate


_VERTEX_SUMS = ("ftc.integrate_box", "ftc.integrate_parallelotope")


def _make_fsum(tracer: Tracer, fn):
    @functools.wraps(fn)
    def fsum(values):
        if not hasattr(values, "__len__"):
            values = list(values)
        # A layer of its own, so that oracle.self_ms leaves the reduction out.
        frame = tracer.enter("oracle.fsum", "oracle.fsum")
        try:
            tracer.counts["oracle.fsum.terms"] += len(values)
            return fn(values)
        finally:
            tracer.exit(frame)

    return fsum


# (module, attribute) -> wrapper maker.  Functions are patched at every
# module attribute that binds them; the rest of each layer's code shows up
# as self time of the nearest enclosing span.
FUNCTIONS = {
    ("cli", "main"): _span("cli.main", "cli"),
    ("expression", "parse"): _span("expression.parse", "expression"),
    ("expression", "evaluate"): _span("expression.evaluate", "expression"),
    ("expression", "evaluate_batch"): _span("expression.eval", "expression", after=_eval_rows),
    ("oracle", "gauss_legendre_box"): _span(
        "oracle.cubature", "oracle", before=_cubature_enter, after=_count_rows("oracle.cubature.points")
    ),
    ("oracle", "monte_carlo_affine"): _span("oracle.monte_carlo", "oracle", after=_monte_carlo_samples),
    ("oracle", "legendre_rule"): _span("oracle.legendre_rule", "oracle"),
    ("ftc", "integrate_box"): _span("ftc.integrate_box", "ftc"),
    ("ftc", "integrate_box_from_f"): _span("ftc.integrate_box_from_f", "ftc"),
    ("ftc", "integrate_parallelotope"): _span("ftc.integrate_parallelotope", "ftc"),
    ("ftc", "integrate_triangle_symmetric"): _span(
        "ftc.triangle", "ftc", after=_count_rows("ftc.triangle.points")
    ),
    ("ftc", "compositionality_check"): _span("ftc.compositionality_check", "ftc"),
    ("ftc", "check_segment_symmetry"): _span("ftc.check_segment_symmetry", "ftc"),
    ("ftc", "mirror_extend"): _span("ftc.mirror_extend", "ftc"),
    ("ftc", "pullback_field"): _span("ftc.pullback_field", "ftc"),
    ("ftc", "with_oracle"): _span("ftc.with_oracle", "ftc"),
    ("antiderivative", "field_from_expression"): _span("antiderivative.field_from_expression", "antiderivative"),
    ("antiderivative", "numeric_antiderivative"): _span("antiderivative.numeric_antiderivative", "antiderivative"),
    ("antiderivative", "mixed_partial"): _span("antiderivative.mixed_partial", "antiderivative"),
    ("antiderivative", "check_antiderivative"): _span("antiderivative.check_antiderivative", "antiderivative"),
    ("geometry", "vertices_lex"): _span("geometry.vertices_lex", "geometry"),
    ("geometry", "vertex_sign"): _span("geometry.vertex_sign", "geometry"),
    ("geometry", "subdivide_grid"): _span("geometry.subdivide_grid", "geometry"),
    ("geometry", "checked_determinant"): _span("geometry.checked_determinant", "geometry"),
    **{
        ("polycalc", name): _span(f"polycalc.{name}", "polycalc", after=_polycalc_boundary)
        for name in (
            "poly_from_expr",
            "poly_eval",
            "poly_antiderivative",
            "poly_mixed_partial",
            "poly_vertex_sum",
            "vertex_sum_integral",
            "monomial_product_integral",
            "poly_box_integral",
        )
    },
}

# (module, class, method) -> wrapper maker, patched on the class itself.
METHODS = {
    ("antiderivative", "ScalarField", "evaluate"): _make_field_evaluate,
    ("antiderivative", "ScalarField", "__call__"): _span("antiderivative.point_call", "antiderivative"),
    ("geometry", "Hypercuboid", "__post_init__"): _span("geometry.box", "geometry"),
    ("geometry", "Parallelotope", "__post_init__"): _span("geometry.parallelotope", "geometry"),
}


def _boxcalc_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "boxcalc" or name.startswith("boxcalc.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block; yields the names not found."""
    modules = _boxcalc_modules()
    patches: list[tuple[object, str, object]] = []
    missing = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for (module, attr), make in FUNCTIONS.items():
            original = getattr(sys.modules.get(f"boxcalc.{module}"), attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapper = make(tracer, original)
            for m in modules:
                for name in [k for k, v in vars(m).items() if v is original]:
                    patch(m, name, wrapper)
        for (module, cls_name, attr), make in METHODS.items():
            cls = getattr(sys.modules.get(f"boxcalc.{module}"), cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append(f"{module}.{cls_name}.{attr}")
                continue
            patch(cls, attr, make(tracer, vars(cls)[attr]))
        oracle = sys.modules.get("boxcalc.oracle")
        timed_fsum = _make_fsum(tracer, math.fsum)
        fsum_names = [k for k, v in vars(oracle).items() if v is math.fsum] if oracle else []
        for name in fsum_names:
            patch(oracle, name, timed_fsum)
        if getattr(oracle, "math", None) is math:
            proxy = types.ModuleType("math")
            proxy.__dict__.update(vars(math))
            proxy.fsum = timed_fsum
            patch(oracle, "math", proxy)
        elif not fsum_names:
            missing.append("oracle.math.fsum")
        yield missing
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
