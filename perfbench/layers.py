"""Outside-in layer trace for one scext run.

``Tracer.install()`` wraps public entry points of the ``scext`` modules from
outside: module functions are replaced in every ``scext`` module that holds a
reference to them (callers that imported them by name included), methods are
replaced on their classes, and the stage functions are replaced in the
``scenarios.STAGES`` table the runner dispatches through.  No file under
``src/`` changes.

Each wrapped call records a span (name, start, end, parent).  Counts are taken
from the arguments and the return value after the span has closed.  The time
spent computing them lies inside every ancestor's interval, so it is added to
each ancestor's ``tracer_s`` and taken out of its ``wall_s``; wall and self
times then hold only the program's own work (and the wrappers' clock reads).
``layer_metrics`` folds the spans into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "tracer_s", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.tracer_s = 0.0
        self.counts: dict = {}

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.tracer_s

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s

    def ancestor(self, name: str) -> "Span | None":
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


def _arg(args, kwargs, name: str, index: int):
    """Argument ``name`` of a call, given positionally at ``index`` or by keyword."""
    return kwargs[name] if name in kwargs else args[index]


def _rows(array) -> int:
    return int(array.shape[0])


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, counts=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
                if span.parent is not None:
                    span.parent.child_s += span.wall_s
            if counts is not None:
                c0 = clock()
                span.counts = counts(args, kwargs, result)
                spent = clock() - c0
                ancestor = span.parent
                while ancestor is not None:
                    ancestor.tracer_s += spent
                    ancestor = ancestor.parent
            return result

        return traced

    def _replace_function(self, module, attr: str, name: str, counts=None) -> None:
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "scext" or mod_name.startswith("scext."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def _replace_method(self, cls, attr: str, name: str, counts=None) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), counts))

    def install(self) -> None:
        from scext import cli, extension, funcspace, geometry, gradients
        from scext import scenarios, semiconcavity, singularity

        fn = self._replace_function
        fn(geometry, "sample_closure_points", "geometry.sample_closure_points",
           lambda a, k, r: {"points": _rows(r)})
        fn(semiconcavity, "certify", "semiconcavity.certify",
           lambda a, k, r: {"triples": int(r.n_triples)})
        fn(semiconcavity, "estimate_constant", "semiconcavity.estimate_constant",
           lambda a, k, r: {"triples": int(_arg(a, k, "n_triples", 4))})
        fn(extension, "build_support_set", "extension.build_support_set",
           lambda a, k, r: {"anchors": _rows(r.node_points()), "pairs": int(r.size)})
        fn(gradients, "reachable_gradients", "gradients.reachable_gradients",
           lambda a, k, r: {"samples": int(r.n_samples),
                            "representatives": _rows(r.representatives)})
        fn(extension, "build_extension", "extension.build_extension",
           lambda a, k, r: {"pairs_in": int(_arg(a, k, "support", 2).size),
                            "pairs_pruned": int(r.n_pruned)})
        fn(extension, "partition_weights", "extension.glue")
        fn(extension, "glue_global", "extension.glue")
        fn(singularity, "trace_singular_arc", "singularity.trace_singular_arc",
           lambda a, k, r: {"steps": int(r.s.size) - 1})
        fn(cli, "emit_grid", "cli.emit_grid")

        meth = self._replace_method
        meth(funcspace.FunctionSpec, "evaluate_many", "funcspace.evaluate_many",
             lambda a, k, r: {"points": _rows(r)})
        meth(funcspace.FunctionSpec, "gradient_many", "funcspace.gradient_many",
             lambda a, k, r: {"points": _rows(r)})

        def envelope_counts(a, k, r):
            field, pts = a[0], _arg(a, k, "points", 1)
            off = int((~field.in_data_region(pts)).sum())
            return {"points": _rows(r), "points_off_data": off,
                    "pairs": int(field.support.size)}

        def raw_envelope_counts(a, k, r):
            return {"points": _rows(r), "points_off_data": _rows(r),
                    "pairs": int(a[0].support.size)}

        meth(extension.ExtensionField, "evaluate_many", "extension.envelope",
             envelope_counts)
        meth(extension.ExtensionField, "envelope_values", "extension.envelope",
             raw_envelope_counts)
        meth(extension.MollifiedApproximant, "evaluate_many", "extension.mollified",
             lambda a, k, r: {"points": _rows(r),
                              "stencil_points": _rows(r) * int(a[0].nodes.shape[0])})
        meth(extension.GlobalExtension, "evaluate_many", "extension.glue")

        for stage, stage_fn in list(scenarios.STAGES.items()):
            scenarios.STAGES[stage] = self.wrap(f"scenarios.{stage}", stage_fn)


STAGE_NAMES = ("certify", "support", "extend", "gradients", "condition", "trace",
               "mollify", "glue")

# (span name, counted fields) reported as calls, counts and self time; a layer
# that did not run in a workload reports zeros.  reachable_gradients is split
# by caller: building a support set, or a stage asking for one gradient set.
_LAYERS = (
    ("geometry.sample_closure_points", ("points",)),
    ("semiconcavity.certify", ("triples",)),
    ("semiconcavity.estimate_constant", ("triples",)),
    ("funcspace.evaluate_many", ("points",)),
    ("funcspace.gradient_many", ("points",)),
    ("extension.build_support_set", ("anchors", "pairs")),
    ("gradients.reachable_gradients.support", ("samples", "representatives")),
    ("gradients.reachable_gradients.stage", ("samples", "representatives")),
    ("extension.build_extension", ("pairs_in", "pairs_pruned")),
    ("extension.envelope", ("points", "points_off_data")),
    ("extension.mollified", ("points", "stencil_points")),
    ("singularity.trace_singular_arc", ("steps",)),
)


class _Totals:
    __slots__ = ("calls", "wall_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.counts: dict = {}

    def add(self, span: Span) -> None:
        self.calls += 1
        self.wall_s += span.wall_s
        self.self_s += span.self_s
        for key, value in span.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    totals: dict[str, _Totals] = {}
    pair_evals = 0  # off-data envelope points times the support size K
    pair_checks = 0  # pruning: pairs_in squared
    trace_points = 0  # envelope points evaluated under the tracer
    grid_points = 0  # envelope points evaluated by cli.emit_grid
    for span in spans:
        key = span.name
        if key == "gradients.reachable_gradients":
            under_support = span.ancestor("extension.build_support_set") is not None
            key += ".support" if under_support else ".stage"
        elif key == "extension.envelope":
            pair_evals += span.counts["points_off_data"] * span.counts["pairs"]
            if span.ancestor("singularity.trace_singular_arc") is not None:
                trace_points += span.counts["points"]
            if span.parent is not None and span.parent.name == "cli.emit_grid":
                grid_points += span.counts["points"]
        elif key == "extension.build_extension":
            pair_checks += span.counts["pairs_in"] ** 2
        totals.setdefault(key, _Totals()).add(span)

    def get(name: str) -> _Totals:
        return totals.get(name, _Totals())

    out: dict[str, tuple[float, str]] = {}
    for name, fields in _LAYERS:
        t = get(name)
        out[f"{name}.calls"] = (t.calls, "count")
        for f in fields:
            out[f"{name}.{f}"] = (t.count(f), "count")
        out[f"{name}.self_s"] = (t.self_s, "s")

    t = get("geometry.sample_closure_points")
    out["geometry.sample_closure_points.points_per_s"] = (
        _rate(t.count("points"), t.self_s), "1/s")
    t = get("semiconcavity.certify")
    out["semiconcavity.certify.triples_per_s"] = (_rate(t.count("triples"), t.self_s), "1/s")
    t = get("extension.build_support_set")
    out["extension.build_support_set.wall_s"] = (t.wall_s, "s")
    out["extension.build_support_set.anchors_per_s"] = (
        _rate(t.count("anchors"), t.wall_s), "1/s")
    t = get("extension.build_extension")
    out["extension.build_extension.pair_checks"] = (pair_checks, "count")
    out["extension.build_extension.pair_checks_per_s"] = (_rate(pair_checks, t.self_s), "1/s")
    t = get("extension.envelope")
    out["extension.envelope.off_data_evals_per_s"] = (
        _rate(t.count("points_off_data"), t.self_s), "1/s")
    out["extension.envelope.full_scan_pair_evals"] = (pair_evals, "count")
    out["extension.glue.self_s"] = (get("extension.glue").self_s, "s")
    t = get("singularity.trace_singular_arc")
    out["singularity.trace_singular_arc.wall_s"] = (t.wall_s, "s")
    out["singularity.trace_singular_arc.steps_per_s"] = (_rate(t.count("steps"), t.wall_s), "1/s")
    out["singularity.trace_singular_arc.field_points_per_step"] = (
        _rate(trace_points, t.count("steps")), "count")
    for stage in STAGE_NAMES:
        out[f"scenarios.{stage}.self_s"] = (get(f"scenarios.{stage}").self_s, "s")
    t = get("cli.emit_grid")
    out["cli.emit_grid.calls"] = (t.calls, "count")
    out["cli.emit_grid.points"] = (grid_points, "count")
    out["cli.emit_grid.self_s"] = (t.self_s, "s")
    return out
