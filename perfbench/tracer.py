"""Outside-in tracing of the commsyz layers.

The tracer wraps public functions of each commsyz module from outside the
package: it replaces the module attribute, every alias of it that another
commsyz module imported, and class attributes for methods.  Each wrapped call
records a span (id, parent, name, start, end); self time is a span's duration
minus the time its wrapped children cover.  Calls of the hot per-term
functions are folded into the totals without keeping a span each, so memory
stays flat over millions of calls.

LAYERS says which functions of each module are wrapped and which metrics
they yield; README.md says which end-to-end metric each layer should move on
which workload.  `per_layer_metrics()` lists every metric a traced run
reports, in the order BENCHMARK.json lists them.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Each layer: wrapped targets (attribute path in the module, metric name,
# whether a span is kept per call) and the metrics reported.
# Metric suffixes: calls, s (time in outermost calls), self_s (s minus the
# wrapped children); other names are counters gathered by the hooks below.
LAYERS = [
    {
        "module": "polyring",
        "targets": [
            ("Grevlex.encode", "encode", False),
            ("Lex.encode", "encode", False),
            ("BlockElimination.encode", "encode", False),
            ("Polynomial.__add__", "add", False),
            ("Polynomial.__radd__", "add", False),
            ("Polynomial.__mul__", "mul", False),
            ("Polynomial.__rmul__", "mul", False),
            ("compile_poly", "compile_poly", False),
            ("decompile", "decompile", False),
            ("normal_form", "normal_form", False),
        ],
        "metrics": [
            "encode.calls", "encode.s",
            "add.calls", "add.s", "add.self_s",
            "mul.calls", "mul.s", "mul.self_s",
            "compile_poly.calls", "compile_poly.s", "compile_poly.self_s",
            "decompile.calls", "decompile.s", "decompile.self_s",
            "normal_form.calls", "normal_form.s",
            "normal_form.terms_in", "normal_form.terms_out",
        ],
    },
    {
        "module": "genmat",
        "targets": [
            ("GenericMatrix.__mul__", "matmul", False),
            ("build_system", "build_system", True),
            ("det", "det", True),
        ],
        "metrics": [
            "matmul.calls", "matmul.s", "matmul.self_s",
            "build_system.s", "det.calls", "det.s", "det.self_s",
        ],
    },
    {
        "module": "words",
        "targets": [("candidates", "candidates", True)],
        "metrics": ["candidates.s"],
    },
    {
        "module": "syzygy",
        "targets": [
            ("eval_expr", "eval_expr", True),
            ("is_trace_syzygy", "is_trace_syzygy", True),
            ("first_syzygies", "first_syzygies", True),
            ("module_buchberger", "module_buchberger", True),
            ("module_normal_form", "module_normal_form", False),
            ("module_membership", "module_membership", True),
        ],
        "metrics": [
            "eval_expr.calls", "eval_expr.s", "eval_expr.self_s",
            "is_trace_syzygy.calls", "is_trace_syzygy.s", "is_trace_syzygy.self_s",
            "first_syzygies.s",
            "module_buchberger.calls", "module_buchberger.s", "module_buchberger.self_s",
            "module_buchberger.spairs", "module_buchberger.zero_reductions",
            "module_buchberger.elements",
            "module_normal_form.calls", "module_normal_form.s",
            "module_membership.calls", "module_membership.s",
        ],
    },
    {
        "module": "groebner",
        "targets": [
            ("buchberger", "buchberger", True),
            ("interreduce", "interreduce", True),
            ("colon_ideal", "colon_ideal", True),
            ("intersect_ideals", "intersect_ideals", True),
            ("GroebnerBasis.reduce", "reduce", True),
        ],
        "metrics": [
            "buchberger.calls", "buchberger.s", "buchberger.self_s",
            "buchberger.spairs", "buchberger.zero_reductions",
            "buchberger.pairs_pruned", "buchberger.elements",
            "buchberger.stats_seconds",
            "zero_reduction_ratio", "stats_coverage",
            "interreduce.calls", "interreduce.s", "interreduce.self_s",
            "colon_ideal.s", "intersect_ideals.calls", "intersect_ideals.s",
            "reduce.calls", "reduce.s",
        ],
    },
    {
        "module": "hilbert",
        "targets": [
            ("hilbert_of_basis", "hilbert_of_basis", True),
            ("euler_constraints", "euler_constraints", True),
        ],
        "metrics": ["hilbert_of_basis.calls", "hilbert_of_basis.s", "euler_constraints.s"],
    },
    {
        "module": "conjecture",
        "targets": [
            ("colon_bidegrees", "colon_bidegrees", True),
            ("first_betti_prediction", "first_betti_prediction", True),
            ("knutson_candidates", "knutson_candidates", True),
        ],
        "metrics": [
            "colon_bidegrees.s", "first_betti_prediction.s", "knutson_candidates.s",
        ],
    },
    {
        "module": "verify",
        "targets": [
            ("run_check", "check", True),
            ("DeskContext._get", "ctx.get", True),
            ("minimal_new_generators", "minimal_new_generators", True),
        ],
        "metrics": [
            *(
                f"check.{name}.s"
                for name in (
                    "trace-rules", "first-syzygies", "colon-ideal", "dimension",
                    "cofactor-identity", "predictors", "splice-euler", "knutson",
                )
            ),
            "ctx.builds", "ctx.hits", "ctx.hit_ratio",
            "minimal_new_generators.s", "minimal_new_generators.gb_restarts",
        ],
    },
    {
        "module": "cli",
        "targets": [("parse_args", "parse_args", True), ("emit", "emit", True)],
        "metrics": ["parse_args.s", "emit.s"],
    },
    {
        "module": "fixtures",
        "targets": [("load_raw", "load", True)],
        "metrics": ["load.calls", "load.s"],
    },
]

# Metrics of the traced run itself, not of a layer.
RUN_METRICS = ["trace.job_s", "trace.untraced_job_s", "trace.overhead_s"]

_BETTER_HIGHER = {"groebner.stats_coverage", "verify.ctx.hits", "verify.ctx.hit_ratio"}


def _unit(metric: str) -> str:
    if metric.endswith("_ratio") or metric.endswith("stats_coverage"):
        return "ratio"
    if metric.endswith(".s") or metric.endswith("_s") or metric.endswith("stats_seconds"):
        return "s"
    return "count"


def per_layer_metrics() -> list:
    """[(name, unit, better)] for every metric a traced run reports."""
    names = [f"{layer['module']}.{m}" for layer in LAYERS for m in layer["metrics"]]
    names += RUN_METRICS
    return [
        (name, _unit(name), "higher" if name in _BETTER_HIGHER else "lower")
        for name in names
    ]


class Tracer:
    """Span recorder with per-name totals; one instance per traced job."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)  # outermost calls only
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.active = defaultdict(int)  # calls of each name now on the stack
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = []  # frames: [child seconds, span id or None]
        self._next_id = 0

    def wrap(self, name, fn, keep_span, before=None, after=None):
        stack, calls, seconds = self._stack, self.calls, self.seconds
        self_seconds, active, spans = self.self_seconds, self.active, self.spans
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            key = name(args) if dynamic else name
            if before is not None:
                before(self, args)
            span_id = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            active[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[key] -= 1
                dt = t1 - t0
                calls[key] += 1
                self_seconds[key] += dt - frame[0]
                if not active[key]:
                    seconds[key] += dt
                if stack:
                    stack[-1][0] += dt
                if span_id is not None:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    spans.append((span_id, parent, key, t0, t1))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in LAYERS, for the rest of the process's life."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "commsyz" or name.startswith("commsyz."))
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"commsyz.{layer['module']}")
            for path, short, keep_span in layer["targets"]:
                metric = f"{layer['module']}.{short}"
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                orig = getattr(owner, attr)
                name = metric
                if short == "check":
                    name = lambda args: f"verify.check.{args[0].name}"
                before, after = _HOOKS.get(metric, (None, None))
                wrapped = self.wrap(name, orig, keep_span, before, after)
                setattr(owner, attr, wrapped)
                if owner is module:  # aliases imported by other commsyz modules
                    for mod in modules:
                        for alias, value in list(vars(mod).items()):
                            if value is orig and mod is not module:
                                setattr(mod, alias, wrapped)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every layer metric, zero where the job never reached the layer."""
        c = self.counters
        spairs = c["groebner.buchberger.spairs"]
        bb_s = self.seconds["groebner.buchberger"]
        lookups = c["verify.ctx.builds"] + c["verify.ctx.hits"]
        derived = {
            "groebner.zero_reduction_ratio": (
                c["groebner.buchberger.zero_reductions"] / spairs if spairs else 0.0
            ),
            "groebner.stats_coverage": (
                c["groebner.buchberger.stats_seconds"] / bb_s if bb_s else 0.0
            ),
            "verify.ctx.hit_ratio": c["verify.ctx.hits"] / lookups if lookups else 0.0,
        }
        out = {}
        for name, unit, _ in per_layer_metrics():
            if name in RUN_METRICS:
                continue
            if name in derived:
                value = derived[name]
            else:
                base, _, suffix = name.rpartition(".")
                if suffix == "calls":
                    value = self.calls[base]
                elif suffix == "s":
                    value = self.seconds[base]
                elif suffix == "self_s":
                    value = self.self_seconds[base]
                else:
                    value = c[name]
                if unit == "count":
                    value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def span_records(self) -> dict:
        return {"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}


# -- counter hooks: (before(tracer, args), after(tracer, args, result)) ---------


def _gb_after(tracer, args, basis):
    c = tracer.counters
    s = basis.stats
    c["groebner.buchberger.spairs"] += s.spairs_reduced
    c["groebner.buchberger.zero_reductions"] += s.zero_reductions
    c["groebner.buchberger.pairs_pruned"] += s.pairs_pruned
    c["groebner.buchberger.elements"] += s.elements_added
    c["groebner.buchberger.stats_seconds"] += s.seconds
    if tracer.active["verify.minimal_new_generators"]:
        c["verify.minimal_new_generators.gb_restarts"] += 1


def _module_gb_after(tracer, args, basis):
    c = tracer.counters
    s = basis.stats
    c["syzygy.module_buchberger.spairs"] += s.spairs_reduced
    c["syzygy.module_buchberger.zero_reductions"] += s.zero_reductions
    c["syzygy.module_buchberger.elements"] += s.elements_added


def _normal_form_before(tracer, args):
    tracer.counters["polyring.normal_form.terms_in"] += len(args[0])


def _normal_form_after(tracer, args, rem):
    tracer.counters["polyring.normal_form.terms_out"] += len(rem)


def _ctx_get_before(tracer, args):
    ctx, key = args[0], args[1]
    kind = "hits" if key in ctx._cache else "builds"
    tracer.counters[f"verify.ctx.{kind}"] += 1


_HOOKS = {
    "groebner.buchberger": (None, _gb_after),
    "syzygy.module_buchberger": (None, _module_gb_after),
    "polyring.normal_form": (_normal_form_before, _normal_form_after),
    "verify.ctx.get": (_ctx_get_before, None),
}
