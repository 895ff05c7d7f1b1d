"""Layer spans and call counts, installed from outside the library.

`install` runs inside a job process after `heckepoly.cli` is imported and
before the job starts.  It wraps each layer's public functions:

* module functions are replaced in every `heckepoly` module that binds
  them, because `cli` and `hecke` import names such as `evaluate` and
  `ext_power_character` directly and look them up in their own globals;
* methods are replaced on their class; a `cached_property` is rebuilt
  around a wrapped function, so it still computes once per instance.

A target that no longer exists is listed in ``missing`` and skipped.

Mode "spans" records one span per wrapped call: job id, name, start, end
and the index of the enclosing span.  Spans stay in memory; the job
process writes them out when the job ends.  Mode "counts" only counts
`LaurentHalf` and scalar-domain calls.  The two never run together,
because wrapping the innermost arithmetic would inflate the self time of
every layer that calls it.

`summarize` turns the spans and counts of many jobs into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from functools import cached_property

LAYERS = ("cli", "root_data", "characters", "satake", "hecke", "iwahori")

_ALG = "heckepoly.iwahori:AffineHeckeAlgebra"
_DATUM = "heckepoly.root_data:BasedRootDatum"

# (layer, owner, attribute); the owner is a module or "module:Class".
SPAN_TARGETS = [
    ("cli", "heckepoly.cli", "main"),
    ("root_data", "heckepoly.root_data", "build_standard"),
    ("root_data", _DATUM, "weyl_orbit"),
    ("root_data", _DATUM, "dominance_leq"),
    ("root_data", _DATUM, "dominants_below"),
    ("root_data", _DATUM, "small_minuscule_dominants"),
    ("characters", "heckepoly.characters", "ext_power_character"),
    ("characters", "heckepoly.characters", "minuscule_weights"),
    ("characters", "heckepoly.characters", "orbit_character"),
    ("characters", "heckepoly.characters", "weyl_character"),
    ("characters", "heckepoly.characters", "decompose"),
    ("satake", "heckepoly.satake", "evaluate"),
    ("satake", "heckepoly.satake", "frobenius_matrix"),
    ("satake", "heckepoly.satake", "trace_of"),
    ("satake", "heckepoly.satake", "resolve_twist"),
    ("hecke", "heckepoly.hecke", "hecke_polynomial"),
    ("hecke", "heckepoly.hecke", "evaluate_coefficients"),
    ("hecke", "heckepoly.hecke", "excursion_values"),
    ("hecke", "heckepoly.hecke", "cayley_hamilton_check"),
    ("hecke", "heckepoly.hecke", "inertia_relation_check"),
    ("hecke", "heckepoly.hecke", "reduce_mod_ell"),
    ("hecke", "heckepoly.hecke", "mat_mul"),
    ("hecke", "heckepoly.hecke", "mat_determinant"),
    ("iwahori", _ALG, "__init__"),
    ("iwahori", _ALG, "multiply"),
    ("iwahori", _ALG, "theta"),
    ("iwahori", _ALG, "translation_inverse"),
    ("iwahori", _ALG, "central_element"),
    ("iwahori", _ALG, "satake_inverse"),
    ("iwahori", _ALG, "satake_matrix"),
    ("iwahori", _ALG, "satake_transform_matrix"),
    ("iwahori", _ALG, "satake_of_indicator"),
]
# Every cached_property of the root datum (Weyl group, roots, Gram form)
# is a root_data span too; this one must exist because metrics read it.
WEYL = "root_data.BasedRootDatum.weyl_elements"

COUNT_TARGETS = [
    ("laurent.mul_calls", "heckepoly.laurent:LaurentHalf", "__mul__"),
    ("laurent.add_calls", "heckepoly.laurent:LaurentHalf", "__add__"),
    ("laurent.domain_mul_calls", "heckepoly.laurent:PrimeFieldWithV", "mul"),
    ("laurent.domain_mul_calls", "heckepoly.laurent:RationalWithV", "mul"),
    ("laurent.domain_mul_calls", "heckepoly.satake:FormalTorusDomain", "mul"),
]


def _span_name(layer: str, owner: str, attr: str) -> str:
    cls = owner.partition(":")[2]
    return f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"


class Tracer:
    """In-memory spans, observations and counts of one job process."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.observed: dict[str, float] = {}
        self.theta_args: set = set()
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def span(self, name: str, fn):
        spans, stack, clock, job = self.spans, self.stack, time.perf_counter, self.job_id
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [job, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, TypeError):
                    if f"observer {name}" not in self.missing:
                        self.missing.append(f"observer {name}")
            return result
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, key: str, value: float):
        self.observed[key] = self.observed.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.observed[key] = max(self.observed.get(key, 0), value)

    def report(self) -> dict:
        observed = dict(self.observed)
        if self.theta_args:
            observed["iwahori.theta_distinct"] = len(self.theta_args)
        return {"spans": self.spans, "observed": observed,
                "counts": self.counts, "missing": self.missing}


def _support(tracer: Tracer, args, result):
    tracer.peak("iwahori.max_support", len(result.terms))


def _theta(tracer: Tracer, args, result):
    tracer.theta_args.add(tuple(args[1]))
    _support(tracer, args, result)


_OBSERVERS = {
    "characters.ext_power_character":
        lambda t, a, r: t.add("characters.support_terms", len(r.weights.terms)),
    "satake.evaluate":
        lambda t, a, r: t.add("satake.evaluate_terms",
                              len(getattr(a[0], "weights", a[0]).terms)),
    WEYL: lambda t, a, r: t.peak("root_data.weyl_order", len(r)),
    "iwahori.AffineHeckeAlgebra.multiply": _support,
    "iwahori.AffineHeckeAlgebra.central_element": _support,
    "iwahori.AffineHeckeAlgebra.theta": _theta,
}


def _patch(owner: str, attr: str, make) -> bool:
    """Replace owner.attr by make(owner.attr); False if it does not exist."""
    modname, _, clsname = owner.partition(":")
    try:
        module = importlib.import_module(modname)
    except ModuleNotFoundError:
        return False
    if clsname:
        cls = getattr(module, clsname, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, cached_property):
            new = cached_property(make(raw.func))
            new.__set_name__(cls, attr)
            setattr(cls, attr, new)
        else:
            setattr(cls, attr, make(raw))
        return True
    orig = getattr(module, attr, None)
    if orig is None:
        return False
    wrapped = make(orig)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("heckepoly"):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return True


def install(mode: str, job_id: int) -> Tracer:
    tracer = Tracer(job_id)
    if mode == "spans":
        targets = list(SPAN_TARGETS)
        datum_mod, _, datum_cls = _DATUM.partition(":")
        cls = getattr(importlib.import_module(datum_mod), datum_cls, None)
        if cls is not None:
            targets += [("root_data", _DATUM, name)
                        for name, raw in vars(cls).items()
                        if isinstance(raw, cached_property)]
        names = {_span_name(*t) for t in targets}
        for layer, owner, attr in targets:
            name = _span_name(layer, owner, attr)
            if not _patch(owner, attr,
                          lambda fn, name=name: tracer.span(name, fn)):
                tracer.missing.append(name)
        if WEYL not in names:
            tracer.missing.append(WEYL)
    elif mode == "counts":
        for key, owner, attr in COUNT_TARGETS:
            if not _patch(owner, attr,
                          lambda fn, key=key: tracer.counter(key, fn)):
                tracer.missing.append(f"{key} {owner}.{attr}")
    else:
        raise ValueError(f"unknown trace mode {mode!r}")
    return tracer


# -- aggregation (benchmark process) -----------------------------------------

def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds], from one job's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls in one process never overlap, so children are disjoint.
    """
    child = [0.0] * len(spans)
    for _job, _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (_job, name, start, end, _parent) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += end - start - child[i]
    return out


# metric -> (span name, "self_s" | "calls")
_SPAN_METRICS = {
    "characters.ext_power_s": ("characters.ext_power_character", "self_s"),
    "characters.ext_power_calls": ("characters.ext_power_character", "calls"),
    "satake.evaluate_s": ("satake.evaluate", "self_s"),
    "satake.evaluate_calls": ("satake.evaluate", "calls"),
    "satake.trace_s": ("satake.trace_of", "self_s"),
    "satake.frobenius_s": ("satake.frobenius_matrix", "self_s"),
    "hecke.det_s": ("hecke.mat_determinant", "self_s"),
    "hecke.det_calls": ("hecke.mat_determinant", "calls"),
    "hecke.matmul_s": ("hecke.mat_mul", "self_s"),
    "hecke.matmul_calls": ("hecke.mat_mul", "calls"),
    "hecke.ch_self_s": ("hecke.cayley_hamilton_check", "self_s"),
    "hecke.inertia_self_s": ("hecke.inertia_relation_check", "self_s"),
    "hecke.poly_self_s": ("hecke.hecke_polynomial", "self_s"),
    "iwahori.multiply_s": ("iwahori.AffineHeckeAlgebra.multiply", "self_s"),
    "iwahori.multiply_calls": ("iwahori.AffineHeckeAlgebra.multiply", "calls"),
    "iwahori.theta_s": ("iwahori.AffineHeckeAlgebra.theta", "self_s"),
    "iwahori.theta_calls": ("iwahori.AffineHeckeAlgebra.theta", "calls"),
    "iwahori.central_s": ("iwahori.AffineHeckeAlgebra.central_element", "self_s"),
    "iwahori.satake_inverse_self_s":
        ("iwahori.AffineHeckeAlgebra.satake_inverse", "self_s"),
    "iwahori.satake_matrix_s": ("iwahori.AffineHeckeAlgebra.satake_matrix", "self_s"),
    "root_data.weyl_s": (WEYL, "self_s"),
    "root_data.build_s": ("root_data.build_standard", "self_s"),
    "root_data.orbit_s": ("root_data.BasedRootDatum.weyl_orbit", "self_s"),
    "root_data.dominance_s": ("root_data.BasedRootDatum.dominance_leq", "self_s"),
    "root_data.dominance_calls": ("root_data.BasedRootDatum.dominance_leq", "calls"),
    "cli.self_s": ("cli.main", "self_s"),
}
_SUMMED = ("characters.support_terms", "satake.evaluate_terms")
_PEAKS = ("iwahori.max_support", "root_data.weyl_order")
_COUNTS = ("laurent.mul_calls", "laurent.add_calls", "laurent.domain_mul_calls")

UNITS = {"_s": "s", "_ratio": "ratio", ".share": "ratio", "_bytes": "bytes"}


def metric_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list[str]:
    """Every metric of a traced run, in report order."""
    return (list(_SPAN_METRICS) + list(_SUMMED) + list(_PEAKS)
            + ["iwahori.theta_distinct_ratio", "hecke.checks"]
            + list(_COUNTS) + ["cli.output_bytes"]
            + [f"{layer}.self_s" for layer in LAYERS if layer != "cli"]
            + [f"{layer}.share" for layer in LAYERS]
            + ["trace.spans", "trace.overhead_ratio"])


def summarize(span_reports: list[dict], count_reports: list[dict]) -> dict:
    """Per-layer metrics over all jobs of one traced pass.

    Returns {"metrics": {name: value}, "missing": [...]}: the wrap targets
    that did not exist, and the metrics that read them, which are 0.
    """
    by_name: dict[str, list[float]] = {}
    observed: dict[str, float] = {}
    missing: set[str] = set()
    spans = 0
    for rep in span_reports:
        spans += len(rep["spans"])
        missing.update(rep["missing"])
        for name, (calls, self_s) in self_times(rep["spans"]).items():
            acc = by_name.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, value in rep["observed"].items():
            if key in _PEAKS:
                observed[key] = max(observed.get(key, 0), value)
            else:
                observed[key] = observed.get(key, 0) + value
    counts: dict[str, int] = {}
    for rep in count_reports:
        missing.update(rep["missing"])
        for key, value in rep["counts"].items():
            counts[key] = counts.get(key, 0) + value

    metrics: dict[str, float] = {}
    for metric, (span, field) in _SPAN_METRICS.items():
        calls, self_s = by_name.get(span, (0, 0.0))
        metrics[metric] = self_s if field == "self_s" else calls
    for key in _SUMMED + _PEAKS:
        metrics[key] = observed.get(key, 0)
    theta_calls = metrics["iwahori.theta_calls"]
    metrics["iwahori.theta_distinct_ratio"] = (
        observed.get("iwahori.theta_distinct", 0) / theta_calls
        if theta_calls else 0.0)
    metrics["hecke.checks"] = (
        by_name.get("hecke.cayley_hamilton_check", (0, 0))[0]
        + by_name.get("hecke.inertia_relation_check", (0, 0))[0])
    for key in _COUNTS:
        metrics[key] = counts.get(key, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, self_s) in by_name.items():
        layer_self[name.split(".", 1)[0]] += self_s
    total = sum(layer_self.values())
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    metrics["trace.spans"] = spans
    missing.update(metric for metric, (span, _field) in _SPAN_METRICS.items()
                   if span in missing)
    missing.update(key for key in _COUNTS
                   if any(m.startswith(key + " ") for m in missing))
    return {"metrics": metrics, "missing": sorted(missing)}
