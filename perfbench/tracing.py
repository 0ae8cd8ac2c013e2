"""Per-layer tracing of the gmcfar package from outside.

A :class:`Tracer` replaces every binding of each layer's public functions
(found by identity across the ``gmcfar.*`` module namespaces, because
``cli``, ``solver`` and ``simulate`` import names directly) with a wrapper
that records a span: name, layer, start, end, parent span and op id.
Spans stay in memory until :meth:`Tracer.uninstall`; :func:`layer_metrics`
turns them into the per-layer numbers.  A few hot leaf functions get a
counting wrapper instead of a span, so the trace stays small: their calls
are charged to the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = ("rng", "clutter", "detectors", "pfa", "oracles", "simulate",
          "solver", "cli")

# Public methods traced like functions: (layer, class name, method name).
METHODS = (
    ("rng", "RandomStream", "uniforms"),
    ("rng", "RandomStream", "exponentials"),
    ("oracles", "AdjudicationReport", "from_dict"),
    ("oracles", "AdjudicationReport", "from_json"),
)

# Hot callees counted on the enclosing span instead of getting their own:
# log_binomial runs once per term of the log-domain fallback (up to 5e5
# times per closed form at N = 10**3), and scipy's quad as bound in the
# oracles module once per inner integral.
COUNTED = (("pfa", "log_binomial"), ("oracles", "quad"))

# Spans whose rng draws are Monte Carlo cells (drawn and then tested).
_MC_SPANS = frozenset({"oracles.adjudicate", "oracles.mc_dual_pfa",
                       "simulate.empirical_pfa"})
_QUADRATURE_SPANS = frozenset({"oracles.quadrature_pfa_partial_multi",
                               "oracles.quadrature_pfa_full_multi"})
_REPORT_SPANS = frozenset({"oracles.AdjudicationReport.from_dict",
                           "oracles.AdjudicationReport.from_json"})
_MARGIN_SPANS = frozenset({"detectors.margins_partial_multi",
                           "detectors.margins_full_multi"})
_SAMPLE_SPANS = frozenset({"clutter.sample_pareto",
                           "clutter.sample_exponential_unit"})

# Span record fields (a list per span keeps the trace compact).
NAME, LAYER, START, END, PARENT, OP, ERROR, ATTRS = range(8)


def _array_size(value) -> int:
    return int(getattr(value, "size", 0))


def _measure(name: str, args, kwargs, result):
    """Work done by one call, stored on its span."""
    if name in ("rng.RandomStream.uniforms", "rng.RandomStream.exponentials"):
        return {"items": _array_size(result),
                "bytes": int(getattr(result, "nbytes", 0))}
    if name in _MARGIN_SPANS:
        cut = kwargs.get("cut", args[0] if args else None)
        ref = kwargs.get("reference", args[1] if len(args) > 1 else None)
        return {"items": _array_size(cut) + _array_size(ref)}
    if name in _SAMPLE_SPANS:
        return {"items": _array_size(result)}
    if name == "simulate.empirical_pfa":
        return {"items": int(result.trials)}
    return None


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, layer: str, fn):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                      self.op_id, False, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
            work = _measure(name, args, kwargs, result)
            if work:
                record[ATTRS] = {**(record[ATTRS] or {}), **work}
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        spans = self.spans

        def charge(key: str, amount: int) -> None:
            stack = self._stack()
            if not stack:
                return
            record = spans[stack[-1]]
            if record[ATTRS] is None:
                record[ATTRS] = {}
            record[ATTRS][key] = record[ATTRS].get(key, 0) + amount

        if name == "oracles.quad":
            @functools.wraps(fn)
            def counted_quad(*args, **kwargs):
                out = fn(*args, **kwargs)
                charge("quad", 1)
                if kwargs.get("full_output") and len(out) > 2:
                    charge("neval", int(out[2].get("neval", 0)))
                return out
            return counted_quad

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            charge(name, 1)
            return fn(*args, **kwargs)
        return counted

    # -- installation -----------------------------------------------------

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            names = [key for key, value in vars(module).items()
                     if value is original]
            for key in names:
                self._restore.append((module, key, original))
                setattr(module, key, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"gmcfar.{layer}")
        modules = [module for key, module in sorted(sys.modules.items())
                   if key == "gmcfar" or key.startswith("gmcfar.")]
        counted = {f"{layer}.{attr}" for layer, attr in COUNTED}
        for layer in LAYERS:
            module = sys.modules[f"gmcfar.{layer}"]
            for attr, value in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if name in counted:
                    self._rebind(modules, value,
                                 self._count_wrapper(name, value))
                elif (not attr.startswith("_") and inspect.isfunction(value)
                      and value.__module__ == module.__name__):
                    self._rebind(modules, value,
                                 self._span_wrapper(name, layer, value))
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"gmcfar.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                patched = classmethod(
                    self._span_wrapper(name, layer, raw.__func__))
            else:
                patched = self._span_wrapper(name, layer, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the tracer's
        creation."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, rec in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": rec[NAME], "layer": rec[LAYER],
                    "start": rec[START] - self.origin,
                    "end": rec[END] - self.origin, "parent": rec[PARENT],
                    "op": rec[OP], "error": rec[ERROR], "attrs": rec[ATTRS],
                }) + "\n")


def nesting_violations(spans) -> list[str]:
    """Spans that are not inside their parent, roots other than
    ``cli.main``, and spans whose self time is negative.

    A root below ``cli.main`` means a span opened on a thread the tracer
    did not follow; its time and work would drop out of its op."""
    bad = []
    child_time = _child_time(spans)
    for index, rec in enumerate(spans):
        if rec[END] < rec[START]:
            bad.append(f"span {index} {rec[NAME]} ends before it starts")
        parent = rec[PARENT]
        if parent < 0 and rec[NAME] != "cli.main":
            bad.append(f"span {index} {rec[NAME]} has no parent")
        if parent >= 0:
            up = spans[parent]
            if rec[START] < up[START] or rec[END] > up[END]:
                bad.append(f"span {index} {rec[NAME]} leaves parent "
                           f"{parent} {up[NAME]}")
        if rec[END] - rec[START] - child_time[index] < -1e-9:
            bad.append(f"span {index} {rec[NAME]} has negative self time")
    return bad


def _child_time(spans) -> list[float]:
    """Time each span's children cover.  Children of one span run on the
    parent's thread one after another, so their durations add up."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return covered


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    child_time = _child_time(spans)
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    for layer in LAYERS:
        for suffix in ("calls", "busy_s", "self_s", "errors"):
            m[f"{layer}.{suffix}"] = 0
    for key in ("rng.variates", "rng.fill_s", "rng.transform_s",
                "rng.bytes_computed", "detectors.cells", "simulate.trials",
                "clutter.samples", "oracles.adjudicate_calls",
                "oracles.adjudicate.self_s", "oracles.mc_cells",
                "oracles.quadrature_calls", "oracles.quadrature.busy_s",
                "oracles.quad_integrals", "oracles.quad_neval",
                "oracles.validated_pfa_calls", "oracles.validated_pfa.busy_s",
                "oracles.report_loads", "oracles.report_load_s",
                "pfa.fallback_calls", "pfa.log_terms", "solver.solves",
                "solver.pfa_evals", "solver.tau0_fallbacks", "mc.cells"):
        m[key] = 0

    # Forward pass (parents precede children): the Monte Carlo span, if
    # any, that each span runs under.
    mc_owner: list = [None] * len(spans)
    for index, rec in enumerate(spans):
        if rec[NAME] in _MC_SPANS:
            mc_owner[index] = rec[NAME]
        elif rec[PARENT] >= 0:
            mc_owner[index] = mc_owner[rec[PARENT]]
    # Backward pass (children follow parents): did the log-domain fallback
    # run anywhere below a span?
    fallback = [False] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        rec = spans[index]
        attrs = rec[ATTRS]
        if attrs and attrs.get("pfa.log_binomial"):
            fallback[index] = True
        if fallback[index] and rec[PARENT] >= 0:
            fallback[rec[PARENT]] = True

    first_eval: dict[int, int] = {}
    for index, rec in enumerate(spans):
        name, layer, parent = rec[NAME], rec[LAYER], rec[PARENT]
        attrs = rec[ATTRS] or {}
        duration = rec[END] - rec[START]
        self_time = duration - child_time[index]
        entry = parent < 0 or spans[parent][LAYER] != layer
        add(f"{layer}.self_s", self_time)
        if rec[ERROR]:
            add(f"{layer}.errors", 1)
        if entry:
            add(f"{layer}.calls", 1)
            add(f"{layer}.busy_s", duration)
            if layer == "pfa" and fallback[index]:
                add("pfa.fallback_calls", 1)
        if name == "rng.RandomStream.uniforms":
            add("rng.variates", attrs.get("items", 0))
            add("rng.fill_s", duration)
            if mc_owner[index] is not None:
                add("mc.cells", attrs.get("items", 0))
                if mc_owner[index].startswith("oracles."):
                    add("oracles.mc_cells", attrs.get("items", 0))
        elif name == "rng.RandomStream.exponentials":
            add("rng.transform_s", self_time)
        if layer == "rng":
            add("rng.bytes_computed", attrs.get("bytes", 0))
        elif name in _MARGIN_SPANS:
            add("detectors.cells", attrs.get("items", 0))
        elif name == "simulate.empirical_pfa":
            add("simulate.trials", attrs.get("items", 0))
        elif name in _SAMPLE_SPANS and entry:
            add("clutter.samples", attrs.get("items", 0))
        elif name == "oracles.adjudicate":
            add("oracles.adjudicate_calls", 1)
            add("oracles.adjudicate.self_s", self_time)
        elif name in _QUADRATURE_SPANS:
            add("oracles.quadrature_calls", 1)
            add("oracles.quadrature.busy_s", duration)
            add("oracles.quad_integrals", attrs.get("quad", 0))
            add("oracles.quad_neval", attrs.get("neval", 0))
        elif name == "oracles.validated_pfa":
            add("oracles.validated_pfa_calls", 1)
            add("oracles.validated_pfa.busy_s", duration)
            if parent >= 0 and spans[parent][NAME] == "solver.solve_tau_numeric":
                add("solver.pfa_evals", 1)
                first_eval.setdefault(parent, index)
        elif name in _REPORT_SPANS:
            if name.endswith("from_dict"):
                add("oracles.report_loads", 1)
            if parent < 0 or spans[parent][NAME] not in _REPORT_SPANS:
                add("oracles.report_load_s", duration)
        elif name == "solver.solve_tau_numeric":
            add("solver.solves", 1)
        if attrs.get("pfa.log_binomial"):
            add("pfa.log_terms", attrs["pfa.log_binomial"])

    # Every numeric solve first evaluates Pfa at tau = 0; count the solves
    # whose tau = 0 evaluation took the log-domain fallback.
    m["solver.tau0_fallbacks"] = sum(1 for child in first_eval.values()
                                     if fallback[child])
    m["pfa.fallback_ratio"] = (m["pfa.fallback_calls"] / m["pfa.calls"]
                               if m["pfa.calls"] else 0.0)
    m["solver.evals_per_solve"] = (m["solver.pfa_evals"] / m["solver.solves"]
                                   if m["solver.solves"] else 0.0)
    rng_busy = m["rng.busy_s"]
    m["rng.variates_per_s"] = m["rng.variates"] / rng_busy if rng_busy else 0.0
    m["cli.ops"] = m.pop("cli.calls")
    m["trace.spans"] = len(spans)
    return m

