"""Per-layer tracing, applied at runtime from the benchmark's own code.

The traced run replaces each function in ``LAYERS`` with a wrapper in every
library module namespace that binds it (``has_minor``, for instance, is bound
in ``minors``, ``classify`` and ``cli``); no source file changes.  A wrapper
records a span (name, start, end, parent span, operation id) and counts the
call.  A layer's self time is its span's duration minus the time its child
spans cover.  Spans are kept in memory and written out when the run ends.

``groups.op`` and ``groups.inverse`` are the hottest calls in the library, so
they are counted only, without spans.  A generator function is timed over its
iteration (each resumption is one span), not over its call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# module, functions, the end-to-end metric a change to them should move, and
# on which workload (the workloads in parentheses should see no change).
LAYERS = (
    ("graphcore", ("canonical_labeling", "blocks", "spanning_forest", "parse_graph_text"),
     "ops_per_s", "survey, and op_tail_ms on classify (not balance)"),
    ("enumeration", ("inseparable_multigraphs", "connected_multigraphs", "all_multigraphs"),
     "ops_per_s", "survey, atlas (not balance, classify)"),
    ("cyclespace", ("fundamental_circles", "circle_from_support", "is_cycle_basis", "parse_basis_text"),
     "op_p50_ms", "balance (not survey)"),
    ("cyclespace", ("enumerate_circles", "gf2_extract_basis"),
     "ops_per_s, peak_rss_mb", "atlas; op_tail_ms on classify for binary-test hosts (not balance)"),
    ("groups", ("op", "inverse"),
     "op_p50_ms", "balance (not survey)"),
    ("gaingraph", ("is_balanced", "switch_to_forest", "walk_gain", "parse_gain_text"),
     "op_p50_ms, ops_per_s", "balance (not survey)"),
    ("balancetests", ("circle_test", "binary_cycle_test", "smith_normal_form", "implies_balance_abelian"),
     "op_tail_ms", "balance (not atlas, survey, classify)"),
    ("minors", ("has_minor", "reverse_extrusion_reduce", "contract", "verify_minor_witness",
                "lift_basis_deletion", "lift_basis_contraction"),
     "op_tail_ms, op_p50_ms", "classify (Bad hosts), atlas (not balance)"),
    ("classify", ("circle_goodness", "binary_cycle_goodness", "structural_decomposition", "lift_witness",
                  "BadWitness.verify"),
     "ops_per_s", "classify, atlas (not balance)"),
    ("classify", ("oracle_circle_goodness",),
     "ops_per_s, peak_rss_mb", "atlas, survey (not classify, balance)"),
    ("cli", ("run",),
     "op_p50_ms", "balance (not the others)"),
)
MODULES = ("graphcore", "enumeration", "cyclespace", "groups", "gaingraph", "balancetests", "minors", "classify", "cli")
COUNT_ONLY = {"groups.op", "groups.inverse"}
ITERATED = {"enumeration.all_multigraphs"}
SPANS_KEPT = 100_000


def metric_specs() -> list[dict]:
    """The per-layer metrics a traced run reports, in ``BENCHMARK.json`` form."""
    out = []
    for module in MODULES:
        for mod, functions, _, _ in LAYERS:
            if mod != module:
                continue
            for fn in functions:
                name = f"{module}.{fn}"
                out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
                if name not in COUNT_ONLY:
                    out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
                if name == "minors.has_minor":
                    out.append({"name": f"{name}.found_ratio", "unit": "ratio", "better": "higher"})
        out.append({"name": f"{module}.errors", "unit": "count", "better": "lower"})
    return out


class Tracer:
    def __init__(self) -> None:
        self.op: object = None  # id of the operation (or phase) now running
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.found = 0
        self.spans: list[tuple] = []
        self.span_count = 0
        self._stack: list[list] = []  # [span id, start, time covered by children]

    # -- spans -----------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self.span_count, time.perf_counter(), 0.0]
        self.span_count += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, covered = frame
        duration = end - start
        self.self_s[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op))

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        tracer = self
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.errors[module] += 1
                    raise

            wrapper = counted
        elif name in ITERATED:

            def iterated(*args, **kwargs):
                tracer.calls[name] += 1
                it = iter(fn(*args, **kwargs))
                while True:
                    frame = tracer._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.errors[module] += 1
                        raise
                    finally:
                        tracer._exit(name, frame)
                    yield item

            wrapper = iterated
        else:

            def spanned(*args, **kwargs):
                tracer.calls[name] += 1
                frame = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.errors[module] += 1
                    raise
                finally:
                    tracer._exit(name, frame)
                if name == "minors.has_minor" and result is not None:
                    tracer.found += 1
                return result

            wrapper = spanned
        wrapper = functools.wraps(fn)(wrapper)
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self, lib) -> None:
        """Wrap every traced function in every library namespace that binds it."""
        namespaces = [getattr(lib, m) for m in MODULES]
        for module, functions, _, _ in LAYERS:
            home = getattr(lib, module)
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                if "." in fn_name:  # a method: patch the class attribute
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is not None and hasattr(cls, meth):
                        setattr(cls, meth, self._wrap(name, module, getattr(cls, meth)))
                    continue
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, module, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for spec in metric_specs():
            metric = spec["name"]
            base, kind = metric.rsplit(".", 1)
            if kind == "calls":
                value = self.calls[base]
            elif kind == "self_s":
                value = self.self_s[base]
            elif kind == "found_ratio":
                value = self.found / self.calls[base] if self.calls[base] else 0.0
            else:
                value = self.errors[base]
            out[metric] = {"value": value, "unit": spec["unit"]}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
