"""Spans around the public functions of each h1loc layer, from outside.

`Tracer.install()` replaces each traced function in every h1loc module
namespace that binds it (methods on their class), so calls made through any
import path are seen.  Spans (name, start, end, parent) stay in memory until
`write()`; `layer_metrics()` folds them into per-layer counts and self
times, where a span's self time is its duration minus the time its child
spans cover.  `Mat.mul` is counted, not spanned: it runs millions of times.

trace.overhead_s is the tracer's own cost: spans recorded times the cost of
one span wrapper, plus counted calls times the cost of one counting
wrapper, both measured in the same process after the traced rounds.  The
difference between a traced and an untraced round is the direct measure,
but on a shared 2-core box two minute-long rounds differ by more than that
from run to run, so it reads as noise (it came out negative in a trial).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# span name -> (module, attribute path, extra counter or None)
SPANNED = {
    "cli.run": ("h1loc.cli", "run", None),
    "groups.close": ("h1loc.groups", "MatGroup.close", "elements"),
    "groups.from_elements": ("h1loc.groups", "MatGroup.from_elements", None),
    "groups.element_order": ("h1loc.groups", "element_order", None),
    "groups.p_sylow": ("h1loc.groups", "p_sylow", None),
    "groups.normalizer": ("h1loc.groups", "normalizer", None),
    "groups.lift_normalizer": ("h1loc.groups", "lift_normalizer", None),
    "ringmat.rowsystem": ("h1loc.ringmat", "RowSystem.__init__", "rows_in"),
    "ringmat.quotient_structure": ("h1loc.ringmat", "quotient_structure",
                                   None),
    "cohomology.h1": ("h1loc.cohomology", "h1", None),
    "cohomology.h1_loc": ("h1loc.cohomology", "h1_loc", None),
    "cohomology.cocycle_from_generator_values": (
        "h1loc.cohomology", "cocycle_from_generator_values", None),
    "cohomology.satisfies_local_conditions": (
        "h1loc.cohomology", "satisfies_local_conditions", None),
    "cohomology.class_order": ("h1loc.cohomology", "class_order", None),
    "criteria.sylow_normalizer": ("h1loc.criteria",
                                  "sylow_normalizer_criterion", None),
    "criteria.fixed_point_free": ("h1loc.criteria",
                                  "fixed_point_free_criterion", None),
    "symplectic.pairing_sweep": ("h1loc.symplectic",
                                 "eigenvalue_pairing_sweep", None),
    "counterexample.build": ("h1loc.counterexample", "build", None),
    "counterexample.verify": ("h1loc.counterexample", "verify", None),
}
COUNTED = {"ringmat.mat_mul": ("h1loc.ringmat", "Mat.mul")}

def _extra(kind, args, result):
    if kind == "elements":
        return result.order
    if kind == "rows_in":
        return len(args[1])        # RowSystem.__init__(self, M, p, n)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.extra = {}            # span name -> summed extra counter
        self.counts = {name: 0 for name in COUNTED}
        self._stack = []
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, name, fn, kind):
        spans, stack, extra = self.spans, self._stack, self.extra
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if kind:
                extra[name] = extra.get(name, 0) + _extra(kind, args, result)
            return result
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, module, path, make):
        """Swap `module.path` for make(original) wherever h1loc binds it."""
        mod = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))
            return
        orig = getattr(mod, path)
        new = make(orig)
        for name, other in list(sys.modules.items()):
            if name != "h1loc" and not name.startswith("h1loc."):
                continue
            for attr, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, attr, new)
                    self._undo.append((other, attr, orig))

    def install(self):
        for name, (module, path, kind) in SPANNED.items():
            self._replace(module, path,
                          lambda fn, n=name, k=kind: self._span(n, fn, k))
        for name, (module, path) in COUNTED.items():
            self._replace(module, path,
                          lambda fn, n=name: self._counter(n, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """span name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def overhead_s(self, calls=20000, repeats=5):
        """Estimated tracing cost of the recorded run (see module doc)."""
        probe = Tracer()
        clock = time.perf_counter

        def plain():
            return None

        def per_call(wrapped):
            costs = []
            for _ in range(repeats):
                t0 = clock()
                for _ in range(calls):
                    plain()
                t1 = clock()
                for _ in range(calls):
                    wrapped()
                t2 = clock()
                costs.append(((t2 - t1) - (t1 - t0)) / calls)
                probe.spans.clear()
            return statistics.median(costs)

        span_cost = per_call(probe._span("probe", plain, None))
        count_cost = per_call(probe._counter("ringmat.mat_mul", plain))
        return (len(self.spans) * span_cost
                + sum(self.counts.values()) * count_cost)

    def layer_metrics(self):
        """The per_layer metrics named in BENCHMARK.json, with their units."""
        totals = self.layer_totals()
        values = {"trace.overhead_s": self.overhead_s()}
        for name, (_, _, kind) in SPANNED.items():
            calls, self_s = totals.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
            if kind:
                values[f"{name}.{kind}"] = self.extra.get(name, 0)
        for name, count in self.counts.items():
            values[f"{name}.calls"] = count
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in json.loads(BENCHMARK.read_text())["per_layer"]}

    def write(self, path):
        """One JSON object per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
