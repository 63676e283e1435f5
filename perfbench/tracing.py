"""Per-layer spans for the nlsl2 benchmark's traced runs.

A Tracer wraps every public function of each nlsl2 layer module, in every
namespace of the package that binds it, so calls between layers are seen
whichever name they go through. Each call records a span (layer, function,
start, end, parent) in memory; the spans are summarised into per-layer self
times and call counts, and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("coefficients", "structure", "repbuilder", "verifier", "hopf", "families", "qdeform", "cli")

# Leaf structure-function evaluations; f2_up / f2_down only dispatch to these.
STRUCTURE_EVALS = frozenset({
    "f2_polynomial", "f2_higgs_shifted_up", "f2_higgs_shifted_down",
    "f2_quadratic_up", "f2_quadratic_down", "f2_qbase",
})

# Result types whose arrays count towards <layer>.matrix_bytes.
HELD_TYPES = {"repbuilder": "MatrixRep", "hopf": "ProductRep"}


def held_bytes(obj) -> int:
    """Bytes of every numpy array reachable from obj's fields, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(held_bytes(x) for x in vars(obj).values())
    return 0


class Tracer:
    """Installs span-recording wrappers into a loaded nlsl2 package."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [layer, function, start, end, parent index]
        self.matrix_bytes: Counter = Counter()
        self.exact_checks = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nlsl2.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, ns in list(sys.modules.items()):
            if modname != "nlsl2" and not modname.startswith("nlsl2."):
                continue
            for attr, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, val))

    def uninstall(self):
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        held = HELD_TYPES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [layer, name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if held is not None and type(result).__name__ == held:
                self.matrix_bytes[layer] += held_bytes(result)
            elif layer == "verifier" and (parent < 0 or spans[parent][0] != "verifier"):
                self.exact_checks += sum(c.kind == "exact" for c in getattr(result, "checks", ()))
            return result

        return traced

    def summary(self, passes: int, states_per_pass: int) -> dict:
        """Per-pass layer metrics: self time, calls, and the per-layer counters."""
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        calls: Counter = Counter()
        evals = 0
        for i, (layer, name, t0, t1, _) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
            calls[layer] += 1
            evals += layer == "structure" and name in STRUCTURE_EVALS
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
            out[f"{layer}.calls"] = (calls[layer] / passes, "count")
        out["structure.evals_per_state"] = (evals / (passes * states_per_pass) if states_per_pass else 0.0,
                                            "evals/state")
        out["repbuilder.matrix_bytes"] = (self.matrix_bytes["repbuilder"] / passes, "bytes")
        out["hopf.matrix_bytes"] = (self.matrix_bytes["hopf"] / passes, "bytes")
        out["verifier.exact_checks"] = (self.exact_checks / passes, "count")
        return out

    def top_functions(self, passes: int, count: int = 8) -> list:
        """(function, inclusive seconds per pass, calls per pass), the most expensive first."""
        incl: Counter = Counter()
        calls: Counter = Counter()
        for layer, name, t0, t1, _ in self.spans:
            incl[f"{layer}.{name}"] += t1 - t0
            calls[f"{layer}.{name}"] += 1
        return [(fn, t / passes, calls[fn] / passes) for fn, t in incl.most_common(count)]

    def span_records(self) -> list:
        return [[f"{layer}.{name}", t0, t1, parent] for layer, name, t0, t1, parent in self.spans]
