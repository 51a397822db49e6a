"""In-memory spans recorded around calls into the library.

Nothing here hooks into the package itself.  A traced run records spans in
two places only: around the public functions the benchmark calls (through
`make_api`) and around the methods of a family object (through `FamilyProxy`, a
delegating wrapper passed to the library in place of the family).  Calls the
library makes internally between its own modules are therefore visible only
when they go through the family object.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

# the family methods the library calls; each call becomes one span
FAMILY_METHODS = ("phi", "phi_inv", "phi_inv_deriv", "log_phi")


class Tracer:
    """Spans kept in memory as (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = self.spans[index]
            span[1], span[2] = start, end

    def clear(self):
        self.spans.clear()

    def total(self, name) -> float:
        """Summed duration of all spans with this name, in seconds."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def child_time(self, parent_name, child_names) -> float:
        """Time spent in direct children named in child_names, summed over
        every span named parent_name.  Family spans never nest in one
        another, so direct children cover each interval at most once."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(end - start for name, start, end, parent in self.spans
                   if parent in parents and name in child_names)


class FamilyProxy:
    """Delegates every attribute to the wrapped family; the four evaluation
    methods are timed as spans named families.<method>."""

    def __init__(self, family, tracer: Tracer):
        self._family = family
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._family, name)
        if name not in FAMILY_METHODS:
            return attr
        tracer = self._tracer

        def traced(*args, **kwargs):
            return tracer.call(f"families.{name}", attr, *args, **kwargs)

        return traced


def make_api(lib, names_by_layer: dict, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of the library's public functions, keyed by function name.

    `lib` has one attribute per layer module (kappa, divergences, ...) and
    `names_by_layer` names the functions the benchmark calls in each.  With a
    tracer each call is recorded as a span named <layer>.<function>; the
    family argument is not wrapped here, see `FamilyProxy`.
    """
    api = {}
    for layer, names in names_by_layer.items():
        for name in names:
            fn = getattr(getattr(lib, layer), name)
            if tracer is not None:
                fn = _traced(tracer, f"{layer}.{name}", fn)
            api[name] = fn
    return SimpleNamespace(**api)


def _traced(tracer: Tracer, span_name: str, fn):
    def call(*args, **kwargs):
        return tracer.call(span_name, fn, *args, **kwargs)

    return call
