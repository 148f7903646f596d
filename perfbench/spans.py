"""Spans around calls into the typeclass and polygon layers.

`install` replaces the public functions in the module namespaces where
`latgon.verify` and `latgon.typeclass` look them up, so every call the
campaign makes through them is timed.  Spans are aggregated in memory per
(caller span, callee span) pair rather than kept one by one, since a
corpus campaign makes hundreds of thousands of kernel calls.  Only traced
campaign processes call `install`; untraced ones never import this module and
run the unmodified program.  Calls made inside pool workers are not seen: the
counts are the campaign process's own.
"""

from __future__ import annotations

import functools
import time

#: Module attribute -> span name, for each module whose lookups are wrapped.
WRAPPED = {
    "verify": {
        "classify": "typeclass.classify",
        "polygon_types": "typeclass.polygon_types",
        "reduce_type_v": "typeclass.reduce_type_v",
        "reduce_type_vi": "typeclass.reduce_type_vi",
        "transform": "polygon.transform",
        "is_free_of": "polygon.is_free_of",
    },
    "typeclass": {
        "lift": "typeclass.lift",
        "splits_by_segment": "polygon.splits_by_segment",
        "transform": "polygon.transform",
        "is_free_of": "polygon.is_free_of",
    },
}

SPAN_NAMES = sorted({name for names in WRAPPED.values()
                     for name in names.values()})


class SpanRecorder:
    """Aggregated spans: (parent name or None, name) -> [calls, total, child]."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.edges: dict[tuple[str | None, str], list] = {}

    def wrap(self, name: str, fn):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += frame[1]

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self_s, and the top-level time of all spans."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        top_level_s = 0.0
        for (parent, name), (calls, total, child) in self.edges.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += total - child
            if parent is None:
                top_level_s += total
        return {"spans": out, "top_level_s": top_level_s,
                "edges": {f"{parent}>{name}": edge
                          for (parent, name), edge in self.edges.items()}}


def install(recorder: SpanRecorder, modules: dict) -> None:
    """Wrap each listed attribute of the given modules (keyed as in WRAPPED).

    A module that no longer looks a function up simply contributes no calls.
    """
    for key, names in WRAPPED.items():
        module = modules[key]
        for attr, name in names.items():
            if hasattr(module, attr):
                setattr(module, attr,
                        recorder.wrap(name, getattr(module, attr)))
