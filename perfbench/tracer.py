"""Spans around nutorbits' layer entry points, installed at run time.

The wrapped functions are the nutorbits functions that ``nutorbits.cli``
and ``nutorbits.constructions`` import from the other modules, plus
``cli.main``, ``automorphism_group``, ``orbits_of`` and
``PermutationGroup.from_generators``, which ``orbit_census`` calls.  Every
module-level name bound to one of them is rebound to its wrapper in the
package, ``cli``, ``constructions`` and ``automorphisms`` namespaces, and
``uninstall`` puts the originals back.  Generator functions are left
alone: their work runs while the caller iterates, inside the caller's span.

Spans are kept in memory as [name, start, end, parent, child time]; self
time is a span's duration minus the time its child spans cover.  No file
under ``src/`` is touched: an untraced run never imports this module.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

import nutorbits
from nutorbits import automorphisms, cli, constructions, polynomials

GRAPH6_FUNCTIONS = {"read_graph6", "write_graph6", "write_dot"}

# span name -> per-layer metric prefix
BUCKETS = {
    "automorphisms.orbit_census": "automorphisms.census",
    "automorphisms.automorphism_group": "automorphisms.search",
    "automorphisms.from_generators": "automorphisms.group",
    "automorphisms.orbits_of": "automorphisms.orbits",
    "cli.main": "cli.self",
}

# Per-layer metrics a traced round reports; trace.overhead_s is added by
# run.py from the wall times of traced and untraced rounds.
LAYER_METRICS = (
    "graphs.build_s", "graphs.build_calls", "graphs.graph6_s", "graphs.graph6_bytes",
    "linalg.is_nut_s", "linalg.is_nut_calls", "linalg.order_cubed_sum",
    "linalg.nullity_sum", "polynomials.symbolic_s", "polynomials.symbolic_calls",
    "polynomials.cyclotomic_hits", "polynomials.cyclotomic_misses",
    "automorphisms.census_s", "automorphisms.search_s", "automorphisms.group_s",
    "automorphisms.orbits_s", "automorphisms.generators",
    "automorphisms.elements_enumerated", "constructions.self_s",
    "constructions.certify_calls", "cli.self_s", "cli.output_bytes",
)


def bucket(span_name: str) -> str:
    if span_name in BUCKETS:
        return BUCKETS[span_name]
    layer, func = span_name.split(".", 1)
    if layer == "graphs":
        return "graphs.graph6" if func in GRAPH6_FUNCTIONS else "graphs.build"
    return {"linalg": "linalg.is_nut", "polynomials": "polynomials.symbolic",
            "constructions": "constructions.self"}[layer]


def entry_points() -> dict:
    """function -> span name, for every function the tracer wraps."""
    found = {cli.main: "cli.main",
             automorphisms.automorphism_group: "automorphisms.automorphism_group",
             automorphisms.orbits_of: "automorphisms.orbits_of"}
    for module in (cli, constructions):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ != module.__name__
                    and obj.__module__.startswith("nutorbits.")
                    and not inspect.isgeneratorfunction(obj)):
                found[obj] = f"{obj.__module__.rsplit('.', 1)[1]}.{name}"
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, perf_counter(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[1]
            if after is not None:
                after(args, result)
            return result

        return traced

    # counters taken at the boundary, from arguments and results
    def _after_is_nut(self, args, verdict):
        self.counts["linalg.order_cubed_sum"] += args[0].n ** 3
        self.counts["linalg.nullity_sum"] += verdict.nullity

    def _after_group(self, args, group):
        self.counts["automorphisms.generators"] += len(group.generators)
        self.counts["automorphisms.elements_enumerated"] += len(group.elements or ())

    def _after_read_graph6(self, args, graph):
        self.counts["graphs.graph6_bytes"] += len(args[0].encode())

    def _after_write(self, args, text):
        self.counts["graphs.graph6_bytes"] += len(text.encode())

    def install(self) -> None:
        hooks = {"is_nut": self._after_is_nut, "read_graph6": self._after_read_graph6,
                 "write_graph6": self._after_write, "write_dot": self._after_write}
        wrappers = {fn: self.wrap(name, fn, hooks.get(fn.__name__))
                    for fn, name in entry_points().items()}
        for module in (nutorbits, cli, constructions, automorphisms):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        group_cls = automorphisms.PermutationGroup
        original = group_cls.__dict__["from_generators"]
        self._undo.append((group_cls, "from_generators", original))
        group_cls.from_generators = classmethod(self.wrap(
            "automorphisms.from_generators", original.__func__, self._after_group))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Every name in LAYER_METRICS, for the spans recorded so far."""
        out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
        spans = self.spans
        for name, start, end, parent, child in spans:
            prefix = bucket(name)
            out[prefix + "_s"] += end - start - child
            if prefix == "graphs.build":
                out["graphs.build_calls"] += 1
            elif prefix == "polynomials.symbolic":
                out["polynomials.symbolic_calls"] += 1
            elif name == "linalg.is_nut":
                out["linalg.is_nut_calls"] += 1
                if parent >= 0 and spans[parent][0].startswith("constructions."):
                    out["constructions.certify_calls"] += 1
        out.update(self.counts)
        info = polynomials.cyclotomic.cache_info()
        out["polynomials.cyclotomic_hits"] = info.hits
        out["polynomials.cyclotomic_misses"] = info.misses
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, child in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": end - start - child}) + "\n")
