"""Spans around the package's public functions, patched in from outside.

The tracer replaces each listed function by a wrapper in every
``tensorgraphs`` module namespace that binds it (so ``tensorgraphs.cli.
homology`` and ``tensorgraphs.homology.bubbles`` are both covered), and
wraps ``ColoredGraph.__init__`` on the class.  Nothing inside the package
changes.  A span is (name, start, end, parent); spans live in memory in
flat arrays and are written out once, after the traced round.

Self time is a span's duration minus the durations of its direct child
spans; the wrapper's own bookkeeping lands in the parent's self time, which
is what ``trace.overhead_ratio`` bounds.
"""

from __future__ import annotations

import functools
import gzip
import math
import statistics
import sys
import time
from array import array
from collections import Counter

# Public functions per module whose calls are spanned.  ``ColoredGraph``
# stands for its constructor.
LAYERS = {
    "graphs": (
        "parse", "serialize", "bubbles", "connected_components",
        "canonical_certificate", "is_isomorphic", "ColoredGraph",
    ),
    "homology": ("chain_complex", "smith_normal_form", "homology"),
    "ribbon": ("ribbon_from_colored", "boundary_components"),
    "jackets": ("enumerate_jackets", "gurau_degree", "boundary_degree"),
    "surgery": (
        "connected_sum", "crys_sum", "open_edge", "close_legs", "cone",
        "boundary_graph", "separator_check",
    ),
    "models": ("build", "enumerate_vacuum", "is_member", "find_separators"),
    "cli": ("main",),
}

# Metrics beyond calls/self_s/errors, with their units.
EXTRA_METRICS = {
    "graphs.ColoredGraph.vertices": "count",
    "graphs.canonical_certificate.repeat_ratio": "ratio",
    "graphs.canonical_certificate.growth_exp": "slope",
    "homology.smith_normal_form.entries": "count-computed",
    "homology.smith_normal_form.nonzeros": "count-computed",
    "homology.smith_normal_form.growth_exp": "slope",
    "jackets.enumerate_jackets.jackets": "count",
    "models.enumerate_vacuum.raw_graphs": "count",
    "models.enumerate_vacuum.distinct_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, names in LAYERS.items():
        for fn in names:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
        units[f"{module}.errors"] = "count"
    units.update(EXTRA_METRICS)
    return units


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(|V|); 0 without spread."""
    pts = [(math.log(v), math.log(t)) for v, t in points if v > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    """Install with :meth:`install`; spans are kept only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_size = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.certs: set = set()
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for module, names in LAYERS.items():
            mod = sys.modules[f"{prefix}.{module}"]
            for fn_name in names:
                if fn_name == "ColoredGraph":
                    cls = mod.ColoredGraph
                    orig = cls.__init__
                    cls.__init__ = self._wrap(f"{module}.ColoredGraph", orig)
                    self._undo.append((cls, "__init__", orig))
                    continue
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        nid = len(self.names)
        self.names.append(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self.stack
        clock = time.process_time  # the clock items are timed with

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            size = before(args) if before else _size(args)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_size.append(size)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-function counters (outside the span's interval) ---------------

    def _before_homology_smith_normal_form(self, args) -> int:
        matrix = args[0]
        self.counts["homology.smith_normal_form.entries"] += sum(len(r) for r in matrix)
        self.counts["homology.smith_normal_form.nonzeros"] += sum(
            1 for r in matrix for x in r if x
        )
        return -1

    def _before_graphs_ColoredGraph(self, args) -> int:
        return -1  # the instance is not built yet; its size is counted after

    def _after_graphs_ColoredGraph(self, args, kwargs, result) -> None:
        self.counts["graphs.ColoredGraph.vertices"] += len(args[0])

    def _after_graphs_canonical_certificate(self, args, kwargs, result) -> None:
        if result in self.certs:
            self.counts["graphs.canonical_certificate.repeats"] += 1
        else:
            self.certs.add(result)

    def _after_jackets_enumerate_jackets(self, args, kwargs, result) -> None:
        self.counts["jackets.enumerate_jackets.jackets"] += len(result)

    def _after_models_enumerate_vacuum(self, args, kwargs, result) -> None:
        key = "distinct" if kwargs.get("dedup") else "raw"
        self.counts[f"models.enumerate_vacuum.{key}"] += len(result)

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as tab-separated name, start, end, parent, |V| lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tvertices\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_size[i]}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics (fail and overhead
        ratios are filled in by the caller)."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]

        snf_points: dict[int, float] = {}
        cert_points = []
        snf = self.names.index("homology.smith_normal_form")
        cert = self.names.index("graphs.canonical_certificate")
        for i in range(n):
            if self.span_name[i] == cert:
                cert_points.append((self.span_size[i], dur[i]))
            elif self.span_name[i] == snf:
                # Charge the time to the nearest enclosing call on a graph.
                a = self.span_parent[i]
                while a >= 0 and self.span_size[a] <= 0:
                    a = self.span_parent[a]
                if a >= 0:
                    snf_points[a] = snf_points.get(a, 0.0) + dur[i]

        out: dict[str, float] = {}
        for module, names in LAYERS.items():
            for fn in names:
                key = f"{module}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
            out[f"{module}.errors"] = self.errors[module]
        c = self.counts
        out["graphs.ColoredGraph.vertices"] = c["graphs.ColoredGraph.vertices"]
        cert_calls = calls["graphs.canonical_certificate"]
        out["graphs.canonical_certificate.repeat_ratio"] = (
            c["graphs.canonical_certificate.repeats"] / cert_calls if cert_calls else 0.0
        )
        out["graphs.canonical_certificate.growth_exp"] = _slope(cert_points)
        out["homology.smith_normal_form.entries"] = c["homology.smith_normal_form.entries"]
        out["homology.smith_normal_form.nonzeros"] = c["homology.smith_normal_form.nonzeros"]
        out["homology.smith_normal_form.growth_exp"] = _slope(
            (self.span_size[a], t) for a, t in snf_points.items()
        )
        out["jackets.enumerate_jackets.jackets"] = c["jackets.enumerate_jackets.jackets"]
        raw = c["models.enumerate_vacuum.raw"]
        out["models.enumerate_vacuum.raw_graphs"] = raw
        out["models.enumerate_vacuum.distinct_ratio"] = (
            c["models.enumerate_vacuum.distinct"] / raw if raw else 0.0
        )
        return out


def _size(args) -> int:
    """|V| of a graph first argument, else -1."""
    if args and type(args[0]).__name__ == "ColoredGraph":
        return len(args[0])
    return -1
