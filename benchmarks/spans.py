"""Spans and counters recorded around calls into higherop's modules.

A traced job replaces module attributes of higherop with wrappers at
run time; nothing under src/ changes.  A wrapper records a span (name,
start, end, parent) and, at the outermost call of its metric, counts
taken from the arguments or the result.  Spans stay in memory and are
summarised when the job ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str  # module.attribute that was called
    metric: str  # the seconds metric the span adds to
    parent: int  # index of the enclosing span, -1 at the top
    outermost: bool  # no enclosing span adds to the same metric
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Open spans form a stack; finished spans are kept in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.open_metrics: Counter = Counter()
        self.counts: Counter = Counter()

    def span(self, fn, name: str, metric: str,
             on_call: Callable | None = None, on_return: Callable | None = None):
        """Wrap fn so that every call records a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, metric, parent, not tracer.open_metrics[metric])
            if span.outermost and on_call is not None:
                on_call(tracer.counts, *args, **kwargs)
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            tracer.open_metrics[metric] += 1
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                tracer.open_metrics[metric] -= 1
            if span.outermost and on_return is not None:
                on_return(tracer.counts, out, *args, **kwargs)
            return out

        return traced

    def count(self, fn, on_return: Callable):
        """Wrap fn so that every call updates counters, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            on_return(counts, out, *args, **kwargs)
            return out

        return counted

    def seconds(self) -> dict:
        """Seconds per metric, from the outermost spans of each."""
        out: Counter = Counter()
        for s in self.spans:
            if s.outermost:
                out[s.metric] += s.end - s.start
        return dict(out)

    def child_seconds(self, name: str) -> float:
        """Seconds of the spans directly under spans called `name`."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent >= 0 and self.spans[s.parent].name == name)

    def paths(self) -> dict:
        """Calls and seconds per call path, e.g. `cli.run > topology.nerve`."""
        path: list[str] = []
        out: dict = {}
        for s in self.spans:
            p = s.name if s.parent < 0 else path[s.parent] + " > " + s.name
            path.append(p)
            calls, secs = out.get(p, (0, 0.0))
            out[p] = (calls + 1, secs + s.end - s.start)
        return {p: [c, round(t, 6)] for p, (c, t) in out.items()}


def install(tracer: Tracer, modules: dict, table) -> None:
    """Apply the wrappers in `table` to the modules.

    Each row is (module, attribute, make_wrapper), as wrappers() gives
    them.  A function imported by
    name into another module is replaced there too, so calls through
    either binding are seen.  A missing attribute leaves its metrics
    absent from the report.
    """
    for mod_name, attr, make in table:
        original = getattr(modules[mod_name], attr, None)
        if original is None:
            continue
        wrapper = make(tracer, original, f"{mod_name}.{attr}")
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# what is traced, and what each boundary counts


def _add(name: str, amount: Callable):
    def hook(counts, out, *args, **kwargs):
        counts[name] += amount(out, *args, **kwargs)
    return hook


def _span(metric: str, on_call=None, on_return=None):
    return lambda tr, fn, name: tr.span(fn, name, metric, on_call, on_return)


def _count(on_return):
    return lambda tr, fn, name: tr.count(fn, on_return)


def _calls(name: str):
    return _add(name, lambda *args, **kwargs: 1)


def _morphisms_hook():
    seen = set()

    def hook(counts, out, T, S):
        counts["ordinals.morphisms"] += 0 if (T, S) in seen else len(out)
        seen.add((T, S))
    return hook


def _table_cells(out, *args, **kwargs):
    return sum(int(t.size) for t in out.mult.values())


def _axiom_counts(counts, rep, *args, **kwargs):
    counts["operads.assoc_pairs"] += rep.assoc_pairs
    counts["operads.assoc_instances"] += rep.assoc_instances


def _quotient_counts(counts, out, *args, **kwargs):
    classes = out.classes if hasattr(out, "classes") else out
    counts["symmetrize.classes"] += len(classes)
    counts["symmetrize.elements"] += sum(len(c) for c in classes)


def _boundary_cells(counts, C, *args, **kwargs):
    f = C.f_vector()
    counts["topology.boundary_cells"] += sum(a * b for a, b in zip(f, f[1:]))


def _cache_lookup(counts, payload, *args, **kwargs):
    counts["cli.cache_hits" if payload is not None else "cli.cache_misses"] += 1


def wrappers() -> list:
    """Rows (module, attribute, make_wrapper) for install(), with fresh
    hook state for one tracer."""
    return [
        ("ordinals", "enumerate_morphisms",
         _span("ordinals.enumerate_morphisms_s", on_return=_morphisms_hook())),
        ("ordinals", "restrict_to_fiber",
         _count(_calls("ordinals.restrict_calls"))),
        ("operads", "make_ass",
         _span("operads.table_build_s", on_return=_add("operads.table_cells", _table_cells))),
        ("operads", "endomorphism_operad",
         _span("operads.table_build_s", on_return=_add("operads.table_cells", _table_cells))),
        ("operads", "desymmetrize",
         _span("operads.table_build_s", on_return=_add("operads.table_cells", _table_cells))),
        ("operads", "check_operad_axioms", _span("operads.check_s", on_return=_axiom_counts)),
        ("operads", "_check_pair", _span("operads.assoc_s")),
        ("operads", "enumerate_operad_morphisms",
         _span("operads.morphism_search_s",
               on_return=_add("operads.morphisms_found", lambda out, *a, **k: len(out)))),
        ("symmetrize", "build_classifier",
         _span("symmetrize.poset_s", on_return=lambda c, P, *a, **k: c.update({
             "symmetrize.poset_objects": len(P.objects),
             "symmetrize.poset_arrows": len(P.arrows)}))),
        ("symmetrize", "_symmetrize_arity",
         _span("symmetrize.quotient_s", on_return=_quotient_counts)),
        ("symmetrize", "_fast_singleton_classes",
         _span("symmetrize.quotient_s", on_return=_quotient_counts)),
        ("symmetrize", "symmetrize",
         _span("symmetrize.symmetrize_s", on_return=_add(
             "symmetrize.welldef_checked", lambda out, *a, **k: out.welldef_checked))),
        ("symmetrize", "_sym_operad", _span("symmetrize.sym_operad_s")),
        ("symmetrize", "_sym_action", _span("symmetrize.sym_operad_s")),
        ("symmetrize", "_verify_well_defined", _span("symmetrize.sym_operad_s")),
        ("topology", "nerve",
         _span("topology.nerve_s", on_return=_add(
             "topology.simplices", lambda out, *a, **k: sum(out.f_vector())))),
        ("topology", "boundary_matrices", _span("topology.boundaries_s", on_call=_boundary_cells)),
        ("topology", "homology", _span("topology.reduction_s")),
        ("topology", "components", _span("topology.components_s")),
        ("freeop", "enumerate_trees",
         _span("freeop.enumerate_trees_s",
               on_return=_add("freeop.trees", lambda out, *a, **k: len(out)))),
        ("freeop", "check_monad_laws",
         _span("freeop.monad_laws_s", on_return=_add(
             "freeop.law_instances", lambda r, *a, **k: r.unit_instances + r.assoc_instances))),
        ("freeop", "insert",
         _count(_calls("freeop.insert_calls"))),
        ("cli", "run", _span("cli.run_s")),
        ("cli", "cache_lookup", _count(_cache_lookup)),
        ("cli", "cache_store", _count(_add(
            "cli.cache_bytes_written", lambda path, *a, **k: os.path.getsize(path)))),
    ]


def layer_figures(tracer: Tracer) -> dict:
    """Per-layer seconds and counts of one job; metrics it never reached
    are left out."""
    secs = tracer.seconds()
    out = {**secs, **tracer.counts}
    if "operads.check_s" in secs:
        # the checker outside its pair loop: totality and unit diagrams
        out["operads.units_s"] = secs["operads.check_s"] - secs.get("operads.assoc_s", 0.0)
    if "cli.run_s" in secs:
        out["cli.overhead_s"] = secs["cli.run_s"] - tracer.child_seconds("cli.run")
    for helper in ("operads.check_s", "symmetrize.symmetrize_s"):
        out.pop(helper, None)
    return out
