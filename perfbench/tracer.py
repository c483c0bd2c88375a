"""Span recording for the traced benchmark run.

The tracer wraps public functions of the congruence_atoms modules from
outside the package: it rebinds each function, in every package module
that holds it, to a wrapper that records a span.  Nothing under src/ is
edited.  Spans stay in memory; the caller writes them out once at exit.

Two kinds of record keep memory bounded:

* a span per call (name, start, end, parent, op id) for coarse calls;
* for hot leaf calls (core.metrics, subset_sums.diversity, each `next`
  on a lifted-solution iterator) one record per (parent span, name)
  holding the call count and the summed duration.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

clock = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 1      # calls folded into this record (leaf records)
    busy: float = 0.0   # summed duration of those calls
    value: int = 0      # layer counter: atoms, admissible sets, rows
    first: float = 0.0  # iterator calls: call plus first `next`


def _atoms(result):
    return result.count


def _admissible(report):
    return 1 if report.admissible else 0


# (module, function, kind, counter): "span" records each call, "leaf"
# folds calls per parent, "iter" records the call and folds its nexts.
TARGETS = (
    ("enumeration", "enumerate_standard", "span", _atoms),
    ("enumeration", "enumerate_normal_form", "span", _atoms),
    ("bounds", "bound_q", "span", None),
    ("bounds", "bound_r", "span", None),
    ("bounds", "partition_count", "span", None),
    ("reduction", "build_plan", "span", None),
    ("reduction", "count_general", "span", None),
    ("reduction", "lift_solutions", "iter", None),
    ("core", "metrics", "leaf", None),
    ("cli", "main", "span", None),
    ("subset_sums", "diversity", "leaf", _admissible),
    ("subset_sums", "verify_r3", "span", None),
    ("subset_sums", "verify_r4", "span", None),
    ("subset_sums", "verify_general", "span", None),
    ("subset_sums", "lemma_expls_checks", "span", None),
)

LIFT_NEXT = "reduction.lift_next"

SCANS = ("subset_sums.verify_r3", "subset_sums.verify_r4",
         "subset_sums.verify_general", "subset_sums.lemma_expls_checks")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = 0
        self._stack = []
        self._leaves = {}
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = clock()
        span.busy = span.end - span.start
        self._stack.pop()

    def _leaf(self, name, start, end, value):
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        span = self._leaves.get(key)
        if span is None:
            span = Span(len(self.spans), name, self.op, parent, start, count=0)
            self.spans.append(span)
            self._leaves[key] = span
        span.end = end
        span.count += 1
        span.busy += end - start
        span.value += value

    def begin_op(self, op_id, label):
        """Open the root span of one benchmark op."""
        self.op = op_id
        self._leaves.clear()
        return self._open(label)

    def end_op(self, span):
        self._close(span)

    # -- wrappers --------------------------------------------------------

    def _wrap_span(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.value = counter(result)
            return result
        return traced

    def _wrap_leaf(self, name, fn, counter):
        leaf = self._leaf

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            leaf(name, start, clock(), counter(result) if counter else 0)
            return result
        return traced

    def _wrap_iter(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                iterator = fn(*args, **kwargs)
            finally:
                self._close(span)
            return _TracedIterator(self, span, iterator)
        return traced

    def install(self):
        """Rebind every target in every package module that holds it."""
        wrappers = {"span": self._wrap_span, "leaf": self._wrap_leaf,
                    "iter": self._wrap_iter}
        prefix = self.package.__name__
        modules = [module for name, module in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for module_name, func_name, kind, counter in TARGETS:
            original = getattr(getattr(self.package, module_name), func_name)
            traced = wrappers[kind](f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


class _TracedIterator:
    """Times every `next`; the call span's `first` gets the time from
    the call to the first item."""

    def __init__(self, tracer, call_span, iterator):
        self._tracer = tracer
        self._call = call_span
        self._it = iterator

    def __iter__(self):
        return self

    def __next__(self):
        start = clock()
        try:
            item = next(self._it)
        except StopIteration:
            self._tracer._leaf(LIFT_NEXT, start, clock(), 0)
            raise
        end = clock()
        if not self._call.first:
            self._call.first = self._call.busy + (end - start)
        self._tracer._leaf(LIFT_NEXT, start, end, 1)
        return item


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (a slice of Tracer.spans)."""
    names = {s.id: s.name for s in spans}
    child_busy = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_busy[s.parent] += s.busy

    def having(*wanted):
        return [s for s in spans if s.name in wanted]

    def self_time(group):
        return sum(s.busy - child_busy[s.id] for s in group)

    engine = having("enumeration.enumerate_standard",
                    "enumeration.enumerate_normal_form")
    bounds = [s for s in spans if s.name.startswith("bounds.")
              and not names.get(s.parent, "").startswith("bounds.")]
    lifts = having("reduction.lift_solutions")
    nexts = having(LIFT_NEXT)
    metric_calls = having("core.metrics")
    diversity = having("subset_sums.diversity")
    diversity_calls = sum(s.count for s in diversity)
    return {
        "enumeration.calls": len(engine),
        "enumeration.busy_s": sum(s.busy for s in engine),
        "enumeration.atoms": sum(s.value for s in engine),
        "bounds.busy_s": sum(s.busy for s in bounds),
        "reduction.count_s": sum(s.busy for s in having("reduction.count_general")),
        "reduction.lift_s": sum(s.busy for s in lifts + nexts),
        "reduction.lift_first_s": (
            statistics.median(s.first for s in lifts) if lifts else 0.0),
        "reduction.rows": sum(s.value for s in nexts),
        "core.metrics_calls": sum(s.count for s in metric_calls),
        "core.metrics_s": sum(s.busy for s in metric_calls),
        "cli.self_s": self_time(having("cli.main")),
        "subset_sums.diversity_calls": diversity_calls,
        "subset_sums.diversity_s": sum(s.busy for s in diversity),
        "subset_sums.scan_self_s": self_time(having(*SCANS)),
        "subset_sums.admissible_ratio": (
            sum(s.value for s in diversity) / diversity_calls
            if diversity_calls else 0.0),
    }
