"""Spans around calls into ctxkb's public functions, recorded from outside.

The tracer replaces a function by a timing wrapper in every ``ctxkb`` module
namespace that binds it, so calls made through ``from .x import f`` are seen
too.  Spans (name, start, end, parent) stay in memory; the benchmark writes
them out when it ends.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (defining module, function name)
SPANS = {
    "parser.load_kb": ("ctxkb.parser", "load_kb"),
    "lang.validate_session": ("ctxkb.lang", "validate_session"),
    "logic.ground_context_program": ("ctxkb.logic", "ground_context_program"),
    "relevance.build_combined_base": ("ctxkb.relevance", "build_combined_base"),
    "relevance.discharge_contexts": ("ctxkb.relevance", "discharge_contexts"),
    "relevance.discharge_contexts_detailed": ("ctxkb.relevance", "discharge_contexts_detailed"),
    "relevance.compute_ras": ("ctxkb.relevance", "compute_ras"),
    "relevance.restrict_rpb": ("ctxkb.relevance", "restrict_rpb"),
    "relevance.combine_rpb": ("ctxkb.relevance", "combine_rpb"),
    "netbuild.build_net": ("ctxkb.netbuild", "build_net"),
    "netbuild.assemble_net": ("ctxkb.netbuild", "assemble_net"),
    "infer.answer_query": ("ctxkb.infer", "answer_query"),
    "infer.answer_on_net": ("ctxkb.infer", "answer_on_net"),
    "infer.eliminate": ("ctxkb.infer", "eliminate"),
    "infer.min_fill_order": ("ctxkb.infer", "min_fill_order"),
}

# Called too often for a span each: counted only (their time stays in the caller).
COUNTED = {
    "infer.multiply": ("ctxkb.infer", "multiply"),
    "combining.noisy_max": ("ctxkb.combining", "noisy_max"),
    "combining.single_only": ("ctxkb.combining", "single_only"),
}


def _size(result, fn):
    try:
        return fn(result)
    except (AttributeError, TypeError):
        return 0


# span name -> how to read a size from the function's return value
SIZES = {
    "parser.load_kb": lambda kb: len(kb.pb) + len(kb.cb),
    "logic.ground_context_program": lambda prog: sum(len(b) for b in prog.clauses.values()),
    "relevance.discharge_contexts": len,
    "relevance.compute_ras": lambda ras: len(ras.objs),
    "relevance.combine_rpb": lambda base: sum(t.n_entries for t in base.tables.values()),
    "netbuild.assemble_net": lambda pair: len(pair[0].nodes),
    "infer.multiply": lambda f: int(f.values.size),
}


def _assemble_entries(pair):
    return sum(n.n_entries for n in pair[0].nodes.values())


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.calls = {}  # name -> number of calls
        self.sizes = {}  # name -> summed size of return values
        self.max_sizes = {}  # name -> largest size of one return value
        self.missing = []  # span or counter names whose function is gone
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ctxkb" or n.startswith("ctxkb.")]
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, (modname, attr) in table.items():
                original = getattr(sys.modules.get(modname), attr, None)
                if not callable(original):
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = make(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _record(self, name, result):
        self.calls[name] = self.calls.get(name, 0) + 1
        size_fn = SIZES.get(name)
        if size_fn is not None:
            size = _size(result, size_fn)
            self.sizes[name] = self.sizes.get(name, 0) + size
            self.max_sizes[name] = max(self.max_sizes.get(name, 0), size)
        if name == "netbuild.assemble_net":
            key = "netbuild.cpt_entries"
            self.sizes[key] = self.sizes.get(key, 0) + _size(result, _assemble_entries)

    def _span_wrapper(self, name, fn):
        spans, stack, now = self.spans, self._stack, time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            self._record(name, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._record(name, result)
            return result

        return wrapper

    # -- operation boundaries ------------------------------------------------

    def begin(self, name):
        """Open a span for one benchmark operation (or set-up); returns its index."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.monotonic_ns()
        return self._stack[-1]

    def end(self, index):
        self.spans[index][2] = time.monotonic_ns()
        self._stack.pop()

    def dump(self):
        return {
            "spans": self.spans,
            "calls": self.calls,
            "sizes": self.sizes,
            "max_sizes": self.max_sizes,
            "missing": self.missing,
        }


def self_times_ms(spans):
    """Span name -> total self time in ms (duration minus covered child time)."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child[i]) / 1e6
    return out


class LayerTotals:
    """Sums of self times and sizes over traced operations, possibly from several processes."""

    def __init__(self):
        self.self_ms = {}
        self.calls = {}
        self.sizes = {}
        self.max_sizes = {}
        self.missing = set()
        self.spans = []

    def add(self, dump):
        base = len(self.spans)
        self.spans.extend(
            [name, start, end, parent + base if parent >= 0 else -1]
            for name, start, end, parent in dump["spans"]
        )
        for name, ms in self_times_ms(dump["spans"]).items():
            self.self_ms[name] = self.self_ms.get(name, 0.0) + ms
        for src, dst in ((dump["calls"], self.calls), (dump["sizes"], self.sizes)):
            for name, v in src.items():
                dst[name] = dst.get(name, 0) + v
        for name, v in dump["max_sizes"].items():
            self.max_sizes[name] = max(self.max_sizes.get(name, 0), v)
        self.missing.update(dump["missing"])

    def ms(self, *names):
        return sum(self.self_ms.get(n, 0.0) for n in names)

    def count(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def size(self, name):
        return self.sizes.get(name, 0)
