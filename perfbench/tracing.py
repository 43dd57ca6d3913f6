"""Spans and counts around calls into schurq's layers, kept in memory.

The tracer wraps a function and puts the wrapper where the function's
caller looks the name up: a module global for a function imported by name,
an attribute of the kernel module for backend calls.  Nothing under src/
is edited.  A name a later version of the program no longer has is
skipped and listed in `missing`; its metrics then read 0.

A span is (id, op, name, start, end, parent).  Leaf calls made hundreds of
thousands of times a round (the amenability tests) keep no span of their
own: their time and calls are summed, and their time still counts as child
time of the enclosing span.  A layer's self time is its span's length minus
the time of the spans and leaf calls inside it.
"""

import time
import types
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.counts = Counter()
        self.missing = []
        self.op = None
        self._stack = []  # [child seconds, span id] of each open span

    def wrap(self, name, fn, keep=True, on_result=None):
        """fn with a span named name around every call."""
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(self.spans) if keep else None]
            if keep:
                self.spans.append(None)  # reserve the id; filled on close
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                length = end - start
                if stack:
                    stack[-1][0] += length
                self.calls[name] += 1
                self.seconds[name] += length
                self.self_seconds[name] += length - frame[0]
                if keep:
                    self.spans[frame[1]] = (frame[1], self.op, name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_yields(self, name, gen_fn):
        """gen_fn, counting under name every item its generators yield."""
        counts = self.counts

        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def count_calls(self, name, fn):
        """fn, counting its calls under name without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr, make):
        """Replace module.attr by make(module.attr), if the name exists."""
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(getattr(module, attr)))


def install(tracer):
    """Patch every traced name of the loaded schurq package."""
    from schurq import _backend, _kernel_py, classifier, coefficients, verify

    def leaf(result):
        tracer.counts["kernel.leaves_amenable"] += bool(result)

    tracer.patch(coefficients, "normalize_basic",
                 lambda f: tracer.wrap("partitions.normalize_basic", f))
    for module in (coefficients, classifier, verify):
        tracer.patch(module, "basic_rows",
                     lambda f: tracer.wrap("coefficients.basic_rows", f))
    for name in ("count_contents", "count_content"):
        tracer.patch(_backend.kernel, name,
                     lambda f, name=name: tracer.wrap("kernel." + name, f))
    tracer.patch(_kernel_py, "is_amenable_word",
                 lambda f: tracer.wrap("tableaux.is_amenable_word", f,
                                       keep=False, on_result=leaf))
    tracer.patch(classifier, "_find_witness",
                 lambda f: tracer.wrap("classifier.witness", f))
    tracer.patch(classifier, "_kernel_py", lambda kp: types.SimpleNamespace(**{
        **vars(kp),
        "iter_amenable_words": tracer.count_yields("classifier.witness.words",
                                                   kp.iter_amenable_words)}))
    for name in ("is_k_amenable_checklist", "is_k_amenable_word"):
        tracer.patch(verify, name,
                     lambda f, name=name: tracer.wrap("tableaux." + name, f, keep=False))
    for module in (verify, coefficients):
        tracer.patch(module, "Tableau",
                     lambda cls: tracer.count_calls("tableaux.Tableau.constructed", cls))


def layer_metrics(tracer):
    """The per-layer metrics, in milliseconds and counts, of what was traced."""
    ms = lambda name: 1e3 * tracer.seconds[name]
    self_ms = lambda name: 1e3 * tracer.self_seconds[name]
    leaves = tracer.calls["tableaux.is_amenable_word"]
    amenable = tracer.counts["kernel.leaves_amenable"]
    return {
        "partitions.normalize_basic.calls": tracer.calls["partitions.normalize_basic"],
        "partitions.normalize_basic.ms": ms("partitions.normalize_basic"),
        "coefficients.basic_rows.ms": ms("coefficients.basic_rows"),
        "coefficients.decompose.self_ms": self_ms("coefficients.decompose"),
        "kernel.count_contents.calls": tracer.calls["kernel.count_contents"],
        "kernel.count_contents.ms": ms("kernel.count_contents"),
        "kernel.leaves": leaves,
        "kernel.leaves_amenable": amenable,
        "kernel.leaf_yield": amenable / leaves if leaves else 0.0,
        "tableaux.is_amenable_word.ms": ms("tableaux.is_amenable_word"),
        "kernel.count_content.calls": tracer.calls["kernel.count_content"],
        "kernel.count_content.ms": ms("kernel.count_content"),
        "classifier.witness.ms": ms("classifier.witness"),
        "classifier.witness.words": tracer.counts["classifier.witness.words"],
        "classifier.classify.self_ms": self_ms("classifier.classify"),
        "verify.suite_checklist.self_ms": self_ms("verify.suite_checklist"),
        "verify.checked": tracer.counts["verify.checked"],
        "tableaux.is_k_amenable_checklist.calls": tracer.calls["tableaux.is_k_amenable_checklist"],
        "tableaux.is_k_amenable_checklist.ms": ms("tableaux.is_k_amenable_checklist"),
        "tableaux.Tableau.constructed": tracer.counts["tableaux.Tableau.constructed"],
        "tableaux.is_k_amenable_word.calls": tracer.calls["tableaux.is_k_amenable_word"],
        "tableaux.is_k_amenable_word.ms": ms("tableaux.is_k_amenable_word"),
    }
