"""Spans and counters recorded around the program's public functions.

The tracer wraps functions from outside the program: a class method is
replaced on its class, and a module function is replaced in every loaded
``staircase`` module that holds it, so calls made through ``from .x import
f`` bindings are seen too.  Each call records a span ``[name, start, end,
parent, overhead]``: ``start`` and ``end`` bound the wrapped call, and
``overhead`` is the tracer's own bookkeeping around it, which is charged to
neither the span nor its parent.  Spans stay in memory until the round ends.

A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

# (owner module, class or None, function): names are "<module>.<qualname>".
TARGETS = (
    ("series", "JetRing", "conv_into"),
    ("series", "JetRing", "q_shift"),
    ("series", "JetRing", "q_square"),
    ("series", "ExactRing", "conv_into"),
    ("series", "ExactRing", "q_shift"),
    ("series", "ExactRing", "q_square"),
    ("feq", None, "solve_series"),
    ("polygons", None, "enumerate_counts"),
    ("orbits", None, "orbit_series"),
    ("moments", None, "convergence_report"),
    ("laws", None, "class_limit_moment"),
    ("radicals", None, "fixed_scaled"),
    ("radicals", None, "approx_scaled"),
    ("cli", None, "main"),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "series.JetRing.conv_into.s": "s",
    "series.JetRing.conv_into.calls": "count",
    "series.JetRing.conv_into.products": "count",
    "series.JetRing.q_shift.s": "s",
    "series.JetRing.q_square.calls": "count",
    "series.ExactRing.conv_into.s": "s",
    "series.ExactRing.conv_into.calls": "count",
    "series.ExactRing.conv_into.monomial_products": "count",
    "series.coeff_max_bits": "bits",
    "series.solved_bytes": "bytes",
    "feq.solve_series.self_s": "s",
    "feq.solve_series.calls": "count",
    "feq.solve_series.solves": "count",
    "feq.solve_series.hits": "count",
    "feq.coeffs_solved": "count",
    "polygons.enumerate_counts.s": "s",
    "polygons.polygons_counted": "count",
    "orbits.orbit_series.self_s": "s",
    "orbits.orbit_series.calls": "count",
    "moments.convergence_report.self_s": "s",
    "laws.class_limit_moment.s": "s",
    "radicals.fixed_scaled.s": "s",
    "radicals.approx_scaled.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

SOLVE = "feq.solve_series"


def _conv_args(args, kwargs):
    """(A, B, n, j-range, i_val, i_stride) of a conv_into call."""
    names = ("self", "acc", "A", "B", "n", "j_lo", "j_hi", "j_stride", "i_val", "i_stride")
    values = dict(zip(names, args))
    values.update(kwargs)
    j_range = range(values["j_lo"], values["j_hi"] + 1, values["j_stride"])
    return (values["A"], values["B"], values["n"], j_range,
            values.get("i_val", 0), values.get("i_stride", 1))


def _int_bits(value) -> int:
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    return int(value).bit_length()


def _coefficient_ints(series):
    for c in series.coeffs:
        values = c.c.values() if isinstance(c.c, dict) else c.c
        yield from values


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self._stack: list = []
        # one flag per open solve_series call: did a ring kernel run inside it
        self._solve_flags: list = []
        self._patches: list = []

    # -- per-call hooks ------------------------------------------------------

    def _kernel(self, name, args, kwargs, result):
        if self._solve_flags:
            self._solve_flags[-1] = True
        if name.endswith("JetRing.conv_into"):
            j_range = _conv_args(args, kwargs)[3]
            self.counts["series.JetRing.conv_into.products"] += len(j_range)
        elif name.endswith("ExactRing.conv_into"):
            A, B, n, j_range, i_val, i_stride = _conv_args(args, kwargs)
            total = 0
            for j in j_range:
                i = n - j
                if i_stride > 1 and (i - i_val) % i_stride:
                    continue
                total += len(A[i].c) * len(B[j].c)
            self.counts["series.ExactRing.conv_into.monomial_products"] += total

    def _solve_done(self, solved, result):
        if not solved:
            self.counts["feq.solve_series.hits"] += 1
            return
        if self._solve_flags:
            self._solve_flags[-1] = True
        self.counts["feq.solve_series.solves"] += 1
        self.counts["feq.coeffs_solved"] += result.order + 1
        size = 0
        for value in _coefficient_ints(result):
            bits = _int_bits(value)
            size += (bits + 7) // 8
            if bits > self.max_bits:
                self.max_bits = bits
        self.counts["series.solved_bytes"] += size

    def _wrap(self, name, fn):
        spans, stack, flags, counts = self.spans, self._stack, self._solve_flags, self.counts
        clock = time.perf_counter
        is_kernel = name.startswith("series.")
        is_solve = name == SOLVE
        is_enumerate = name == "polygons.enumerate_counts"

        def traced(*args, **kwargs):
            enter = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if is_solve:
                flags.append(False)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_solve:
                    solved = flags.pop()
            counts[name + ".calls"] += 1
            if is_kernel:
                self._kernel(name, args, kwargs, result)
            elif is_solve:
                self._solve_done(solved, result)
            elif is_enumerate:
                counts["polygons.polygons_counted"] += sum(
                    v for key, v in result.counts.items() if key[0] == "full")
            span[1] = start
            span[2] = end
            span[4] = (start - enter) + (clock() - end)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        import importlib

        for module_name, class_name, attr in TARGETS:
            module = importlib.import_module("staircase." + module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                name = f"{module_name}.{class_name}.{attr}"
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "staircase" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def layer_times(self):
        """(total, self) time per span name.  Total counts only spans not
        nested in a span of the same name, so recursion is not counted twice."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, overhead in spans:
            if parent >= 0:
                child[parent] += end - start + overhead
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, own

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced round; a layer that did not run reads 0."""
        total, own = self.layer_times()
        out = {}
        for metric in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            if metric == "series.coeff_max_bits":
                out[metric] = self.max_bits
            elif metric.endswith(".self_s"):
                out[metric] = own[metric[: -len(".self_s")]]
            elif metric.endswith(".s"):
                out[metric] = total[metric[: -len(".s")]]
            else:
                out[metric] = self.counts[metric]
        return out
