"""Outside-in tracing of the ``verlinde`` layers for one benchmark repetition.

The tracer replaces public functions of the package with wrappers, at every
name under which a ``verlinde`` module holds them (modules bind each other's
functions with ``from ... import``, so each caller's namespace is patched).
Nothing inside ``src/verlinde`` changes.

Each wrapped call is a span: a name, a start, an end, its parent span and
the case it belongs to.  Spans live in flat arrays while the repetition runs
and are written out when it ends.  Counters are taken at the same wrappers.
A layer's self time is the duration of its spans minus the part covered by
their child spans.

A target that no longer exists (after a refactor renames or removes it)
marks its layer ``absent``: the layer's metrics are reported as missing,
never as zero.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

import mpmath

# Span targets: defining module, function name, span name, and the counter
# that each call adds to (by one, or by the length of the result).
SPAN_TARGETS = (
    ("verlinde.cli", "main", "cli", None),
    ("verlinde.suite", "run_default_suite", "suite", None),
    ("verlinde.rootsys", "build_root_system", "rootsys.build", ("rootsys.builds", "call")),
    ("verlinde.weights", "enumerate_level_weights", "weights.enumerate",
     ("weights.level_weights", "len")),
    ("verlinde.weights", "restrict_to_quotient", "weights.quotient", None),
    ("verlinde.weights", "restrict_product_to_quotient", "weights.quotient", None),
    ("verlinde.weights", "orbit_decompose", "weights.quotient", ("weights.orbits", "len")),
    ("verlinde.formula", "verlinde_sc", "formula.exact", None),
    ("verlinde.formula", "verlinde_quotient", "formula.exact", None),
    ("verlinde.formula", "verlinde_product_quotient", "formula.exact", None),
    ("verlinde.formula", "torus_order_oracle_certified", "formula.torus_oracle", None),
    ("verlinde.so_oracle", "n_so_oracle", "so_oracle.total", None),
)
ORACLE_SPAN = "so_oracle.total"
# Wrapped with their own logic below.
CERTIFY = ("verlinde.numeric", "certify_integer")
SINE = ("verlinde.numeric", "four_sin_sq")
# Engine entry points whose calls from the suite are counted.
SUITE_ENGINE = ("n_so", "n_sp", "torus_order_oracle_certified")

# Per-layer metric -> (unit, better, layer whose targets must exist).
METRICS = {
    "rootsys.build_s": ("s", "lower", "rootsys.build"),
    "rootsys.builds": ("count", "lower", "rootsys.build"),
    "weights.enumerate_s": ("s", "lower", "weights.enumerate"),
    "weights.level_weights": ("count", "lower", "weights.enumerate"),
    "weights.quotient_s": ("s", "lower", "weights.quotient"),
    "weights.orbits": ("count", "lower", "weights.quotient"),
    "formula.exact_s": ("s", "lower", "formula.exact"),
    "formula.torus_oracle_s": ("s", "lower", "formula.torus_oracle"),
    "formula.sum_s": ("s", "lower", "numeric.certify"),
    "formula.sum_attempts": ("count", "lower", "numeric.certify"),
    "numeric.sine_s": ("s", "lower", "numeric.sine"),
    "numeric.sine_calls": ("count", "lower", "numeric.sine"),
    "numeric.sine_distinct": ("count", "lower", "numeric.sine"),
    "numeric.sine_useful_ratio": ("ratio", "higher", "numeric.sine"),
    "numeric.certify_s": ("s", "lower", "numeric.certify"),
    "numeric.escalations": ("count", "lower", "numeric.certify"),
    "numeric.max_bits": ("bits", "lower", "numeric.certify"),
    "so_oracle.total_s": ("s", "lower", "so_oracle.total"),
    "so_oracle.sine_calls": ("count", "lower", "numeric.sine"),
    "suite.self_s": ("s", "lower", "suite"),
    "suite.engine_calls": ("count", "lower", "suite.engine"),
    "suite.distinct_engine_calls": ("count", "lower", "suite.engine"),
    "cli.self_s": ("s", "lower", "cli"),
    "trace.overhead_s": ("s", "lower", None),
}


class Tracer:
    """Spans in flat arrays plus counters, for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.case_index = -1
        self.counts = Counter()
        self.max_bits = 0
        self.sine_args = set()
        self.engine_calls = set()
        self.oracle_depth = 0
        self.present = set()
        self.absent = set()

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` updates counters."""
        nid = self.name_index(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.case.append(self.case_index)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every ``verlinde`` namespace that binds a target function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "verlinde" or n.startswith("verlinde.")]
        for module_name, attr, span_name, counter in SPAN_TARGETS:
            original = _lookup(module_name, attr)
            if original is None:
                self.absent.add(span_name)
                continue
            self.present.add(span_name)
            wrapper = self.span(span_name, original, self._counter(counter))
            if span_name == ORACLE_SPAN:
                wrapper = self._inside_oracle(wrapper)
            _patch_everywhere(modules, original, wrapper)
        self._install_certify(modules)
        self._install_sine(modules)
        self._install_suite_counters()
        self.absent -= self.present

    def _counter(self, counter):
        if counter is None:
            return None
        key, how = counter
        counts = self.counts
        if how == "len":
            def after(args, result):
                counts[key] += len(result)
        else:
            def after(args, result):
                counts[key] += 1
        return after

    def _inside_oracle(self, fn):
        """Calls made inside the SO oracle count for the oracle, not the engine."""
        def inside_oracle(*args, **kwargs):
            self.oracle_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.oracle_depth -= 1

        inside_oracle.__wrapped__ = fn
        return inside_oracle

    def _install_certify(self, modules) -> None:
        original = _lookup(*CERTIFY)
        if original is None:
            self.absent.add("numeric.certify")
            return
        self.present.add("numeric.certify")
        traced_certify = self.span("numeric.certify", original)

        def certify(compute, *args, **kwargs):
            if self.oracle_depth:
                return original(compute, *args, **kwargs)
            attempts = [0]

            def evaluate(bits, *rest, **kw):
                attempts[0] += 1
                self.max_bits = max(self.max_bits, bits)
                return compute(bits, *rest, **kw)

            try:
                return traced_certify(self.span("formula.sum", evaluate), *args, **kwargs)
            finally:
                self.counts["formula.sum_attempts"] += attempts[0]
                self.counts["numeric.escalations"] += max(attempts[0] - 1, 0)

        certify.__wrapped__ = original
        _patch_everywhere(modules, original, certify)

    def _install_sine(self, modules) -> None:
        original = _lookup(*SINE)
        if original is None:
            self.absent.add("numeric.sine")
            return
        self.present.add("numeric.sine")
        mp = mpmath.mp
        traced = self.span("numeric.sine", original)
        counts = self.counts
        seen = self.sine_args

        def sine(x, *args, **kwargs):
            if self.oracle_depth:
                counts["so_oracle.sine_calls"] += 1
                return original(x, *args, **kwargs)
            counts["numeric.sine_calls"] += 1
            seen.add((x, mp.prec))
            return traced(x, *args, **kwargs)

        sine.__wrapped__ = original
        _patch_everywhere(modules, original, sine)

    def _install_suite_counters(self) -> None:
        suite = sys.modules.get("verlinde.suite")
        names = [n for n in SUITE_ENGINE if suite is not None and callable(getattr(suite, n, None))]
        if not names:
            self.absent.add("suite.engine")
            return
        self.present.add("suite.engine")
        for name in names:
            fn = getattr(suite, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                self.counts["suite.engine_calls"] += 1
                self.engine_calls.add((_name, args, tuple(sorted(kwargs.items()))))
                return _fn(*args, **kwargs)

            setattr(suite, name, counted)

    # -- results ------------------------------------------------------------

    def layer_times(self):
        """(self seconds, inclusive seconds) per span name."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s = Counter()
        total_s = Counter()
        names = self.names
        for i in range(n):
            duration = self.end[i] - self.start[i]
            name = names[self.name_id[i]]
            self_s[name] += duration - covered[i]
            total_s[name] += duration
        return self_s, total_s

    def metrics(self) -> dict:
        """Per-layer metrics of this repetition; ``None`` marks an absent layer."""
        self_s, total_s = self.layer_times()
        c = self.counts
        calls = c["numeric.sine_calls"]
        values = {
            "rootsys.build_s": self_s["rootsys.build"],
            "rootsys.builds": c["rootsys.builds"],
            "weights.enumerate_s": self_s["weights.enumerate"],
            "weights.level_weights": c["weights.level_weights"],
            "weights.quotient_s": self_s["weights.quotient"],
            "weights.orbits": c["weights.orbits"],
            "formula.exact_s": self_s["formula.exact"],
            "formula.torus_oracle_s": total_s["formula.torus_oracle"],
            "formula.sum_s": self_s["formula.sum"],
            "formula.sum_attempts": c["formula.sum_attempts"],
            "numeric.sine_s": self_s["numeric.sine"],
            "numeric.sine_calls": calls,
            "numeric.sine_distinct": len(self.sine_args),
            "numeric.sine_useful_ratio": len(self.sine_args) / calls if calls else 0.0,
            "numeric.certify_s": self_s["numeric.certify"],
            "numeric.escalations": c["numeric.escalations"],
            "numeric.max_bits": self.max_bits,
            "so_oracle.total_s": total_s["so_oracle.total"],
            "so_oracle.sine_calls": c["so_oracle.sine_calls"],
            "suite.self_s": self_s["suite"],
            "suite.engine_calls": c["suite.engine_calls"],
            "suite.distinct_engine_calls": len(self.engine_calls),
            "cli.self_s": self_s["cli"],
        }
        for name, (_, _, layer) in METRICS.items():
            if layer in self.absent and name in values:
                values[name] = None
        return values

    def write(self, path: str) -> None:
        """Write every span (columns; times in ns from the first span) as gzip JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "case": self.case.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "absent": sorted(self.absent),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _lookup(module_name: str, attr: str):
    module = sys.modules.get(module_name)
    value = getattr(module, attr, None) if module is not None else None
    return value if callable(value) else None


def _patch_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
