"""Outside-in tracer: wraps the library's public functions without editing them.

Each wrapper is installed in every ``slater_addition`` module namespace that
bound the original object (``from .specfun import bessel_k_half`` copies the
binding into theorems, amplitudes, cli and reproduce), and the originals are
put back when the ``installed()`` block exits, also on error.

Memory stays bounded: every wrapped function adds to a per-bucket call count
and summed self time; individual spans, with parent links, are kept only for
the ops themselves and for series/oracle entry points (a few per op), never
for the kernels that run millions of times.  A bucket's self time is its
duration minus the time its wrapped children took; factorial and the
integrands are not wrapped, so their cost stays in the caller's self time.
Durations come from the cheap wall clock (``perf_counter_ns``): they give
per-layer shares, which carry no bound.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

PACKAGE = "slater_addition"
MODULES = ("specfun", "quadrature", "theorems", "amplitudes", "ellipsoidal", "cli", "reproduce")

# module -> functions to wrap.  reproduce is not a layer of its own; its
# copies of specfun/quadrature bindings are still replaced.
WRAPPED = {
    "specfun": ("bessel_k_half", "bessel_i_half", "legendre_p", "cos_power_to_legendre",
                "upper_incomplete_gamma", "erf_complex", "kummer_1f1", "meijer_g_0313", "hermite_h"),
    "quadrature": ("integrate_finite", "integrate_semi_infinite", "integrate_2d"),
    "theorems": ("accumulate_series", "theorem1_term", "theorem5_term", "theorem6_term",
                 "two_range_mos_terms", "theorem1_eval", "theorem5_eval", "theorem6_eval",
                 "corollary1_legendre_eval", "two_range_mos_eval"),
    "amplitudes": ("theorem3_block_k_terms", "theorem4_block", "s1_general_term_gamma",
                   "theorem3_series", "theorem4_series", "cheshire_series", "s1_series_n_term",
                   "s1_tau_oracle"),
    "ellipsoidal": ("t_abc_term", "t_abc_series", "t_abc_oracle", "t_abc_exact"),
    "cli": ("main",),
}

# Functions that share one bucket; everything else is "<module>.<name>".
_SHARED_BUCKET = {
    "quadrature.integrate_finite": "quadrature",
    "quadrature.integrate_semi_infinite": "quadrature",
    "quadrature.integrate_2d": "quadrature",
    "theorems.theorem1_term": "theorems.term",
    "theorems.theorem5_term": "theorems.term",
    "theorems.theorem6_term": "theorems.term",
    "theorems.two_range_mos_terms": "theorems.term",
}

# Buckets called at most a few times per op: these get one span per call.
_SPAN_BUCKETS = {
    "theorems.accumulate_series", "theorems.theorem1_eval", "theorems.theorem5_eval",
    "theorems.theorem6_eval", "theorems.corollary1_legendre_eval", "theorems.two_range_mos_eval",
    "amplitudes.theorem3_series", "amplitudes.theorem4_series", "amplitudes.cheshire_series",
    "amplitudes.s1_series_n_term", "amplitudes.s1_tau_oracle", "amplitudes.s1_general_term_gamma",
    "ellipsoidal.t_abc_series", "ellipsoidal.t_abc_oracle", "ellipsoidal.t_abc_exact", "cli.main",
}

OP_BUCKET = "bench.op"


def bucket_of(module: str, name: str) -> str:
    qual = f"{module}.{name}"
    return _SHARED_BUCKET.get(qual, qual)


class Tracer:
    """Per-bucket ``[calls, self_ns]`` stats, named counters and op-level spans."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        # [id, parent id, op index, name, start ns, end ns]
        self.spans: list[list] = []
        # one [child_ns, span id or None] frame per active wrapped call
        self._stack: list[list] = []
        self._op_index = -1
        self._group = None
        self._bessel_seen: set = set()

    def calls(self, bucket: str) -> int:
        return self.stats.get(bucket, (0, 0))[0]

    def self_ms(self, bucket: str) -> float:
        return self.stats.get(bucket, (0, 0))[1] / 1e6

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of the wrapped functions; restore them on exit."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for mod, names in WRAPPED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(bucket_of(mod, name), original))
        replaced = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        replaced.append((module, attr, value))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def _wrap(self, bucket: str, fn):
        stat = self.stats.setdefault(bucket, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        record_span = bucket in _SPAN_BUCKETS
        before = self._on_bessel_call if bucket == "specfun.bessel_k_half" else None
        after = {"accumulate_series": self._on_series,
                 "integrate_finite": self._on_quadrature}.get(fn.__name__)

        if not (record_span or before or after):
            # the lean path for kernels called up to millions of times
            @functools.wraps(fn)
            def kernel(*args, **kwargs):
                frame = [0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat[0] += 1
                    stat[1] += dt - frame[0]
                    stack[-1][0] += dt

            return kernel

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0, self._open_span(bucket) if record_span else None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[0]
                stack[-1][0] += dt
                if frame[1] is not None:
                    self.spans[frame[1]][5] = t0 + dt
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- ops and spans -----------------------------------------------------

    def _open_span(self, name: str) -> int:
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        span_id = len(self.spans)
        self.spans.append([span_id, parent, self._op_index, name, time.perf_counter_ns(), None])
        return span_id

    @contextlib.contextmanager
    def op(self, index: int, kind: str, group: int):
        """Root frame for one op; wrapped functions may only run inside one.

        Its self time is benchmark glue plus unwrapped calls made by the op.
        """
        if group != self._group:
            self._group = group
            self._bessel_seen.clear()
        self._op_index = index
        frame = [0, self._open_span(kind)]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            self.spans[frame[1]][5] = t0 + dt
            stat = self.stats.setdefault(OP_BUCKET, [0, 0])
            stat[0] += 1
            stat[1] += dt - frame[0]
            self.count("op_ns", dt)

    # -- per-layer counters --------------------------------------------------

    def _on_bessel_call(self, args, kwargs) -> None:
        # a repeat is the same (order, argument, scaling) seen earlier in the
        # same round: the reuse a cross-call cache would turn into hits
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._bessel_seen:
            self.count("bessel_repeats")
        else:
            self._bessel_seen.add(key)

    def _on_series(self, ev) -> None:
        self.count("series")
        self.count("series_terms", ev.terms_used)
        self.count("series_converged", int(ev.converged))

    def _on_quadrature(self, res) -> None:
        self.count("quad_calls")
        self.count("quad_evaluations", res.evaluations)
        self.count("quad_unconverged", int(not res.converged))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start_us": start / 1e3, "dur_us": (end - start) / 1e3}) + "\n")
