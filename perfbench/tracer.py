"""Span tracer that wraps kinkline's public functions from the outside.

Installing the tracer rebinds each traced function, by object identity, in
every ``kinkline`` module that holds it (``build_model`` for instance is
bound in ``models``, ``supm``, ``dupm`` and the package), and patches
``CountingOracle.__call__``.  Spans are aggregated in memory as they close,
so memory stays flat however long a run is: per span name the call count,
inclusive time and self time (inclusive time minus the time of its direct
traced children), the number of direct children per parent call, and the
exceptions that left the span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

#: Span name -> (module under ``kinkline``, function name).
TRACED = {
    "harness.generate_bracket": ("harness", "generate_bracket"),
    "harness.write_trace_csv": ("harness", "write_trace_csv"),
    "harness.sample_simplex": ("harness", "sample_simplex"),
    "models.build_model": ("models", "build_model"),
    "supm.minimize_max_quadratics": ("supm", "minimize_max_quadratics"),
    "supm.apply_update": ("supm", "apply_update"),
    "supm.supm_step": ("supm", "supm_step"),
    "eupm.eupm_step": ("eupm", "eupm_step"),
    "eupm.gap_sequence_ratios": ("eupm", "gap_sequence_ratios"),
    "eupm.gap_apply_binary": ("eupm", "gap_apply_binary"),
    "dupm.escalate_alpha": ("dupm", "escalate_alpha"),
    "dupm.intersection_condition": ("dupm", "intersection_condition"),
    "dupm.chi": ("dupm", "chi"),
    "dupm.alpha_floor": ("dupm", "alpha_floor"),
    "dupm.alpha_plus": ("dupm", "alpha_plus"),
    "dupm.dupm_step": ("dupm", "dupm_step"),
}
ORACLE = "testfuncs.oracle"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: (parent, child, n) -> parent calls that made n direct child calls
        self.children: dict[tuple[str, str, int], int] = defaultdict(int)
        #: (span, exception class name) -> count
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.memo_hits = 0
        #: host-speed factor applied to the times read out (see ``run.drive``)
        self.scale = 1.0
        # one frame per open span: [child ns, name, {child name: calls}]
        self._stack: list[list] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total, self_ns = self.calls, self.total_ns, self.self_ns
        children, errors = self.children, self.errors
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0, name, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                self_ns[name] += dt - frame[0]
                if frame[2]:
                    for child, n in frame[2].items():
                        children[(name, child, n)] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    counts = parent[2]
                    if counts is None:
                        counts = parent[2] = {}
                    counts[name] = counts.get(name, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def _oracle_call(self, orig):
        span = self._wrap(ORACLE, orig)

        def call(oracle, x):
            before = oracle.evaluations
            v = span(oracle, x)
            if oracle.evaluations == before:
                self.memo_hits += 1
            return v

        return call

    @contextlib.contextmanager
    def installed(self, kl):
        """Trace every function in :data:`TRACED` of the package ``kl`` for
        the duration of the block, then restore the original bindings."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == kl.__name__ or n.startswith(kl.__name__ + ".")
        ]
        restore = []
        for name, (mod, attr) in TRACED.items():
            fn = getattr(getattr(kl, mod), attr)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        restore.append((m, key, fn))
                        setattr(m, key, wrapper)
        oracle_cls = kl.testfuncs.CountingOracle
        orig_call = oracle_cls.__call__
        oracle_cls.__call__ = self._oracle_call(orig_call)
        try:
            yield self
        finally:
            oracle_cls.__call__ = orig_call
            for m, key, fn in restore:
                setattr(m, key, fn)

    # -- reading the aggregates ------------------------------------------

    def us(self, name: str) -> float:
        """Mean inclusive normalised microseconds per call."""
        n = self.calls[name]
        return self.total_ns[name] * self.scale / n / 1e3 if n else 0.0

    def self_us(self, name: str) -> float:
        """Mean self normalised microseconds per call."""
        n = self.calls[name]
        return self.self_ns[name] * self.scale / n / 1e3 if n else 0.0

    def child_calls(self, parent: str, child: str, beyond: int = 0) -> int:
        """Calls of ``child`` made directly by ``parent``, not counting the
        first ``beyond`` calls of each parent call."""
        return sum(
            count * max(0, n - beyond)
            for (p, c, n), count in self.children.items()
            if p == parent and c == child
        )
