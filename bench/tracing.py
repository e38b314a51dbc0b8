"""In-memory spans and counters for the traced benchmark run.

Spans are placed from outside the package: ``install`` replaces the public
functions named in ``SPAN_TARGETS`` (and ``_Engine`` construction) in every
``procmat`` module namespace that holds them, and wraps
``numpy.linalg.eigvalsh`` in a counter.  ``uninstall`` puts the originals
back.  No procmat source is edited.

eigvalsh is called hundreds of thousands of times per restart, so its calls
are counted and timed but not stored as spans; the time spent in it is
charged to the enclosing span as ``leaf_s`` and excluded from that span's
self time.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: (module, attribute, span name) of every public call given a span.
SPAN_TARGETS = (
    ("procmat.optimizer", "random_feasible_init", "optimizer.random_feasible_init"),
    ("procmat.optimizer", "coordinate_ascent", "optimizer.coordinate_ascent"),
    ("procmat.optimizer", "feasible_interval", "optimizer.feasible_interval"),
    ("procmat.optimizer", "line_maximize", "optimizer.line_maximize"),
    ("procmat.optimizer", "feix_maximize", "optimizer.feix_maximize"),
    ("procmat.instruments", "gyni_strategy", "instruments.gyni_strategy"),
    ("procmat.instruments", "instrument_from_pauli_maps", "instruments.instrument_from_pauli_maps"),
    ("procmat.instruments", "validate_instrument", "instruments.validate_instrument"),
    ("procmat.process", "separable_from_params", "process.separable_from_params"),
    ("procmat.process", "validate_process", "process.validate_process"),
    ("procmat.process", "feix_process", "process.feix_process"),
    ("procmat.operators", "from_pauli_map", "operators.from_pauli_map"),
    ("procmat.operators", "to_pauli_map", "operators.to_pauli_map"),
    ("procmat.stats", "cond_probs", "stats.cond_probs"),
    ("procmat.stats", "joint_dist", "stats.joint_dist"),
    ("procmat.stats", "entropies", "stats.entropies"),
    ("procmat.stats", "game_success", "stats.game_success"),
)
ENGINE_SPAN = "optimizer._Engine"
#: spans opened by the benchmark around in-process ``cli.main`` calls
CLI_SPANS = ("cli.validate", "cli.entropy", "cli.game")
ALL_SPANS = tuple(name for _, _, name in SPAN_TARGETS) + (ENGINE_SPAN,) + CLI_SPANS
#: spans whose eigvalsh calls are reported on their own
EIG_CALL_SPANS = ("optimizer.feasible_interval", "optimizer.line_maximize")
#: matrix sizes whose eigvalsh traffic is reported on its own
EIG_SIZES = (8, 16)


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float = 0.0
    leaf_s: float = 0.0
    eig_calls: int = 0


@dataclass
class EigCount:
    calls: int = 0
    matrices: int = 0
    bytes_in: int = 0


@dataclass
class Tracer:
    """Spans of one traced run, kept in memory until ``dump``."""

    spans: list[Span] = field(default_factory=list)
    eig: dict[int, EigCount] = field(default_factory=dict)
    eig_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    request: int | None = None
    _stack: list[Span] = field(default_factory=list)
    _eig_calls: int = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.request, name, time.perf_counter())
        span.eig_calls = self._eig_calls
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        span.eig_calls = self._eig_calls - span.eig_calls
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def eigvalsh(self, original):
        def counted(a, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(a, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                arr = np.asarray(a)
                n = arr.shape[-1]
                stats = self.eig.setdefault(n, EigCount())
                stats.calls += 1
                stats.matrices += arr.size // (n * n)
                stats.bytes_in += arr.nbytes
                self.eig_s += elapsed
                self._eig_calls += 1
                if self._stack:
                    self._stack[-1].leaf_s += elapsed

        return counted

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``name -> (value, unit)``, every name present."""
        selfs = self_times(self.spans)
        durations: dict[str, list[float]] = {name: [] for name in ALL_SPANS}
        self_total = {name: 0.0 for name in ALL_SPANS}
        eig_calls = {name: 0 for name in EIG_CALL_SPANS}
        for span in self.spans:
            if span.name not in durations:
                continue
            durations[span.name].append(span.end - span.start)
            self_total[span.name] += selfs[span.id]
            if span.name in eig_calls:
                eig_calls[span.name] += span.eig_calls
        out: dict[str, tuple[float, str]] = {}
        for name in ALL_SPANS:
            values = durations[name]
            out[f"{name}.calls"] = (len(values), "count")
            out[f"{name}.p50_s"] = (statistics.median(values) if values else 0.0, "s")
            out[f"{name}.self_s"] = (self_total[name], "s")
        for name, calls in eig_calls.items():
            out[f"{name}.eig_calls"] = (calls, "count")
        for n in EIG_SIZES:
            stats = self.eig.get(n, EigCount())
            out[f"numpy.eigvalsh.n{n}.calls"] = (stats.calls, "count")
            out[f"numpy.eigvalsh.n{n}.matrices"] = (stats.matrices, "count")
            out[f"numpy.eigvalsh.n{n}.bytes_in"] = (stats.bytes_in, "bytes")
        out["numpy.eigvalsh.self_s"] = (self.eig_s, "s")
        return out

    def dump(self) -> dict:
        selfs = self_times(self.spans)
        return {
            "spans": [
                {
                    "id": s.id,
                    "parent": s.parent,
                    "request": s.request,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": selfs[s.id],
                    "eig_calls": s.eig_calls,
                }
                for s in self.spans
            ],
            "eigvalsh": {str(n): vars(c) for n, c in sorted(self.eig.items())},
            "counters": self.counters,
        }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover, minus the uncaptured leaf time charged to it."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered - span.leaf_s
    return out


def install(tracer: Tracer):
    """Route the span targets, ``_Engine`` construction and eigvalsh through
    ``tracer``; returns a function that restores the originals."""
    import procmat.optimizer

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "procmat"]
    restore = []

    def replace(owner, attr, new):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, attr, span_name in SPAN_TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span_name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                replace(module, attr, wrapped)
    engine = procmat.optimizer._Engine
    replace(engine, "__init__", tracer.wrap(ENGINE_SPAN, engine.__init__))
    replace(np.linalg, "eigvalsh", tracer.eigvalsh(np.linalg.eigvalsh))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
