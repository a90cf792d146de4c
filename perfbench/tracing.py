"""Spans around calls into quasiphase's public functions.

The benchmark wraps each traced public function in place, in every
quasiphase module namespace that holds it, so calls the library makes to
itself (analysis -> channels -> fock) are seen as well as the benchmark's
own calls.  Nothing under src/ is edited.  A call nested inside a call of
the same span name (the recursive `apply` of a Compose, say) records no
span of its own, so busy times are never counted twice.

Spans are kept in memory: name, start, end, parent span, op id and thread.
verify_suite runs its checks on a thread pool, so a layer's busy time is
the sum of its spans over threads and can exceed the wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field

# Mirrors the live-level rules of phasespace.sample: trim at 1e-16 of the
# largest entry, then skip diagonals below 1e-18 of the trimmed block.
_TRIM_TOLERANCE = 1e-16
_LIVE_DIAGONAL = 1e-18


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int


@dataclass
class Tracer:
    """Records spans and per-layer counters while enabled.

    A disabled tracer records nothing; untraced runs use one so the
    workloads need not know whether they are traced.
    """

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    op: int | None = None
    enabled: bool = True
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _seen: set = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def first_time(self, key) -> bool:
        """True the first time `key` is seen by this tracer."""
        with self._lock:
            if key in self._seen:
                return False
            self._seen.add(key)
            return True

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the block; yields whether a span is recorded for it."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.open = [], set()
        if not self.enabled or name in local.open:
            yield False
            return
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        local.stack.append(span_id)
        local.open.add(name)
        start = time.perf_counter()
        try:
            yield True
        finally:
            end = time.perf_counter()
            local.stack.pop()
            local.open.discard(name)
            self.spans.append(Span(span_id, name, start, end, parent, self.op,
                                   threading.get_ident()))

    @contextlib.contextmanager
    def paused(self):
        saved, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = saved

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def dump(self) -> list:
        return [[s.id, s.name, s.start, s.end, s.parent, s.op, s.thread]
                for s in self.spans]


def _dim(np, x) -> int:
    return np.shape(getattr(x, "matrix", x))[0]


def _sample_w_steps(np, fock, x, grid) -> int:
    """Recurrence steps of W sampling: grid points x live diagonal lengths."""
    mat = x.matrix
    scale = max(1.0, float(np.max(np.abs(mat))))
    keep = fock.trim_dim(mat, tol=_TRIM_TOLERANCE * scale)
    work = np.abs(mat[:keep, :keep])
    live = _LIVE_DIAGONAL * max(float(work.max()), 1e-300)
    lengths = sum(keep - e for e in range(keep)
                  if max(np.diagonal(work, e).max(),
                         np.diagonal(work, -e).max()) > live)
    return grid.points_per_axis ** 2 * lengths


def _wrappers(tracer: Tracer, qp) -> list:
    """(module, public name, wrapper factory) for every traced function.

    Each factory receives the original function, so a wrapper never calls
    a name that is itself patched.
    """
    import numpy as np

    fock = qp.fock

    def simple(name):
        def factory(fn):
            def wrapped(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapped
        return factory

    def operator_to_json(fn):
        def wrapped(op):
            with tracer.span("fock.operator_json") as recorded:
                text = fn(op)
            if recorded:
                tracer.count("fock.operator_json.bytes", len(text))
            return text
        return wrapped

    def operator_from_json(fn):
        def wrapped(text):
            with tracer.span("fock.operator_json") as recorded:
                op = fn(text)
            if recorded:
                tracer.count("fock.operator_json.bytes", len(text))
            return op
        return wrapped

    def apply(fn):
        def wrapped(spec, x, *args, **kwargs):
            with tracer.span("channels.apply") as recorded:
                out = fn(spec, x, *args, **kwargs)
            if recorded:
                tracer.count("channels.apply.dim_in", _dim(np, x))
                tracer.count("channels.apply.dim_out", out.dim)
            return out
        return wrapped

    def coherent_projection(fn):
        def wrapped(x, route="compose", *args, **kwargs):
            with tracer.span(f"channels.coherent_projection.{route}"):
                return fn(x, route, *args, **kwargs)
        return wrapped

    def superoperator_of(fn):
        def wrapped(spec, dim):
            with tracer.span("channels.superoperator") as recorded:
                sup = fn(spec, dim)
            if recorded and tracer.first_time(("superoperator", spec, dim)):
                tracer.count("channels.superoperator.bytes_computed",
                             sup.matrix.nbytes)
            return sup
        return wrapped

    def inverse_apply(fn):
        def wrapped(spec, x, epsilon=1e-10, *args, **kwargs):
            # The library caches one factor per (spec, dim, epsilon): the
            # first call with a key builds it, later calls reuse it.
            key = ("inverse", spec, _dim(np, x), float(epsilon))
            cold = tracer.enabled and tracer.first_time(key)
            with tracer.span("channels.inverse." + ("cold" if cold else "warm")):
                return fn(spec, x, epsilon, *args, **kwargs)
        return wrapped

    def sample(fn):
        def wrapped(x, kind, grid, *args, **kwargs):
            with tracer.span(f"phasespace.sample_{kind}") as recorded:
                dist = fn(x, kind, grid, *args, **kwargs)
            if recorded and kind == "W":
                tracer.count("phasespace.sample_W.steps_computed",
                             _sample_w_steps(np, fock, x, grid))
            return dist
        return wrapped

    def distribution_to_csv(fn):
        def wrapped(dist):
            with tracer.span("phasespace.csv") as recorded:
                text = fn(dist)
            if recorded:
                tracer.count("phasespace.csv.bytes", len(text))
            return text
        return wrapped

    return [
        (qp.fock, "displaced_parity", simple("fock.displaced_parity")),
        (qp.fock, "operator_to_json", operator_to_json),
        (qp.fock, "operator_from_json", operator_from_json),
        (qp.fock, "trace_distance", simple("fock.distance")),
        (qp.fock, "fidelity", simple("fock.distance")),
        (qp.channels, "apply", apply),
        (qp.channels, "coherent_projection", coherent_projection),
        (qp.channels, "superoperator_of", superoperator_of),
        (qp.channels, "inverse_apply", inverse_apply),
        (qp.channels, "amplifier_dilated", simple("channels.dilation.amplifier")),
        (qp.channels, "attenuator_dilated", simple("channels.dilation.attenuator")),
        (qp.channels, "attenuator_kraus", simple("channels.kraus")),
        (qp.phasespace, "sample", sample),
        (qp.phasespace, "weierstrass", simple("phasespace.weierstrass")),
        (qp.phasespace, "w_char_at", simple("phasespace.w_char_at")),
        (qp.phasespace, "distribution_to_csv", distribution_to_csv),
        (qp.analysis, "default_battery", simple("analysis.battery")),
        (qp.analysis, "classicality_check", simple("analysis.classicality")),
        (qp.analysis, "nonclassicality_profile", simple("analysis.profile")),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, qp):
    """Swap the wrappers into every module that holds the originals.

    `qp` is a namespace with the quasiphase modules fock, channels,
    phasespace, analysis and cli.  Names missing from a module are skipped,
    so a refactor that drops a function leaves its layer at zero.
    """
    modules = (qp.fock, qp.channels, qp.phasespace, qp.analysis, qp.cli)
    patched = []
    try:
        for home, name, factory in _wrappers(tracer, qp):
            original = getattr(home, name, None)
            if original is None:
                continue
            wrapper = factory(original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    patched.append((module, name, original))
        yield tracer
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)
