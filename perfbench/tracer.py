"""In-memory span recorder for the traced benchmark run.

The program has no tracing of its own, so the spans come from here:
:func:`install` replaces public entry points of ``repro.*`` (class
methods, the solver's planner-backend registry, and module functions
at the import sites that call them) with thin wrappers.  While
:attr:`Tracer.enabled` is False a wrapper costs one attribute read and
calls straight through, so untraced rounds of a traced run still
measure the program, not the recorder.

Each span records its layer (the ``repro`` module it enters), start,
end, thread and parent.  The parent is the innermost open span of the
same thread; a span that opens on a thread with nothing open (a
service worker or server connection thread) is adopted by the open
request span carrying the same request key, so server-side work nests
under the client request that caused it.

Spans stay in memory; :func:`layer_table` turns them into per-layer
self time (duration minus the union of its children's intervals) and
:func:`chrome_trace` into Chrome trace-event JSON (opens in Perfetto
or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

#: Layer of the spans the benchmark itself opens around each timed
#: operation.  Their self time is the part no program layer accounts
#: for.
BENCH = "bench"


class Span:
    """One recorded interval."""

    __slots__ = ("sid", "parent", "layer", "name", "pid", "tid", "start", "end")

    def __init__(self, sid, parent, layer, name, pid, tid, start, end=0.0):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.pid = pid
        self.tid = tid
        self.start = start
        self.end = end


class Tracer:
    """Span store plus the counters the wrappers read from results."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._open_keys: dict[object, int] = {}
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str, key=None, owns_key=False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif key is not None:
            parent = self._open_keys.get(key, 0)
        else:
            parent = 0
        span = Span(
            next(self._ids), parent, layer, name,
            os.getpid(), threading.get_ident(), time.perf_counter(),
        )
        stack.append(span)
        if owns_key and key is not None:
            self._open_keys[key] = span.sid
        return span

    def close(self, span: Span, key=None, owns_key=False) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if owns_key and key is not None and self._open_keys.get(key) == span.sid:
            del self._open_keys[key]
        self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def reset(self) -> None:
        """Drop recorded spans and counters (a forked child starts
        clean and ships only its own)."""
        self.spans = []
        self.counters = defaultdict(float)
        self._open_keys = {}
        self._local = threading.local()

    # -- wrapping -----------------------------------------------------

    def wrap(self, fn, layer, *, key=None, owns_key=False, on_result=None):
        """``fn`` wrapped in a span of ``layer`` (recorded only while
        enabled).  ``key(args, kwargs)`` names the request for
        cross-thread adoption; ``on_result`` reads counters from the
        return value."""
        tracer = self
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            k = key(args, kwargs) if key is not None else None
            span = tracer.open(layer, name, k, owns_key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, k, owns_key)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict),
        remembering the original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _lengths_key(position: int):
    def key(args, kwargs):
        value = args[position] if len(args) > position else None
        lengths = getattr(value, "lengths", value)
        return tuple(lengths) if lengths is not None else None

    return key


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro.baselines import tuner
    from repro.core import cache_store, planner_greedy, solver
    from repro.cost import profiler
    from repro.data.dataset import SyntheticCorpus
    from repro.experiments import campaign, sweep, systems
    from repro.service import service, transport
    from repro.simulator.executor import IterationExecutor

    def method(cls, attr, layer, **kw):
        tracer.patch(cls, attr, tracer.wrap(cls.__dict__[attr], layer, **kw))

    def solve_stats(plan) -> None:
        stats = plan.stats
        if stats is None:
            return
        tracer.count("plan_cache.hits", stats.cache_hits)
        tracer.count("plan_cache.misses", stats.cache_misses)
        tracer.count("planner.build_s", stats.milp_build_seconds)
        tracer.count("planner.solve_s", stats.milp_solve_seconds)

    def server_latency(served) -> None:
        tracer.count("service.latency_s", served.latency_seconds)
        tracer.count("service.results")

    method(SyntheticCorpus, "batch", "data")
    method(solver.FlexSPSolver, "solve", "core.solver",
           key=_lengths_key(1), on_result=solve_stats)
    method(IterationExecutor, "run", "simulator")
    method(cache_store.CacheStore, "load", "core.cache_store.load")
    method(cache_store.CacheStore, "save", "core.cache_store.save")
    method(sweep.SweepRunner, "run", "experiments.sweep")
    method(sweep.SweepRunner, "context", "experiments.sweep.context")
    method(sweep.WorkloadContext, "run", "experiments.sweep.cells")
    method(campaign.Campaign, "run", "experiments.campaign")
    method(service.PlanService, "submit", "service", key=_lengths_key(2))
    method(service.PlanTicket, "result", "service", on_result=server_latency)
    method(transport.PlanClient, "plan", "service.transport",
           key=_lengths_key(2), owns_key=True)

    # The solver looks planners up in its backend registry per call;
    # the MILP planner imports the greedy one at call time for its
    # incumbent, so the module attribute covers that path.
    greedy = tracer.wrap(solver._BACKENDS["greedy"], "core.planner_greedy")
    tracer.patch(solver._BACKENDS, "greedy", greedy)
    tracer.patch(planner_greedy, "plan_microbatch_greedy", greedy)
    tracer.patch(
        solver._BACKENDS, "milp",
        tracer.wrap(solver._BACKENDS["milp"], "core.planner"),
    )

    fit = tracer.wrap(profiler.fit_cost_model, "cost")
    for module in (profiler, sweep, systems):
        tracer.patch(module, "fit_cost_model", fit)
    for attr in ("choose_static_degree", "tune_megatron"):
        wrapped = tracer.wrap(getattr(tuner, attr), "baselines")
        for module in (tuner, systems):
            tracer.patch(module, attr, wrapped)


# -- analysis ---------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_table(spans: list[Span]) -> tuple[dict[str, dict], float]:
    """Per-layer self time and call counts over the spans that descend
    from :data:`BENCH` roots, plus the traced wall (the summed duration
    of those roots).  ``bench`` rows are the benchmark's own glue."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    rows: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    pending = [s for s in spans if s.layer == BENCH and s.parent == 0]
    wall = sum(s.end - s.start for s in pending)
    while pending:
        span = pending.pop()
        kids = children.get(span.sid, ())
        covered = _covered(span.start, span.end, [(k.start, k.end) for k in kids])
        row = rows[span.layer]
        row["self_s"] += (span.end - span.start) - covered
        row["calls"] += 1
        pending.extend(kids)
    return dict(rows), wall


def chrome_trace(spans: list[Span], metadata: dict) -> dict:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round((s.end - s.start) * 1e6, 3),
            "pid": s.pid,
            "tid": s.tid,
            "args": {"id": s.sid, "parent": s.parent},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
