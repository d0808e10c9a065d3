"""``serve``: plan requests over loopback TCP to a resident service.

A ``PlanServer`` fronts a ``PlanService`` with the three
``service_jobs(num_gpus=8, global_batch_size=8, max_context=16K)``
tenants.  One ``PlanClient`` connection replays a seeded
``synthesize_trace(..., cv=2.0, step_window=8)`` back to back (a
closed loop of one caller).  Of the trace's arrivals, in order, it
keeps each tenant's first request for each of its 8 batches and the
first 3 repeats of each, and stops when all are in: 96 requests, 24 of
them first requests.  Each tenant's batches are renumbered in the
order it first asks for them, so its cold requests are always corpus
steps 0 to 7 in that order.  So every seed asks for the same work: a
MILP solve's cost depends on which micro-batch shapes earlier solves
left in the plan cache, and with the trace's own order and a cut at a
fixed length the cold tail moved by a third from seed to seed.  The
seed decides how the tenants interleave and when each repeat comes.

One caller, not two: with two, a warm request's latency depends on
whether the other caller's MILP solve holds the interpreter lock at
that moment, which the trace interleaving decides, so the warm tail
moved 0.4-1.6 ms from seed to seed.

The MILP backend runs with ``PlannerConfig(node_limit=500)``: a
deterministic work limit, where the default wall-clock ``time_limit``
would make plans depend on host load.

Each round replays the trace against a fresh server, service and
client, so every round sees the same mix: the first request for a
shape is solved (cold), repeats are answered from the plan cache
(warm).

* ``cold_ms`` / ``warm_ms``: client-side latency of requests the
  service answered by solving / from the plan cache
  (``ServedPlan.source``), split because the mix is bimodal.  An
  operation is a batch: its warm figure is the fastest of its three
  repeats in every round.
* ``ops_per_s``: served requests per second of replay.
"""

from __future__ import annotations

import dataclasses
import time

from perfbench.harness import Workload, digest
from repro.core.planner import PlannerConfig
from repro.core.solver import SolverConfig
from repro.service.benchmark import _verify_unique_plans
from repro.service.service import PlanService
from repro.service.traffic import service_jobs, synthesize_trace
from repro.service.transport import PlanClient, PlanServer

#: (distinct corpus steps per tenant, repeats of each) per size.
SHAPES = {"full": (8, 3), "tiny": (3, 1)}


def pick_requests(trace, jobs, step_window: int, repeats: int):
    """The trace's arrivals, in order, up to the point where every
    tenant has asked for each of its ``step_window`` batches and
    repeated each ``repeats`` times; further repeats are skipped.  A
    tenant's batches are renumbered in the order it first asks for
    them.  ``None`` when the trace ends first."""
    renumbered: dict[tuple[str, int], int] = {}
    firsts = dict.fromkeys(jobs, 0)
    repeated: dict[tuple[str, int], int] = {}
    picked = []
    for request in trace:
        key = (request.tenant, request.step)
        if key not in renumbered:
            renumbered[key] = firsts[request.tenant]
            firsts[request.tenant] += 1
        elif repeated.get(key, 0) < repeats:
            repeated[key] = repeated.get(key, 0) + 1
        else:
            continue
        step = renumbered[key]
        lengths = jobs[request.tenant].corpus().batch(step).lengths
        picked.append(dataclasses.replace(request, step=step, lengths=lengths))
        if sum(repeated.values()) == len(jobs) * step_window * repeats:
            return tuple(picked)
    return None


class Serve(Workload):
    def __init__(self, seed: int, size: str, tracer) -> None:
        super().__init__(tracer)
        step_window, repeats = SHAPES[size]
        self.seed = seed
        self.jobs = service_jobs(num_gpus=8, global_batch_size=8, max_context=16 * 1024)
        duration = 4.0 * step_window * (1 + repeats)
        while True:
            trace = synthesize_trace(
                self.jobs, duration=duration, rate=1.0, cv=2.0,
                seed=seed, step_window=step_window,
            )
            self.trace = pick_requests(trace, self.jobs, step_window, repeats)
            if self.trace is not None:
                break
            duration *= 2
        self.config = SolverConfig(planner=PlannerConfig(node_limit=500))
        #: Per round: {(tenant, lengths): plan} of everything served.
        self.outcomes: list[dict] = []
        self.counters: dict[str, float] = {}
        self.client = None
        self._start_round()

    def _start_round(self) -> None:
        """A fresh service, server and connected client (untimed)."""
        self.service = PlanService(solver_config=self.config)
        for workload in self.jobs.values():
            self.service.register(workload)
        self.server = PlanServer(self.service, owns_service=True)
        self.client = PlanClient(
            *self.server.address, jobs=self.jobs, solver_config=self.config, seed=self.seed
        )
        self.client.ping()

    def _end_round(self) -> tuple[dict, dict, dict]:
        client_stats = self.client.stats()
        server_stats = self.server.stats()
        service_stats = self.service.stats()
        self.client.close()
        self.server.close()
        self.client = None
        return service_stats, server_stats, client_stats

    def round(self, traced: bool) -> int:
        if self.client is None:
            self._start_round()
        plans = {}
        latency_sum = 0.0
        for index, request in enumerate(self.trace):
            self.attempted += 1
            try:
                with self.op("request"):
                    started = time.perf_counter()
                    served = self.client.plan(request.tenant, request.lengths)
                    latency = time.perf_counter() - started
            except Exception as error:
                self.fail(f"request for {request.tenant}", error)
                continue
            self.timings.add("op", index, latency)
            latency_sum += latency
            plans[(served.tenant, served.lengths)] = served.plan
            if served.source == "solved":
                self.timings.add("cold", (request.tenant, request.step), latency)
            elif served.source == "warm":
                self.timings.add("warm", (request.tenant, request.step), latency)
        service_stats, server_stats, client_stats = self._end_round()
        for __ in range(client_stats["degraded"]):
            self.fail("request", RuntimeError("answered by the client's in-process fallback"))
        self.outcomes.append(plans)
        if traced:
            self._count(service_stats, server_stats, client_stats, latency_sum)
        return len(self.trace)

    def _count(
        self, service_stats: dict, server_stats: dict, client_stats: dict, latency_sum: float
    ) -> None:
        def add(name, value):
            self.counters[name] = self.counters.get(name, 0) + value

        for key in ("submitted", "solved", "warm_hits", "coalesced", "shed"):
            add(f"service.{key}", service_stats[key])
        for key in ("replayed", "aborted"):
            add(f"server.{key}", server_stats[key])
        for key in ("requests", "retries", "reconnects", "degraded"):
            add(f"client.{key}", client_stats[key])
        add("client.latency_s", latency_sum)

    def input_digest(self) -> str:
        return digest([(r.tenant, r.step, r.lengths) for r in self.trace])

    def output_digest(self) -> str:
        if not self.outcomes:
            return "-"
        return digest(sorted(
            (key, plan.microbatches, plan.predicted_time)
            for key, plan in self.outcomes[0].items()
        ))

    def run_checks(self) -> None:
        reference = self.outcomes[0]
        self.verdict(
            all(
                {k: (p.microbatches, p.predicted_time) for k, p in plans.items()}
                == {k: (p.microbatches, p.predicted_time) for k, p in reference.items()}
                for plans in self.outcomes
            ),
            "every round (traced or not) served the same plans",
        )
        try:
            verified = _verify_unique_plans(self.jobs, self.config, reference)
        except AssertionError as error:
            self.verdict(False, f"served plans equal cold solves: {error}")
        else:
            self.verdict(
                verified == len({(r.tenant, r.lengths) for r in self.trace}),
                "every unique served plan equals a cold FlexSPSolver solve bit for bit",
            )

    def layer_counters(self) -> dict:
        return dict(self.counters)

    def close(self) -> None:
        if self.client is not None:
            self._end_round()


WORKLOAD = Serve
