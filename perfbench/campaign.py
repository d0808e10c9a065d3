"""``campaign``: the ``make bench`` path, cold and then warm.

A round runs five pairs of passes of ``build_campaign("unified")``
through ``SweepRunner(SolverConfig(backend="greedy", num_trials=2),
store=...)``, each pass in a fresh process: first against a new, empty store
(cold: cost-model fits, baseline tuning, prewarm, 64 unique cells,
store writes), then against the store the first pass filled (warm:
store reads and plan-cache hits).  A fresh process per pass matters:
``simulator.timing.timing_table`` and other memos are process-wide, so
a second pass in one process is not cold.

The passes are forked from this process after it has imported the
program, so a pass starts with every module loaded and every cache
empty; the imports are what ``setup_s`` times.  The grid is the fixed
paper-artefact definition: the seed does not change it.

* ``cold_ms`` / ``warm_ms``: one pass, from building the campaign to
  closing the runner (store flushed).
* ``ops_per_s``: passes completed per second, fork to exit.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
import traceback

import numpy as np

from perfbench import tracer as tracing
from perfbench.harness import OUT_DIR, Workload, digest
from repro.core.solver import SolverConfig
from repro.experiments.campaign import build_campaign
from repro.experiments.sweep import SweepRunner

CAMPAIGN = {"full": "unified", "tiny": "smoke"}
#: Cold-then-warm pass pairs per round.
PAIRS = {"full": 5, "tiny": 1}

#: Span ids of each forked pass are shifted by this much per pass, so
#: ids stay unique once the spans are merged into the parent's store.
_SID_STRIDE = 10**9


def _campaign_pass(conn, campaign_name: str, config, store: str, tracer, traced: bool) -> None:
    """Body of one forked pass; sends its outcome back over ``conn``."""
    try:
        tracer.reset()
        tracer.enabled = traced
        span = tracer.open(tracing.BENCH, "campaign pass") if traced else None
        started = time.perf_counter()
        campaign = build_campaign(campaign_name)
        with SweepRunner(solver_config=config, store=store) as runner:
            result = campaign.run(runner)
        wall = time.perf_counter() - started
        if span is not None:
            tracer.close(span)
        tracer.enabled = False
        sweep = result.sweep
        flexsp = [
            m.tokens_per_second_per_gpu
            for cell, m in zip(sweep.cells, sweep.metrics)
            if cell.system == "flexsp" and m.feasible
        ]
        payload = {
            "wall": wall,
            "metrics": [
                (cell.system, cell.workload.name, cell.variant_label, m.status, m.deterministic())
                for cell, m in zip(sweep.cells, sweep.metrics)
            ],
            "unique_cells": sweep.unique_cells,
            "prewarm_planned": sweep.prewarm_planned,
            "prewarm_seconds": sweep.prewarm_seconds,
            "plan_cache_hit_rate": result.plan_cache_hit_rate,
            "store": sweep.store_stats.to_dict() if sweep.store_stats else {},
            "flexsp_tokens_per_gpu_s": float(np.mean(flexsp)) if flexsp else 0.0,
            "spans": tracer.spans,
            "counters": dict(tracer.counters),
        }
    except BaseException:
        payload = {"error": traceback.format_exc()}
    conn.send(payload)
    conn.close()


class CampaignWorkload(Workload):
    def __init__(self, seed: int, size: str, tracer) -> None:
        super().__init__(tracer)
        self.campaign_name = CAMPAIGN[size]
        self.pairs = PAIRS[size]
        self.config = SolverConfig(backend="greedy", num_trials=2)
        # Declarations only: building the grid fills no memo a pass uses.
        self.cells_digest = digest(build_campaign(self.campaign_name).cells)
        # Passes fork from a process that only imported the program, so
        # each starts with its imports done and its memos empty.
        self.context = multiprocessing.get_context("fork")
        OUT_DIR.mkdir(exist_ok=True)
        #: Per pass pair: (cold outcome, warm outcome) payloads.
        self.outcomes: list[tuple[dict, dict]] = []
        self.counters: dict[str, float] = {}
        self._forks = 0

    def _pass(self, store: str, traced: bool, key) -> dict | None:
        self.attempted += 1
        receiver, sender = self.context.Pipe(duplex=False)
        started = time.perf_counter()
        child = self.context.Process(
            target=_campaign_pass,
            args=(sender, self.campaign_name, self.config, store, self.tracer, traced),
        )
        child.start()
        sender.close()
        try:
            payload = receiver.recv()
        except EOFError:
            payload = {"error": "pass exited without a result"}
        finally:
            receiver.close()
            child.join()
        if "error" in payload or child.exitcode != 0:
            self.fail("campaign pass", RuntimeError(payload.get("error", child.exitcode)))
            return None
        self.timings.add("op", key, time.perf_counter() - started)
        self._merge_spans(payload)
        return payload

    def _merge_spans(self, payload: dict) -> None:
        if self.tracer is None or not payload["spans"]:
            return
        self._forks += 1
        shift = self._forks * _SID_STRIDE
        for span in payload["spans"]:
            span.sid += shift
            span.parent = span.parent + shift if span.parent else 0
            self.tracer.spans.append(span)
        for name, value in payload["counters"].items():
            self.tracer.count(name, value)

    def round(self, traced: bool) -> int:
        for pair in range(self.pairs):
            store = tempfile.mkdtemp(prefix="campaign-store-", dir=OUT_DIR)
            try:
                cold = self._pass(store, traced, ("cold", pair))
                warm = self._pass(store, traced, ("warm", pair)) if cold is not None else None
            finally:
                shutil.rmtree(store, ignore_errors=True)
            if cold is None or warm is None:
                continue
            self.timings.add("cold", pair, cold["wall"])
            self.timings.add("warm", pair, warm["wall"])
            self.outcomes.append((cold, warm))
            if traced:
                self._count(cold, warm)
        return 2 * self.pairs

    def _count(self, cold: dict, warm: dict) -> None:
        def add(name, value):
            self.counters[name] = self.counters.get(name, 0) + value

        for payload in (cold, warm):
            add("sweep.prewarm_s", payload["prewarm_seconds"])
            for key in ("hits", "misses", "writes"):
                add(f"store.{key}", payload["store"].get(key, 0))
        self.counters["store.bytes"] = cold["store"].get("bytes", 0)
        self.counters["sweep.unique_cells"] = cold["unique_cells"]
        self.counters["sim.tokens_per_gpu_s"] = cold["flexsp_tokens_per_gpu_s"]

    def input_digest(self) -> str:
        return self.cells_digest

    def output_digest(self) -> str:
        return digest(self.outcomes[0][0]["metrics"]) if self.outcomes else "-"

    def run_checks(self) -> None:
        self.verdict(self.outcomes, "at least one cold and warm pass completed")
        if not self.outcomes:
            return
        reference = self.outcomes[0][0]["metrics"]
        self.verdict(
            all(c["metrics"] == w["metrics"] for c, w in self.outcomes),
            "warm CellMetrics.deterministic equals cold, cell for cell",
        )
        self.verdict(
            all(c["metrics"] == reference for c, __ in self.outcomes),
            "every round (traced or not) measured the same cells",
        )
        self.verdict(
            all(c["store"].get("writes", 0) > 0 for c, __ in self.outcomes),
            "every cold pass wrote the store",
        )
        self.verdict(
            all(
                w["prewarm_planned"] == 0
                and w["store"].get("hits", 0) > 0
                and w["store"].get("misses", 0) == 0
                and w["plan_cache_hit_rate"] == 1.0
                for __, w in self.outcomes
            ),
            "every warm pass restored from the store and planned nothing",
        )

    def layer_counters(self) -> dict:
        return dict(self.counters)


WORKLOAD = CampaignWorkload
