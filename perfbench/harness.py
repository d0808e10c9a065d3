"""Benchmark driver: set-up timing, the measured loop, checks, output.

One run measures one workload.  It sets the workload up in-process,
then runs *rounds* (each the same seed-determined batch of operations)
until they add up to ``--seconds``, timing set-up in fresh interpreters
launched between rounds.  Each timing is every operation's fastest
repeat (:class:`Timings`).  After the loop it runs the workload's output
checks, prints a human-readable report and, as the last line, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones.  A
traced run alternates untraced and traced rounds (round 0 is an
untraced warm-up), takes the per-layer table from the traced rounds
and reports the traced-over-untraced wall ratio as the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

#: Workload name -> module defining ``WORKLOAD`` (its class).
WORKLOADS = {
    "campaign": "perfbench.campaign",
    "serve": "perfbench.serve",
}

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = {"full": 5, "tiny": 1}


def digest(*parts) -> str:
    """Short stable hash of the ``repr`` of ``parts``."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def host_fingerprint() -> dict:
    import scipy

    from repro.core import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels": kernels.describe(),
    }


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Timings:
    """Each operation's fastest time over the run's rounds.

    Every round repeats the same operations, so an operation's repeats
    differ only by the host.  On a shared machine the host's speed
    drifts by up to 1.7x in phases of seconds to minutes and stalls now and
    then; an operation's fastest repeat is the figure least affected.
    The percentiles are then taken across operations."""

    def __init__(self) -> None:
        #: kind ("cold", "warm", or "op" for what ``ops_per_s``
        #: counts) -> operation key -> fastest seconds.
        self.best: dict[str, dict] = {"cold": {}, "warm": {}, "op": {}}

    def add(self, kind: str, key, seconds: float) -> None:
        table = self.best[kind]
        if key not in table or seconds < table[key]:
            table[key] = seconds

    def values(self) -> dict:
        if not all(self.best.values()):
            raise RuntimeError("no round completed its cold, warm and counted operations")
        cold = np.fromiter(self.best["cold"].values(), float) * 1e3
        warm = np.fromiter(self.best["warm"].values(), float) * 1e3
        ops = self.best["op"]
        return {
            "cold_ms.p50": percentile(cold, 50),
            "cold_ms.p75": percentile(cold, 75),
            "warm_ms.p50": percentile(warm, 50),
            "warm_ms.p75": percentile(warm, 75),
            "ops_per_s": len(ops) / sum(ops.values()),
        }


class Workload:
    """Shared bookkeeping of the workloads.

    A subclass sets itself up in ``__init__`` (that is what ``setup_s``
    times), runs one round of timed operations per :meth:`round` call,
    recording them in :attr:`timings` under keys that name the same
    operation in every round, and returns how many it attempted; after
    the loop it reports per-layer counters and runs its output checks.
    Every round repeats the same seed-determined work.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.timings = Timings()
        self._verdicts: list[tuple[bool, str]] = []

    def op(self, name: str) -> "BenchSpan":
        return BenchSpan(self.tracer, name)

    def fail(self, what: str, error: BaseException) -> None:
        """Count one failed operation and say why on stderr."""
        self.failed += 1
        sys.stderr.write(f"perfbench: {what} failed: {error!r}\n")

    def verdict(self, ok: bool, message: str) -> None:
        self._verdicts.append((bool(ok), message))

    def checks(self) -> tuple[list[str], int]:
        """Run the output checks; returns the failed ones' messages and
        how many ran."""
        self._verdicts = []
        self.run_checks()
        return [message for ok, message in self._verdicts if not ok], len(self._verdicts)

    def layer_counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- set-up timing ------------------------------------------------------


def time_setups(workload: str, seed: int, size: str, samples: list[float]):
    """Generator timing one fresh interpreter per step: the wall from
    launching it to its "ready" line, appended to ``samples``."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--size", size, "--setup-only",
    ]
    for _ in range(SETUP_REPEATS[size]):
        started = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {code})")
        samples.append(ready)
        yield ready


def setup_only(workload: str, seed: int, size: str) -> None:
    module = importlib.import_module(WORKLOADS[workload])
    bench = module.WORKLOAD(seed, size, None)
    print("ready", flush=True)
    bench.close()


# -- the measured loop ----------------------------------------------------


class RoundLog:
    """Wall time and operation count of every round."""

    def __init__(self) -> None:
        self.rounds: list[tuple[bool, float, int]] = []

    def add(self, traced: bool, wall: float, ops: int) -> None:
        self.rounds.append((traced, wall, ops))

    def overhead_ratio(self) -> float:
        """Traced over untraced wall per operation, round 0 excluded."""
        sums = {True: [0.0, 0], False: [0.0, 0]}
        for traced, wall, ops in self.rounds[1:]:
            sums[traced][0] += wall
            sums[traced][1] += ops
        (tw, tn), (uw, un) = sums[True], sums[False]
        return (tw / tn) / (uw / un) if tn and un else 0.0


def measure(bench, seconds: float, traced_run: bool, tracer, setups=None, setup_count=1) -> RoundLog:
    """Run rounds until they add up to ``seconds``.

    ``setups`` (a generator of ``setup_count`` set-up timings) is
    advanced between rounds at evenly spaced points of the measured
    time, outside the rounds, so set-up samples the host over the
    whole run as the rounds do."""
    log = RoundLog()
    measured = 0.0
    spawned = 0
    index = 0
    while True:
        while setups is not None and spawned < setup_count and (
            measured >= spawned * seconds / setup_count
        ):
            next(setups)
            spawned += 1
        traced = traced_run and index % 2 == 1
        tracer.enabled = traced
        try:
            started = time.perf_counter()
            ops = bench.round(traced)
            wall = time.perf_counter() - started
        finally:
            tracer.enabled = False
        log.add(traced, wall, ops)
        measured += wall
        index += 1
        # A traced run needs an untraced and a traced round after the
        # warm-up round to compare them.
        if measured >= seconds and (not traced_run or index >= 3):
            return log


# -- metric assembly ------------------------------------------------------


def per_layer_metrics(bench, tracer, log: RoundLog, import_s: float) -> tuple[dict, dict, float]:
    rows, wall = tracing.layer_table(tracer.spans)

    def self_s(layer):
        return rows.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return rows.get(layer, {}).get("calls", 0)

    def mean_ms(layer):
        n = calls(layer)
        return 1e3 * self_s(layer) / n if n else 0.0

    counters = dict(tracer.counters)
    counters.update(bench.layer_counters())
    c = counters.get
    hits, misses = c("plan_cache.hits", 0), c("plan_cache.misses", 0)
    store_hits, store_misses = c("store.hits", 0), c("store.misses", 0)
    results = c("service.results", 0)
    latency_ms = 1e3 * c("service.latency_s", 0.0) / results if results else 0.0
    requests = c("client.requests", 0)
    client_ms = 1e3 * c("client.latency_s", 0.0) / requests if requests else 0.0
    attributed = sum(r["self_s"] for layer, r in rows.items() if layer != tracing.BENCH)
    values = {
        "import.s": import_s,
        "data.batch_ms": mean_ms("data"),
        "cost.fit_s": self_s("cost"),
        "cost.fit_calls": calls("cost"),
        "core.solver.solve_ms": mean_ms("core.solver"),
        "core.solver.calls": calls("core.solver"),
        "core.plan_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.plan_cache.lookups": hits + misses,
        "core.planner_greedy.plan_ms": mean_ms("core.planner_greedy"),
        "core.planner_greedy.calls": calls("core.planner_greedy"),
        "core.planner.plan_ms": mean_ms("core.planner"),
        "core.planner.calls": calls("core.planner"),
        "core.planner.build_s": c("planner.build_s", 0.0),
        "core.planner.solve_s": c("planner.solve_s", 0.0),
        "simulator.run_ms": mean_ms("simulator"),
        "simulator.calls": calls("simulator"),
        "simulator.tokens_per_gpu_s": c("sim.tokens_per_gpu_s", 0.0),
        "baselines.tune_s": self_s("baselines"),
        "experiments.sweep.context_s": self_s("experiments.sweep.context"),
        "experiments.sweep.prewarm_s": c("sweep.prewarm_s", 0.0),
        "experiments.sweep.cells_s": self_s("experiments.sweep.cells"),
        "experiments.sweep.unique_cells": c("sweep.unique_cells", 0),
        "core.cache_store.save_s": self_s("core.cache_store.save"),
        "core.cache_store.writes": c("store.writes", 0),
        "core.cache_store.bytes": c("store.bytes", 0),
        "core.cache_store.load_s": self_s("core.cache_store.load"),
        "core.cache_store.hit_ratio": (
            store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0
        ),
        "core.cache_store.lookups": store_hits + store_misses,
        "service.latency_ms": latency_ms,
        "service.requests": c("service.submitted", 0),
        "service.solved": c("service.solved", 0),
        "service.warm_hits": c("service.warm_hits", 0),
        "service.coalesced": c("service.coalesced", 0),
        "service.shed": c("service.shed", 0),
        "service.transport.overhead_ms": client_ms - latency_ms if requests else 0.0,
        "service.transport.retries": c("client.retries", 0),
        "service.transport.reconnects": c("client.reconnects", 0),
        "service.transport.degraded": c("client.degraded", 0),
        "service.transport.replayed": c("server.replayed", 0),
        "service.transport.aborted": c("server.aborted", 0),
        "unattributed_s": wall - attributed,
        "trace.overhead_ratio": log.overhead_ratio(),
    }
    return values, rows, wall


def format_table(rows: dict, wall: float) -> str:
    lines = [f"{'layer':<28} {'self_s':>10} {'share':>7} {'calls':>8} {'mean_ms':>9}"]
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        mean = 1e3 * row["self_s"] / row["calls"] if row["calls"] else 0.0
        label = "bench (unattributed glue)" if layer == tracing.BENCH else layer
        lines.append(
            f"{label:<28} {row['self_s']:>10.4f} {share:>7.1%} {row['calls']:>8d} {mean:>9.3f}"
        )
    lines.append(f"{'traced wall':<28} {wall:>10.4f}")
    return "\n".join(lines)


def run(args, started: float) -> dict:
    """One benchmark run; ``started`` is the ``perf_counter`` reading
    taken when the entry script began, before any import."""
    declared = load_declared()
    tracer = tracing.Tracer()
    setup_samples: list[float] = []
    setups = None if args.trace else time_setups(args.workload, args.seed, args.size, setup_samples)

    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - started
    if args.trace:
        tracing.install(tracer)
    try:
        tracer.enabled = bool(args.trace)
        with BenchSpan(tracer, "setup"):
            bench = module.WORKLOAD(args.seed, args.size, tracer)
        tracer.enabled = False
        try:
            log = measure(
                bench, args.seconds, bool(args.trace), tracer, setups, SETUP_REPEATS[args.size]
            )
            for __ in setups or ():  # set-ups the rounds did not interleave
                pass
            failures, checks_run = bench.checks()
            host = host_fingerprint()
            print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace} size={args.size}")
            print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
            print(f"rounds: {len(log.rounds)}  input digest: {bench.input_digest()}  "
                  f"output digest: {bench.output_digest()}")
            for failure in failures:
                print(f"CHECK FAILED: {failure}")
            if args.trace:
                values, rows, wall = per_layer_metrics(bench, tracer, log, import_s)
                declared_metrics = declared["per_layer"]
                table = format_table(rows, wall)
                print(table)
                write_trace(args, tracer, table, host)
            else:
                declared_metrics = declared["end_to_end"]
                values = bench.timings.values()
                values["setup_s"] = float(np.median(setup_samples))
                counts = {kind: len(table) for kind, table in bench.timings.best.items()}
                print(f"fastest of {len(log.rounds)} repeats per operation over "
                      f"{counts['cold']} cold, {counts['warm']} warm and {counts['op']} "
                      f"counted operations; setup_s: median of {len(setup_samples)} interpreters")
        finally:
            bench.close()
    finally:
        tracer.uninstall()

    metrics = {}
    for spec in declared_metrics:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<34} {value:>14.6g} {spec['unit']}")
    print(f"checks: {checks_run} run, {len(failures)} failed; "
          f"operations: {bench.attempted} attempted, {bench.failed} failed")
    return {
        "correct": not failures and bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed + len(failures),
        "metrics": metrics,
    }


class BenchSpan:
    """Open a :data:`~perfbench.tracer.BENCH` root span while tracing."""

    def __init__(self, tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span = None

    def __enter__(self):
        if self.tracer is not None and self.tracer.enabled:
            self.span = self.tracer.open(tracing.BENCH, self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.span is not None:
            self.tracer.close(self.span)


def write_trace(args, tracer, table: str, host: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    metadata = {"workload": args.workload, "seed": args.seed, "host": host}
    stem.with_suffix(".trace.json").write_text(
        json.dumps(tracing.chrome_trace(tracer.spans, metadata))
    )
    stem.with_suffix(".layers.txt").write_text(table + "\n")
    print(f"trace: {stem.with_suffix('.trace.json')}  table: {stem.with_suffix('.layers.txt')}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-scale shapes for the benchmark's own tests",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(started: float, argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed, args.size)
        return 0
    result = run(args, started)
    print(json.dumps(result))
    return 0
