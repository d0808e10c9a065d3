"""The benchmark's own tests.

Inputs are a pure function of the seed, every declared name is
well-formed, a tiny pass of each workload runs its output checks end to
end in both modes, and the per-layer table adds up to the traced wall.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import harness
from perfbench import tracer as tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = harness.load_declared()


def test_declared_names_are_well_formed_and_unique():
    workloads = [w["name"] for w in DECLARED["workloads"]]
    metrics = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    for name in workloads + metrics:
        assert NAME.fullmatch(name), name
    assert len(set(workloads + metrics)) == len(workloads + metrics)
    assert set(workloads) == set(harness.WORKLOADS)
    assert "setup_s" in metrics


@pytest.mark.parametrize("workload", ["serve"])
def test_seed_determines_inputs(workload):
    module = importlib.import_module(harness.WORKLOADS[workload])
    benches = [module.WORKLOAD(seed, "tiny", None) for seed in (1, 1, 2)]
    try:
        first, again, other = (bench.input_digest() for bench in benches)
    finally:
        for bench in benches:
            bench.close()
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["serve"])
def test_one_seed_gives_one_output(workload):
    module = importlib.import_module(harness.WORKLOADS[workload])
    digests = []
    for __ in range(2):
        bench = module.WORKLOAD(5, "tiny", None)
        try:
            bench.round(traced=False)
        finally:
            bench.close()
        digests.append(bench.output_digest())
    assert digests[0] == digests[1] != "-"


def test_serve_asks_every_seed_for_the_same_work():
    module = importlib.import_module(harness.WORKLOADS["serve"])
    step_window, repeats = module.SHAPES["tiny"]
    benches = [module.WORKLOAD(seed, "tiny", None) for seed in (1, 2)]
    for bench in benches:
        bench.close()
    orders = [[(r.tenant, r.step) for r in bench.trace] for bench in benches]
    assert orders[0] != orders[1]
    assert Counter(orders[0]) == Counter(orders[1])
    for order, bench in zip(orders, benches):
        assert Counter(order) == {
            (tenant, step): 1 + repeats for tenant in bench.jobs for step in range(step_window)
        }
        for tenant in bench.jobs:
            steps = [step for name, step in order if name == tenant]
            assert sorted(set(steps), key=steps.index) == list(range(step_window))


def test_campaign_grid_does_not_depend_on_the_seed():
    module = importlib.import_module(harness.WORKLOADS["campaign"])
    first, other = (module.WORKLOAD(seed, "tiny", None) for seed in (1, 2))
    assert first.input_digest() == other.input_digest()


def _span(sid, parent, layer, start, end):
    return tracing.Span(sid, parent, layer, "f", 1, 1, start, end)


def test_layer_self_times_add_up_to_the_traced_wall():
    spans = [
        _span(1, 0, tracing.BENCH, 0.0, 10.0),
        _span(2, 1, "core.solver", 1.0, 6.0),
        _span(3, 2, "core.planner_greedy", 2.0, 3.0),
        _span(4, 2, "core.planner_greedy", 4.0, 5.0),
        _span(5, 1, "simulator", 7.0, 9.0),
        _span(6, 0, "data", 20.0, 21.0),  # outside every bench root
    ]
    rows, wall = tracing.layer_table(spans)
    assert wall == 10.0
    assert rows["core.solver"] == {"self_s": 3.0, "calls": 1}
    assert rows["core.planner_greedy"] == {"self_s": 2.0, "calls": 2}
    assert rows[tracing.BENCH]["self_s"] == 3.0
    assert "data" not in rows
    assert sum(row["self_s"] for row in rows.values()) == wall


def _run(*args, cwd=harness.ROOT):
    return subprocess.run(
        [sys.executable, str(harness.ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_tiny_pass_runs_its_checks(workload, trace):
    result = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert result.returncode == 0, result.stderr
    assert "CHECK FAILED" not in result.stdout
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        return
    stem = harness.OUT_DIR / f"{workload}-seed3"
    events = json.loads(stem.with_suffix(".trace.json").read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert "traced wall" in stem.with_suffix(".layers.txt").read_text()
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode != 0
    assert result.stdout == ""
