"""Fig. 4: end-to-end iteration time across the evaluation grid.

Paper protocol: {GPT-7B, 13B, 30B} x {GitHub, CommonCrawl, Wikipedia}
x {192K, 384K} on 64 GPUs, global batch 512 sequences, average
iteration seconds per system.

Expected shape: FlexSP fastest everywhere (paper: up to 1.72x over
DeepSpeed, 1.98x over Megatron-LM); FlexSP-BatchAda lands between
DeepSpeed and FlexSP; the FlexSP speedup is largest on Wikipedia (the
most skewed corpus) and smallest on GitHub; Megatron-LM generally
trails DeepSpeed (Appendix D).

Benchmark protocol here: reduced global batch (128) and one measured
iteration per cell unless REPRO_BENCH_FULL=1 — see conftest.
"""

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_system
from repro.experiments.systems import (
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    MegatronLMSystem,
)
from repro.experiments.workloads import fig4_workloads


def _run_cell(workload, solver_config, iterations, cache):
    key = ("fig4", workload.name)
    if key not in cache:
        systems = [
            FlexSPSystem(workload, solver_config),
            DeepSpeedUlyssesSystem(workload),
            FlexSPBatchAdaSystem(workload),
            MegatronLMSystem(workload),
        ]
        cache[key] = {
            s.name: run_system(s, workload, iterations) for s in systems
        }
    return cache[key]


@pytest.fixture(scope="module")
def grid(bench_batch_size):
    return fig4_workloads(global_batch_size=bench_batch_size)


def test_fig4_end_to_end_grid(
    benchmark, emit, grid, bench_solver_config, bench_iterations, system_cache
):
    def run():
        rows = []
        results = {}
        for workload in grid:
            cell = _run_cell(
                workload, bench_solver_config, bench_iterations, system_cache
            )
            results[workload.name] = cell
            flexsp = cell["FlexSP"].mean_iteration_seconds
            deepspeed = cell["DeepSpeed"].mean_iteration_seconds
            batchada = cell["FlexSP-BatchAda"].mean_iteration_seconds
            megatron = cell["Megatron-LM"].mean_iteration_seconds
            rows.append(
                [
                    workload.name,
                    f"{flexsp:.1f}",
                    f"{batchada:.1f}",
                    f"{deepspeed:.1f}",
                    f"{megatron:.1f}",
                    f"{deepspeed / flexsp:.2f}x",
                    f"{megatron / flexsp:.2f}x",
                ]
            )
        return rows, results

    rows, results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            [
                "workload",
                "FlexSP (s)",
                "BatchAda (s)",
                "DeepSpeed (s)",
                "Megatron (s)",
                "vs DS",
                "vs MLM",
            ],
            rows,
            title="Fig. 4: end-to-end iteration time, 64 GPUs "
            "(reduced batch; see README.md, Benchmarks and campaigns)",
        )
    )

    speedups_vs_ds = {}
    for name, cell in results.items():
        flexsp = cell["FlexSP"].mean_iteration_seconds
        # FlexSP never loses to any baseline.
        assert flexsp <= cell["DeepSpeed"].mean_iteration_seconds * 1.02, name
        assert flexsp <= cell["FlexSP-BatchAda"].mean_iteration_seconds * 1.02, name
        assert flexsp <= cell["Megatron-LM"].mean_iteration_seconds * 1.02, name
        # BatchAda sits between FlexSP and DeepSpeed.
        assert (
            cell["FlexSP-BatchAda"].mean_iteration_seconds
            <= cell["DeepSpeed"].mean_iteration_seconds * 1.02
        ), name
        speedups_vs_ds[name] = (
            cell["DeepSpeed"].mean_iteration_seconds / flexsp
        )

    # A real speedup exists somewhere in the grid (paper: up to 1.72x).
    assert max(speedups_vs_ds.values()) > 1.15

    # Skew ordering at 384K on GPT-7B: Wikipedia >= GitHub.
    wiki = speedups_vs_ds["gpt-7b/wikipedia/384K/64gpu"]
    github = speedups_vs_ds["gpt-7b/github/384K/64gpu"]
    assert wiki >= github * 0.95
