"""Tests for repro.experiments.systems: the unified system wrappers.

Uses a small 16-GPU, 32K-context, batch-32 workload so every system
runs in well under a second of host time per iteration.
"""

import pytest

from repro.core.planner import PlannerConfig
from repro.core.solver import SolverConfig
from repro.data.distributions import COMMONCRAWL
from repro.experiments.systems import (
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    MegatronLMSystem,
    build_system,
)
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B


@pytest.fixture(scope="module")
def small_workload(cluster16):
    return Workload(
        model=GPT_7B,
        distribution=COMMONCRAWL,
        max_context=32 * 1024,
        cluster=cluster16,
        global_batch_size=32,
    )


@pytest.fixture(scope="module")
def fast_solver_config():
    return SolverConfig(
        num_trials=2, planner=PlannerConfig(time_limit=0.5, mip_rel_gap=0.05)
    )


@pytest.fixture(scope="module")
def batch(small_workload):
    return small_workload.corpus().batch(0).lengths


class TestFlexSPSystem:
    def test_outcome_fields(self, small_workload, fast_solver_config, batch):
        system = FlexSPSystem(small_workload, fast_solver_config)
        outcome = system.run_iteration(batch)
        assert outcome.iteration_seconds > 0
        assert outcome.solve_seconds > 0
        assert outcome.num_microbatches >= 1
        assert outcome.plan is not None

    def test_plan_covers_batch(self, small_workload, fast_solver_config, batch):
        system = FlexSPSystem(small_workload, fast_solver_config)
        plan, __ = system.plan(batch)
        planned = sorted(
            s for mb in plan.microbatches for g in mb.groups for s in g.lengths
        )
        assert planned == sorted(batch)


class TestDeepSpeedSystem:
    def test_static_degree_covers_worst_case(self, small_workload, batch):
        system = DeepSpeedUlyssesSystem(small_workload)
        assert system.cost_model.fits([small_workload.max_context], system.sp_degree)

    def test_explicit_degree_respected(self, small_workload, batch):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=16)
        outcome = system.run_iteration(batch)
        assert outcome.iteration_seconds > 0
        for mb in outcome.plan.microbatches:
            assert all(g.degree == 16 for g in mb.groups)

    def test_no_solve_overhead(self, small_workload, batch):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=16)
        assert system.run_iteration(batch).solve_seconds == 0.0


class TestBatchAdaSystem:
    def test_homogeneous_within_batch(self, small_workload, batch):
        system = FlexSPBatchAdaSystem(small_workload)
        outcome = system.run_iteration(batch)
        degrees = {
            g.degree for mb in outcome.plan.microbatches for g in mb.groups
        }
        assert len(degrees) == 1


class TestMegatronSystem:
    def test_outcome_has_no_alltoall(self, small_workload, batch):
        system = MegatronLMSystem(small_workload)
        outcome = system.run_iteration(batch)
        assert outcome.alltoall_seconds == 0.0
        assert outcome.comm_seconds > 0

    def test_explicit_strategy_respected(self, small_workload, batch):
        from repro.baselines.megatron import MegatronStrategy

        strategy = MegatronStrategy(tp=8, cp=2, dp=1)
        system = MegatronLMSystem(small_workload, strategy=strategy)
        assert system.strategy is strategy
        assert system.run_iteration(batch).iteration_seconds > 0


class TestBaselineOutcomeMemo:
    @pytest.mark.parametrize("name", ["deepspeed", "batchada", "megatron"])
    def test_repeated_batch_replays_first_outcome(
        self, small_workload, batch, name, monkeypatch
    ):
        system = build_system(name, small_workload)
        first = system.run_iteration(batch)
        monkeypatch.setattr(
            system, "_simulate", lambda lengths: pytest.fail("re-simulated")
        )
        assert system.run_iteration(list(batch)) is first
        fresh = build_system(name, small_workload).run_iteration(batch)
        assert fresh.iteration_seconds == first.iteration_seconds
        assert fresh.comm_seconds == first.comm_seconds


class TestBuildSystem:
    def test_builds_all_known(self, small_workload, fast_solver_config):
        flexsp = build_system(
            "flexsp", small_workload, solver_config=fast_solver_config
        )
        assert flexsp.name == "FlexSP"
        assert build_system("deepspeed", small_workload).name == "DeepSpeed"
        assert build_system("batchada", small_workload).name == "FlexSP-BatchAda"
        assert build_system("megatron", small_workload).name == "Megatron-LM"

    def test_rejects_unknown(self, small_workload):
        with pytest.raises(ValueError, match="unknown system"):
            build_system("pytorch", small_workload)
