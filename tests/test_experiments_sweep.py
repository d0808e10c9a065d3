"""Tests for repro.experiments.sweep: the parallel sweep runner."""

from __future__ import annotations

import pytest

from repro.core.cache_store import CacheStore, context_digest
from repro.core.solver import SolverConfig
from repro.experiments import sweep
from repro.experiments.campaign import build_campaign
from repro.cluster.topology import standard_cluster
from repro.data.distributions import COMMONCRAWL, GITHUB
from repro.experiments.runner import run_system
from repro.experiments.sweep import (
    CellMetrics,
    SweepCell,
    SweepRunner,
    WorkloadContext,
    _ShardScheduler,
    grid_cells,
    workload_signature,
)
from repro.experiments.systems import DeepSpeedUlyssesSystem, build_system
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B

SOLVER = SolverConfig(backend="greedy", num_trials=2)


@pytest.fixture(scope="module")
def workload():
    return Workload(
        model=GPT_7B,
        distribution=GITHUB,
        max_context=32 * 1024,
        cluster=standard_cluster(8),
        global_batch_size=16,
    )


@pytest.fixture(scope="module")
def other_workload():
    return Workload(
        model=GPT_7B,
        distribution=COMMONCRAWL,
        max_context=32 * 1024,
        cluster=standard_cluster(8),
        global_batch_size=16,
    )


class TestSweepCell:
    def test_rejects_unknown_system(self, workload):
        with pytest.raises(ValueError, match="unknown system"):
            SweepCell(system="pytorch", workload=workload)

    def test_rejects_nonpositive_iterations(self, workload):
        with pytest.raises(ValueError, match="num_iterations"):
            SweepCell(system="flexsp", workload=workload, num_iterations=0)

    def test_grid_cells_cross_product(self, workload, other_workload):
        cells = grid_cells(["flexsp", "megatron"], [workload, other_workload])
        assert len(cells) == 4
        assert {(c.system, c.workload.name) for c in cells} == {
            ("flexsp", workload.name),
            ("megatron", workload.name),
            ("flexsp", other_workload.name),
            ("megatron", other_workload.name),
        }


class TestWorkloadSignature:
    def test_equal_workloads_share_signature(self, workload):
        clone = Workload(
            model=GPT_7B,
            distribution=GITHUB,
            max_context=32 * 1024,
            cluster=standard_cluster(8),
            global_batch_size=16,
        )
        assert workload_signature(clone) == workload_signature(workload)

    def test_batch_size_changes_signature(self, workload):
        resized = Workload(
            model=workload.model,
            distribution=workload.distribution,
            max_context=workload.max_context,
            cluster=workload.cluster,
            global_batch_size=workload.global_batch_size * 2,
        )
        assert workload_signature(resized) != workload_signature(workload)


class TestWorkloadContext:
    def test_memoises_cost_model_and_batches(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert context.cost_model is context.cost_model
        assert context.batch(0) is context.batch(0)
        assert context.batch(0).lengths == workload.corpus().batch(0).lengths

    def test_memoises_tuning(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert context.static_degree() == context.static_degree()
        assert context.megatron_strategy() is context.megatron_strategy()

    def test_systems_persist(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert context.system("flexsp") is context.system("flexsp")

    def test_shared_cost_model_across_systems(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert (
            context.system("flexsp").cost_model
            is context.system("deepspeed").cost_model
        )


class _ForgetfulFits(dict):
    """A fit memo that never stores: every context fits for itself."""

    def __setitem__(self, key, value) -> None:
        pass


class TestOneFitPerRunner:
    def _cold_unified(self, monkeypatch, share_fits: bool):
        calls = []
        fit = sweep.fit_cost_model

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(sweep, "fit_cost_model", counting_fit)
        with SweepRunner(solver_config=SOLVER) as runner:
            if not share_fits:
                runner._fits = _ForgetfulFits()
            result = build_campaign("unified").run(runner)
        metrics = [m.deterministic() for m in result.sweep.metrics]
        return len(calls), len(set(calls)), metrics

    def test_one_fit_per_distinct_key(self, monkeypatch):
        fits, distinct, shared = self._cold_unified(monkeypatch, True)
        assert fits == distinct == 7
        unshared_fits, __, unshared = self._cold_unified(monkeypatch, False)
        assert unshared_fits > fits
        assert shared == unshared


class TestSweepRunner:
    def test_matches_direct_run(self, workload):
        cell = SweepCell(system="deepspeed", workload=workload, num_iterations=2)
        result = SweepRunner([cell], solver_config=SOLVER, workers=1).run()
        direct = run_system(DeepSpeedUlyssesSystem(workload), workload, 2)
        metrics = result.metrics[0]
        assert isinstance(metrics, CellMetrics)
        assert metrics.mean_iteration_seconds == direct.mean_iteration_seconds
        assert metrics.mean_comm_fraction == direct.mean_comm_fraction
        assert metrics.tokens_per_second_per_gpu == direct.tokens_per_second_per_gpu(
            workload.cluster.num_gpus
        )

    def test_deduplicates_cells(self, workload):
        cell = SweepCell(system="megatron", workload=workload)
        result = SweepRunner([cell, cell, cell], solver_config=SOLVER, workers=1).run()
        assert result.unique_cells == 1
        assert len(result.metrics) == 3
        assert result.metrics[0] is result.metrics[1] is result.metrics[2]

    def test_all_systems_and_lookup(self, workload):
        cells = grid_cells(
            ["flexsp", "deepspeed", "batchada", "megatron"], [workload]
        )
        result = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        flexsp = result.metric("flexsp", workload.name)
        deepspeed = result.metric("deepspeed", workload.name)
        assert flexsp.mean_iteration_seconds <= deepspeed.mean_iteration_seconds * 1.02
        with pytest.raises(KeyError):
            result.metric("flexsp", "no-such-workload")

    def test_warm_rerun_identical_and_cached(self, workload):
        runner = SweepRunner(
            grid_cells(["flexsp"], [workload], num_iterations=2),
            solver_config=SOLVER,
            workers=1,
        )
        cold = runner.run()
        warm = runner.run()
        for first, second in zip(cold.metrics, warm.metrics):
            assert first.deterministic() == second.deterministic()
        assert warm.metrics[0].plan_cache_hit_rate == 1.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            SweepRunner([], solver_config=SOLVER, workers=1).run()

    def test_run_accepts_explicit_cells(self, workload, other_workload):
        runner = SweepRunner(solver_config=SOLVER, workers=1)
        result = runner.run(grid_cells(["deepspeed"], [other_workload]))
        assert result.metrics[0].workload == other_workload.name

    def test_scalar_and_vectorized_sweeps_identical(self, workload):
        cells = grid_cells(
            ["flexsp", "deepspeed", "batchada", "megatron"], [workload],
            num_iterations=2,
        )
        fast = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        scalar = SweepRunner(
            cells, solver_config=SOLVER, workers=1, vectorized=False
        ).run()
        for fast_metrics, scalar_metrics in zip(fast.metrics, scalar.metrics):
            assert fast_metrics.deterministic() == scalar_metrics.deterministic()

    def test_parallel_matches_serial(self, workload, other_workload):
        cells = grid_cells(
            ["deepspeed", "megatron"], [workload, other_workload]
        )
        serial = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        with SweepRunner(cells, solver_config=SOLVER, workers=2) as parallel:
            fanned = parallel.run()
            assert parallel._slots and parallel._slots[0] is not None
            first_slots = list(parallel._slots)
            again = parallel.run()  # slot pools persist across sweeps
            assert list(parallel._slots) == first_slots
        for a, b in zip(serial.metrics, fanned.metrics):
            assert a.deterministic() == b.deterministic()
        for a, b in zip(serial.metrics, again.metrics):
            assert a.deterministic() == b.deterministic()

    def test_build_system_still_standalone(self, workload):
        # The injection hooks must not break plain construction.
        system = build_system("deepspeed", workload)
        outcome = system.run_iteration(workload.corpus().batch(0).lengths)
        assert outcome.iteration_seconds > 0


class TestColdBatching:
    """Campaign-level cold batching (the serial prewarm pass)."""

    def _cells(self, workload):
        base = SweepCell(
            system="flexsp", workload=workload, num_iterations=2
        )
        no_sort = SweepCell(
            system="flexsp",
            workload=workload,
            num_iterations=2,
            variant=(("sort_sequences", False),),
        )
        return [base, no_sort]

    def test_prewarmed_pass_bit_identical_to_unprewarmed(self, workload):
        cells = self._cells(workload)
        warmed = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        plain = SweepRunner(
            cells, solver_config=SOLVER, workers=1, prewarm=False
        ).run()
        for a, b in zip(warmed.metrics, plain.metrics):
            assert a.deterministic() == b.deterministic()
        assert plain.prewarm_planned == 0
        assert warmed.prewarm_planned > 0
        assert warmed.prewarm_seconds > 0.0

    def test_prewarmed_cells_replay_from_cache(self, workload):
        cells = self._cells(workload)
        result = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        for metrics in result.metrics:
            assert metrics.plan_cache_hit_rate == 1.0

    def test_prewarm_dedups_across_shared_planning_contexts(self, workload):
        """The sort ablation changes blasting but not per-shape
        planning, so its solver shares the base cell's planning
        context — the prewarmer must plan the union once and seed
        both caches."""
        cells = self._cells(workload)
        runner = SweepRunner(cells, solver_config=SOLVER, workers=1)
        result = runner.run()
        context = runner.context(workload)
        solvers = [
            context.system("flexsp", cell.variant).solver for cell in cells
        ]
        assert solvers[0].context == solvers[1].context
        assert len(solvers[0].cache) > 0
        assert len(solvers[1].cache) > 0
        union = {
            key[0]
            for solver in solvers
            for key, __ in solver.cache.snapshot()
        }
        assert result.prewarm_planned == len(union)

    def _bucketing_cells(self, workload):
        return [
            SweepCell(
                system="flexsp",
                workload=workload,
                num_iterations=2,
                variant=variant,
            )
            for variant in (
                (),
                (("bucketing", "naive"),),
                (("bucketing", "none"),),
            )
        ]

    def test_bucketing_variants_share_one_greedy_planning_key(
        self, workload
    ):
        """The greedy planner ignores the planner config, so the three
        bucketing contexts plan each shape once between them; each
        solver is still seeded with its own context's shapes only."""
        cells = self._bucketing_cells(workload)
        runner = SweepRunner(cells, solver_config=SOLVER, workers=1)
        result = runner.run()
        context = runner.context(workload)
        solvers = [
            context.system("flexsp", cell.variant).solver for cell in cells
        ]
        assert len({solver.context for solver in solvers}) == 3
        assert len({solver.planning_key for solver in solvers}) == 1
        own = [
            {key[0] for key, __ in solver.cache.snapshot()}
            for solver in solvers
        ]
        assert result.prewarm_planned == len(set().union(*own))
        plain = SweepRunner(
            cells, solver_config=SOLVER, workers=1, prewarm=False
        )
        plain.run()
        plain_context = plain.context(workload)
        for cell, shapes in zip(cells, own):
            solver = plain_context.system("flexsp", cell.variant).solver
            assert {key[0] for key, __ in solver.cache.snapshot()} == shapes

    def test_milp_bucketing_contexts_plan_separately(
        self, workload, monkeypatch
    ):
        """The MILP planner reads the bucketing config: each context
        plans its own shapes, shared or not."""
        from repro.core import solver as solver_module
        from repro.core.planner_greedy import plan_microbatch_greedy

        calls = []

        def recording_planner(shape, model, config):
            calls.append((tuple(sorted(shape)), config.bucketing))
            return plan_microbatch_greedy(shape, model, config)

        monkeypatch.setitem(solver_module._BACKENDS, "milp", recording_planner)
        config = SolverConfig(backend="milp", num_trials=2)
        cells = self._bucketing_cells(workload)
        runner = SweepRunner(cells, solver_config=config, workers=1)
        result = runner.run()
        context = runner.context(workload)
        solvers = [
            context.system("flexsp", cell.variant).solver for cell in cells
        ]
        assert len({solver.planning_key for solver in solvers}) == 3
        per_context = sum(len(solver.cache) for solver in solvers)
        assert result.prewarm_planned == per_context == len(calls)
        assert len(set(calls)) == len(calls)
        assert {bucketing for __, bucketing in calls} == {
            "optimal", "naive", "none"
        }

    def test_prewarm_stage_breakdown_recorded(self, workload):
        cells = self._cells(workload)
        warmed = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        stages = dict(warmed.prewarm_stage_seconds)
        assert stages.get("lpt", 0.0) > 0.0
        # Unprewarmed cells carry the breakdown on the cell instead.
        plain = SweepRunner(
            cells, solver_config=SOLVER, workers=1, prewarm=False
        ).run()
        cell_stages = dict(plain.metrics[0].stage_seconds)
        assert cell_stages.get("lpt", 0.0) > 0.0

    def test_prewarm_skips_disabled_plan_caches(self, workload):
        config = SolverConfig(
            backend="greedy", num_trials=2, plan_cache=False
        )
        cells = [SweepCell(system="flexsp", workload=workload)]
        result = SweepRunner(cells, solver_config=config, workers=1).run()
        assert result.prewarm_planned == 0
        assert result.metrics[0].feasible


class TestSpillBatching:
    """Batched per-worker spills: fewer store writes, identical state."""

    def _cells(self, workload, other_workload):
        return grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload],
            num_iterations=2,
        )

    def test_rejects_negative_spill_batch(self):
        with pytest.raises(ValueError, match="spill_batch"):
            SweepRunner(solver_config=SOLVER, workers=1, spill_batch=-1)

    def test_batched_drain_writes_less_than_per_cell_spills(
        self, workload, other_workload, tmp_path
    ):
        cells = self._cells(workload, other_workload)
        per_cell = SweepRunner(
            cells, solver_config=SOLVER, workers=1,
            store=tmp_path / "per_cell", spill_batch=1,
        ).run()
        batched = SweepRunner(
            cells, solver_config=SOLVER, workers=1,
            store=tmp_path / "batched", spill_batch=0,
        ).run()
        # Same measurements at every cadence...
        for a, b in zip(per_cell.metrics, batched.metrics):
            assert a.deterministic() == b.deterministic()
        # ...but the drain cadence merge-saves once per dirty workload
        # instead of once per state-changing cell.
        assert batched.store_stats.writes < per_cell.store_stats.writes
        assert batched.store_stats.writes == 2  # one per workload

    def test_per_cell_write_attribution_sums_to_the_total(
        self, workload, other_workload, tmp_path
    ):
        cells = self._cells(workload, other_workload)
        result = SweepRunner(
            cells, solver_config=SOLVER, workers=1,
            store=tmp_path, spill_batch=1,
        ).run()
        assert (
            sum(m.store_writes for m in result.metrics)
            == result.store_stats.writes
        )

    def test_batched_store_restores_bit_identically(
        self, workload, other_workload, tmp_path
    ):
        cells = self._cells(workload, other_workload)
        cold = SweepRunner(
            cells, solver_config=SOLVER, workers=1, store=tmp_path
        ).run()
        restored = SweepRunner(
            cells, solver_config=SOLVER, workers=1, store=tmp_path
        ).run()
        for a, b in zip(cold.metrics, restored.metrics):
            assert a.deterministic() == b.deterministic()
        assert restored.metric("flexsp", workload.name).plan_cache_hit_rate == 1.0
        # A fully warm pass learns nothing and rewrites nothing.
        assert restored.store_stats.writes == 0
        assert restored.store_stats.hits == 2

    def test_parallel_batched_spills_drain_to_the_store(
        self, workload, other_workload, tmp_path
    ):
        cells = self._cells(workload, other_workload)
        with SweepRunner(
            cells, solver_config=SOLVER, workers=2, store=tmp_path
        ) as fanned:
            first = fanned.run()
            # Drain collection is best-effort per worker (the pool does
            # not guarantee one flush task lands on each), so only the
            # stats' presence is asserted here; exact write counts are
            # pinned by the deterministic serial tests above.
            assert first.store_stats is not None
        # After close() — the hard durability point (drain + worker
        # exit flush) — a fresh serial runner restores everything the
        # workers measured: warm and bit-identical.
        restored = SweepRunner(
            cells, solver_config=SOLVER, workers=1, store=tmp_path
        ).run()
        for a, b in zip(first.metrics, restored.metrics):
            assert a.deterministic() == b.deterministic()
        assert restored.metric("flexsp", workload.name).plan_cache_hit_rate == 1.0

    def test_no_store_reports_no_stats(self, workload):
        result = SweepRunner(
            grid_cells(["deepspeed"], [workload]),
            solver_config=SOLVER,
            workers=1,
        ).run()
        assert result.store_stats is None
        assert result.metrics[0].store_writes == 0


class TestShardScheduler:
    """The work-stealing dispatch policy, in isolation."""

    def test_rejects_nonpositive_slots(self, workload):
        with pytest.raises(ValueError, match="slots"):
            _ShardScheduler(grid_cells(["flexsp"], [workload]), 0)

    def test_groups_cells_into_one_shard_per_workload(
        self, workload, other_workload
    ):
        cells = grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload]
        )
        scheduler = _ShardScheduler(cells, slots=2)
        assert scheduler.shard_count == 2
        assert scheduler.remaining() == 4

    def test_lpt_assigns_heaviest_shard_to_least_loaded_slot(
        self, workload, other_workload
    ):
        # Shard 0 (workload, 3 cells) outweighs shard 1 (other, 1 cell).
        cells = grid_cells(["flexsp", "deepspeed", "megatron"], [workload])
        cells += grid_cells(["flexsp"], [other_workload])
        scheduler = _ShardScheduler(cells, slots=2)
        assert scheduler.owners == [[0], [1]]

    def test_own_shard_is_served_in_request_order(self, workload):
        cells = grid_cells(["flexsp", "deepspeed", "megatron"], [workload])
        scheduler = _ShardScheduler(cells, slots=1)
        served = [scheduler.next_cell(0) for _ in cells]
        assert served == [(cell, False) for cell in cells]
        assert scheduler.next_cell(0) is None

    def test_idle_slot_steals_from_the_tail_of_the_heaviest_shard(
        self, workload, other_workload
    ):
        cells = grid_cells(["flexsp", "deepspeed", "megatron"], [workload])
        cells += grid_cells(["flexsp"], [other_workload])
        scheduler = _ShardScheduler(cells, slots=2)
        assert scheduler.next_cell(1) == (cells[3], False)  # own shard
        # Slot 1's shard is dry: it steals the *last* cell of slot 0's
        # shard — the owner keeps eating from the head.
        assert scheduler.next_cell(1) == (cells[2], True)
        assert scheduler.next_cell(0) == (cells[0], False)

    def test_single_workload_forces_steals(self, workload):
        cells = grid_cells(["flexsp", "deepspeed"], [workload])
        scheduler = _ShardScheduler(cells, slots=2)
        assert scheduler.owners == [[0], []]
        cell, stolen = scheduler.next_cell(1)
        assert stolen
        assert cell == cells[-1]


class TestSchedulerProperty:
    """Property: any polling order serves every cell exactly once."""

    def test_property_every_cell_served_exactly_once(
        self, workload, other_workload
    ):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        workloads = [workload, other_workload]
        systems = ["flexsp", "deepspeed", "megatron"]

        @given(
            picks=st.lists(
                st.tuples(
                    st.integers(0, len(workloads) - 1),
                    st.integers(0, len(systems) - 1),
                ),
                min_size=1,
                max_size=12,
            ),
            slots=st.integers(1, 4),
            data=st.data(),
        )
        @settings(max_examples=60, deadline=None)
        def check(picks, slots, data):
            cells = [
                SweepCell(system=systems[s], workload=workloads[w])
                for w, s in picks
            ]
            scheduler = _ShardScheduler(cells, slots)
            served = []
            while scheduler.remaining():
                slot = data.draw(st.integers(0, slots - 1))
                nxt = scheduler.next_cell(slot)
                if nxt is not None:
                    served.append(nxt[0])
            assert len(served) == len(cells)
            assert sorted(map(id, served)) == sorted(map(id, cells))
            assert all(
                scheduler.next_cell(slot) is None for slot in range(slots)
            )

        check()


class TestScaleOut:
    """The sharded fan-out path: bit-identity, prewarm, telemetry."""

    def test_forced_steal_stays_bit_identical(self, workload):
        # One workload, two slots: slot 1 owns nothing, so every cell
        # it runs is a steal — the adversarial case for the identity
        # contract (a stolen cell runs against a duplicate context).
        cells = grid_cells(
            ["flexsp", "deepspeed", "megatron"], [workload],
            num_iterations=2,
        )
        serial = SweepRunner(cells, solver_config=SOLVER, workers=1).run()
        with SweepRunner(
            cells, solver_config=SOLVER, workers=2
        ) as runner:
            parallel = runner.run()
        for a, b in zip(serial.metrics, parallel.metrics):
            assert a.deterministic() == b.deterministic()
        assert sum(t.steals for t in parallel.worker_telemetry) >= 1
        assert sum(t.cells for t in parallel.worker_telemetry) == len(cells)

    def test_context_builds_bounded_by_workloads_plus_steals(
        self, workload, other_workload
    ):
        cells = grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload]
        )
        with SweepRunner(
            cells, solver_config=SOLVER, workers=2
        ) as runner:
            result = runner.run()
        telemetry = result.worker_telemetry
        assert len(telemetry) == 2
        builds = sum(t.context_builds for t in telemetry)
        steals = sum(t.steals for t in telemetry)
        assert builds <= 2 + steals  # unique workloads + duplicates paid
        assert all(t.pid != 0 for t in telemetry)

    def test_parallel_prewarm_plans_cold_flexsp_cells(self, workload):
        # The workers>1 prewarm restriction is gone: a cold parallel
        # pass batch-plans up front and ships the state to the slots,
        # so the workers' solve phase runs fully warm.
        cells = grid_cells(["flexsp"], [workload], num_iterations=2)
        with SweepRunner(
            cells, solver_config=SOLVER, workers=2
        ) as runner:
            result = runner.run()
        assert result.prewarm_planned > 0
        assert result.metrics[0].plan_cache_hit_rate == 1.0

    def test_parallel_prewarm_seeds_through_the_store(
        self, workload, tmp_path
    ):
        cells = grid_cells(["flexsp"], [workload], num_iterations=2)
        serial = SweepRunner(
            cells, solver_config=SOLVER, workers=1
        ).run()
        with SweepRunner(
            cells, solver_config=SOLVER, workers=2, store=tmp_path
        ) as runner:
            parallel = runner.run()
        assert parallel.prewarm_planned > 0
        assert parallel.metrics[0].plan_cache_hit_rate == 1.0
        for a, b in zip(serial.metrics, parallel.metrics):
            assert a.deterministic() == b.deterministic()

    def test_serial_pass_reports_one_telemetry_row(self, workload):
        import os

        runner = SweepRunner(
            grid_cells(["deepspeed"], [workload]),
            solver_config=SOLVER,
            workers=1,
        )
        first = runner.run()
        assert len(first.worker_telemetry) == 1
        row = first.worker_telemetry[0]
        assert row.pid == os.getpid()
        assert row.cells == 1
        assert row.context_builds == 1
        assert row.steals == 0
        # Telemetry is per-pass: a warm rerun builds no new context.
        again = runner.run()
        assert again.worker_telemetry[0].context_builds == 0

    def test_rebaseline_prevents_double_counted_retry_writes(
        self, workload, tmp_path
    ):
        # Satellite: the broken-pool retry re-anchors the counter
        # baseline, so writes the failed attempt already performed are
        # attributed to no pass — the retry's delta stays honest.
        runner = SweepRunner(
            grid_cells(["deepspeed"], [workload]),
            solver_config=SOLVER,
            workers=1,
            store=tmp_path,
        )
        first = runner.run()
        assert first.store_stats.writes > 0
        runner._rebaseline_counters()
        assert runner._counters_attributed == runner._counter_totals()
        # Everything counted so far is attributed: the next delta is 0.
        assert runner._store_stats_delta().writes == 0


class TestFaultRecovery:
    """Graduated recovery under the deterministic fault plane: every
    schedule must yield metrics bit-identical to the fault-free serial
    pass, with the recovery accounted in ``SweepResult.fault_stats``
    and no worker pool left behind."""

    def _serial(self, cells):
        return SweepRunner(cells, solver_config=SOLVER, workers=1).run()

    def test_no_faults_means_no_fault_stats(self, workload):
        result = self._serial(grid_cells(["deepspeed"], [workload]))
        assert result.fault_stats is None

    def test_worker_kill_recovers_bit_identical(
        self, workload, other_workload
    ):
        from repro.core.faults import FaultSchedule
        from repro.core.pools import live_pool_count

        cells = grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload]
        )
        serial = self._serial(cells)
        baseline_pools = live_pool_count()
        schedule = FaultSchedule.parse("worker_kill@cell:0")
        with SweepRunner(
            cells,
            solver_config=SOLVER,
            workers=2,
            fault_schedule=schedule,
        ) as runner:
            chaotic = runner.run()
        stats = chaotic.fault_stats
        assert stats is not None
        assert dict(stats.injections) == {"worker_kill@cell": 1}
        assert stats.cell_retries >= 1
        assert stats.pool_restarts >= 1
        for a, b in zip(serial.metrics, chaotic.metrics):
            assert a.deterministic() == b.deterministic()
        assert live_pool_count() == baseline_pools

    def test_repeated_death_degrades_to_serial_bit_identical(
        self, workload
    ):
        from repro.core.faults import FaultSchedule
        from repro.core.pools import live_pool_count

        cells = grid_cells(
            ["flexsp", "deepspeed", "megatron"], [workload]
        )
        serial = self._serial(cells)
        baseline_pools = live_pool_count()
        schedule = FaultSchedule.parse("worker_kill@cell:*")
        with SweepRunner(
            cells,
            solver_config=SOLVER,
            workers=2,
            fault_schedule=schedule,
            max_slot_restarts=0,
        ) as runner:
            chaotic = runner.run()
        stats = chaotic.fault_stats
        assert stats is not None
        assert stats.total_injections >= 1
        # Every slot retires after its first death; everything left
        # drains on the final serial rung.
        assert stats.degraded_cells >= 1
        for a, b in zip(serial.metrics, chaotic.metrics):
            assert a.deterministic() == b.deterministic()
        assert live_pool_count() == baseline_pools

    def test_watchdog_kills_hung_cell_and_recovers(self, workload):
        import time

        from repro.core.faults import FaultSchedule

        cells = grid_cells(["deepspeed", "megatron"], [workload])
        serial = self._serial(cells)
        schedule = FaultSchedule.parse("hang@cell:0", hang_seconds=30.0)
        started = time.perf_counter()
        with SweepRunner(
            cells,
            solver_config=SOLVER,
            workers=2,
            fault_schedule=schedule,
            watchdog_seconds=1.5,
        ) as runner:
            chaotic = runner.run()
        wall = time.perf_counter() - started
        assert wall < schedule.hang_seconds / 2  # watchdog, not the nap
        stats = chaotic.fault_stats
        assert stats is not None
        assert stats.watchdog_kills == 1
        for a, b in zip(serial.metrics, chaotic.metrics):
            assert a.deterministic() == b.deterministic()

    def test_broken_pass_retry_keeps_completed_cells(
        self, workload, monkeypatch
    ):
        # Satellite: the whole-pass BrokenProcessPool retry used to
        # recompute every cell; now the retry sees prior completions
        # in ``results`` and recomputes only what is missing.
        from concurrent.futures.process import BrokenProcessPool

        cells = grid_cells(
            ["flexsp", "deepspeed", "megatron"], [workload]
        )
        serial = self._serial(cells)
        runner = SweepRunner(cells, solver_config=SOLVER, workers=2)
        original = SweepRunner._run_sharded
        attempts = []

        def flaky(self, cells_arg, preseed, results, ran, steals, recovery):
            todo = [c for c in cells_arg if c not in results]
            attempts.append(list(todo))
            if len(attempts) == 1:
                # Finish two cells, then die catastrophically.
                for cell in todo[:2]:
                    results[cell] = self._run_cell_inprocess(cell)
                raise BrokenProcessPool("injected pass failure")
            return original(
                self, cells_arg, preseed, results, ran, steals, recovery
            )

        monkeypatch.setattr(SweepRunner, "_run_sharded", flaky)
        with runner:
            result = runner.run()
        assert len(attempts) == 2
        assert set(attempts[1]) == set(cells) - set(attempts[0][:2])
        for a, b in zip(serial.metrics, result.metrics):
            assert a.deterministic() == b.deterministic()


class TestWorkersDefaults:
    """Regression: ``SweepRunner(workers=None)`` used to mean
    ``os.cpu_count()`` while the CLI's ``--workers`` defaulted to 1 —
    a library caller could fan out by accident.  The library now
    matches the CLI: None = serial, 0 = every CPU."""

    def test_workers_none_means_serial(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert SweepRunner().workers == 1
        assert SweepRunner(workers=None).workers == 1

    def test_workers_zero_means_all_cpus(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert SweepRunner(workers=0).workers == 8
        assert SweepRunner(workers=0, solver_workers=0).solver_workers == 8

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=-1)
        with pytest.raises(ValueError, match="solver_workers"):
            SweepRunner(solver_workers=-2)

    def test_solver_workers_none_still_adopts_config(self):
        config = SolverConfig(workers=3)
        assert SweepRunner(solver_config=config).solver_workers == 3
        assert SweepRunner().solver_workers == 1


class TestPrewarmDedupUnifiedGrid:
    """On the unified artefact grid the greedy backend's Fig. 7
    bucketing contexts share one planning key: the prewarm pass solves
    32 distinct problems where the per-context count is 38, and leaves
    the same caches, metrics and store entries as a pass that plans
    every cell itself.

    Prewarm seeds every solver with its cache context's whole shape
    set, and solvers of one context also sit in other workloads (equal
    model and cluster) or variants (the sort ablation) that plan into
    their own caches without prewarm; so the unprewarmed pass is
    compared per cache context."""

    @staticmethod
    def _entries(runner, store_root):
        """Per cache context: every solver's entries, the union of
        them, and the union of the store entries the context's
        workloads hold under its digest."""
        store = CacheStore(store_root)
        solvers, caches, stored = [], {}, {}
        for signature, context in runner._contexts.items():
            state = store.load(signature)
            for system in context._systems.values():
                solver = getattr(system, "solver", None)
                if solver is None:
                    continue
                entries = {
                    key[0]: entry for key, entry in solver.cache.snapshot()
                }
                solvers.append((solver.context, entries))
                caches.setdefault(solver.context, {}).update(entries)
                digest = context_digest(
                    solver.config.planner, solver.config.backend
                )
                stored.setdefault(solver.context, {}).update(
                    {entry[0]: entry for entry in state.plans[digest]}
                )
        return solvers, caches, stored

    def test_unified_prewarm_plans_each_problem_once(self, tmp_path):
        cells = build_campaign("unified").cells
        warmed = SweepRunner(
            cells, solver_config=SOLVER, workers=1, store=tmp_path / "warmed"
        )
        plain = SweepRunner(
            cells,
            solver_config=SOLVER,
            workers=1,
            prewarm=False,
            store=tmp_path / "plain",
        )
        with warmed, plain:
            warmed_result = warmed.run()
            plain_result = plain.run()
        solvers, caches, stored = self._entries(warmed, tmp_path / "warmed")
        __, plain_caches, plain_stored = self._entries(
            plain, tmp_path / "plain"
        )
        assert sum(len(entries) for entries in caches.values()) == 38
        assert warmed_result.prewarm_planned == 32
        assert plain_result.prewarm_planned == 0
        assert caches == plain_caches
        for context, entries in solvers:
            assert entries == caches[context]
        for a, b in zip(warmed_result.metrics, plain_result.metrics):
            assert a.deterministic() == b.deterministic()
        assert stored == plain_stored
        for context, entries in stored.items():
            assert entries.keys() == caches[context].keys()
