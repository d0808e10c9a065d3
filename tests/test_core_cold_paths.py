"""Degenerate cold-input coverage for the planning engine.

The cold-path machinery (dominance-pruned layout stacks, stacked LPT,
MILP skeleton reuse, incumbent cutoffs) must behave on the corners the
throughput benchmarks never visit: single-sequence micro-batches,
all-equal-length batches, and corpora whose longest sequence forces
``d_big == num_gpus`` — a one-layout family of a single full-cluster
group — through both planner backends and the full solver loop.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster.topology import standard_cluster
from repro.core import kernels
from repro.core import planner_greedy as planner_greedy_module
from repro.core.blaster import balanced_cut_points_multi
from repro.core.bucketing import optimal_buckets
from repro.core.planner import PlannerConfig, plan_microbatch
from repro.core.planner_greedy import (
    LayoutStack,
    _assign_lpt_scalar,
    _assign_lpt_stacked,
    _layout_stack,
    calibrate_vector_threshold,
    candidate_layouts,
    plan_microbatch_greedy,
)
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.model import cost_table
from repro.cost.profiler import fit_cost_model
from repro.model.config import GPT_7B

MILP_CFG = PlannerConfig(time_limit=2.0, mip_rel_gap=0.05)

BACKENDS = (
    ("greedy", plan_microbatch_greedy, None),
    ("milp", plan_microbatch, MILP_CFG),
)


def _covers(plan, lengths):
    assigned = sorted(s for g in plan.groups for s in g.lengths)
    assert assigned == sorted(lengths)


class TestSingleSequence:
    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_single_short_sequence(self, cost_model8, name, planner, cfg):
        plan, predicted = planner((2048,), cost_model8, cfg)
        _covers(plan, (2048,))
        assert len(plan.groups) == 1
        assert predicted > 0

    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_single_sequence_solver_batch(
        self, cost_model8, name, planner, cfg
    ):
        solver = FlexSPSolver(
            cost_model8,
            SolverConfig(num_trials=2, backend=name, planner=cfg or MILP_CFG),
        )
        result = solver.solve((2048,))
        assert result.num_microbatches == 1
        assert result.tokens == 2048


class TestAllEqualLengths:
    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_equal_lengths_plan(self, cost_model8, name, planner, cfg):
        lengths = (4096,) * 8
        plan, predicted = planner(lengths, cost_model8, cfg)
        _covers(plan, lengths)
        assert predicted > 0

    def test_equal_lengths_solver_both_backends_cover(self, cost_model8):
        lengths = (4096,) * 24
        outcomes = {}
        for backend in ("greedy", "milp"):
            solver = FlexSPSolver(
                cost_model8,
                SolverConfig(
                    num_trials=2, backend=backend, planner=MILP_CFG
                ),
            )
            result = solver.solve(lengths)
            assert result.tokens == sum(lengths)
            outcomes[backend] = result.predicted_time
        # The MILP (with its greedy incumbent) never predicts slower.
        assert outcomes["milp"] <= outcomes["greedy"] * 1.001


class TestFullClusterDBig:
    """Longest sequence only fits at SP = num_gpus: the candidate
    family degenerates to the single one-group layout ``(N,)``."""

    def _long_sequence(self, model):
        per_device = model.max_tokens_per_device()
        longest = int(per_device * (model.cluster.num_gpus - 1))
        assert model.min_degree_for_sequence(longest) == model.cluster.num_gpus
        return longest

    def test_one_group_layout_family(self, cost_model8):
        longest = self._long_sequence(cost_model8)
        layouts = candidate_layouts(cost_model8, longest)
        assert layouts == [(cost_model8.cluster.num_gpus,)]
        stack = _layout_stack(cost_model8, longest)
        assert stack.lanes.tolist() == [1]

    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_planners_produce_one_group(self, cost_model8, name, planner, cfg):
        longest = self._long_sequence(cost_model8)
        lengths = (longest, 1024, 1024)
        plan, predicted = planner(lengths, cost_model8, cfg)
        _covers(plan, lengths)
        assert predicted > 0
        # The long sequence's group must span the whole cluster.
        long_group = next(g for g in plan.groups if longest in g.lengths)
        assert long_group.degree == cost_model8.cluster.num_gpus

    @pytest.mark.parametrize("backend", ["greedy", "milp"])
    def test_solver_handles_forced_full_cluster(self, cost_model8, backend):
        longest = self._long_sequence(cost_model8)
        batch = (longest, 2048, 2048, 1024)
        solver = FlexSPSolver(
            cost_model8,
            SolverConfig(num_trials=2, backend=backend, planner=MILP_CFG),
        )
        result = solver.solve(batch)
        assert result.tokens == sum(batch)
        # The greedy stage breakdown is recorded for cold solves.
        assert result.stats is not None
        stages = result.stats.stage_seconds()
        assert stages["enumerate"] >= 0.0
        if backend == "milp":
            assert stages["milp_solve"] > 0.0
        else:
            assert stages["lpt"] > 0.0


class TestThresholdCalibration:
    def test_calibrator_returns_positive_lane_count(self):
        cal = calibrate_vector_threshold(
            cluster_sizes=(8,), sequence_count=8, repeats=1
        )
        assert isinstance(cal.threshold, int)
        assert cal.threshold > 0
        assert int(cal) == cal.threshold
        assert cal.tier in ("native", "fallback")
        assert cal.samples
        for lanes, winner in cal.samples:
            assert lanes > 0
            assert winner in ("scalar", "stacked")


class TestKernelTierDegenerates:
    """The degenerate corners above, routed explicitly through the
    compiled kernel tier.

    ``kernels.force("native")`` dispatches through the jitted twins
    when numba is importable (CI's native leg) and degrades to the
    fallback otherwise, so on top of the forced-tier plan identity the
    un-jitted kernel *bodies* are run directly against the fallback
    implementations — the corner cases exercise the compiled algorithm
    on every host.
    """

    def _plan(self, model, lengths):
        plan, predicted = plan_microbatch_greedy(lengths, model)
        return plan, predicted

    @pytest.mark.parametrize(
        "lengths",
        [(2048,), (4096,) * 8],
        ids=["single_sequence", "all_equal"],
    )
    @pytest.mark.parametrize("threshold", [0, 10_000], ids=["stacked", "scalar"])
    def test_plans_identical_across_forced_tiers(
        self, cost_model8, monkeypatch, lengths, threshold
    ):
        monkeypatch.setattr(
            planner_greedy_module, "_VECTOR_THRESHOLD", threshold
        )
        with kernels.force("fallback"):
            ref_plan, ref_predicted = self._plan(cost_model8, lengths)
        with kernels.force("native"):
            plan, predicted = self._plan(cost_model8, lengths)
        assert plan == ref_plan
        assert predicted == ref_predicted

    def test_d_big_full_cluster_identical_across_tiers(self, cost_model8):
        per_device = cost_model8.max_tokens_per_device()
        longest = int(per_device * (cost_model8.cluster.num_gpus - 1))
        lengths = (longest, 1024, 1024)
        with kernels.force("fallback"):
            ref_plan, ref_predicted = self._plan(cost_model8, lengths)
        with kernels.force("native"):
            plan, predicted = self._plan(cost_model8, lengths)
        assert plan == ref_plan
        assert predicted == ref_predicted
        long_group = next(g for g in plan.groups if longest in g.lengths)
        assert long_group.degree == cost_model8.cluster.num_gpus

    @pytest.mark.parametrize(
        "lengths",
        [(2048,), (4096,) * 8],
        ids=["single_sequence", "all_equal"],
    )
    def test_scalar_body_matches_fallback(self, cost_model8, lengths):
        table = cost_table(cost_model8)
        ordered = sorted(lengths, reverse=True)
        stack = _layout_stack(cost_model8, max(lengths))
        rows = stack.surviving(float(sum(lengths)), float(max(lengths)))
        assert rows.size > 0
        ordered_arr = np.asarray(ordered, dtype=np.float64)
        for row in (int(r) for r in rows):
            lanes = int(stack.lanes[row])
            feasible, choices, makespan = kernels.KERNEL_BODIES["lpt_scalar"](
                ordered_arr,
                stack.degrees[row, :lanes],
                stack.comm_per_token[row, :lanes],
                stack.comm_beta[row, :lanes],
                stack.caps[row, :lanes],
                table.alpha1,
                table.alpha2,
                table.beta1,
                table.gather,
                table.exposed_gather,
            )
            ref = _assign_lpt_scalar(
                ordered, stack.lane_constants[row], table
            )
            if ref is None:
                assert not feasible
                continue
            assert feasible
            ref_groups, ref_makespan = ref
            assert makespan == ref_makespan
            groups = [[] for __ in range(lanes)]
            for step, s in enumerate(ordered):
                groups[int(choices[step])].append(s)
            assert groups == ref_groups

    def test_stacked_body_matches_fallback_on_one_layout_family(
        self, cost_model8
    ):
        # d_big == num_gpus: the stacked pass runs a (1, 1) lane matrix.
        per_device = cost_model8.max_tokens_per_device()
        longest = int(per_device * (cost_model8.cluster.num_gpus - 1))
        lengths = (longest,)
        table = cost_table(cost_model8)
        ordered = sorted(lengths, reverse=True)
        stack = _layout_stack(cost_model8, longest)
        assert stack.caps.shape[0] == 1
        rows = stack.surviving(float(sum(lengths)), float(longest))
        feasible, choices, makespans, winner = kernels.KERNEL_BODIES[
            "lpt_stacked"
        ](
            np.asarray(ordered, dtype=np.float64),
            stack.caps[rows],
            stack.degrees[rows],
            stack.comm_per_token[rows],
            stack.comm_beta[rows],
            table.alpha1,
            table.alpha2,
            table.beta1,
            table.gather,
            table.exposed_gather,
        )
        ref = _assign_lpt_stacked(ordered, stack, rows, table)
        assert ref is not None
        ref_choices, ref_makespans, ref_winner = ref
        assert feasible
        assert int(winner) == ref_winner
        assert choices.tolist() == ref_choices.tolist()
        assert makespans.tolist() == ref_makespans.tolist()

    def test_one_bucket_dp_identical_across_tiers(self):
        lengths = (100, 200, 300, 400)
        with kernels.force("fallback"):
            ref = optimal_buckets(lengths, 1)
        with kernels.force("native"):
            buckets = optimal_buckets(lengths, 1)
        assert buckets == ref
        assert len(ref) == 1
        assert ref[0].upper == 400

    def test_one_bucket_dp_body_spans_everything(self):
        values, counts = np.unique(
            np.asarray([7, 13, 21, 40], dtype=np.int64), return_counts=True
        )
        n = len(values)
        cnt = np.concatenate(([0], np.cumsum(counts)))
        wsum = np.concatenate(([0], np.cumsum(values * counts)))
        choice = kernels.KERNEL_BODIES["bucketing_dp"](
            0, values, cnt, wsum, cnt[:0], n, 1
        )
        assert choice.shape == (n + 1, 2)
        # One bucket: the single layer's boundary for k == n is 0.
        assert int(choice[n, 1]) == 0

    def test_blaster_trivial_and_dp_counts_identical_across_tiers(self):
        # Counts 1 and len(lengths) skip the DP entirely (the "empty
        # DP" corner); count 3 runs it.  All must agree across tiers.
        lengths = [64] * 12
        counts = (1, 3, 12)
        with kernels.force("fallback"):
            ref = balanced_cut_points_multi(lengths, counts)
        with kernels.force("native"):
            cuts = balanced_cut_points_multi(lengths, counts)
        assert cuts == ref
        assert ref[1] == [12]
        assert ref[12] == list(range(1, 13))
        assert ref[3] == [4, 8, 12]

    def test_blaster_dp_body_single_sequence(self):
        prefix = np.asarray([0, 5], dtype=np.int64)
        empty = prefix[:0]
        choice = kernels.KERNEL_BODIES["blaster_dp"](
            1, empty, empty, empty, prefix, 1, 1
        )
        assert choice.shape == (2, 2)
        assert int(choice[1, 1]) == 0


class TestStageTimingFrames:
    def test_nested_collectors_stay_independent(self):
        from repro.core import stage_timing

        with stage_timing.collect() as outer:
            with stage_timing.collect() as inner:
                stage_timing.add("lpt", 1.0)
            # Equal-content frames must be removed by identity: this
            # add lands in the outer frame only.
            stage_timing.add("enumerate", 2.0)
        assert inner == {"lpt": 1.0}
        assert outer == {"lpt": 1.0, "enumerate": 2.0}

    def test_add_without_frame_is_a_noop(self):
        from repro.core import stage_timing

        stage_timing.add("lpt", 1.0)  # must not raise or leak state
        with stage_timing.collect() as frame:
            pass
        assert frame == {}

    def test_stage_vocabulary_matches_solve_stats(self):
        from repro.core.stage_timing import STAGES
        from repro.core.types import SolveStats

        assert tuple(SolveStats().stage_seconds()) == STAGES


class TestSkeletonCacheConcurrency:
    def test_concurrent_milp_solves_under_tiny_skeleton_lru(self, cost_model8):
        """Parallel in-process MILP solves with a capacity-1 skeleton
        LRU: every lookup races an eviction, which must never KeyError
        (plans stay bit-identical to serial solves)."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import planner

        batches = [
            (4096, 8192, 2048),
            (1024, 1024, 1024, 1024, 512),
            (16384, 512),
            (3000, 3000, 3000),
        ]
        serial = [plan_microbatch(b, cost_model8, MILP_CFG) for b in batches]
        saved = planner._SKELETON_CAPACITY
        try:
            planner._SKELETON_CAPACITY = 1
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(plan_microbatch, b, cost_model8, MILP_CFG)
                    for b in batches * 3
                ]
                results = [f.result() for f in futures]
        finally:
            planner._SKELETON_CAPACITY = saved
        for i, (plan, predicted) in enumerate(results):
            ref_plan, ref_predicted = serial[i % len(batches)]
            assert predicted == ref_predicted
            assert plan == ref_plan


#: GPT-7B (64K context) fits per cluster size for the stacked-pass cases.
_STACKED_MODELS = {
    num_gpus: fit_cost_model(
        GPT_7B.with_max_context(64 * 1024), standard_cluster(num_gpus)
    )
    for num_gpus in (8, 16, 64)
}


def _stacked_stack(num_gpus, longest, floored=False):
    stack = _layout_stack(_STACKED_MODELS[num_gpus], longest)
    if not floored:
        return stack
    # A copy with whole-token caps (padding keeps its -1 sentinel).
    copy = object.__new__(LayoutStack)
    for name in LayoutStack.__slots__:
        setattr(copy, name, getattr(stack, name))
    copy.caps = np.floor(stack.caps)
    copy.lane_constants = [
        [(d, cpt, beta, float(np.floor(cap))) for d, cpt, beta, cap in lanes]
        for lanes in stack.lane_constants
    ]
    return copy


def _stacked_body(ordered, stack, rows, table):
    """The kernel-tier body (the un-jitted reference) on one family."""
    return kernels.KERNEL_BODIES["lpt_stacked"](
        np.asarray(ordered, dtype=np.float64),
        stack.caps[rows],
        stack.degrees[rows],
        stack.comm_per_token[rows],
        stack.comm_beta[rows],
        table.alpha1,
        table.alpha2,
        table.beta1,
        table.gather,
        table.exposed_gather,
    )


def _check_stacked(ordered, stack, rows, table):
    """Assert the flat stacked pass equals the kernel body and the
    per-layout scalar loop; return its outcome."""
    got = _assign_lpt_stacked(ordered, stack, rows, table)
    feasible, ref_choices, ref_makespans, ref_winner = _stacked_body(
        ordered, stack, rows, table
    )
    assert (got is not None) == bool(feasible)
    per_layout = [
        _assign_lpt_scalar(ordered, stack.lane_constants[int(row)], table)
        for row in rows
    ]
    if got is None:
        assert all(ref is None for ref in per_layout)
        return None
    choices, makespans, winner = got
    assert choices.shape == (len(ordered), len(rows))
    assert choices.tolist() == ref_choices.tolist()
    assert makespans.tolist() == ref_makespans.tolist()
    assert winner == int(ref_winner)
    for col, ref in enumerate(per_layout):
        if ref is None:
            assert makespans[col] == np.inf
            continue
        group_lengths, makespan = ref
        assert makespans[col] == makespan
        placed = [[] for __ in group_lengths]
        for step, lane in enumerate(choices[:, col]):
            placed[lane].append(ordered[step])
        assert placed == group_lengths
    return got


@st.composite
def _stacked_cases(draw):
    """A cluster size, a batch and a subset of its layout family.

    Batches mix sequences sized to a whole degree's token cap (rounded
    down, so lanes fill to just under their cap and the cap decides
    the next placement) with short fillers; totals may exceed the
    cluster, so layouts die mid-pass and whole families die.  With
    ``floored`` the family's caps are rounded down too, so a lane can
    fill to exactly its cap (``>`` and ``>=`` disagree there).
    """
    num_gpus = draw(st.sampled_from((8, 16, 64)))
    per_device = _STACKED_MODELS[num_gpus].max_tokens_per_device()
    degrees = [d for d in (1, 2, 4, 8, 16, 32, 64) if d <= num_gpus]
    full = [
        int(per_device * draw(st.sampled_from(degrees)))
        for __ in range(draw(st.integers(0, 6)))
    ]
    fillers = draw(
        st.lists(
            st.integers(1, int(per_device * 2)), min_size=0, max_size=40
        )
    )
    lengths = full + fillers
    if not lengths:
        lengths = [draw(st.integers(1, int(per_device)))]
    size = len(_stacked_stack(num_gpus, max(lengths)).layouts)
    rows = draw(
        st.lists(
            st.integers(0, size - 1), min_size=1, max_size=size, unique=True
        )
    )
    floored = draw(st.booleans())
    return (
        num_gpus, sorted(lengths, reverse=True), np.asarray(sorted(rows)),
        floored,
    )


class TestFlatStackedPass:
    """The flat, preallocated stacked LPT pass against both references:
    the kernel-tier body (layout by layout, dead layouts frozen) and
    the per-layout scalar loop."""

    @settings(max_examples=80, deadline=None)
    @given(case=_stacked_cases())
    def test_matches_kernel_body_and_scalar_loop(self, case):
        num_gpus, ordered, rows, floored = case
        model = _STACKED_MODELS[num_gpus]
        stack = _stacked_stack(num_gpus, ordered[0], floored)
        _check_stacked(ordered, stack, rows, cost_table(model))

    def test_mid_pass_death_and_binding_last_lane(self):
        model = _STACKED_MODELS[8]
        table = cost_table(model)
        unit = int(model.max_tokens_per_device() * 2)
        ordered = [unit] * 4
        stack = _stacked_stack(8, unit, floored=True)
        rows = np.arange(len(stack.layouts))
        choices, makespans, __ = _check_stacked(ordered, stack, rows, table)
        layouts = [stack.layouts[int(row)] for row in rows]
        # A lone degree-2 group holds one unit: it dies at step 1 and
        # every later choice is -1.
        lone = layouts.index((2,))
        assert choices[:, lone].tolist() == [0, -1, -1, -1]
        assert makespans[lone] == np.inf
        # Two degree-4 groups take two units each: the last lane fills
        # to exactly its (whole-token) cap and the layout survives.
        pair = layouts.index((4, 4))
        last = len(layouts[pair]) - 1
        filled = sum(
            s for s, lane in zip(ordered, choices[:, pair]) if lane == last
        )
        assert filled == stack.caps[int(rows[pair]), last]
        assert np.isfinite(makespans[pair])

    def test_all_dead_family_returns_none(self):
        model = _STACKED_MODELS[8]
        unit = int(model.max_tokens_per_device() * 2)
        ordered = [unit] * 5  # more than the whole cluster holds
        stack = _stacked_stack(8, unit)
        rows = np.arange(len(stack.layouts))
        assert _check_stacked(ordered, stack, rows, cost_table(model)) is None
