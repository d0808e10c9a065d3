"""Property tests: the executor's one-pass scalars == its replayed trace.

:meth:`IterationExecutor.run` computes the iteration scalars in one
pass over the group timings and replays the phase trace only when
:attr:`ExecutionResult.trace` is read.  Both must agree bit-for-bit on
random heterogeneous plans, on both timing paths; the replay must not
touch the communicator pool; and the campaign path
(:func:`_executor_outcome`) must never build the trace.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import standard_cluster
from repro.core.types import GroupAssignment, IterationPlan, MicroBatchPlan
from repro.experiments.systems import _executor_outcome
from repro.model.config import GPT_7B
from repro.model.memory import ActivationCheckpointing
from repro.simulator.executor import IterationExecutor
from repro.simulator.trace import PhaseKind

MODEL = GPT_7B.with_max_context(64 * 1024)
CLUSTERS = {n: standard_cluster(n) for n in (8, 16, 64)}
GROUP_KINDS = (PhaseKind.COMPUTE, PhaseKind.ALLTOALL, PhaseKind.ZERO_GATHER)


@st.composite
def microbatches(draw, num_gpus: int) -> MicroBatchPlan:
    """Disjoint aligned power-of-two groups, some devices left idle."""
    groups = []
    start = 0
    while start < num_gpus:
        # Largest aligned power of two that fits at ``start``.
        limit = 1
        while start % (2 * limit) == 0 and start + 2 * limit <= num_gpus:
            limit *= 2
        degree = draw(st.sampled_from([2**k for k in range(limit.bit_length())]))
        if draw(st.integers(0, 4)) > 0:
            lengths = draw(
                st.lists(st.integers(1, 64 * 1024), min_size=1, max_size=8)
            )
            groups.append(
                GroupAssignment(
                    degree=degree,
                    device_ranks=tuple(range(start, start + degree)),
                    lengths=tuple(lengths),
                )
            )
        start += degree
    if not groups:
        groups.append(GroupAssignment(degree=1, device_ranks=(0,), lengths=(512,)))
    return MicroBatchPlan(groups=tuple(groups))


@st.composite
def cluster_and_plans(draw):
    """A cluster and 2-3 plans of 1-4 micro-batches each to run in turn."""
    num_gpus = draw(st.sampled_from(sorted(CLUSTERS)))
    plans = draw(
        st.lists(
            st.lists(microbatches(num_gpus), min_size=1, max_size=4).map(
                lambda mbs: IterationPlan(microbatches=tuple(mbs))
            ),
            min_size=2,
            max_size=3,
        )
    )
    return CLUSTERS[num_gpus], plans


def _executor(cluster, vectorized: bool, checkpointing) -> IterationExecutor:
    return IterationExecutor(
        config=MODEL,
        cluster=cluster,
        checkpointing=checkpointing,
        vectorized=vectorized,
    )


def _makespans_from_trace(trace, num_microbatches: int) -> tuple[float, ...]:
    """Per-micro-batch makespan: slowest group's summed busy phases.

    Each group records compute, then All-to-All, then (if exposed) its
    ZeRO gather, so summing durations from each COMPUTE phase repeats
    the executor's ``compute + alltoall + gather`` exactly.
    """
    makespans = []
    for index in range(num_microbatches):
        busy: list[float] = []
        for phase in trace.phases_of_microbatch(index):
            if phase.kind is PhaseKind.COMPUTE:
                busy.append(phase.duration)
            elif phase.kind in GROUP_KINDS:
                busy[-1] += phase.duration
        makespan = 0.0
        for seconds in busy:
            makespan = max(makespan, seconds)
        makespans.append(makespan)
    return tuple(makespans)


def _phase_rows(trace):
    return [
        (p.kind, p.start, p.duration, p.devices, p.microbatch, p.group_degree)
        for p in trace.phases
    ]


checkpointing_policies = st.sampled_from(list(ActivationCheckpointing))


@given(case=cluster_and_plans(), checkpointing=checkpointing_policies)
@settings(max_examples=40, deadline=None)
def test_scalars_equal_replayed_trace(case, checkpointing):
    cluster, plans = case
    for vectorized in (True, False):
        executor = _executor(cluster, vectorized, checkpointing)
        for plan in plans:
            result = executor.run(plan)
            trace = result.trace
            assert result.alltoall_seconds == trace.alltoall_seconds()
            assert result.grad_sync_seconds == trace.wall_seconds(
                PhaseKind.GRAD_SYNC
            )
            assert result.microbatch_seconds == _makespans_from_trace(
                trace, plan.num_microbatches
            )
            creation = [
                p.duration for p in trace.phases if p.kind is PhaseKind.GROUP_CREATE
            ]
            assert result.group_creation_seconds == sum(creation)
            optimizer = [p for p in trace.phases if p.kind is PhaseKind.OPTIMIZER]
            assert result.iteration_seconds == optimizer[0].end
            # Every group on a multi-GPU cluster has an exposed gather.
            groups = sum(len(mb.groups) for mb in plan.microbatches)
            gathers = [p for p in trace.phases if p.kind is PhaseKind.ZERO_GATHER]
            assert len(gathers) == groups


@given(case=cluster_and_plans(), checkpointing=checkpointing_policies)
@settings(max_examples=30, deadline=None)
def test_vectorized_and_scalar_paths_identical(case, checkpointing):
    cluster, plans = case
    batched = _executor(cluster, True, checkpointing)
    scalar = _executor(cluster, False, checkpointing)
    for plan in plans:
        fast, slow = batched.run(plan), scalar.run(plan)
        assert fast == slow
        assert _phase_rows(fast.trace) == _phase_rows(slow.trace)


@given(case=cluster_and_plans())
@settings(max_examples=30, deadline=None)
def test_trace_replay_is_stable_and_leaves_pool_alone(case):
    cluster, plans = case
    executor = _executor(cluster, True, ActivationCheckpointing.NONE)
    first = executor.run(plans[0])
    if any(g.degree > 1 for mb in plans[0].microbatches for g in mb.groups):
        assert first.group_creation_seconds > 0  # first use creates groups
    for plan in plans[1:]:
        executor.run(plan)
    groups = executor.pool.cached_group_count

    # Read after later runs warmed the pool: same phases as an eager
    # read on a fresh executor, creation charged once, pool untouched.
    fresh = _executor(cluster, True, ActivationCheckpointing.NONE).run(plans[0])
    assert first == fresh
    assert _phase_rows(first.trace) == _phase_rows(fresh.trace)
    assert first.trace is first.trace
    assert _phase_rows(first.trace) == _phase_rows(fresh.trace)
    assert executor.pool.cached_group_count == groups


@given(case=cluster_and_plans())
@settings(max_examples=20, deadline=None)
def test_campaign_outcome_never_builds_trace(case):
    cluster, plans = case
    executor = _executor(cluster, True, ActivationCheckpointing.NONE)
    results = []
    run = executor.run

    def recording_run(plan):
        results.append(run(plan))
        return results[-1]

    executor.run = recording_run
    for plan in plans:
        outcome = _executor_outcome(executor, plan, solve_seconds=0.0)
        result = results[-1]
        assert "trace" not in vars(result)
        assert outcome.alltoall_seconds == result.trace.alltoall_seconds()
        assert outcome.comm_seconds == (
            result.trace.alltoall_seconds()
            + result.trace.wall_seconds(PhaseKind.GRAD_SYNC)
        )
