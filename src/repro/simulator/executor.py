"""Iteration executor: runs plans on the simulated cluster.

The executor is the stand-in for the paper's PyTorch/NCCL runtime
engine.  It takes an :class:`repro.core.types.IterationPlan` and
charges ground-truth timings from :mod:`repro.simulator.timing` for
the whole plan in one closed-form pass: micro-batches run
sequentially, the SP groups inside one micro-batch run concurrently
(each does compute, then All-to-All, then its exposed ZeRO gather), and
step-level gradient sync and the optimizer follow the last
micro-batch.  Communication groups come from the hot-switching pool,
so creation is charged on first use only.

:meth:`IterationExecutor.run` returns the wall-clock scalars directly.
The per-phase :class:`~repro.simulator.trace.TraceRecorder` behind
breakdowns and timelines is replayed on first access to
:attr:`ExecutionResult.trace` from the per-group times captured during
the run, so callers that only need the scalars never build it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cluster.groups import CommGroupPool
from repro.cluster.topology import ClusterSpec
from repro.core.types import IterationPlan, MicroBatchPlan
from repro.model.config import ModelConfig
from repro.model.memory import ActivationCheckpointing
from repro.simulator.timing import (
    gradient_sync_time,
    group_alltoall_time,
    group_compute_time,
    optimizer_step_time,
    timing_table,
    zero3_gather_time,
)
from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder

#: (compute, alltoall, exposed zero-gather, creation) seconds of one group.
GroupTimes = tuple[float, float, float, float]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one training iteration.

    Attributes:
        iteration_seconds: Wall-clock of the step (excluding one-time
            communicator creation, which is amortised across training).
        microbatch_seconds: Per-micro-batch makespans, in order.
        group_creation_seconds: One-time communicator setup incurred by
            this iteration (zero once the pool is warm).
        alltoall_seconds: Device-weighted All-to-All seconds; equals
            ``trace.alltoall_seconds()`` bit-for-bit.
        grad_sync_seconds: Device-weighted gradient-sync seconds;
            equals ``trace.wall_seconds(PhaseKind.GRAD_SYNC)``
            bit-for-bit.
    """

    iteration_seconds: float
    microbatch_seconds: tuple[float, ...]
    group_creation_seconds: float
    alltoall_seconds: float
    grad_sync_seconds: float
    _replay: Callable[[], TraceRecorder] = field(repr=False, compare=False)

    @functools.cached_property
    def trace(self) -> TraceRecorder:
        """Full phase trace for breakdowns, built on first access."""
        return self._replay()

    @property
    def alltoall_fraction(self) -> float:
        return self.trace.alltoall_fraction()

    def tokens_per_second(self, tokens: int) -> float:
        if self.iteration_seconds <= 0:
            raise ValueError("iteration took no time; cannot compute throughput")
        return tokens / self.iteration_seconds


def _replay_trace(
    num_gpus: int,
    plan: IterationPlan,
    plan_times: list[list[GroupTimes]],
    microbatch_seconds: tuple[float, ...],
    grad_sync: float,
    optim: float,
    creation_total: float,
) -> TraceRecorder:
    """The phase trace of an executed plan, from its captured timings."""
    trace = TraceRecorder(total_devices=num_gpus)
    clock = 0.0
    for index, (mb, group_times, makespan) in enumerate(
        zip(plan.microbatches, plan_times, microbatch_seconds)
    ):
        for g, (compute, alltoall, gather, __) in zip(mb.groups, group_times):
            trace.record(
                TracePhase(
                    kind=PhaseKind.COMPUTE,
                    start=clock,
                    duration=compute,
                    devices=g.degree,
                    microbatch=index,
                    group_degree=g.degree,
                )
            )
            trace.record(
                TracePhase(
                    kind=PhaseKind.ALLTOALL,
                    start=clock + compute,
                    duration=alltoall,
                    devices=g.degree,
                    microbatch=index,
                    group_degree=g.degree,
                )
            )
            if gather > 0:
                trace.record(
                    TracePhase(
                        kind=PhaseKind.ZERO_GATHER,
                        start=clock + compute + alltoall,
                        duration=gather,
                        devices=g.degree,
                        microbatch=index,
                        group_degree=g.degree,
                    )
                )

        # Stragglers leave faster groups and unassigned devices idle
        # until the micro-batch barrier.
        for g, (compute, alltoall, gather, __) in zip(mb.groups, group_times):
            busy = compute + alltoall + gather
            idle = makespan - busy
            if idle > 1e-12:
                trace.record(
                    TracePhase(
                        kind=PhaseKind.IDLE,
                        start=clock + busy,
                        duration=idle,
                        devices=g.degree,
                        microbatch=index,
                        group_degree=g.degree,
                    )
                )
        spare = num_gpus - sum(g.degree for g in mb.groups)
        if spare > 0 and makespan > 0:
            trace.record(
                TracePhase(
                    kind=PhaseKind.IDLE,
                    start=clock,
                    duration=makespan,
                    devices=spare,
                    microbatch=index,
                )
            )
        clock += makespan

    trace.record(
        TracePhase(
            kind=PhaseKind.GRAD_SYNC, start=clock, duration=grad_sync, devices=num_gpus
        )
    )
    clock += grad_sync
    trace.record(
        TracePhase(
            kind=PhaseKind.OPTIMIZER, start=clock, duration=optim, devices=num_gpus
        )
    )
    clock += optim
    if creation_total > 0:
        trace.record(
            TracePhase(
                kind=PhaseKind.GROUP_CREATE,
                start=clock,
                duration=creation_total,
                devices=num_gpus,
            )
        )
    return trace


@dataclass
class IterationExecutor:
    """Executes iteration plans for one (model, cluster, policy) triple.

    Attributes:
        config: Model architecture being trained.
        cluster: Simulated hardware.
        checkpointing: Activation checkpointing policy in force.
        pool: Communicator pool; persists across iterations so group
            creation is only charged on first use (hot switching).
        vectorized: Charge timings through the batched
            :class:`~repro.simulator.timing.TimingTable` kernels (all
            groups of a plan in one shot) instead of the scalar
            per-group functions.  Both paths are bit-identical; False
            keeps the scalar reference path for benchmarks and tests.
    """

    config: ModelConfig
    cluster: ClusterSpec
    checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE
    pool: CommGroupPool = field(default=None)  # type: ignore[assignment]
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.pool is None:
            self.pool = CommGroupPool(cluster=self.cluster)

    def _microbatch_group_times(self, mb: MicroBatchPlan) -> list[GroupTimes]:
        """(compute, alltoall, exposed zero-gather, creation) per group."""
        times = []
        for g in mb.groups:
            __, creation = self.pool.get(g.device_ranks)
            compute = group_compute_time(
                self.config, self.cluster, g.lengths, g.degree, self.checkpointing
            )
            link = self.cluster.group_link(g.device_ranks)
            alltoall = group_alltoall_time(
                self.config, self.cluster, g.tokens, g.degree, link
            )
            gather = zero3_gather_time(self.config, self.cluster, compute)
            times.append((compute, alltoall, gather, creation))
        return times

    def _plan_group_times(self, plan: IterationPlan) -> list[list[GroupTimes]]:
        """Per-micro-batch group timing tuples for the whole plan.

        The vectorized path charges every group of every micro-batch
        through the :class:`TimingTable` kernels in one shot; the
        scalar path evaluates micro-batch by micro-batch.  Results are
        bit-identical.
        """
        if not self.vectorized:
            return [self._microbatch_group_times(mb) for mb in plan.microbatches]
        groups = []
        creations = []
        for mb in plan.microbatches:
            for g in mb.groups:
                __, creation = self.pool.get(g.device_ranks)
                groups.append(g)
                creations.append(creation)
        links = [self.cluster.group_link(g.device_ranks) for g in groups]
        table = timing_table(self.config, self.cluster, self.checkpointing)
        compute, alltoall, gather = table.group_times(groups, links)
        flat = list(
            zip(compute.tolist(), alltoall.tolist(), gather.tolist(), creations)
        )
        times: list[list[GroupTimes]] = []
        cursor = 0
        for mb in plan.microbatches:
            times.append(flat[cursor : cursor + len(mb.groups)])
            cursor += len(mb.groups)
        return times

    def run(self, plan: IterationPlan) -> ExecutionResult:
        """Execute ``plan`` and return its timing.

        One pass over the group timings yields every scalar; the trace
        is replayed from the same timings only if a caller reads
        :attr:`ExecutionResult.trace`.  Device-weighted sums use the
        same terms in the same order as :class:`TraceRecorder`, so they
        match the replayed trace bit-for-bit.
        """
        num_gpus = self.cluster.num_gpus
        plan_times = self._plan_group_times(plan)
        microbatch_seconds: list[float] = []
        alltoall_device_seconds: list[float] = []
        creation_total = 0.0
        clock = 0.0
        for mb, group_times in zip(plan.microbatches, plan_times):
            makespan = 0.0
            for g, (compute, alltoall, gather, creation) in zip(
                mb.groups, group_times
            ):
                creation_total += creation
                alltoall_device_seconds.append(alltoall * g.degree)
                makespan = max(makespan, compute + alltoall + gather)
            clock += makespan
            microbatch_seconds.append(makespan)

        grad_sync = gradient_sync_time(self.config, self.cluster)
        clock += grad_sync
        optim = optimizer_step_time(self.config, self.cluster)
        clock += optim
        makespans = tuple(microbatch_seconds)
        return ExecutionResult(
            iteration_seconds=clock,
            microbatch_seconds=makespans,
            group_creation_seconds=creation_total,
            alltoall_seconds=sum(alltoall_device_seconds) / num_gpus,
            grad_sync_seconds=grad_sync * num_gpus / num_gpus,
            _replay=functools.partial(
                _replay_trace,
                num_gpus,
                plan,
                plan_times,
                makespans,
                grad_sync,
                optim,
                creation_total,
            ),
        )
