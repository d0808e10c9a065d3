"""Closed-form execution substrate.

Replaces the paper's PyTorch/NCCL runtime: ground-truth kernel and
collective timing (:mod:`repro.simulator.timing`), the iteration
executor that charges a whole plan on a simulated cluster in one pass
over its group timings (:mod:`repro.simulator.executor`), and the
execution trace used for time breakdowns
(:mod:`repro.simulator.trace`), which the executor replays on demand
from the captured timings.
"""

from repro.simulator.executor import ExecutionResult, IterationExecutor
from repro.simulator.timing import (
    TimingTable,
    group_alltoall_time,
    group_compute_time,
    gradient_sync_time,
    timing_table,
    zero3_gather_time,
)
from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder

__all__ = [
    "IterationExecutor",
    "ExecutionResult",
    "group_compute_time",
    "group_alltoall_time",
    "zero3_gather_time",
    "gradient_sync_time",
    "TimingTable",
    "timing_table",
    "PhaseKind",
    "TracePhase",
    "TraceRecorder",
]
