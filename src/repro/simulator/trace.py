"""Execution traces and time breakdowns.

The executor records one :class:`TracePhase` per (micro-batch, group,
phase kind).  Breakdowns weight each group phase by its device count so
that, summed with idle time, the phases tile the cluster's device-time
exactly — this is the accounting behind the paper's Fig. 5a
"All-to-All vs Others" split and Table 1's communication ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class PhaseKind(enum.Enum):
    """What a span of group/cluster time was spent on."""

    COMPUTE = "compute"
    ALLTOALL = "alltoall"
    ZERO_GATHER = "zero_gather"
    GRAD_SYNC = "grad_sync"
    OPTIMIZER = "optimizer"
    GROUP_CREATE = "group_create"
    IDLE = "idle"


#: Phases that count as "Others" in the Fig. 5a breakdown.  A tuple,
#: not a set: :meth:`TraceRecorder.others_seconds` sums in this order,
#: and set order follows the per-process string hash seed.
OTHER_KINDS = (
    PhaseKind.COMPUTE,
    PhaseKind.ZERO_GATHER,
    PhaseKind.GRAD_SYNC,
    PhaseKind.OPTIMIZER,
    PhaseKind.IDLE,
)


@dataclass(frozen=True)
class TracePhase:
    """One recorded span.

    Attributes:
        kind: Phase category.
        start: Start time on the simulation clock, seconds.
        duration: Span length, seconds.
        devices: Devices occupied for the span.
        microbatch: Micro-batch index, or -1 for step-level phases.
        group_degree: SP degree of the owning group, or 0 for
            cluster-wide phases.
    """

    kind: PhaseKind
    start: float
    duration: float
    devices: int
    microbatch: int = -1
    group_degree: int = 0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if self.devices <= 0:
            raise ValueError(f"devices must be positive, got {self.devices}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def device_seconds(self) -> float:
        return self.duration * self.devices


@dataclass
class TraceRecorder:
    """Accumulates phases and derives breakdowns.

    Attributes:
        total_devices: Cluster size N; used to normalise device-time
            into wall-clock-equivalent seconds.
    """

    total_devices: int
    phases: list[TracePhase] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total_devices <= 0:
            raise ValueError(
                f"total_devices must be positive, got {self.total_devices}"
            )

    def record(self, phase: TracePhase) -> None:
        if phase.devices > self.total_devices:
            raise ValueError(
                f"phase uses {phase.devices} devices; cluster has "
                f"{self.total_devices}"
            )
        self.phases.append(phase)

    def wall_seconds(self, kind: PhaseKind) -> float:
        """Device-weighted wall-clock-equivalent seconds spent in ``kind``.

        A phase occupying d of N devices for t seconds contributes
        ``t * d / N``: if every device did it simultaneously this is
        exactly t, matching a per-device profiler's view.
        """
        return sum(
            p.device_seconds for p in self.phases if p.kind is kind
        ) / self.total_devices

    def alltoall_seconds(self) -> float:
        return self.wall_seconds(PhaseKind.ALLTOALL)

    def others_seconds(self) -> float:
        return sum(self.wall_seconds(k) for k in OTHER_KINDS)

    def breakdown(self) -> dict[str, float]:
        """Wall-equivalent seconds per phase kind (zero entries kept)."""
        return {kind.value: self.wall_seconds(kind) for kind in PhaseKind}

    def alltoall_fraction(self) -> float:
        """All-to-All share of the iteration (Table 1 / Fig. 5a metric)."""
        alltoall = self.alltoall_seconds()
        total = alltoall + self.others_seconds()
        if total <= 0:
            return 0.0
        return alltoall / total

    def phases_of_microbatch(self, index: int) -> list[TracePhase]:
        return [p for p in self.phases if p.microbatch == index]

    def end_time(self) -> float:
        """Last recorded phase end, seconds."""
        if not self.phases:
            return 0.0
        return max(p.end for p in self.phases)
