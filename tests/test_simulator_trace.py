"""Tests for repro.simulator.trace: phase traces and breakdowns."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder


def phase(kind, start, duration, devices, microbatch=-1, degree=0):
    return TracePhase(
        kind=kind,
        start=start,
        duration=duration,
        devices=devices,
        microbatch=microbatch,
        group_degree=degree,
    )


class TestTracePhase:
    def test_end_and_device_seconds(self):
        p = phase(PhaseKind.COMPUTE, 1.0, 2.0, 4)
        assert p.end == 3.0
        assert p.device_seconds == 8.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            phase(PhaseKind.COMPUTE, 0, -1, 4)

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError, match="devices"):
            phase(PhaseKind.COMPUTE, 0, 1, 0)


class TestRecorder:
    def test_rejects_phase_exceeding_cluster(self):
        rec = TraceRecorder(total_devices=8)
        with pytest.raises(ValueError, match="cluster has"):
            rec.record(phase(PhaseKind.COMPUTE, 0, 1, 16))

    def test_wall_seconds_device_weighted(self):
        rec = TraceRecorder(total_devices=8)
        rec.record(phase(PhaseKind.COMPUTE, 0, 4.0, 4))
        assert rec.wall_seconds(PhaseKind.COMPUTE) == pytest.approx(2.0)

    def test_full_cluster_phase_counts_fully(self):
        rec = TraceRecorder(total_devices=8)
        rec.record(phase(PhaseKind.GRAD_SYNC, 0, 3.0, 8))
        assert rec.wall_seconds(PhaseKind.GRAD_SYNC) == pytest.approx(3.0)

    def test_alltoall_fraction(self):
        rec = TraceRecorder(total_devices=4)
        rec.record(phase(PhaseKind.COMPUTE, 0, 6.0, 4))
        rec.record(phase(PhaseKind.ALLTOALL, 6.0, 2.0, 4))
        assert rec.alltoall_fraction() == pytest.approx(0.25)

    def test_idle_counts_as_others(self):
        rec = TraceRecorder(total_devices=4)
        rec.record(phase(PhaseKind.ALLTOALL, 0, 1.0, 4))
        rec.record(phase(PhaseKind.IDLE, 0, 1.0, 4))
        assert rec.alltoall_fraction() == pytest.approx(0.5)

    def test_breakdown_has_all_kinds(self):
        rec = TraceRecorder(total_devices=2)
        rec.record(phase(PhaseKind.COMPUTE, 0, 1.0, 2))
        breakdown = rec.breakdown()
        assert set(breakdown) == {k.value for k in PhaseKind}
        assert breakdown["compute"] == 1.0
        assert breakdown["optimizer"] == 0.0

    def test_phases_of_microbatch(self):
        rec = TraceRecorder(total_devices=4)
        rec.record(phase(PhaseKind.COMPUTE, 0, 1.0, 4, microbatch=0))
        rec.record(phase(PhaseKind.COMPUTE, 1, 1.0, 4, microbatch=1))
        assert len(rec.phases_of_microbatch(0)) == 1

    def test_end_time(self):
        rec = TraceRecorder(total_devices=4)
        assert rec.end_time() == 0.0
        rec.record(phase(PhaseKind.COMPUTE, 1.0, 2.5, 4))
        assert rec.end_time() == 3.5

    def test_empty_fraction_zero(self):
        assert TraceRecorder(total_devices=4).alltoall_fraction() == 0.0


def test_others_seconds_independent_of_hash_seed():
    """``others_seconds`` sums its kinds in one fixed order, so rounding
    (and every All-to-All share) is the same in every process."""
    code = """
from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder
rec = TraceRecorder(total_devices=1)
for kind, seconds in [
    (PhaseKind.COMPUTE, 1.0), (PhaseKind.ZERO_GATHER, 1.0),
    (PhaseKind.GRAD_SYNC, 1e16), (PhaseKind.OPTIMIZER, 3.0),
    (PhaseKind.IDLE, 1e-3),
]:
    rec.record(TracePhase(kind=kind, start=0.0, duration=seconds, devices=1))
print(rec.others_seconds().hex())
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    sums = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        sums.add(out.stdout.strip())
    assert sums == {((((1.0 + 1.0) + 1e16) + 3.0) + 1e-3).hex()}
