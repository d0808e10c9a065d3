"""Compiled hot-kernel tier (optional numba, registry-dispatched).

PR 5's profiler put the remaining cold-path time in four inner loops:
the scalar and stacked LPT placement passes
(:mod:`repro.core.planner_greedy`) and the level-batched D&C argmin
layers behind the bucketing DP (:mod:`repro.core.bucketing`) and the
blaster DP (:mod:`repro.core.blaster`).  This module holds compiled
(numba ``@njit``) twins of those loops behind one registry:

* **Zero hard dependencies.**  numba is probed lazily; when absent
  (or when it fails to compile) every dispatch site silently keeps the
  existing numpy/scalar fallback.  ``pip install -e .[native]`` pulls
  the optional dependency.
* **Opt-out.**  ``REPRO_NATIVE=0`` in the environment (or the bench
  CLI's ``--no-native``, or :func:`set_enabled`) disables the tier;
  the env var is re-read by spawned pool workers, and
  :func:`set_enabled` covers forked ones.
* **Bit-identity.**  Each kernel body replays the fallback's IEEE
  float (or int64) operations in the same order — default ``njit`` is
  strict IEEE-754 (no fastmath), so plans, makespans and DP
  boundaries are bit-identical across tiers.  The bodies are plain
  Python functions jitted at first use, which keeps the *algorithm*
  testable without numba (``tests/test_core_kernels.py`` runs the
  un-jitted bodies against the fallbacks) and lets CI force the tier
  on (:func:`force`) once numba is installed.
* **Attribution.**  Every dispatch decision is recorded on the
  ambient :mod:`repro.core.stage_timing` frame under a
  ``kernel:<name>:<tier>`` pseudo-stage, so tier usage travels the
  same cross-process channel as stage seconds and lands in
  :attr:`repro.core.types.SolveStats.kernel_tiers`.

Kernel names: ``lpt_scalar``, ``lpt_stacked``, ``bucketing_dp``,
``blaster_dp`` (the two DPs share one compiled divide-and-conquer
body, mode-flagged).
"""

from __future__ import annotations

import contextlib
import os
import time
from collections.abc import Iterator, Mapping

import numpy as np

from repro.core import stage_timing

_ENV = "REPRO_NATIVE"

#: Registry vocabulary — dispatch sites and attribution use these.
KERNEL_NAMES = ("lpt_scalar", "lpt_stacked", "bucketing_dp", "blaster_dp")

#: Unreachable-state sentinel shared with the numpy DP fallbacks
#: (``np.iinfo(np.int64).max // 4`` — headroom for one int64 add).
DP_INF = np.iinfo(np.int64).max // 4


def _env_enabled(value: str | None) -> bool:
    """``REPRO_NATIVE`` parsing: only an explicit ``"0"`` opts out."""
    return (value or "").strip() != "0"


_ENABLED = _env_enabled(os.environ.get(_ENV))
#: None = not yet probed; afterwards a bool.
_AVAILABLE: bool | None = None
#: None / "native" / "fallback" — test override (see :func:`force`).
_FORCED: str | None = None
#: Lazily compiled callables keyed by kernel name; None until built.
_COMPILED: dict | None = None
#: Set when numba imported but compilation failed (tier disabled).
_COMPILE_ERROR: str | None = None


# ---------------------------------------------------------------------------
# Kernel bodies (plain Python, numba-jittable, bit-identical to the
# fallbacks they shadow — see each body's notes).
# ---------------------------------------------------------------------------


def _lpt_scalar_body(
    ordered, degrees, cpt, cbeta, caps, alpha1, alpha2, beta1, gather, exposed
):
    """One layout's incremental LPT loop (``_assign_lpt_scalar`` twin).

    Same float ops in the same order as the fallback's inlined
    ``group_time`` formula; the fallback's equal-length candidate
    cache is dropped because recomputing a lane's candidate produces
    the same bits.  Returns ``(feasible, choices, makespan)`` where
    ``choices[step]`` is the lane receiving ``ordered[step]``.
    """
    n = ordered.shape[0]
    lanes = degrees.shape[0]
    work = np.zeros(lanes)
    tokens = np.zeros(lanes)
    choices = np.zeros(n, dtype=np.int64)
    for step in range(n):
        s = ordered[step]
        term = alpha1 * s * s + alpha2 * s
        best_index = -1
        best_time = 0.0
        for i in range(lanes):
            new_tokens = tokens[i] + s
            if new_tokens > caps[i]:
                continue
            comp = (work[i] + term) / degrees[i] + beta1
            comm = cpt[i] * new_tokens + cbeta[i]
            t = comp + comm
            if gather > 0:
                bound = comm + gather
                t = t + exposed
                if bound > t:
                    t = bound
            if best_index < 0 or t < best_time:
                best_time = t
                best_index = i
        if best_index < 0:
            return False, choices, 0.0
        choices[step] = best_index
        work[best_index] += term
        tokens[best_index] += s
    makespan = -np.inf
    for i in range(lanes):
        if tokens[i] > 0:
            comp = work[i] / degrees[i] + beta1
            comm = cpt[i] * tokens[i] + cbeta[i]
            if gather <= 0:
                t = comp + comm
            else:
                t = comp + comm + exposed
                bound = comm + gather
                if bound > t:
                    t = bound
            if t > makespan:
                makespan = t
    return True, choices, makespan


def _lpt_stacked_body(
    ordered, caps, degrees, cpt, cbeta, alpha1, alpha2, beta1, gather, exposed
):
    """Whole-family LPT pass (``_assign_lpt_stacked`` twin).

    Same contract as the fallback, evaluated layout by layout: the
    same elementwise candidate formula, the leftmost minimum-time
    feasible lane per step (strict ``<`` scan == ``np.argmin``), final
    makespans via the ``group_time`` expression over non-empty lanes,
    and the leftmost-minimum winner.  A layout dies at the first step
    no lane can take: its ``choices`` are ``-1`` from that step on and
    its makespan is ``inf``.  Padding lanes carry ``cap == -1`` so
    they are never feasible.  Returns ``(feasible, choices, makespans,
    winner)``; ``feasible`` is False when every layout dies.
    """
    n = ordered.shape[0]
    num_layouts, width = caps.shape
    work = np.zeros((num_layouts, width))
    tokens = np.zeros((num_layouts, width))
    alive = np.ones(num_layouts, dtype=np.bool_)
    choices = np.full((n, num_layouts), -1, dtype=np.int64)
    for step in range(n):
        s = ordered[step]
        term = alpha1 * s * s + alpha2 * s
        any_alive = False
        for layout in range(num_layouts):
            if not alive[layout]:
                continue
            best_lane = -1
            best_time = 0.0
            for g in range(width):
                new_tokens = tokens[layout, g] + s
                if new_tokens > caps[layout, g]:
                    continue
                comp = (work[layout, g] + term) / degrees[layout, g] + beta1
                comm = cpt[layout, g] * new_tokens + cbeta[layout, g]
                t = comp + comm
                if gather > 0:
                    bound = comm + gather
                    t = t + exposed
                    if bound > t:
                        t = bound
                if best_lane < 0 or t < best_time:
                    best_time = t
                    best_lane = g
            if best_lane < 0:
                alive[layout] = False
                continue
            work[layout, best_lane] += term
            tokens[layout, best_lane] += s
            choices[step, layout] = best_lane
            any_alive = True
        if not any_alive:
            return False, choices, np.zeros(num_layouts), -1
    makespans = np.empty(num_layouts)
    for layout in range(num_layouts):
        if not alive[layout]:
            makespans[layout] = np.inf
            continue
        span = -np.inf
        for g in range(width):
            if tokens[layout, g] > 0:
                comp = work[layout, g] / degrees[layout, g] + beta1
                comm = cpt[layout, g] * tokens[layout, g] + cbeta[layout, g]
                if gather <= 0:
                    t = comp + comm
                else:
                    t = comp + comm + exposed
                    bound = comm + gather
                    if bound > t:
                        t = bound
                if t > span:
                    span = t
        makespans[layout] = span
    winner = 0
    best = makespans[0]
    for layout in range(1, num_layouts):
        if makespans[layout] < best:
            best = makespans[layout]
            winner = layout
    return True, choices, makespans, winner


def _dp_choice_body(mode, values, cnt, wsum, prefix, n, layers):
    """Layered monotone D&C argmin (bucketing + blaster DP twin).

    ``mode == 0``: the bucketing recurrence (Eq. 15/16) — candidate
    cost ``err[j] + values[k-1] * (cnt[k] - cnt[j]) - (wsum[k] -
    wsum[j])``.  ``mode == 1``: the blaster recurrence (Eq. 23/24) —
    ``max(dp[j], prefix[k] - prefix[j])``; the unused prefix arrays
    of the other mode are passed empty.  Layer ``q`` solves ``k in
    [q, n]`` with ``j in [q - 1, n - 1]``, recursing depth-first over
    an explicit stack with the same midpoint split, leftmost argmin
    (first candidate seeds the scan, strict ``<`` thereafter — all
    int64 arithmetic, including any saturated ``inf + seg`` sums,
    matches the vectorised fallback bit for bit) and monotone child
    ranges (left ``[j_lo, opt]``, right ``[opt, j_hi]``) as
    :func:`repro.core._dp.solve_monotone_layer`.  Returns the
    ``(n + 1, layers + 1)`` leftmost-argmin choice matrix the callers
    backtrack (``boundary`` / ``choice`` in the fallbacks).
    """
    inf = np.int64(2305843009213693951)  # np.iinfo(np.int64).max // 4
    dp = np.full(n + 1, inf, dtype=np.int64)
    dp[0] = 0
    choice = np.zeros((n + 1, layers + 1), dtype=np.int64)
    # Explicit DFS stack; depth is O(log n) but size by node count is
    # safely bounded by 2 * (n + 2).
    cap = 2 * (n + 2)
    stack_k_lo = np.zeros(cap, dtype=np.int64)
    stack_k_hi = np.zeros(cap, dtype=np.int64)
    stack_j_lo = np.zeros(cap, dtype=np.int64)
    stack_j_hi = np.zeros(cap, dtype=np.int64)
    for layer in range(1, layers + 1):
        new_dp = np.full(n + 1, inf, dtype=np.int64)
        top = 0
        stack_k_lo[top] = layer
        stack_k_hi[top] = n
        stack_j_lo[top] = layer - 1
        stack_j_hi[top] = n - 1
        top += 1
        while top > 0:
            top -= 1
            k_lo = stack_k_lo[top]
            k_hi = stack_k_hi[top]
            j_lo = stack_j_lo[top]
            j_hi = stack_j_hi[top]
            k = (k_lo + k_hi) // 2
            j_top = j_hi
            if k - 1 < j_top:
                j_top = k - 1
            if mode == 0:
                seg = values[k - 1] * (cnt[k] - cnt[j_lo]) - (
                    wsum[k] - wsum[j_lo]
                )
                best = dp[j_lo] + seg
            else:
                seg = prefix[k] - prefix[j_lo]
                best = dp[j_lo] if dp[j_lo] > seg else seg
            opt = j_lo
            for j in range(j_lo + 1, j_top + 1):
                if mode == 0:
                    seg = values[k - 1] * (cnt[k] - cnt[j]) - (
                        wsum[k] - wsum[j]
                    )
                    cost = dp[j] + seg
                else:
                    seg = prefix[k] - prefix[j]
                    cost = dp[j] if dp[j] > seg else seg
                if cost < best:
                    best = cost
                    opt = j
            new_dp[k] = best
            choice[k, layer] = opt
            if k + 1 <= k_hi:
                stack_k_lo[top] = k + 1
                stack_k_hi[top] = k_hi
                stack_j_lo[top] = opt
                stack_j_hi[top] = j_hi
                top += 1
            if k_lo <= k - 1:
                stack_k_lo[top] = k_lo
                stack_k_hi[top] = k - 1
                stack_j_lo[top] = j_lo
                stack_j_hi[top] = opt
                top += 1
        dp = new_dp
    return choice


#: name -> plain-Python body (the jit targets); the two DP kernels
#: share one body, selected by the mode flag at the dispatch site.
KERNEL_BODIES = {
    "lpt_scalar": _lpt_scalar_body,
    "lpt_stacked": _lpt_stacked_body,
    "bucketing_dp": _dp_choice_body,
    "blaster_dp": _dp_choice_body,
}


# ---------------------------------------------------------------------------
# Registry: availability, enablement, dispatch, attribution.
# ---------------------------------------------------------------------------


def native_available() -> bool:
    """Whether numba imports on this host (probed once, cached)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def enabled() -> bool:
    """Whether the native tier is switched on (env / CLI / runtime)."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Runtime switch (the bench CLI's ``--no-native`` handle).

    Also mirrors into ``REPRO_NATIVE`` so spawned pool workers — which
    re-import this module rather than inheriting its globals — agree.

    The mutation is process-global and permanent; callers that only
    need the switch for the duration of a run (the bench CLI, the plan
    service, tests) should prefer :func:`enabled_scope`, which restores
    both the module flag and the environment variable on exit.
    """
    global _ENABLED
    _ENABLED = bool(value)
    os.environ[_ENV] = "1" if value else "0"


@contextlib.contextmanager
def enabled_scope(value: bool) -> Iterator[None]:
    """Scoped :func:`set_enabled`: restore flag *and* env var on exit.

    ``set_enabled`` writes ``REPRO_NATIVE`` into ``os.environ`` so
    spawned pool workers agree with the parent; without a restore that
    write outlives the run and poisons every later run in the same
    process (e.g. a ``--no-native`` campaign inside pytest disabling
    the tier for all subsequent tests).  This scope saves the previous
    ``_ENABLED`` and the previous env state — including *absence* of
    the variable — and reinstates both when the block exits.
    """
    global _ENABLED
    previous_enabled = _ENABLED
    previous_env = os.environ.get(_ENV)
    set_enabled(value)
    try:
        yield
    finally:
        _ENABLED = previous_enabled
        if previous_env is None:
            os.environ.pop(_ENV, None)
        else:
            os.environ[_ENV] = previous_env


def _compile() -> dict | None:
    """Jit every kernel body once; None when numba is unusable."""
    global _COMPILED, _COMPILE_ERROR
    if _COMPILED is None and _COMPILE_ERROR is None:
        try:
            from numba import njit

            jit = njit(cache=True, nogil=True)
            compiled = {}
            for name in ("lpt_scalar", "lpt_stacked"):
                compiled[name] = jit(KERNEL_BODIES[name])
            compiled["bucketing_dp"] = compiled["blaster_dp"] = jit(
                _dp_choice_body
            )
            _COMPILED = compiled
        except Exception as exc:  # pragma: no cover - env-specific
            _COMPILE_ERROR = f"{type(exc).__name__}: {exc}"
    return _COMPILED


def use_native(name: str) -> bool:
    """Dispatch decision for one kernel (and compile on first use).

    ``_FORCED`` is sampled exactly once per call: a concurrent
    :func:`force` flip (which only the single-threaded test harness
    should perform — see :func:`force`) can change the answer *between*
    dispatches but can never split one dispatch decision across tiers.
    """
    if name not in KERNEL_BODIES:
        raise KeyError(f"unknown kernel: {name!r}")
    forced = _FORCED
    if forced == "fallback":
        return False
    if forced != "native" and not _ENABLED:
        return False
    return native_available() and _compile() is not None


def native(name: str):
    """The compiled callable for ``name`` (after :func:`use_native`)."""
    compiled = _compile()
    if compiled is None:
        raise RuntimeError(
            f"native kernel {name!r} unavailable"
            + (f" ({_COMPILE_ERROR})" if _COMPILE_ERROR else "")
        )
    return compiled[name]


@contextlib.contextmanager
def force(tier: str | None) -> Iterator[None]:
    """Test override: ``"native"``, ``"fallback"`` or None (auto).

    Forcing ``"native"`` only takes effect when numba is importable —
    dispatch still degrades to the fallback otherwise, so suites that
    force both tiers stay runnable on hosts without the extra.

    **Single-thread contract.**  The override flips the module-global
    ``_FORCED`` with no lock; enter and exit it only from one thread
    (the test harness), never concurrently with another ``force``.
    Reader threads are safe regardless: :func:`use_native` samples
    ``_FORCED`` once per dispatch, so a solve racing a flip lands
    wholly on one tier or the other — and either tier produces
    bit-identical plans, so concurrent *readers* (e.g. the plan
    service's request threads) never observe a torn result.
    """
    if tier not in (None, "native", "fallback"):
        raise ValueError(f"unknown tier: {tier!r}")
    global _FORCED
    previous = _FORCED
    _FORCED = tier
    try:
        yield
    finally:
        _FORCED = previous


def note(name: str, tier: str) -> None:
    """Record a dispatch on the ambient stage-timing frame.

    The pseudo-stage ``kernel:<name>:<tier>`` accumulates a dispatch
    count (1.0 per call) and rides the existing cross-process stage
    channel; consumers split it back out via
    :func:`tiers_from_stages`.
    """
    stage_timing.add(f"kernel:{name}:{tier}", 1.0)


def tiers_from_stages(
    stages: Mapping[str, float],
) -> tuple[tuple[str, str], ...]:
    """Extract ``(kernel, tier)`` attribution from a stage mapping.

    A kernel dispatched through both tiers within one frame (possible
    when pooled workers disagree) reports ``"mixed"``.
    """
    seen: dict[str, set[str]] = {}
    for key in stages:
        if not key.startswith("kernel:"):
            continue
        __, name, tier = key.split(":", 2)
        seen.setdefault(name, set()).add(tier)
    return tuple(
        (name, next(iter(tiers)) if len(tiers) == 1 else "mixed")
        for name, tiers in sorted(seen.items())
    )


def strip_kernel_stages(stages: Mapping[str, float]) -> dict[str, float]:
    """Drop the ``kernel:`` pseudo-stages (for pure-seconds reports)."""
    return {k: v for k, v in stages.items() if not k.startswith("kernel:")}


def active_tier() -> str:
    """The tier dispatch would pick right now (banner convenience)."""
    return "native" if use_native("lpt_scalar") else "fallback"


def warmup() -> float:
    """Compile all kernels on tiny inputs; returns wall seconds.

    This is the JIT cost the kernels benchmark reports separately
    from steady state.  No-op (0.0) when the native tier is off.
    """
    if not use_native("lpt_scalar"):
        return 0.0
    started = time.perf_counter()
    one = np.asarray([4.0])
    lane = np.asarray([1.0])
    native("lpt_scalar")(one, lane, lane, lane, one * 100, 0.0, 1.0, 0.0, 0.0, 0.0)
    native("lpt_stacked")(
        one, (one * 100).reshape(1, 1), lane.reshape(1, 1),
        lane.reshape(1, 1), lane.reshape(1, 1), 0.0, 1.0, 0.0, 0.0, 0.0,
    )
    ints = np.asarray([0, 1], dtype=np.int64)
    native("bucketing_dp")(0, ints[1:] + 3, ints, ints * 4, ints[:0], 1, 1)
    native("blaster_dp")(1, ints[:0], ints[:0], ints[:0], ints * 4, 1, 1)
    return time.perf_counter() - started


def describe_dict() -> dict:
    """Machine-readable tier description (benchmark records)."""
    available = native_available()
    return {
        "native_available": available,
        "enabled": _ENABLED,
        "forced": _FORCED,
        "compile_error": _COMPILE_ERROR,
        "tier": "native" if (available and _ENABLED and _FORCED != "fallback"
                             and _COMPILE_ERROR is None) else "fallback",
        "kernels": list(KERNEL_NAMES),
    }


def describe() -> str:
    """One-line banner for ``--profile`` output."""
    info = describe_dict()
    detail = "" if info["native_available"] else " (numba not installed)"
    if info["compile_error"]:
        detail = f" (compile failed: {info['compile_error']})"
    return (
        f"kernel tier: {info['tier']}{detail} | native available: "
        f"{'yes' if info['native_available'] else 'no'} | "
        + " ".join(f"{name}={info['tier']}" for name in KERNEL_NAMES)
    )
