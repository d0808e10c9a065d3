"""The MILP backend's scipy import is deferred to its first use.

``scipy.sparse`` and ``scipy.optimize`` dominate a cold interpreter's
import time, and only the MILP planner needs them.  Each check runs in
a fresh interpreter, since this test process has usually loaded scipy
already.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: A deterministic MILP problem both interpreters solve: node-limited,
#: so the outcome does not depend on host load.
MILP_PROBLEM = textwrap.dedent(
    """
    from repro.cluster.topology import standard_cluster
    from repro.core.planner import PlannerConfig, plan_microbatch
    from repro.cost.profiler import fit_cost_model
    from repro.model.config import GPT_7B

    LENGTHS = (12000, 8000, 6000, 4096, 2048, 2048, 1024, 512)
    MODEL = fit_cost_model(GPT_7B.with_max_context(32 * 1024), standard_cluster(8))
    CONFIG = PlannerConfig(node_limit=200)
    """
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_greedy_paths_never_load_scipy():
    greedy_pass = textwrap.dedent(
        """
        import sys

        import repro
        import repro.bench
        import repro.experiments.campaign
        import repro.experiments.sweep
        import repro.service.transport
        from repro.core.solver import SolverConfig
        from repro.experiments.campaign import build_campaign
        from repro.experiments.sweep import SweepRunner

        config = SolverConfig(backend="greedy", num_trials=2)
        with SweepRunner(solver_config=config) as runner:
            build_campaign("smoke").run(runner)
        for name in ("scipy.optimize", "scipy.sparse"):
            assert name not in sys.modules, name
        """
    )
    out = run_fresh(
        greedy_pass
        + MILP_PROBLEM
        + "print(repr(plan_microbatch(LENGTHS, MODEL, CONFIG)))\n"
    )
    namespace: dict = {}
    exec(MILP_PROBLEM, namespace)
    reference = namespace["plan_microbatch"](
        namespace["LENGTHS"], namespace["MODEL"], namespace["CONFIG"]
    )
    assert out.strip() == repr(reference)


def test_long_lived_milp_owners_preload_before_serving_or_forking():
    out = run_fresh(
        """
        import sys

        from repro.cluster.topology import standard_cluster
        from repro.core.pools import live_pool_count
        from repro.core.solver import SolverConfig, SolverService
        from repro.cost.profiler import fit_cost_model
        from repro.model.config import GPT_7B
        from repro.service.service import PlanService


        def loaded():
            return "scipy.optimize" in sys.modules

        baseline = live_pool_count()
        PlanService(solver_config=SolverConfig(backend="greedy"), autostart=False).close()
        assert not loaded(), "greedy service loaded the MILP API"

        model = fit_cost_model(GPT_7B.with_max_context(32 * 1024), standard_cluster(8))
        service = SolverService(model, SolverConfig(backend="milp", workers=2))
        pool = service._ensure_pool()
        assert loaded(), "SolverService forked without the MILP API"
        assert pool.submit(loaded).result(timeout=120), "worker lacks it"
        service.close()
        assert live_pool_count() == baseline
        print("solver-service ok")
        """
    )
    assert "solver-service ok" in out
    out = run_fresh(
        """
        import sys

        from repro.core.pools import live_pool_count
        from repro.core.solver import SolverConfig
        from repro.service.service import PlanService

        baseline = live_pool_count()
        service = PlanService(
            solver_config=SolverConfig(backend="milp"), solver_workers=2
        )
        assert "scipy.optimize" in sys.modules
        service.close()
        assert live_pool_count() == baseline
        print("plan-service ok")
        """
    )
    assert "plan-service ok" in out
