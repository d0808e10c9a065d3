"""Run one benchmark workload against this checkout's ``src/repro``.

Usage, from the repository root::

    python3 perfbench/run.py --workload {campaign,serve} \\
        --seed N --seconds S --trace {0,1}

Exits non-zero without printing a result when the program's sources
are not next to the benchmark.
"""

import sys
import time
from pathlib import Path

#: Taken before the program and its dependencies are imported.
STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {ROOT / 'src'}\n")
        sys.exit(2)
    # The checkout's sources first, so an installed copy is never
    # timed; the script's own directory is dropped so its module names
    # cannot shadow anything.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main(STARTED))
