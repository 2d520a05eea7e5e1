"""Fresh-interpreter set-up probe for the one-shot workloads.

    python3 perfbench/probe.py WORKLOAD

Imports ``repro`` from the checkout's ``src/``, builds the workload's
cases and primes their specification plans, then exits.  ``run.py``
times this process from launch to exit as ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if __name__ == "__main__":
    import repro.verify  # noqa: F401 - the entry point a user imports
    from workloads import WORKLOADS, build_objects

    build_objects(WORKLOADS[sys.argv[1]][1])
