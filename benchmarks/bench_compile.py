"""S6 -- compiled restriction checking vs the lattice interpreter.

Benchmarks :mod:`repro.core.compile` (bitmask histories, quantifier
domain pruning, monotone latching) against the reference
``LatticeChecker`` on the S1 chains-with-cross-talk workload, and
end-to-end through the engine.  Every timing asserts verdict equality
first -- the bench is a correctness gate before it is a timer.

Two ways to run it::

    PYTHONPATH=src python -m pytest benchmarks/bench_compile.py   # pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_compile.py [--quick] [--json FILE]

The second form delegates to ``repro.bench`` -- the same code path as
the ``repro bench`` CLI subcommand and the CI ``bench-gate`` job --
and writes/gates ``BENCH_checker.json`` (the committed baseline; see
docs/PERF.md).
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.bench import (  # noqa: E402
    CHECKER_WORKLOADS,
    build_chain_workload,
    safety_restriction,
)
from repro.core.checker import check_restriction  # noqa: E402

SIZES = [(c, l) for _, c, l, _ in CHECKER_WORKLOADS]


@pytest.mark.parametrize("chains,length", SIZES)
def test_s6_compiled_checker(benchmark, chains, length):
    """Compiled bitmask walk (includes compile + bind each round)."""
    comp = build_chain_workload(chains, length)
    restriction = safety_restriction()
    expected = check_restriction(comp, restriction, temporal_mode="lattice",
                                 history_cap=5_000_000)

    def check():
        fresh = build_chain_workload(chains, length)
        return check_restriction(fresh, restriction,
                                 temporal_mode="compiled",
                                 history_cap=5_000_000)

    got = benchmark.pedantic(check, rounds=3, iterations=1)
    assert (got.holds, got.detail) == (expected.holds, expected.detail)


@pytest.mark.parametrize("chains,length", SIZES)
def test_s6_interpreted_checker(benchmark, chains, length):
    """The reference interpreter on the same workloads, for the ratio."""
    comp = build_chain_workload(chains, length)
    restriction = safety_restriction()

    def check():
        return check_restriction(comp, restriction, temporal_mode="lattice",
                                 history_cap=5_000_000)

    got = benchmark.pedantic(check, rounds=3, iterations=1)
    assert got.holds


def test_s6_speedup_at_largest():
    """The tentpole claim: >=5x at the largest S1 size (recorded in
    BENCH_checker.json and EXPERIMENTS.md S6)."""
    from repro.bench import run_checker_bench

    results = run_checker_bench(quick=False, repeats=3)
    largest = results["checker:3x10"]
    print(f"\nS6: checker:3x10 speedup {largest['speedup']}x "
          f"(interpreted {largest['lattice_s']}s, "
          f"compiled {largest['compiled_s']}s)")
    assert largest["speedup"] >= 5.0, largest


if __name__ == "__main__":
    from repro.bench import main

    sys.exit(main())
