"""S1 -- checker scaling (added; the paper reports no measurements).

How the three core operations scale with computation size:

* building a computation (transitive closure over the event DAG, which
  also enforces the order legality rules);
* legality checking against a specification (the spec-relative rules:
  declared elements and classes, scope);
* temporal (lattice) checking of a □ safety formula.

Workload: chains-with-cross-talk -- P parallel chains of L events each,
with every k-th event cross-enabling its neighbour chain; mostly
sequential per chain, so the history lattice stays tractable while the
closure works over P·L events.
"""

import pytest

from repro.core import (
    ComputationBuilder,
    ElementDecl,
    EventClass,
    Exists,
    ForAll,
    Henceforth,
    Implies,
    LatticeChecker,
    Occurred,
    ParamSpec,
    Specification,
    check_legality,
)


def build_workload(chains: int, length: int, cross_every: int = 4):
    b = ComputationBuilder()
    rows = []
    for c in range(chains):
        row = []
        prev = None
        for i in range(length):
            ev = b.add_event(f"chain{c}", "Step", {"i": i})
            if prev is not None:
                b.add_enable(prev, ev)
            prev = ev
            row.append(ev)
        rows.append(row)
    for c in range(chains - 1):
        for i in range(0, length, cross_every):
            b.add_enable(rows[c][i], rows[c + 1][i])
    return b.freeze()


def spec_for(chains: int):
    elements = [
        ElementDecl.make(f"chain{c}",
                         [EventClass("Step", (ParamSpec("i", "INTEGER"),))])
        for c in range(chains)
    ]
    return Specification("scaling", elements=elements)


@pytest.mark.parametrize("chains,length", [(2, 50), (4, 100), (8, 200),
                                           (8, 400)])
def test_s1_build_scaling(benchmark, chains, length):
    comp = benchmark(lambda: build_workload(chains, length))
    assert len(comp) == chains * length


@pytest.mark.parametrize("chains,length", [(2, 50), (4, 100), (8, 200)])
def test_s1_legality_scaling(benchmark, chains, length):
    comp = build_workload(chains, length)
    spec = spec_for(chains)
    violations = benchmark(lambda: check_legality(comp, spec))
    assert violations == []


@pytest.mark.parametrize("chains,length", [(2, 10), (2, 20), (3, 10)])
def test_s1_lattice_safety_scaling(benchmark, chains, length):
    """□(last step of chain0 occurred ⊃ first step occurred)."""
    comp = build_workload(chains, length, cross_every=2)
    formula = Henceforth(ForAll(
        "x", "chain0.Step",
        Implies(Occurred("x"), Exists("y", "chain0.Step", Occurred("y")))))

    def check():
        return LatticeChecker(comp, history_cap=5_000_000).holds(formula)

    assert benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.parametrize("chains,length", [(2, 8), (2, 12), (3, 8)])
def test_s1_history_count_growth(benchmark, chains, length):
    """Down-set counts: the measured blow-up that motivates the lattice
    checker's memoisation and the exact mode's caps."""
    from repro.core import all_histories

    comp = build_workload(chains, length, cross_every=2)
    histories = benchmark(lambda: all_histories(comp, cap=2_000_000))
    assert len(histories) >= length
    print(f"\nS1: {chains}x{length} -> {len(histories)} histories")
