"""Route differential: the ``auto`` chain against the reference interpreter.

The engine checks every computation through one route chain
(``temporal_mode="auto"``: monitor verdict, DFA leaf, slice, compiled
walk, interpreter).  Which route decides is not part of GEM's
semantics, so on every explored distinct computation of every catalog
case and mutant the chain must produce the same outcomes -- restriction
name, verdict and detail string -- as the ``lattice`` interpreter.

The tier-1 run checks the first few distinct computations per case;
the full sweep (every distinct computation met within the first
:data:`SWEEP_MAX_RUNS` runs) is marked ``slow``.  The observed provenance of a few restrictions
is pinned, so a change that silently moves a restriction onto another
route shows up here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Set, Tuple

import pytest

from repro.cli import case_catalog
from repro.core.checker import check_restriction
from repro.core.errors import RunCapExceeded, SpecificationError
from repro.sim.scheduler import explore
from repro.verify.projection import project

#: Distinct computations per case in the tier-1 run.
TIER1_COMPUTATIONS = 3
#: Run cap of the full sweep.
SWEEP_MAX_RUNS = 3000

#: (case, restriction) -> the provenance every checked computation shows.
PINNED_PROVENANCE: Dict[Tuple[str, str], str] = {
    **{(case, name): "slice"
       for case in ("monitor-readers-writers", "csp-readers-writers",
                    "ada-readers-writers")
       for name in ("writers-exclude-readers", "readers-priority")},
    **{(case, "response-matches-invocation"): "slice"
       for case in ("objects-register", "objects-queue", "objects-lock",
                    "objects-counter")},
    **{(case, "every-deposit-completes"): "dfa"
       for case in ("monitor-one-slot-buffer", "csp-one-slot-buffer",
                    "ada-one-slot-buffer", "monitor-bounded-buffer",
                    "csp-bounded-buffer", "ada-bounded-buffer")},
    # the CSP bounded buffer states these as immediate restrictions
    ("csp-bounded-buffer", "capacity-2"): "",
    ("csp-bounded-buffer", "fifo-values"): "",
}


def catalog_workloads() -> Iterator[Tuple[str, bool]]:
    for name, entry in case_catalog().items():
        yield name, False
        if entry.has_mutant:
            yield name, True


def outcomes(result):
    return [(o.name, o.holds, o.detail) for o in result.outcomes]


def distinct_runs(program, limit: int, max_runs: int) -> Iterator:
    """The first run of each of up to ``limit`` distinct computations;
    a workload with more than ``max_runs`` runs ends at the cap."""
    seen: Set[str] = set()
    try:
        for run in explore(program, max_runs=max_runs):
            fp = run.computation.stable_fingerprint()
            if fp not in seen:
                seen.add(fp)
                yield run
                if len(seen) >= limit:
                    return
    except RunCapExceeded:
        return


def route_differential(case: str, mutant: bool, limit: int,
                       max_runs: int) -> Dict[str, Set[str]]:
    """Check up to ``limit`` distinct computations of one workload on
    both routes; return restriction name -> provenances observed."""
    program, spec, corr, pspec = case_catalog()[case].factory(mutant)
    provenance: Dict[str, Set[str]] = defaultdict(set)
    checked = 0
    for run in distinct_runs(program, limit, max_runs):
        checked += 1
        checks = [(spec, project(run.computation, corr))]
        if pspec is not None:
            checks.append((pspec, run.computation))
        for sp, comp in checks:
            auto = sp.check(comp)
            lattice = sp.check(comp, temporal_mode="lattice")
            assert outcomes(auto) == outcomes(lattice), (case, mutant, run)
            assert auto.legality_violations == lattice.legality_violations
            if sp is spec:
                for o in auto.outcomes:
                    provenance[o.name].add(o.provenance)
    assert checked, f"{case}: nothing explored"
    return provenance


def assert_pinned(case: str, provenance: Dict[str, Set[str]]) -> None:
    for (pinned_case, name), expected in PINNED_PROVENANCE.items():
        if pinned_case == case:
            assert provenance[name] == {expected}, (case, name,
                                                    provenance[name])


WORKLOADS = list(catalog_workloads())
IDS = [f"{c}{'-mutant' if m else ''}" for c, m in WORKLOADS]


class TestRouteDifferential:
    @pytest.mark.parametrize("case, mutant", WORKLOADS, ids=IDS)
    def test_auto_equals_lattice(self, case, mutant):
        provenance = route_differential(case, mutant, TIER1_COMPUTATIONS,
                                        SWEEP_MAX_RUNS)
        assert_pinned(case, provenance)

    @pytest.mark.slow
    @pytest.mark.parametrize("case, mutant", WORKLOADS, ids=IDS)
    def test_auto_equals_lattice_full_sweep(self, case, mutant):
        provenance = route_differential(case, mutant, SWEEP_MAX_RUNS,
                                        SWEEP_MAX_RUNS)
        assert_pinned(case, provenance)

    def test_pins_name_real_restrictions(self):
        """A pin on a renamed restriction would pass vacuously."""
        catalog = case_catalog()
        for case, name in PINNED_PROVENANCE:
            _program, spec, _corr, _pspec = catalog[case].factory(False)
            assert name in {r.name for r in spec.all_restrictions()}, (
                case, name)


class TestModes:
    def test_single_route_modes_ignore_decided(self):
        """An early verdict is honoured only on the auto route."""
        program, spec, corr, _pspec = case_catalog()[
            "monitor-one-slot-buffer"].factory(False)
        run = next(iter(explore(program)))
        comp = spec.label_threads(project(run.computation, corr))
        name = "every-deposit-completes"
        lie = {name: False}
        auto = {o.name: o for o in spec.check(comp, decided=lie).outcomes}
        assert not auto[name].holds
        assert auto[name].provenance == "dfa-early"
        for mode in ("compiled", "lattice", "exact"):
            honest = {o.name: o for o in spec.check(
                comp, temporal_mode=mode, decided=lie).outcomes}
            assert honest[name].holds, mode
            assert honest[name].provenance == "", mode

    def test_unknown_mode_is_rejected_for_immediate_restrictions_too(self):
        program, spec, corr, _pspec = case_catalog()[
            "monitor-one-slot-buffer"].factory(False)
        comp = project(next(iter(explore(program))).computation, corr)
        immediate = spec.restriction("deposit-chain")
        assert not immediate.formula.is_temporal()
        with pytest.raises(SpecificationError, match="temporal_mode"):
            check_restriction(comp, immediate, temporal_mode="slice")
