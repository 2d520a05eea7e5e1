"""Route differential: the ``auto`` chain against the reference interpreter.

The engine checks every computation through one route chain
(``temporal_mode="auto"``: monitor verdict, DFA leaf, slice,
interpreter).  Which route decides is not part of GEM's semantics, so
on every explored distinct computation of every catalog case and
mutant the chain must produce the same outcomes -- restriction name,
verdict and detail string -- as the ``lattice`` interpreter.

The tier-1 run checks the first few distinct computations per case;
the full sweep (every distinct computation met within the first
:data:`SWEEP_MAX_RUNS` runs) is marked ``slow``.  The observed provenance of a few restrictions
is pinned, so a change that silently moves a restriction onto another
route shows up here.

The same contract on small hand-built computations: witnesses and
explanation traces equal across modes, a lying ``auto`` check caught by
the ``route-differential`` fuzz oracle, a planted engine mutant that
cannot open daylight between routes, and opaque nodes (``PyPred``, a
user subclass of a built-in node) left to the interpreter.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Set, Tuple

import random

import pytest

from repro.cli import case_catalog
from repro.core import (
    And,
    Eventually,
    Exists,
    ForAll,
    Henceforth,
    Implies,
    Not,
    Occurred,
    PyPred,
    Restriction,
    check_computation,
)
from repro.core.checker import RestrictionOutcome, check_restriction
from repro.core.errors import RunCapExceeded, SpecificationError
from repro.fuzz import (
    FORK_DROPS_ENABLES,
    FuzzProgram,
    check_routes_agree,
    fuzz_correspondence,
    fuzz_problem_spec,
    random_program_spec,
)
from repro.sim.scheduler import explore
from repro.verify.projection import project
from tests.test_checker import fork_join, spec_for

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
        for mode in ("lattice", "exact"):
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


def no_work_restriction() -> Restriction:
    """Fails on fork_join() only after the lattice walks past the empty
    history (Not(Occurred) is non-monotone)."""
    return Restriction(
        "no-work", Henceforth(ForAll("w", "Work", Not(Occurred("w")))))


class TestDiagnosticParity:
    def test_witness_identical_across_modes(self):
        comp = fork_join()
        restriction = no_work_restriction()
        auto = check_restriction(comp, restriction, with_witness=True)
        lattice = check_restriction(comp, restriction,
                                    temporal_mode="lattice",
                                    with_witness=True)
        assert not auto.holds
        assert auto.provenance == "slice"
        assert "witness" in auto.detail
        assert auto.detail == lattice.detail

    def test_explanation_trace_identical_across_modes(self):
        from repro.obs import Tracer

        comp = fork_join()
        restriction = no_work_restriction()

        def explanations(mode):
            tracer = Tracer()
            outcome = check_restriction(comp, restriction,
                                        temporal_mode=mode, tracer=tracer)
            assert not outcome.holds
            return tracer.explanations

        auto = explanations("auto")
        assert auto  # the failure was explained...
        assert auto == explanations("lattice")  # ...identically


class TestRouteOracle:
    def test_kills_a_lying_auto_check(self):
        """Mutant seeding: an ``auto`` evaluator that inverts verdicts
        must be reported by the route-differential oracle."""
        comp = fork_join()
        restriction = Restriction(
            "some-join", Henceforth(Exists("j", "Join", Occurred("j"))))

        def lying(c, r):
            honest = check_restriction(c, r, temporal_mode="lattice")
            return RestrictionOutcome(r.name, not honest.holds,
                                      "mutant verdict")

        assert check_routes_agree(comp, restriction) is None
        message = check_routes_agree(comp, restriction, auto_check=lying)
        assert message is not None and "disagrees" in message

    def test_fork_drops_enables_mutant_caught_identically(self):
        """The planted fork-drops-enables mutant perturbs computations
        built in forked workers; whatever it does, it cannot open
        daylight between the checking routes -- on the computations
        its program builds, and through a forked engine run with the
        exploration monitor on or off."""
        from itertools import islice

        from repro.engine import EngineConfig, run_verification

        rng = random.Random(7)
        spec = random_program_spec(rng, bug=FORK_DROPS_ENABLES)
        problem_spec = fuzz_problem_spec(spec)
        correspondence = fuzz_correspondence(spec)

        for run in islice(explore(FuzzProgram(spec), max_steps=48), 32):
            comp = project(run.computation, correspondence)
            auto, lattice = (
                [(o.name, o.holds, o.detail) for o in problem_spec.check(
                    comp, temporal_mode=mode).outcomes]
                for mode in ("auto", "lattice"))
            assert auto == lattice

        def signature(dfa):
            config = EngineConfig(jobs=2, max_steps=48, max_runs=256,
                                  dfa=dfa)
            report, _stats = run_verification(
                FuzzProgram(spec), problem_spec, correspondence,
                config=config)
            return report.signature()

        assert signature(True) == signature(False)

    def test_check_computation_auto_matches_lattice(self):
        comp = fork_join()
        spec = spec_for(
            comp,
            no_work_restriction(),
            Restriction("some-join",
                        Eventually(Exists("j", "Join", Occurred("j")))),
            Restriction("work-after-fork", Henceforth(ForAll(
                "w", "Work",
                Implies(Occurred("w"),
                        Exists("f", "Fork", Occurred("f")))))),
        )
        auto = check_computation(comp, spec)
        lattice = check_computation(comp, spec, temporal_mode="lattice")
        assert outcomes(auto) == outcomes(lattice)
        assert [o.provenance for o in auto.outcomes] == [
            "slice", "dfa", "slice"]


class NotYet(Occurred):
    """A user subclass that overrides the meaning of its base class:
    ``NotYet(w)`` holds while ``w`` has *not* occurred."""

    def _eval(self, history, env):
        return not super()._eval(history, env)


class TestOpaqueNodes:
    def test_pypred_takes_the_walk_and_counts(self):
        from repro.obs import MetricsRegistry

        comp = fork_join()
        restriction = Restriction(
            "py-escape", Henceforth(PyPred("always", lambda h, env: True)))
        metrics = MetricsRegistry()
        outcome = check_restriction(comp, restriction, metrics=metrics)
        assert outcome.holds
        assert outcome.provenance == "walk"
        assert metrics.get("checker.slice_fallbacks",
                           restriction="py-escape") == 1
        assert metrics.get("checker.evals", restriction="py-escape") >= 1

    @pytest.mark.parametrize("name, build", [
        ("some-work-not-yet",
         lambda atom: Eventually(Exists("w", "Work", atom("w")))),
        ("after-join-all-work-done",
         lambda atom: Henceforth(Implies(
             Exists("j", "Join", Occurred("j")),
             ForAll("w", "Work", Not(atom("w")))))),
        ("join-before-some-work",
         lambda atom: Eventually(Exists("w", "Work", And((
             atom("w"), Exists("j", "Join", Occurred("j"))))))),
    ], ids=["dfa-leaf", "slice", "twin-plan"])
    def test_formula_subclass_agrees_across_modes(self, name, build):
        """The DFA leaf and the slice read a node by its built-in type;
        a subclass means what its own ``_eval`` says, so they leave it
        to the interpreter -- in a bare check, and in a specification
        whose plan would otherwise be shared with its base-class twin
        (both describe alike; the twin's DFA leaf says True on the
        last shape, where the subclass fails)."""
        comp = fork_join()
        restriction = Restriction(name, build(NotYet))
        verdicts = {mode: check_restriction(comp, restriction,
                                            temporal_mode=mode)
                    for mode in ("auto", "lattice", "exact")}
        assert len({v.holds for v in verdicts.values()}) == 1, verdicts
        assert verdicts["auto"].provenance == "walk"
        check_computation(comp, spec_for(comp, Restriction(
            name, build(Occurred))))  # plans the base-class twin first
        assert {check_computation(comp, spec_for(comp, restriction),
                                  temporal_mode=mode).ok
                for mode in ("auto", "lattice", "exact")} == {
            verdicts["lattice"].holds}
