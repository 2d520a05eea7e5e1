"""Tests for the compiled restriction checker (repro.core.compile).

Covers the compiled-vs-lattice-vs-exact differential contract (>=200
seeded fuzz cases plus the planted fork-drops-enables engine mutant),
witness/ExplanationTrace invariance across modes, the PyPred fallback
path and its metrics, the history-cap guard, and the object-identity
micro-tests for the memoised closure / history / index caches the
compiler leans on.
"""

import random

import pytest

from repro.core import (
    ComputationBuilder,
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
    check_restriction,
    empty_history,
    event_index,
)
from repro.core.checker import RestrictionOutcome
from repro.core.plan import shape
from repro.core.errors import ComputationError
from repro.fuzz import (
    FORK_DROPS_ENABLES,
    CheckerArtifact,
    FuzzProgram,
    check_compiled_agrees,
    fuzz_correspondence,
    fuzz_problem_spec,
    random_computation,
    random_program_spec,
)
from tests.test_checker import fork_join, spec_for

#: Seeds for the differential sweep -- ISSUE asks for >= 200 cases.
DIFFERENTIAL_SEEDS = range(200)


def no_work_restriction() -> Restriction:
    """Fails on fork_join() only after the lattice walks past the empty
    history (Not(Occurred) is non-monotone, so no latching shortcut)."""
    return Restriction(
        "no-work", Henceforth(ForAll("w", "Work", Not(Occurred("w")))))


class TestDifferential:
    def test_compiled_vs_lattice_vs_exact_seeded(self):
        """200 seeded random computations x random □-formulas: the
        compiled checker must match the interpreter byte-for-byte and
        exact enumeration on the verdict."""
        failures = []
        checked = 0
        for seed in DIFFERENTIAL_SEEDS:
            rng = random.Random(seed)
            recipe = random_computation(rng, max_elements=3, max_events=6,
                                        with_groups=False)
            art = CheckerArtifact(recipe, rng.randrange(2 ** 32))
            comp = recipe.build()
            message = check_compiled_agrees(comp, art.restriction(comp))
            checked += 1
            if message is not None:
                failures.append((seed, message))
        assert checked >= 200
        assert not failures, failures[:5]

    def test_eventually_shapes_agree(self):
        """◇-rooted formulas exercise the AF walk (the artifact
        generator above only roots at □)."""
        failures = []
        for seed in range(40):
            rng = random.Random(1000 + seed)
            recipe = random_computation(rng, max_elements=3, max_events=5,
                                        with_groups=False)
            comp = recipe.build()
            art = CheckerArtifact(recipe, rng.randrange(2 ** 32), max_depth=2)
            body = art.restriction(comp).formula.body
            restriction = Restriction("fuzz-eventually", Eventually(body))
            lattice = check_restriction(comp, restriction,
                                        temporal_mode="lattice")
            compiled = check_restriction(comp, restriction,
                                         temporal_mode="compiled")
            if (lattice.holds, lattice.detail) != (compiled.holds,
                                                   compiled.detail):
                failures.append((seed, lattice, compiled))
        assert not failures, failures[:5]

    def test_oracle_catches_lying_compiled_checker(self):
        """Mutant seeding: a compiled evaluator that inverts verdicts
        must be reported by the differential oracle."""
        comp = fork_join()
        restriction = Restriction(
            "some-join", Henceforth(Exists("j", "Join", Occurred("j"))))

        def lying(c, r):
            honest = check_restriction(c, r, temporal_mode="lattice")
            return RestrictionOutcome(r.name, not honest.holds,
                                      "mutant verdict")

        message = check_compiled_agrees(comp, restriction,
                                        compiled_check=lying)
        assert message is not None and "disagrees" in message

    def test_fork_drops_enables_mutant_caught_identically(self):
        """The planted fork-drops-enables mutant perturbs computations
        built in forked workers; whatever it does, it cannot open
        daylight between the checking routes -- on the computations
        its program builds, and through a forked engine run with the
        exploration monitor on or off."""
        from itertools import islice

        from repro.engine import EngineConfig, run_verification
        from repro.sim.scheduler import explore
        from repro.verify.projection import project

        rng = random.Random(7)
        spec = random_program_spec(rng, bug=FORK_DROPS_ENABLES)
        problem_spec = fuzz_problem_spec(spec)
        correspondence = fuzz_correspondence(spec)

        for run in islice(explore(FuzzProgram(spec), max_steps=48), 32):
            comp = project(run.computation, correspondence)
            by_mode = [
                [(o.name, o.holds, o.detail) for o in problem_spec.check(
                    comp, temporal_mode=mode).outcomes]
                for mode in ("auto", "compiled", "lattice")]
            assert by_mode[0] == by_mode[1] == by_mode[2]

        def signature(dfa):
            config = EngineConfig(jobs=2, max_steps=48, max_runs=256,
                                  dfa=dfa)
            report, _stats = run_verification(
                FuzzProgram(spec), problem_spec, correspondence,
                config=config)
            return report.signature()

        assert signature(True) == signature(False)


class TestDiagnosticParity:
    def test_witness_identical_across_modes(self):
        comp = fork_join()
        restriction = no_work_restriction()
        compiled = check_restriction(comp, restriction,
                                     temporal_mode="compiled",
                                     with_witness=True)
        lattice = check_restriction(comp, restriction,
                                    temporal_mode="lattice",
                                    with_witness=True)
        assert not compiled.holds
        assert "witness" in compiled.detail
        assert compiled.detail == lattice.detail

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

        compiled = explanations("compiled")
        assert compiled  # the failure was explained...
        assert compiled == explanations("lattice")  # ...identically


class TestFallbackAndMetrics:
    def test_pypred_is_not_compilable(self):
        assert shape(PyPred("always", lambda h, env: True)).uncompiled
        assert not shape(no_work_restriction().formula).uncompiled

    def test_formula_subclass_falls_back(self):
        """User subclasses may override semantics; the compiler must
        not silently assume the base-class meaning."""

        class InvertedOccurred(Occurred):
            pass

        assert shape(InvertedOccurred("x")).uncompiled

    def test_pypred_falls_back_and_counts(self):
        from repro.obs import MetricsRegistry

        comp = fork_join()
        restriction = Restriction(
            "py-escape", Henceforth(PyPred("always", lambda h, env: True)))
        metrics = MetricsRegistry()
        outcome = check_restriction(comp, restriction,
                                    temporal_mode="compiled", metrics=metrics)
        assert outcome.holds
        assert metrics.get("checker.fallbacks",
                           restriction="py-escape") == 1
        assert metrics.get("checker.compiled_evals",
                           restriction="py-escape") == 0.0

    def test_compiled_evals_counted(self):
        from repro.obs import MetricsRegistry

        comp = fork_join()
        metrics = MetricsRegistry()
        outcome = check_restriction(comp, no_work_restriction(),
                                    temporal_mode="compiled", metrics=metrics)
        assert not outcome.holds
        assert metrics.get("checker.compiled_evals",
                           restriction="no-work") >= 1
        assert metrics.get("checker.fallbacks",
                           restriction="no-work") == 0.0

    def test_immediate_restrictions_take_the_interpreter_in_every_mode(self):
        """An immediate restriction is one evaluation at the complete
        computation, whatever the mode: the compiler never sees it."""
        from repro.obs import MetricsRegistry

        comp = fork_join()
        for restriction in (
                Restriction("work-after-fork", ForAll(
                    "w", "Work", Implies(Occurred("w"),
                                         Exists("f", "Fork", Occurred("f"))))),
                Restriction("no-work-at-all",
                            ForAll("w", "Work", Not(Occurred("w"))))):
            assert not shape(restriction.formula).uncompiled
            metrics = MetricsRegistry()
            outcomes = {(o.holds, o.detail) for o in (
                check_restriction(comp, restriction, temporal_mode=mode,
                                  metrics=metrics)
                for mode in ("auto", "compiled", "lattice", "exact"))}
            assert len(outcomes) == 1, outcomes
            names = {r["name"] for r in metrics.records()
                     if r["labels"].get("restriction") == restriction.name}
            assert "checker.evals" in names
            assert not {"checker.compiled_evals",
                        "checker.fallbacks"} & names, names

    def test_history_cap_enforced(self):
        comp = fork_join()
        with pytest.raises(ComputationError):
            check_restriction(comp, no_work_restriction(),
                              temporal_mode="compiled", history_cap=1)

    def test_check_computation_compiled_matches_lattice(self):
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
        compiled = check_computation(comp, spec, temporal_mode="compiled")
        lattice = check_computation(comp, spec, temporal_mode="lattice")
        assert ([(o.name, o.holds, o.detail) for o in compiled.outcomes]
                == [(o.name, o.holds, o.detail) for o in lattice.outcomes])


class TestMemoIdentity:
    """The satellite micro-tests: caches must hand back the same object."""

    def test_closure_table_identity(self):
        comp = fork_join()
        relation = comp.temporal_relation
        assert relation.closure_table() is relation.closure_table()

    def test_history_cache_identity(self):
        comp = fork_join()
        h = empty_history(comp)
        assert h.addable() is h.addable()
        assert h.frontier() is h.frontier()

    def test_event_index_identity(self):
        comp = fork_join()
        assert event_index(comp) is event_index(comp)
