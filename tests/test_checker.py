"""Unit tests for the checker, including lattice-vs-exact cross-validation."""

import pytest

from repro.core import (
    ComputationBuilder,
    ElementDecl,
    Eventually,
    EventClass,
    Exists,
    ForAll,
    FalseF,
    Henceforth,
    Implies,
    LatticeChecker,
    Not,
    Occurred,
    Restriction,
    Specification,
    TrueF,
    check_computation,
    check_restriction,
    check_safety_at_all_histories,
    empty_history,
    maximal_history_sequences,
)
from repro.core.errors import ComputationError, SpecificationError


def fork_join():
    b = ComputationBuilder()
    f = b.add_event("P", "Fork")
    w1 = b.add_event("Q", "Work")
    w2 = b.add_event("R", "Work")
    j = b.add_event("S", "Join")
    b.add_enable(f, w1)
    b.add_enable(f, w2)
    b.add_enable(w1, j)
    b.add_enable(w2, j)
    return b.freeze()


def spec_for(comp, *restrictions):
    elements = [
        ElementDecl.make(el, [EventClass(ev.event_class)
                              for ev in comp.events_at(el)])
        for el in comp.elements()
    ]
    # deduplicate event classes per element
    elements = [
        ElementDecl.make(e.name, {ec.name: ec for ec in e.event_classes}.values())
        for e in elements
    ]
    return Specification("test-spec", elements=elements,
                         restrictions=list(restrictions))


class TestImmediateChecking:
    def test_immediate_holds(self):
        c = fork_join()
        r = Restriction("some-join", Exists("j", "Join", Occurred("j")))
        outcome = check_restriction(c, r)
        assert outcome.holds

    def test_immediate_fails(self):
        c = fork_join()
        r = Restriction("no-forks", ForAll("f", "Fork", Not(Occurred("f"))))
        outcome = check_restriction(c, r)
        assert not outcome.holds
        assert "complete computation" in outcome.detail

    def test_immediate_restrictions_take_the_interpreter_in_every_mode(self):
        """An immediate restriction is one evaluation at the complete
        computation, whatever the mode, with no route tally."""
        from repro.obs import MetricsRegistry

        comp = fork_join()
        for restriction in (
                Restriction("work-after-fork", ForAll(
                    "w", "Work", Implies(Occurred("w"),
                                         Exists("f", "Fork", Occurred("f"))))),
                Restriction("no-work-at-all",
                            ForAll("w", "Work", Not(Occurred("w"))))):
            metrics = MetricsRegistry()
            outcomes = {(o.holds, o.detail, o.provenance) for o in (
                check_restriction(comp, restriction, temporal_mode=mode,
                                  metrics=metrics)
                for mode in ("auto", "lattice", "exact"))}
            assert len(outcomes) == 1, outcomes
            names = {r["name"] for r in metrics.records()
                     if r["labels"].get("restriction") == restriction.name}
            assert names == {"checker.evals", "checker.seconds"}, names


class TestLatticeMode:
    def test_ag_safety(self):
        c = fork_join()
        # work implies fork occurred, at every history
        f = Henceforth(
            ForAll("w", "Work",
                   Implies(Occurred("w"), Exists("f", "Fork", Occurred("f"))))
        )
        r = Restriction("fork-before-work", f)
        assert check_restriction(c, r, temporal_mode="lattice").holds

    def test_ag_detects_violation(self):
        c = fork_join()
        f = Henceforth(ForAll("w", "Work", Occurred("w")))
        r = Restriction("work-everywhere", f)
        assert not check_restriction(c, r, temporal_mode="lattice").holds

    def test_af_liveness(self):
        c = fork_join()
        f = Eventually(ForAll("j", "Join", Occurred("j")))
        r = Restriction("join-eventually", f)
        assert check_restriction(c, r, temporal_mode="lattice").holds

    def test_af_failure(self):
        c = fork_join()
        r = Restriction("never", Eventually(FalseF()))
        assert not check_restriction(c, r, temporal_mode="lattice").holds

    def test_nested_response(self):
        c = fork_join()
        # whenever a Work has occurred, eventually Join occurs
        f = Henceforth(
            ForAll("w", "Work",
                   Implies(Occurred("w"),
                           Eventually(Exists("j", "Join", Occurred("j")))))
        )
        r = Restriction("work-then-join", f)
        assert check_restriction(c, r, temporal_mode="lattice").holds

    def test_lattice_checker_reuse(self):
        c = fork_join()
        lc = LatticeChecker(c)
        f1 = Henceforth(TrueF())
        f2 = Eventually(TrueF())
        assert lc.holds(f1)
        assert lc.holds(f2)

    def test_history_cap(self):
        b = ComputationBuilder()
        for i in range(12):
            b.add_event(f"E{i}", "A")
        c = b.freeze()  # 2^12 down-sets
        lc = LatticeChecker(c, history_cap=50)
        with pytest.raises(ComputationError, match="history_cap"):
            lc.holds(Henceforth(TrueF()))

    def test_history_cap_enforced(self):
        """The cap binds through ``check_restriction`` too."""
        c = fork_join()
        r = Restriction("no-work",
                        Henceforth(ForAll("w", "Work", Not(Occurred("w")))))
        with pytest.raises(ComputationError):
            check_restriction(c, r, temporal_mode="lattice", history_cap=1)

    def test_boolean_combinations_of_temporal(self):
        c = fork_join()
        lc = LatticeChecker(c)
        assert lc.holds(Not(Eventually(FalseF())))
        assert lc.holds(Henceforth(TrueF()) & Eventually(TrueF()))
        assert lc.holds(Eventually(FalseF()) | Henceforth(TrueF()))
        assert lc.holds(Implies(Eventually(FalseF()), Henceforth(FalseF())))

    def test_quantified_temporal(self):
        c = fork_join()
        lc = LatticeChecker(c)
        f = ForAll("w", "Work", Eventually(Occurred("w")))
        assert lc.holds(f)


class TestExactMode:
    def test_exact_agrees_with_lattice_on_safety(self):
        c = fork_join()
        f = Henceforth(
            ForAll("w", "Work",
                   Implies(Occurred("w"), Exists("f", "Fork", Occurred("f"))))
        )
        r = Restriction("fork-before-work", f)
        exact = check_restriction(c, r, temporal_mode="exact")
        lattice = check_restriction(c, r, temporal_mode="lattice")
        assert exact.holds == lattice.holds == True  # noqa: E712

    def test_exact_agrees_on_liveness(self):
        c = fork_join()
        f = Eventually(Exists("j", "Join", Occurred("j")))
        r = Restriction("live", f)
        assert check_restriction(c, r, temporal_mode="exact").holds
        assert check_restriction(c, r, temporal_mode="lattice").holds

    def test_exact_counterexample_detail(self):
        c = fork_join()
        r = Restriction("bad", Eventually(FalseF()))
        outcome = check_restriction(c, r, temporal_mode="exact")
        assert not outcome.holds
        assert "vhs" in outcome.detail

    def test_unknown_mode_rejected(self):
        c = fork_join()
        r = Restriction("r", Henceforth(TrueF()))
        with pytest.raises(SpecificationError):
            check_restriction(c, r, temporal_mode="sideways")

    def test_cross_validation_on_random_monotone_formulae(self):
        """Lattice AG/AF equals ∀-vhs □/◇ for monotone operands."""
        import itertools
        import random

        rng = random.Random(42)
        for trial in range(12):
            nb = ComputationBuilder()
            events = []
            n = rng.randint(3, 6)
            for i in range(n):
                events.append(nb.add_event(f"E{i % 3}", f"C{i % 2}"))
            # random forward edges (acyclic by construction)
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < 0.3:
                    try:
                        nb.add_enable(events[i], events[j])
                    except Exception:
                        pass
            try:
                c = nb.freeze()
            except Exception:
                continue
            target = rng.choice(events)
            monotone = Exists("x", "C0", Occurred("x"))
            for formula in (
                Henceforth(Implies(Occurred("t"), monotone)),
                Eventually(Occurred("t")),
                Henceforth(Implies(Occurred("t"), Eventually(monotone))),
            ):
                lc = LatticeChecker(c)
                lattice = lc.holds(formula, env={"t": target})
                exact = all(
                    formula.holds_on(seq, {"t": target})
                    for seq in maximal_history_sequences(c, max_step=1, cap=5000)
                )
                assert lattice == exact, (
                    f"trial {trial}: lattice={lattice} exact={exact} "
                    f"formula={formula.describe()}"
                )


class TestCheckComputation:
    def test_full_check_ok(self):
        c = fork_join()
        s = spec_for(
            c,
            Restriction("some-join", Exists("j", "Join", Occurred("j"))),
            Restriction("safety", Henceforth(TrueF())),
        )
        result = check_computation(c, s)
        assert result.ok
        assert len(result.outcomes) == 2

    def test_full_check_reports_all_failures(self):
        c = fork_join()
        s = spec_for(
            c,
            Restriction("fail-1", FalseF()),
            Restriction("fail-2", Eventually(FalseF())),
            Restriction("ok-1", TrueF()),
        )
        result = check_computation(c, s)
        assert not result.ok
        assert set(result.failed_restrictions()) == {"fail-1", "fail-2"}

    def test_exact_mode_through_check_computation(self):
        c = fork_join()
        s = spec_for(c, Restriction("safety", Henceforth(TrueF())))
        assert check_computation(c, s, temporal_mode="exact").ok


class TestSafetyAtAllHistories:
    def test_equivalent_to_box(self):
        c = fork_join()
        inner = ForAll("w", "Work",
                       Implies(Occurred("w"), Exists("f", "Fork", Occurred("f"))))
        assert check_safety_at_all_histories(c, inner)
        assert not check_safety_at_all_histories(c, ForAll("w", "Work", Occurred("w")))


class TestWitnessIntegration:
    def test_failed_outcome_carries_witness(self):
        c = fork_join()
        r = Restriction("no-forks", ForAll("f", "Fork", Not(Occurred("f"))))
        outcome = check_restriction(c, r, with_witness=True)
        assert not outcome.holds
        assert "witness" in outcome.detail
        assert "f = " in outcome.detail

    def test_temporal_failure_witness(self):
        c = fork_join()
        r = Restriction(
            "join-never",
            Henceforth(ForAll("j", "Join", Not(Occurred("j")))))
        outcome = check_restriction(c, r, with_witness=True,
                                    temporal_mode="lattice")
        assert not outcome.holds
        assert "witness" in outcome.detail

    def test_passing_outcome_has_no_witness_cost(self):
        c = fork_join()
        r = Restriction("some-join", Exists("j", "Join", Occurred("j")))
        outcome = check_restriction(c, r, with_witness=True)
        assert outcome.holds
        assert outcome.detail == ""


class TestVhsStepGranularity:
    """□/◇ semantics vs. vhs step granularity, made explicit.

    For *monotone* bodies (built from occurred/∧/∨/quantifiers) the
    single-step (linear) semantics, the antichain-step semantics, and
    the lattice evaluator all agree.  For non-monotone bodies the
    antichain semantics can be strictly stricter for ◇ -- a simultaneous
    step can jump over the only satisfying history.  The checker's
    documented semantics is the single-step one.
    """

    def two_concurrent(self):
        b = ComputationBuilder()
        b.add_event("A", "X")
        b.add_event("B", "X")
        return b.freeze()

    def test_non_monotone_diamond_depends_on_step_size(self):
        from repro.core import Eventually, PyPred, maximal_history_sequences

        c = self.two_concurrent()
        exactly_one = PyPred(
            "exactly-one-occurred",
            lambda h, env: len(h.events) == 1)
        formula = Eventually(exactly_one)
        linear = all(formula.holds_on(s)
                     for s in maximal_history_sequences(c, max_step=1))
        antichain = all(formula.holds_on(s)
                        for s in maximal_history_sequences(c, max_step=None))
        assert linear is True        # every linear vhs passes a singleton
        assert antichain is False    # the simultaneous step jumps over it

    def test_monotone_diamond_insensitive_to_step_size(self):
        from repro.core import Eventually, maximal_history_sequences

        c = self.two_concurrent()
        ev = c.events[0]
        formula = Eventually(Occurred("e"))
        for max_step in (1, None):
            assert all(formula.holds_on(s, {"e": ev})
                       for s in maximal_history_sequences(c,
                                                          max_step=max_step))
        assert LatticeChecker(c).holds(formula, env={"e": ev})
