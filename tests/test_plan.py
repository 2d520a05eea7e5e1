"""The one restriction plan (``repro.core.plan``).

Every route reads its static facts from one :class:`SpecPlan` per
specification content.  The plan replaced separate shape analyses;
``tests/reference_plan.py`` keeps the restriction-automata classifier
verbatim, and the plan must agree with it on every restriction of
every catalog problem and program specification, mutants included, and
on random formulas: same DFA kind, reason and alphabet.

The plan's own promises are pinned too: one memo serves the checker and
the monitor, a bound plan builds nothing until a route asks, and the
lattice-size histogram counts the walk that actually ran.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator, Tuple

from hypothesis import given, settings, strategies as st

import tests.reference_plan as reference
from repro.cli import case_catalog
from repro.core.automata import automata_plan_for, classify_restriction
from repro.core.checker import check_computation, check_restriction
from repro.core.formula import (
    And,
    Eventually,
    ExistsUnique,
    ForAll,
    Henceforth,
    Iff,
    Implies,
    New,
    Not,
    Occurred,
    Potential,
    PyPred,
    Restriction,
)
from repro.core.plan import plan_for, shape
from repro.fuzz import random_computation
from repro.fuzz.generators import random_formula
from repro.obs import MetricsRegistry
from repro.sim.scheduler import explore
from repro.verify.projection import project


def catalog_restrictions() -> Iterator[Tuple[str, object, Restriction]]:
    """(workload, spec, restriction) for every catalog problem and
    program specification, mutants included."""
    for name, entry in case_catalog().items():
        for mutant in ((False, True) if entry.has_mutant else (False,)):
            _program, problem, _corr, program_spec = entry.factory(mutant)
            label = f"{name}{' --mutant' if mutant else ''}"
            for spec in (problem, program_spec):
                if spec is not None:
                    for r in spec.all_restrictions():
                        yield label, spec, r


def assert_matches_reference(restriction: Restriction, planned=None) -> None:
    want = reference.classify_restriction(restriction)
    for got in (classify_restriction(restriction),
                planned.automaton if planned is not None
                and planned.temporal else None):
        if got is None:
            continue
        assert (got.kind, got.reason, got.alphabet) == (
            want.kind, want.reason, want.alphabet), restriction.describe()
        assert repr(got.stripped) == repr(want.stripped)


class TestReference:
    def test_catalog_restrictions_match_reference(self):
        seen = 0
        for label, spec, r in catalog_restrictions():
            planned = plan_for(spec).restrictions[r.name]
            assert planned.restriction.name == r.name
            assert planned.temporal == r.formula.is_temporal(), label
            assert_matches_reference(r, planned)
            seen += 1
        assert seen > 100

    def test_immediate_restrictions_never_route_to_the_compiler(self):
        immediate = 0
        for label, spec, r in catalog_restrictions():
            planned = plan_for(spec).restrictions[r.name]
            if not planned.temporal:
                assert planned.route == ("lattice",), (label, r.name)
                immediate += 1
        assert immediate > 0

    def test_catalog_plans_are_shared(self):
        for _label, spec, _r in catalog_restrictions():
            assert plan_for(spec) is automata_plan_for(spec)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), wrap=st.integers(0, 11))
    def test_random_formulas_match_reference(self, seed, wrap):
        rng = random.Random(seed)
        comp = random_computation(rng, max_elements=3, max_events=6,
                                  with_groups=False).build()
        f = random_formula(rng, comp, max_depth=3)
        g = random_formula(rng, comp, max_depth=2)
        dom = comp.events[0].event_class if len(comp) else "X"
        opaque = PyPred("opaque", lambda h, env: True)
        shapes = (
            f, Henceforth(f), Eventually(f), Not(Eventually(f)),
            ForAll("z", dom, Henceforth(f)),
            Implies(Eventually(f), Henceforth(g)),
            And((Henceforth(f), Eventually(g))),
            Eventually(Henceforth(f)),
            Henceforth(Iff(f, g)),
            Eventually(And((f, opaque))),
            Henceforth(ForAll("z", dom, Implies(New("z"), g))),
            Eventually(ExistsUnique("z", dom, Not(Potential("z")))),
        )
        assert_matches_reference(Restriction("r", shapes[wrap]))

    def test_generalised_polarity_stays_out_of_the_dfa(self):
        """The shape reads ¬ and ⊃ by the general polarity rule
        (¬ of an antitone body is monotone); the DFA classifier keeps its
        own reading exactly."""
        body = Not(Not(Occurred("x")))
        assert shape(body).up and shape(body).monotone
        r = Restriction("r", ForAll("x", "E", Eventually(body)))
        assert_matches_reference(r)
        assert shape(Henceforth(Occurred("x"))).up
        assert not shape(Henceforth(Occurred("x"))).monotone


def bounded_buffer_computation():
    """The first explored run of ``monitor-bounded-buffer``, projected
    and thread-labelled, with its problem specification."""
    program, spec, corr, _pspec = case_catalog()[
        "monitor-bounded-buffer"].factory(False)
    run = next(iter(explore(program)))
    return spec.label_threads(project(run.computation, corr)), spec


class TestPlanFacts:
    def test_bind_builds_only_what_the_routes_reach(self):
        comp, spec = bounded_buffer_computation()
        plan = plan_for(spec)
        context = plan.bind(comp, 2_000_000)
        assert not {"slice", "lattice"} & set(vars(context))
        provenance = {r.name: check_restriction(comp, r, context=context
                                                ).provenance
                      for r in spec.all_restrictions()}
        # each backend is built once a route reaches it: the slice for
        # every □/◇ restriction the DFA leaf does not decide, the
        # interpreter only for what the slice declined
        assert set(provenance.values()) == {"", "dfa", "walk"}
        assert set(context.slice._analyses) == {
            r for r in spec.all_restrictions()
            if "slice" in plan.restrictions[r.name].route}
        assert "lattice" in vars(context)
        assert context.explored() == context.lattice.walk.explored() > 0
        fresh = plan.bind(comp, 2_000_000)
        for r in spec.all_restrictions():
            if provenance[r.name] in ("", "dfa"):
                check_restriction(comp, r, context=fresh)
        assert not {"slice", "lattice"} & set(vars(fresh))
        assert fresh.explored() == 0

    def test_pypred_is_opaque(self):
        assert shape(PyPred("always", lambda h, env: True)).opaque == "PyPred"
        assert shape(Henceforth(And((
            Occurred("x"), PyPred("p", lambda h, env: True))))).opaque
        assert not shape(Henceforth(ForAll(
            "w", "Work", Not(Occurred("w"))))).opaque

    def test_formula_subclass_is_opaque(self):
        """User subclasses may override semantics; no route but the
        interpreter may read them as their base class."""

        class InvertedOccurred(Occurred):
            pass

        facts = shape(Eventually(InvertedOccurred("x")))
        assert facts.opaque == "InvertedOccurred"
        assert not (facts.free or facts.up or facts.down)
        automaton = classify_restriction(
            Restriction("r", Eventually(InvertedOccurred("x"))))
        assert (automaton.kind, automaton.reason) == (
            "inert", "opaque InvertedOccurred body")

    def test_lattice_histories_observe_every_walk(self):
        """Under ``auto`` the interpreter decides the ``PyPred``
        temporal restrictions; the histogram counts its histories."""
        program, spec, corr, _pspec = case_catalog()[
            "monitor-bounded-buffer"].factory(False)
        totals = {}
        for mode in ("auto", "lattice"):
            metrics = MetricsRegistry()
            for run in islice(explore(program), 3):
                check_computation(project(run.computation, corr), spec,
                                  temporal_mode=mode, metrics=metrics)
            totals[mode] = metrics.histogram("checker.lattice_histories",
                                             spec=spec.name)
        assert totals["lattice"].total == 169
        assert totals["auto"].total > 0
        assert totals["auto"].count == totals["lattice"].count == 3
