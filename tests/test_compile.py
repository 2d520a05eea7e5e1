"""Tests for the specification plan as addressed through repro.core.compile.

:mod:`repro.core.compile` keeps :class:`SpecPlan`, :func:`plan_for` and
:func:`shape` importable under their old path.  These tests hold that
path to the plan in :mod:`repro.core.plan`, and run the route
differential at the level of a whole specification: every restriction
of a spec follows its route through one context the plan binds per
computation, so the slice and the interpreter built for one restriction
are reused by the next.  ``auto`` must equal the interpreter byte for
byte (verdict and detail) and exhaustive enumeration on the verdict.
"""

import random

from repro.core import (
    ElementDecl,
    EventClass,
    Eventually,
    Henceforth,
    Restriction,
    Specification,
    check_computation,
)
from repro.core import compile as compile_module
from repro.core import plan as plan_module
from repro.fuzz import CheckerArtifact, random_computation

#: Seeds for the spec-level differential sweep.
DIFFERENTIAL_SEEDS = range(200)


def spec_for(comp, *restrictions):
    """A spec declaring each element's event classes as ``comp`` uses them."""
    elements = [
        ElementDecl.make(el, [EventClass(name) for name in dict.fromkeys(
            ev.event_class for ev in comp.events_at(el))])
        for el in comp.elements()
    ]
    return Specification("differential-spec", elements=elements,
                         restrictions=list(restrictions))


def spec_differential(comp, *restrictions):
    """None when ``auto`` == ``lattice`` (verdict and detail) and
    ``lattice`` == ``exact`` (verdict) on every restriction of the spec
    built from ``restrictions``; otherwise the first disagreement."""
    spec = spec_for(comp, *restrictions)
    assert compile_module.plan_for(spec) is plan_module.plan_for(spec)
    results = {mode: check_computation(comp, spec, temporal_mode=mode)
               for mode in ("auto", "lattice", "exact")}
    auto, lattice, exact = (
        [(o.name, o.holds, o.detail) for o in results[mode].outcomes]
        for mode in ("auto", "lattice", "exact"))
    if auto != lattice:
        return f"auto {auto} != lattice {lattice}"
    if [o[:2] for o in lattice] != [o[:2] for o in exact]:
        return f"lattice {lattice} != exact {exact}"
    return None


class TestDifferential:
    def test_compiled_vs_lattice_vs_exact_seeded(self):
        """200 seeded random computations, each checked against a spec
        holding a random □-formula and its ◇ twin through the compiled
        plan: ``auto`` equals the interpreter byte for byte and exact
        enumeration on the verdict."""
        failures = []
        checked = 0
        for seed in DIFFERENTIAL_SEEDS:
            rng = random.Random(seed)
            recipe = random_computation(rng, max_elements=3, max_events=6,
                                        with_groups=False)
            art = CheckerArtifact(recipe, rng.randrange(2 ** 32))
            comp = recipe.build()
            always = art.restriction(comp)
            message = spec_differential(
                comp, always,
                Restriction("fuzz-eventually",
                            Eventually(always.formula.body)))
            checked += 1
            if message is not None:
                failures.append((seed, message))
        assert checked >= 200
        assert not failures, failures[:5]

    def test_eventually_shapes_agree(self):
        """◇-rooted formulas of depth 2 (the generator above roots at □
        with depth 3), next to their □ twin in one spec."""
        failures = []
        for seed in range(40):
            rng = random.Random(1000 + seed)
            recipe = random_computation(rng, max_elements=3, max_events=5,
                                        with_groups=False)
            comp = recipe.build()
            art = CheckerArtifact(recipe, rng.randrange(2 ** 32), max_depth=2)
            body = art.restriction(comp).formula.body
            message = spec_differential(
                comp,
                Restriction("fuzz-eventually", Eventually(body)),
                Restriction("fuzz-always", Henceforth(body)))
            if message is not None:
                failures.append((seed, message))
        assert not failures, failures[:5]
