"""Computation slicing (repro.core.slice): exactness, laws, routing.

Four layers, mirroring how the slice earns its place in the ``auto``
route chain:

* a 200-seed differential sweep -- ``auto`` checking, and the bare
  slice wherever it decides, must be byte-equal (verdict *and* detail)
  to the lattice interpreter on every CLI catalog case and on randomly
  generated restrictions;
* hypothesis properties of the slice representation itself -- each
  :class:`SliceCube` is a join/meet-closed sublattice, every cut in the
  predicate's cubes satisfies the predicate, and the union of cubes is
  exactly the satisfying subset of the full history lattice;
* classifier pinning -- which GEM restriction shapes are regular /
  linear / non-regular is part of the contract, not an accident;
* routing and provenance -- engine counters, sampled-census exactness
  (the workloads that flip from walk-sampled to slice-exact under a
  run cap), the ``route-differential`` fuzz oracle and its mutant kill.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import case_catalog
from repro.core import History, all_histories
from repro.core.checker import (
    RestrictionOutcome,
    check_computation,
    check_restriction,
)
from repro.core.formula import (
    ForAll,
    Henceforth,
    Not,
    Occurred,
    Or,
    PyPred,
    Restriction,
)
from repro.core.slice import (
    SliceChecker,
    SliceError,
    predicate_cubes,
)
from repro.core.evalcore import event_index
from repro.engine import EngineConfig, run_verification
from repro.fuzz import (
    CheckerArtifact,
    check_routes_agree,
    oracle_names,
    random_computation,
)
from repro.sim.scheduler import explore, explore_or_sample, run_random
from repro.verify import verify_program
from repro.verify.projection import project

COMMON = settings(max_examples=25, deadline=None, derandomize=True)

#: Seeds for the differential sweep -- ISSUE asks for >= 200 cases.
DIFFERENTIAL_SEEDS = range(200)

CATALOG_CASES = (
    "monitor-readers-writers", "csp-readers-writers", "ada-readers-writers",
    "monitor-one-slot-buffer", "csp-one-slot-buffer", "ada-one-slot-buffer",
    "monitor-bounded-buffer", "csp-bounded-buffer", "ada-bounded-buffer",
    "db_update",
)


def case_projections(name: str, n: int, seed: int = 0):
    """(spec, [projected computations]) for ``n`` seeded runs of a case."""
    entry = case_catalog()[name]
    program, spec, corr, _pspec = entry.factory(False)
    seen = set()
    projections = []
    for i in range(n):
        run = run_random(program, seed + i)
        fp = run.computation.stable_fingerprint()
        if fp in seen:
            continue
        seen.add(fp)
        projections.append(spec.label_threads(project(run.computation, corr)))
    return spec, projections


# -- differential sweep: slice == walk, byte for byte ------------------------


class TestDifferentialSweep:
    def test_catalog_cases_agree_in_every_mode(self):
        """The auto route (slice included) equals the walking reference
        mode on every catalog case, verdicts and details."""
        mismatches = []
        for name in CATALOG_CASES:
            spec, projections = case_projections(name, 6)
            for comp in projections:
                routed = spec.check(comp)
                b = [(o.name, o.holds, o.detail) for o in routed.outcomes]
                walked = spec.check(comp, temporal_mode="lattice")
                a = [(o.name, o.holds, o.detail) for o in walked.outcomes]
                if a != b:
                    mismatches.append((name, a, b))
        assert not mismatches, mismatches[:3]

    def test_random_restrictions_200_seeds(self):
        """The fuzz oracle's law over 200 generated (computation,
        restriction) pairs: slice == lattice == exact."""
        failures = []
        checked = 0
        for seed in DIFFERENTIAL_SEEDS:
            rng = random.Random(seed)
            recipe = random_computation(rng, max_elements=3, max_events=6,
                                        with_groups=False)
            art = CheckerArtifact(recipe, rng.randrange(2 ** 32))
            comp = recipe.build()
            message = check_routes_agree(comp, art.restriction(comp))
            checked += 1
            if message is not None:
                failures.append((seed, message))
        assert checked >= 200
        assert not failures, failures[:5]

    def test_eventually_shapes_agree(self):
        """◇-rooted formulas exercise the EG certification path (the
        artifact generator above only roots at □)."""
        from repro.core.formula import Eventually

        failures = []
        for seed in range(40):
            rng = random.Random(1000 + seed)
            recipe = random_computation(rng, max_elements=3, max_events=5,
                                        with_groups=False)
            art = CheckerArtifact(recipe, rng.randrange(2 ** 32))
            comp = recipe.build()
            body = art.restriction(comp).formula.body
            restriction = Restriction("fuzz-eventually", Eventually(body))
            message = check_routes_agree(comp, restriction)
            if message is not None:
                failures.append((seed, message))
        assert not failures, failures[:5]


# -- hypothesis: slice lattice laws ------------------------------------------


@st.composite
def immediate_predicates(draw):
    """(computation, closed immediate formula) from the fuzz generators."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = random.Random(seed)
    recipe = random_computation(rng, max_elements=3, max_events=6,
                                with_groups=False)
    art = CheckerArtifact(recipe, rng.randrange(2 ** 32))
    comp = recipe.build()
    # the artifact's restriction is Henceforth(body); the body is the
    # immediate predicate the slice represents as cubes
    return comp, art.restriction(comp).formula.body


def _cube_cuts(comp, formula):
    """The cubes of ``formula`` with their cut sets, or None if the
    formula is outside the immediate sliceable fragment."""
    try:
        cubes = predicate_cubes(comp, formula)
        index = event_index(comp)
        return index, [(c, set(c.cuts(index, cap=4096))) for c in cubes]
    except SliceError:
        return None


@COMMON
@given(immediate_predicates())
def test_cubes_are_join_and_meet_closed(drawn):
    """Each cube's cut set is a sublattice: closed under ∪ and ∩."""
    comp, formula = drawn
    got = _cube_cuts(comp, formula)
    if got is None:
        return
    _index, cube_cuts = got
    for _cube, cuts in cube_cuts:
        sample = sorted(cuts)[:12]
        for a in sample:
            for b in sample:
                assert (a | b) in cuts
                assert (a & b) in cuts


@COMMON
@given(immediate_predicates())
def test_every_cube_cut_satisfies_the_predicate(drawn):
    """Soundness: every cut inside a cube satisfies the formula."""
    comp, formula = drawn
    got = _cube_cuts(comp, formula)
    if got is None:
        return
    _index, cube_cuts = got
    for _cube, cuts in cube_cuts:
        for mask in sorted(cuts)[:32]:
            history = History.of_mask(comp, mask)
            assert formula.holds_at(history), (
                f"cut {mask:b} in a cube but formula false")


@COMMON
@given(immediate_predicates())
def test_cubes_cover_exactly_the_satisfying_histories(drawn):
    """Completeness: the union of cube cuts is the satisfying subset of
    the full history lattice (slice ⊆ lattice, and nothing missed)."""
    comp, formula = drawn
    got = _cube_cuts(comp, formula)
    if got is None:
        return
    _index, cube_cuts = got
    union = set()
    for _cube, cuts in cube_cuts:
        union |= cuts
    lattice = {}
    for history in all_histories(comp, cap=4096):
        lattice[history.mask] = history
    assert union <= set(lattice), "slice contains a non-history cut"
    satisfying = {m for m, h in lattice.items() if formula.holds_at(h)}
    assert union == satisfying


# -- classifier pinning ------------------------------------------------------


def projected_case(name: str, seed: int = 0):
    entry = case_catalog()[name]
    program, spec, corr, _pspec = entry.factory(False)
    run = run_random(program, seed)
    return spec, spec.label_threads(project(run.computation, corr))


class TestClassifier:
    """Which GEM shapes slice how is part of the contract."""

    def _kinds(self, case: str):
        spec, comp = projected_case(case)
        checker = SliceChecker(comp)
        return {r.name: checker.analyze(r) for r in spec.all_restrictions()}

    def test_readers_writers_shapes(self):
        for case in ("monitor-readers-writers", "csp-readers-writers",
                     "ada-readers-writers"):
            kinds = self._kinds(case)
            # pairwise □(implication) restrictions: unions of two cubes
            assert kinds["readers-priority"].kind == "linear", case
            assert kinds["writers-exclude-readers"].kind == "linear", case
            assert kinds["writers-exclude-writers"].kind == "linear", case
            # chain restrictions carry no temporal operator
            assert kinds["read-chain"].kind == "immediate", case
            assert kinds["write-chain"].kind == "immediate", case
            # every sliced verdict is exact
            for name, analysis in kinds.items():
                assert analysis.exact == (
                    analysis.kind in ("regular", "linear")), (case, name)

    def test_one_slot_buffer_shapes(self):
        kinds = self._kinds("monitor-one-slot-buffer")
        # progress restrictions ◇-ground to single-cube regions
        assert kinds["every-deposit-completes"].kind == "regular"
        assert kinds["every-remove-completes"].kind == "regular"
        # PyPred bodies cannot be grounded: fall back to the walk
        for name in ("capacity-1", "fifo-values", "strict-alternation"):
            assert kinds[name].kind == "non-regular"
            assert kinds[name].verdict is None
            assert "PyPred" in kinds[name].detail

    def test_pypred_classifies_non_regular(self):
        comp = random_computation(
            random.Random(0), max_elements=3, max_events=5,
            with_groups=False).build()
        restriction = Restriction(
            "opaque", Henceforth(PyPred("always-true", lambda h, e: True)))
        assert SliceChecker(comp).analyze(restriction).kind == "non-regular"

    def test_immediate_restriction_declined(self):
        comp = random_computation(
            random.Random(1), max_elements=2, max_events=4,
            with_groups=False).build()
        eid = comp.events[0].eid
        restriction = Restriction(
            "immediate",
            Not(PyPred("no-events", lambda h, e: False)))
        analysis = SliceChecker(comp).analyze(restriction)
        assert analysis.kind == "immediate"
        assert analysis.verdict is None
        assert eid  # the computation is non-empty


# -- routing and provenance --------------------------------------------------


class TestRouting:
    def test_outcome_provenance_marks_slice_vs_walk(self):
        spec, comp = projected_case("monitor-readers-writers")
        result = check_computation(comp, spec)
        by_name = {o.name: o for o in result.outcomes}
        assert by_name["readers-priority"].provenance == "slice"
        assert by_name["read-chain"].provenance == ""
        assert result.slice_hits == 3
        assert result.slice_fallbacks == 0
        spec, comp = projected_case("monitor-one-slot-buffer")
        result = check_computation(comp, spec)
        by_name = {o.name: o for o in result.outcomes}
        # the DFA leaf runs ahead of the slice in the auto chain
        assert by_name["every-deposit-completes"].provenance == "dfa"
        assert by_name["capacity-1"].provenance == "walk"
        assert by_name["deposit-chain"].provenance == ""
        assert result.slice_hits == 0
        assert result.slice_fallbacks == 3
        assert result.dfa_hits == 2

    def test_provenance_is_excluded_from_outcome_equality(self):
        a = RestrictionOutcome("r", True, provenance="slice")
        b = RestrictionOutcome("r", True, provenance="walk")
        assert a == b
        assert str(a) == str(b)

    def test_slice_off_leaves_counters_zero(self):
        """The single-route modes never consult the slice."""
        spec, comp = projected_case("monitor-readers-writers")
        for mode in ("lattice", "exact"):
            result = check_computation(comp, spec, temporal_mode=mode)
            assert result.slice_hits == 0, mode
            assert result.slice_fallbacks == 0, mode
            assert all(o.provenance == "" for o in result.outcomes), mode

    def test_cap_error_mentions_the_slice_remedy(self):
        spec, comp = projected_case("monitor-one-slot-buffer")
        with pytest.raises(Exception, match="decided on the slice"):
            check_computation(comp, spec, temporal_mode="lattice",
                              history_cap=1)


class TestEngineCounters:
    def test_stats_carry_slice_counts_and_describe_them(self):
        entry = case_catalog()["monitor-readers-writers"]
        program, spec, corr, pspec = entry.factory(False)
        report, stats = run_verification(program, spec, corr, pspec,
                                         EngineConfig())
        assert report.ok
        assert stats.slice_hits > 0
        assert stats.slice_fallbacks == 0
        assert "slice-exact" in stats.describe()



class TestExactnessRegression:
    """Workloads that flip from walk-sampled to slice-exact provenance.

    Under a run cap the census is sampled, but every temporal verdict on
    these cases is still decided exactly on the slice under the default
    ``history_cap`` -- zero fallbacks -- and the report is byte-stable
    across job counts.
    """

    CASES = ("monitor-readers-writers", "ada-readers-writers")

    def test_sampled_census_slice_exact_verdicts(self):
        for case in self.CASES:
            entry = case_catalog()[case]
            program, spec, corr, pspec = entry.factory(False)
            report, stats = run_verification(program, spec, corr, pspec,
                                             EngineConfig(max_runs=16))
            assert stats.mode == "sampled", case
            assert stats.slice_hits > 0, case
            assert stats.slice_fallbacks == 0, case
            assert "slice-exact" in stats.describe(), case

    def test_byte_stable_across_jobs(self):
        """A seeded sampled census checks slice-exact and byte-stable
        across worker counts.  (Unshared sampling across shard layouts
        legitimately draws different run totals, so the determinism
        contract is stated over the same sampled exploration.)"""
        for case in self.CASES:
            entry = case_catalog()[case]
            program, spec, corr, pspec = entry.factory(False)
            serial, sstats = run_verification(
                program, spec, corr, pspec,
                EngineConfig(max_runs=16, jobs=1),
                exploration=explore_or_sample(program, max_runs=16,
                                              sample=24))
            parallel, pstats = run_verification(
                program, spec, corr, pspec,
                EngineConfig(max_runs=16, jobs=4),
                exploration=explore_or_sample(program, max_runs=16,
                                              sample=24))
            assert serial.signature() == parallel.signature(), case
            assert sstats.slice_hits == pstats.slice_hits > 0, case
            assert sstats.slice_fallbacks == pstats.slice_fallbacks == 0

    def test_exploration_describe_surfaces_slice_provenance(self):
        entry = case_catalog()["monitor-readers-writers"]
        program, spec, corr, pspec = entry.factory(False)
        exploration = explore_or_sample(program, max_runs=16, sample=24)
        assert not exploration.exhaustive
        assert "slice-exact" not in exploration.describe()
        report = verify_program(program, spec, corr, program_spec=pspec,
                                exploration=exploration)
        assert report.ok
        assert exploration.slice_hits > 0
        assert exploration.slice_fallbacks == 0
        assert "checks slice-exact" in exploration.describe()


# -- the standing fuzz oracle ------------------------------------------------


class TestSliceOracle:
    def test_registered_in_the_catalog(self):
        assert "route-differential" in oracle_names()

    def test_clean_pass_on_a_catalog_projection(self):
        spec, comp = projected_case("monitor-readers-writers")
        for r in spec.all_restrictions():
            if r.formula.is_temporal():
                assert check_routes_agree(comp, r) is None, r.name

    def test_kills_a_lying_slice_mutant(self):
        rng = random.Random(5)
        recipe = random_computation(rng, max_elements=3, max_events=6,
                                    with_groups=False)
        art = CheckerArtifact(recipe, rng.randrange(2 ** 32))
        comp = recipe.build()
        restriction = art.restriction(comp)

        def lying(c, r):
            honest = check_restriction(c, r, temporal_mode="lattice")
            return RestrictionOutcome(r.name, not honest.holds,
                                      "mutant verdict")

        message = check_routes_agree(comp, restriction, auto_check=lying)
        assert message is not None and "disagrees" in message


# -- small structural guarantees --------------------------------------------


class TestSliceChecker:
    def test_analysis_is_cached_per_restriction(self):
        spec, comp = projected_case("monitor-readers-writers")
        checker = SliceChecker(comp)
        r = spec.restriction("readers-priority")
        first = checker.analyze(r)
        assert checker.analyze(r) is first

    def test_cube_cap_degrades_to_non_regular(self):
        spec, comp = projected_case("monitor-readers-writers")
        checker = SliceChecker(comp, cube_cap=1)
        analysis = checker.analyze(spec.restriction("readers-priority"))
        assert analysis.kind == "non-regular"
        assert analysis.verdict is None

    def test_contradictory_cubes_are_dropped(self):
        """□ ∀x. (occurred(x) ∨ ¬occurred(x)) is decided by searching
        for a cut satisfying its negation ∃x. (¬occurred(x) ∧
        occurred(x)).  Over 4 marks that grounds to 4 cubes, each
        pairing a literal with its own negation; a DNF that keeps
        contradictory cubes reports ``linear`` / ``max 4 cube(s)``."""
        from repro.problems.ring import MARK, RingProgram, ring_spec

        run = next(iter(explore(RingProgram(workers=2, rounds=2))))
        comp = ring_spec().label_threads(run.computation)
        assert len(comp) == 4
        r = Restriction("excluded-middle", Henceforth(ForAll(
            "x", MARK, Or((Occurred("x"), Not(Occurred("x")))))))
        analysis = SliceChecker(comp).analyze(r)
        assert (analysis.kind, analysis.detail) == (
            "regular", "max 1 cube(s)")
        assert analysis.verdict is True

    def test_slice_agrees_on_exhaustive_exploration(self):
        """Every distinct computation of a small exhaustive exploration:
        auto-route verdicts equal walked verdicts (not just on
        samples)."""
        entry = case_catalog()["ada-one-slot-buffer"]
        program, spec, corr, _pspec = entry.factory(False)
        for run in islice(explore(program, max_runs=10_000_000), 12):
            comp = spec.label_threads(project(run.computation, corr))
            walked = spec.check(comp, temporal_mode="lattice")
            sliced = spec.check(comp)
            assert ([(o.name, o.holds, o.detail) for o in walked.outcomes]
                    == [(o.name, o.holds, o.detail)
                        for o in sliced.outcomes])
            # the DFA leaf decides some of these ahead of the slice, so
            # the bare slice is checked wherever it decides
            slicer = SliceChecker(comp)
            for o in walked.outcomes:
                r = spec.restriction(o.name)
                if r.formula.is_temporal():
                    assert slicer.analyze(r).verdict in (None, o.holds), (
                        o.name)
