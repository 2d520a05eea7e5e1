"""Restriction automata (``repro.core.automata``): the DFA compile route.

Four layers of guarantees:

* **Classification** -- the four automaton kinds (box-reject,
  dia-accept, dia-leaf, inert) land exactly where the transfer-stability
  analysis says they may, with honest inert reasons and refined input
  alphabets.
* **Soundness** -- a guard verdict decided on a *prefix* equals the
  restriction's verdict on every completion; the monitor is a pure
  observer (exploration census byte-identical with and without it),
  probed at branch points only, where it decides what the every-node
  placement of ``tests/reference_monitor.py`` decides for every run
  that shares its cut prefix with another.
* **Determinism** -- report signatures are byte-identical with ``--dfa``
  on/off, across ``--jobs 1/4`` and through the serve daemon, and the
  failing-run witnesses of an early-cut violation match the walked ones.
* **The standing oracle** -- ``dfa-differential`` is registered, passes
  clean on random programs, and kills an injected lying monitor.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest

import repro.bench as bench
from repro.bench import run_bench, _suite_selected
from repro.cli import _build_cases, case_catalog
from repro.core.automata import (
    BOX_REJECT,
    DIA_ACCEPT,
    DIA_LEAF,
    INERT,
    REJECT,
    WATCH,
    AutomatonMonitor,
    RestrictionAutomaton,
    _alphabet,
    _occ_guarded,
    _transfers,
    _vacuous,
    automata_plan_for,
    classify_restriction,
)
from repro.core.checker import check_computation
from repro.core.plan import plan_for, spec_fingerprint
from repro.core.formula import (
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
)
from repro.engine.por import AmpleSelector
from repro.fuzz import check_dfa_agrees, oracle_names
from repro.fuzz.programs import random_program_spec
from repro.problems.readers_writers import rw_problem_spec
from repro.problems.ring import (
    MARK,
    RingProgram,
    mark_correspondence,
    ring_restriction,
    ring_spec,
    tally_spec,
)
from repro.sim.scheduler import (
    explore,
    explore_or_sample,
    replay_with_postponed,
)
from repro.verify.sat import verify_program
from tests.reference_monitor import every_node_explore

CASE = "monitor-tally-mesa"


def ring_monitor(spec):
    return AutomatonMonitor(automata_plan_for(spec), spec)


# -- classification ----------------------------------------------------------


class TestClassification:
    def test_ring_budget_is_box_reject(self):
        automaton = classify_restriction(ring_restriction())
        assert automaton.kind == BOX_REJECT
        assert automaton.monitorable
        assert not automaton.leaf_resolvable
        assert automaton.states() == (WATCH, REJECT)
        # three ∀ over Mark, history-independent guard, monotone
        # consequent: only Mark arrivals can move this machine
        assert automaton.alphabet == frozenset({"Mark"})

    def test_eventually_occurred_is_dia_accept(self):
        r = Restriction("some-mark",
                        Eventually(Exists("x", MARK, Occurred("x"))))
        automaton = classify_restriction(r)
        assert automaton.kind == DIA_ACCEPT
        assert automaton.monitorable and automaton.leaf_resolvable
        assert automaton.stripped is not None
        assert automaton.alphabet == frozenset({"Mark"})

    def test_non_transferring_eventually_is_dia_leaf(self):
        # ∀ truth does not transfer (new bindings are not vacuous), but
        # the monotone body still resolves ◇ at the full-history top
        r = Restriction("all-marks",
                        Eventually(ForAll("x", MARK, Occurred("x"))))
        automaton = classify_restriction(r)
        assert automaton.kind == DIA_LEAF
        assert not automaton.monitorable
        assert automaton.leaf_resolvable

    def test_unstable_box_body_is_inert(self):
        # □∃¬occurred: falsity at a prefix cut can be cured by a new
        # binding, so an early REJECT would be unsound
        r = Restriction("unstable",
                        Henceforth(Exists("x", MARK, Not(Occurred("x")))))
        automaton = classify_restriction(r)
        assert automaton.kind == INERT
        assert "extension-stable" in automaton.reason

    def test_pypred_body_is_inert(self):
        r = Restriction("opaque",
                        Henceforth(PyPred("closure", lambda h, e: True)))
        automaton = classify_restriction(r)
        assert automaton.kind == INERT
        assert "PyPred" in automaton.reason

    def test_non_temporal_is_inert(self):
        automaton = classify_restriction(
            Restriction("flat", Exists("x", MARK, Occurred("x"))))
        assert automaton.kind == INERT
        assert automaton.reason == "not temporal"

    def test_quantifier_cap_declines_grounding_blowup(self):
        body = Henceforth(Occurred("x0"))
        f = body
        for i in range(9):
            f = ForAll(f"x{i}", MARK, f)
        automaton = classify_restriction(Restriction("wide", f))
        assert automaton.kind == INERT
        assert "quantifiers" in automaton.reason

    def test_describe_names_kind_and_reason(self):
        assert classify_restriction(ring_restriction()).describe() == (
            "ring-mark-budget: box-reject")
        assert "inert (not temporal)" in classify_restriction(
            Restriction("flat", Occurred("x"))).describe()

    def test_readers_writers_monitorable_census(self):
        plan = automata_plan_for(rw_problem_spec(("u1", "u2")))
        assert plan.temporal == len(plan.automata)
        assert plan.monitorable >= 1
        assert "monitorable" in plan.describe()
        for automaton in plan.automata.values():
            assert automaton.kind in (BOX_REJECT, DIA_ACCEPT, DIA_LEAF,
                                      INERT)


class TestTransferAnalysis:
    def test_occurred_guards_its_variable(self):
        assert _occ_guarded(Occurred("x"), "x")
        assert not _occ_guarded(Occurred("y"), "x")
        assert _occ_guarded(And((Occurred("x"), Occurred("y"))), "x")
        # negation gives no positive occurrence guarantee
        assert not _occ_guarded(Not(Occurred("x")), "x")
        # an inner quantifier shadowing the variable breaks the guard
        assert not _occ_guarded(Exists("x", MARK, Occurred("x")), "x")

    def test_vacuous_bodies(self):
        # an unoccurred binding falsifies occurred(x), so ¬occurred(x)
        # and occurred(x) ⊃ ψ are both vacuously true of it
        assert _vacuous(Not(Occurred("x")), "x")
        assert _vacuous(Implies(Occurred("x"), Occurred("y")), "x")
        assert not _vacuous(Occurred("x"), "x")

    def test_transfer_directions(self):
        # monotone atoms transfer both ways at a fixed cut
        assert _transfers(Occurred("x"), True)
        assert _transfers(Occurred("x"), False)
        # ∃ transfers truth always, falsity only when occ-guarded
        assert _transfers(Exists("x", MARK, Not(Occurred("x"))), True)
        assert not _transfers(Exists("x", MARK, Not(Occurred("x"))), False)
        assert _transfers(Exists("x", MARK, Occurred("x")), False)
        # ∀ transfers falsity always, truth only when vacuous
        body = ForAll("x", MARK, Occurred("x"))
        assert _transfers(body, False)
        assert not _transfers(body, True)
        assert _transfers(ForAll("x", MARK, Not(Occurred("x"))), True)

    def test_alphabet_is_the_union_of_domain_classes(self):
        assert _alphabet(ring_restriction().formula) == frozenset({"Mark"})
        assert _alphabet(Eventually(Exists("x", MARK, Occurred("x")))) == (
            frozenset({"Mark"}))


# -- probe soundness and the monitor -----------------------------------------


def labelled(spec, computation):
    return spec.label_threads(computation)


class TestProbeAndMonitor:
    def test_box_reject_probe_fires_exactly_on_violation(self):
        spec = ring_spec()
        plan = automata_plan_for(spec)
        automaton = plan.automaton("ring-mark-budget")
        over, = explore(RingProgram(workers=1, rounds=3))
        under, = explore(RingProgram(workers=1, rounds=2))
        assert automaton.probe(labelled(spec, over.computation),
                               2_000_000, plan) is False
        assert automaton.probe(labelled(spec, under.computation),
                               2_000_000, plan) is None

    def test_probe_does_not_reclassify(self, monkeypatch):
        """The guard routes its check by the plan it came from, so the
        restriction is classified once per plan, never per probe."""
        import repro.core.automata as automata
        import repro.core.plan as plan_module

        spec = ring_spec()
        plan = automata_plan_for(spec)
        automaton = plan.automaton("ring-mark-budget")
        over, = explore(RingProgram(workers=1, rounds=3))

        def refuse(*_args, **_kwargs):
            raise AssertionError("probe re-classified its restriction")

        monkeypatch.setattr(automata, "classify_restriction", refuse)
        monkeypatch.setattr(plan_module.RestrictionPlan, "__init__", refuse)
        assert automaton.probe(labelled(spec, over.computation),
                               2_000_000, plan) is False

    def test_monitor_is_a_pure_observer(self):
        """Law zero: the census with the monitor is byte-identical."""
        spec = ring_spec()
        program = RingProgram(workers=2, rounds=4)
        monitor = ring_monitor(spec)
        plain = [(r.choices, r.computation.stable_fingerprint(),
                  r.deadlocked, r.truncated, r.blocked)
                 for r in explore(program)]
        watched = [(r.choices, r.computation.stable_fingerprint(),
                    r.deadlocked, r.truncated, r.blocked)
                   for r in explore(program, dfa=monitor)]
        assert plain == watched
        assert len(plain) == 70  # C(8, 4): every interleaving distinct
        assert monitor.cuts > 0
        assert monitor.probes <= monitor.projections

    def test_early_verdicts_match_completed_computations(self):
        spec = ring_spec()
        for run in explore(RingProgram(workers=2, rounds=4),
                           dfa=ring_monitor(spec)):
            truth = {o.name: o.holds for o in check_computation(
                run.computation, spec, temporal_mode="lattice").outcomes}
            for name, holds in run.decided:
                assert truth[name] == holds
            # 2 workers x 4 rounds always exceeds the 3-mark budget,
            # with a round left to branch on when it does
            assert dict(run.decided)["ring-mark-budget"] is False

    def test_checker_routes_decided_verdicts(self):
        spec = ring_spec()
        run = next(iter(explore(RingProgram(workers=2, rounds=4),
                                dfa=ring_monitor(spec))))
        routed = check_computation(run.computation, spec,
                                   decided=dict(run.decided))
        plain = check_computation(run.computation, spec,
                                  temporal_mode="lattice")
        assert not routed.ok and not plain.ok
        assert routed.dfa_hits == 1
        assert [(o.name, o.holds) for o in routed.outcomes] == (
            [(o.name, o.holds) for o in plain.outcomes])

    def test_budget_exhaustion_leaves_decisions_valid(self):
        spec = ring_spec()
        plan = automata_plan_for(spec)
        monitor = AutomatonMonitor(plan, spec, probe_budget=0)
        runs = list(explore(RingProgram(workers=2, rounds=4), dfa=monitor))
        assert monitor.probes == 0 and monitor.cuts == 0
        assert all(run.decided == () for run in runs)


# -- probe placement: branch points only -------------------------------------


class CountingMonitor(AutomatonMonitor):
    """Counts :meth:`advance` calls and the enabled actions at each."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def advance(self, node, state):
        self.calls.append(len(state.enabled()))
        return super().advance(node, state)


def branch_points(program, por_factory) -> int:
    """Internal nodes that expand two or more branches, counted by an
    independent replay-per-node walk."""
    count = 0
    stack = [()]
    while stack:
        choices = stack.pop()
        state, postponed = replay_with_postponed(program, choices)
        actions = state.enabled()
        if not actions:
            continue
        por = por_factory()
        branches = (range(len(actions)) if por is None
                    else por.ample(state, actions, postponed))
        count += len(branches) > 1
        stack.extend(choices + (i,) for i in branches)
    return count


def rw_program():
    from repro.langs.monitor import MonitorProgram, readers_writers_system
    return MonitorProgram(readers_writers_system(1, 1),
                          eager_reductions=False)


class TestBranchPointProbes:
    @pytest.mark.parametrize("make_program", [
        lambda: RingProgram(workers=3, rounds=2), rw_program,
    ], ids=["ring", "readers-writers"])
    @pytest.mark.parametrize("por", [None, AmpleSelector],
                             ids=["full", "ample"])
    def test_advance_once_per_branch_point(self, make_program, por):
        spec = ring_spec()
        monitor = CountingMonitor(automata_plan_for(spec), spec)
        factory = por or (lambda: None)
        list(explore(make_program(), por=factory(), dfa=monitor))
        assert len(monitor.calls) == branch_points(make_program(), factory)
        assert monitor.calls and min(monitor.calls) >= 2

    def test_budget_crossed_only_at_single_branch_nodes(self):
        """With three rounds a worker stamps its third mark as its last
        step, so every node past the crossing has one branch: the
        branch-point monitor decides nothing, and the checker rejects
        every run at its leaf."""
        spec = ring_spec()
        program = RingProgram(workers=2, rounds=3)
        monitor = ring_monitor(spec)
        runs = list(explore(program, dfa=monitor))
        assert len(runs) == 20  # C(6, 3)
        assert monitor.cuts == 0 and monitor.accepts == 0
        assert all(run.decided == () for run in runs)
        assert not any(check_computation(run.computation, spec).ok
                       for run in runs)
        # the every-node placement cut each of those one-run subtrees
        reference = ring_monitor(spec)
        every_node_explore(program, dfa=reference)
        assert reference.cuts == len(runs)


def monitored_workloads():
    for name, entry in case_catalog().items():
        for mutant in (False, True) if entry.has_mutant else (False,):
            program, spec, corr, _pspec = entry.factory(mutant)
            if automata_plan_for(spec).monitorable:
                yield f"{name}{'-mutant' if mutant else ''}"


MONITORED = list(monitored_workloads())
TIER1_MONITORED = ("monitor-tally-mesa-mutant", "monitor-readers-writers",
                   "objects-lock-mutant")


def assert_placements_agree(program, spec, corr=None) -> int:
    """Each run's branch-point verdicts are a subset of its every-node
    verdicts; one is missing only where the every-node monitor decided
    it in a subtree of that single run.  Returns how many are missing."""
    plan = automata_plan_for(spec)

    def monitor():
        return AutomatonMonitor(plan, spec, correspondence=corr)

    walked = list(explore(program, por=AmpleSelector(), dfa=monitor()))
    reference = every_node_explore(program, por=AmpleSelector(),
                                   dfa=monitor())
    assert [(r.choices, r.computation.stable_fingerprint())
            for r in walked] == [(c, fp) for c, fp, *_ in reference]
    missed = 0
    for run, (choices, _fp, ref_decided, depths) in zip(walked, reference):
        assert set(run.decided) <= set(ref_decided), choices
        for missing in dict(ref_decided).keys() - dict(run.decided).keys():
            cut = choices[:depths[missing]]
            sharing = [c for c, *_ in reference if c[:len(cut)] == cut]
            assert sharing == [choices], (choices, missing)
            missed += 1
    return missed


def catalog_placements_agree(workload: str) -> None:
    name = workload.removesuffix("-mutant")
    program, spec, corr, _pspec = case_catalog()[name].factory(
        workload.endswith("-mutant"))
    assert_placements_agree(program, spec, corr)


class TestPlacementDifferential:
    def test_tier1_workloads_are_monitored(self):
        assert set(TIER1_MONITORED) <= set(MONITORED)

    @pytest.mark.parametrize("workload", TIER1_MONITORED)
    def test_branch_points_decide_what_every_node_decides(self, workload):
        catalog_placements_agree(workload)

    def test_missing_verdicts_are_single_run_subtrees(self):
        """The ring budget crossed at single-branch nodes: every
        every-node verdict is missing, each from a one-run subtree."""
        missed = assert_placements_agree(RingProgram(workers=2, rounds=3),
                                         ring_spec())
        assert missed == 20

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", MONITORED)
    def test_branch_points_decide_what_every_node_decides_catalog(
            self, workload):
        catalog_placements_agree(workload)


# -- plan and fingerprint memoisation ----------------------------------------


class TestPlanMemo:
    def test_fingerprint_is_instance_independent(self):
        assert spec_fingerprint(tally_spec(2)) == spec_fingerprint(
            tally_spec(2))
        assert spec_fingerprint(ring_spec()) != spec_fingerprint(
            tally_spec(2))

    def test_automata_plan_shared_across_instances(self):
        first, second = tally_spec(2), tally_spec(2)
        assert automata_plan_for(first) is automata_plan_for(second)
        # and the instance-attribute fast path returns the same object
        assert automata_plan_for(first) is automata_plan_for(first)

    def test_compile_plan_shared_across_instances(self):
        first, second = tally_spec(2), tally_spec(2)
        assert plan_for(first) is plan_for(second)
        # one plan serves the checker and the automata alike
        assert plan_for(first) is automata_plan_for(second)


# -- determinism: signatures with the route on and off -----------------------


@pytest.fixture(scope="module")
def tally_reports():
    """The mutant tally case verified with and without the automata."""
    reports = {}
    for dfa in (False, True):
        program, spec, corr, pspec = _build_cases()[CASE](True)
        reports[dfa] = verify_program(program, spec, corr,
                                      program_spec=pspec, dfa=dfa)
    return reports


class TestDeterminism:
    def test_signature_identical_dfa_on_off(self, tally_reports):
        off, on = tally_reports[False], tally_reports[True]
        assert off.signature() == on.signature()
        assert not on.ok

    def test_early_cut_witnesses_match_walked_ones(self, tally_reports):
        """An early-cut violation names the same failing runs and replay
        choices as the full lattice walk."""
        off, on = tally_reports[False], tally_reports[True]
        assert on.engine_stats.dfa_cuts > 0
        v_off = off.verdicts["ring-mark-budget"]
        v_on = on.verdicts["ring-mark-budget"]
        assert not v_on.holds and not v_off.holds
        assert v_on.failing_runs == v_off.failing_runs
        assert on.failing_run_choices == off.failing_run_choices
        assert on.summary() == off.summary()

    def test_stats_and_describe_surface_provenance(self, tally_reports):
        on, off = tally_reports[True], tally_reports[False]
        assert on.engine_stats.dfa_probes > 0
        assert on.engine_stats.dfa_hits > 0
        assert off.engine_stats.dfa_cuts == 0
        assert off.engine_stats.dfa_hits == 0

    def test_signature_identical_across_jobs(self, tally_reports):
        program, spec, corr, pspec = _build_cases()[CASE](True)
        sharded = verify_program(program, spec, corr, program_spec=pspec,
                                 jobs=4, dfa=True)
        assert sharded.signature() == tally_reports[True].signature()

    def test_exploration_describe_surfaces_dfa_provenance(self):
        spec = ring_spec()
        exploration = explore_or_sample(RingProgram(workers=2, rounds=4),
                                        dfa=ring_monitor(spec))
        assert exploration.exhaustive
        assert exploration.dfa_cuts > 0
        assert "cut early by dfa" in exploration.describe()

    def test_reused_exploration_keeps_its_monitor_tallies(self):
        """A verification over held runs runs no monitor; it fills in
        the checker-side tallies and leaves the exploration's cuts."""
        spec, program = ring_spec(), RingProgram(workers=2, rounds=4)
        exploration = explore_or_sample(program, dfa=ring_monitor(spec))
        cuts = exploration.dfa_cuts
        report = verify_program(program, spec, mark_correspondence(),
                                exploration=exploration)
        assert report.engine_stats.dfa_hits > 0 == report.engine_stats.dfa_cuts
        assert exploration.dfa_cuts == cuts == 20
        assert "cut early by dfa" in exploration.describe()
        # --stats reports no POR or monitor tallies: neither ran here
        lines = report.engine_stats.describe().splitlines()
        assert "  por: not run on a reused exploration" in lines
        assert ("  dfa: monitor not run on a reused exploration, "
                "70 check(s) automaton-resolved, 0 restriction(s) "
                "dfa-inert") in lines


class TestProbeErrors:
    def test_a_raising_probe_is_counted_and_changes_no_verdict(
            self, monkeypatch, tally_reports):
        def planted(self, *args, **kwargs):
            raise RuntimeError("planted probe failure")

        monkeypatch.setattr(RestrictionAutomaton, "probe", planted)
        program, spec, corr, pspec = _build_cases()[CASE](True)
        report = verify_program(program, spec, corr, program_spec=pspec,
                                jobs=1, dfa=True)
        stats, clean = report.engine_stats, tally_reports[True].engine_stats
        assert stats.dfa_probe_errors == stats.dfa_probes > 0
        assert stats.dfa_cuts == 0 and clean.dfa_probe_errors == 0
        assert stats.metrics.get("dfa.probe_errors") > 0
        assert stats.snapshot()["dfa_probe_errors"] > 0
        assert report.signature() == tally_reports[True].signature()
        # --stats names the errors only when there are some
        assert "probe error(s)" in stats.describe()
        assert "probe error" not in clean.describe()

    def test_monitor_counts_are_table_metrics(self):
        from repro.engine.stats import TASK_METRICS

        monitor = ring_monitor(ring_spec())
        assert set(monitor.counts()) <= set(TASK_METRICS)


class TestServeDeterminism:
    @pytest.fixture(scope="class")
    def daemon(self):
        from repro.serve.client import ServeClient
        from repro.serve.daemon import start_in_thread

        handle = start_in_thread(jobs=1, job_workers=1)
        client = ServeClient(port=handle.port)
        assert client.ping()
        yield client
        handle.stop()

    def test_daemon_signatures_identical_dfa_on_off(self, daemon,
                                                    tally_reports):
        dumps = lambda s: json.dumps(s, sort_keys=True)  # noqa: E731
        local = dumps(json.loads(json.dumps(
            tally_reports[True].signature())))
        # dfa=True first: the daemon's shared check cache means later
        # jobs perform no fresh checks, so only the first job's
        # dfa_hits tally is meaningful
        for dfa in (True, False):
            snap = daemon.verify({"case": CASE, "mutant": True, "dfa": dfa})
            assert dumps(snap["result"]["signature"]) == local
            stats = snap["result"]["stats"]
            if dfa:
                assert stats["dfa_cuts"] > 0 and stats["dfa_hits"] > 0
            else:
                assert stats["dfa_cuts"] == 0 and stats["dfa_hits"] == 0


# -- the standing fuzz oracle ------------------------------------------------


class LyingMonitor(AutomatonMonitor):
    """Injectable mutant: every decided guard verdict is flipped."""

    def _guard(self, automaton, prefix, fp):
        verdict = super()._guard(automaton, prefix, fp)
        return verdict if verdict is None else not verdict


class TestDfaOracle:
    def test_registered_in_the_catalog(self):
        assert "dfa-differential" in oracle_names()

    def test_clean_pass_over_seeds(self):
        for seed in range(6):
            spec = random_program_spec(random.Random(seed), max_procs=3,
                                       max_steps_per_proc=2,
                                       dep_density=0.5)
            assert check_dfa_agrees(spec) is None, f"seed {seed}"

    def test_kills_a_lying_monitor(self):
        from repro.fuzz.programs import dfa_problem_spec

        killed = []
        for seed in range(6):
            spec = random_program_spec(random.Random(seed), max_procs=3,
                                       max_steps_per_proc=2,
                                       dep_density=0.5)
            problem = dfa_problem_spec(spec)
            plan = automata_plan_for(problem)
            message = check_dfa_agrees(
                spec, monitor_factory=lambda: LyingMonitor(plan, problem))
            if message is not None:
                killed.append((seed, message))
        assert killed, "no seed produced a decidable prefix"
        assert any("decided" in m or "disagrees" in m for _, m in killed)


# -- the bench rows and the --only filter ------------------------------------


BASELINE = Path(__file__).resolve().parent.parent / "BENCH_checker.json"

#: The ``repro bench`` suites, in run order (``run_<name>_bench``).
SUITES = ("slice", "serve", "por", "dfa", "objects")


def _stub_suites(monkeypatch, keep=None):
    """Replace every suite but ``keep`` with one informational row,
    ``stub-<suite>``, so a test pays only for the suite it exercises."""
    for suite in SUITES:
        if suite != keep:
            monkeypatch.setattr(
                bench, f"run_{suite}_bench",
                lambda quick=False, _name=f"stub-{suite}": {
                    _name: {"gate": False, "cases": 1, "verify_s": 0.0}})


def _slice_declines(monkeypatch):
    from repro.core.slice import SliceAnalysis, SliceChecker

    monkeypatch.setattr(SliceChecker, "_analyze", lambda self, r:
                        SliceAnalysis("non-regular", None, "planted"))


def _monitor_never_decides(monkeypatch):
    monkeypatch.setattr(RestrictionAutomaton, "probe",
                        lambda self, *args, **kwargs: None)


def _por_expands_everything(monkeypatch):
    monkeypatch.setattr(AmpleSelector, "ample", lambda self, state, actions,
                        postponed: list(range(len(actions))))


def _warm_daemon_rechecks(monkeypatch):
    """Every task starts from an empty outcome memo, so the daemon
    forgets what earlier jobs checked."""
    from repro.engine import pool
    from repro.engine.dedupe import DedupeIndex

    check_runs = pool.check_runs

    def forgetful(state, *args, **kwargs):
        state.index = DedupeIndex()
        return check_runs(state, *args, **kwargs)

    monkeypatch.setattr(pool, "check_runs", forgetful)


#: row -> (suite run for real, quick, planted regression)
PLANTS = {
    "slice:2x20": ("slice", True, _slice_declines),
    "dfa:early-violation": ("dfa", True, _monitor_never_decides),
    "por:readers-writers": ("por", True, _por_expands_everything),
    "serve:warm": ("serve", False, _warm_daemon_rechecks),
}


class TestBenchFilter:
    def test_suite_selection_is_prefix_bidirectional(self):
        assert _suite_selected(None, "dfa:")
        assert _suite_selected("dfa", "dfa:")
        assert _suite_selected("dfa:early-violation", "dfa:")
        assert not _suite_selected("por", "dfa:")

    def test_unknown_prefix_is_a_distinct_exit(self):
        buf = io.StringIO()
        assert run_bench(quick=True, only="zzz", out=buf) == 2
        assert "no bench rows match" in buf.getvalue()

    def test_only_json_merges_into_the_existing_file(self, tmp_path):
        """A filtered ``--json`` run replaces the rows it ran and keeps
        every other row, so their gates survive."""
        kept = {"gate": True, "lattice_visits": 100, "slice_visits": 10,
                "lattice_s": 1.0, "sliced_s": 0.1, "speedup": 10.0}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": 1, "bench": "repro bench", "quick": False,
            "gate_tolerance": 0.25,
            "workloads": {
                "slice:2x20": kept,
                "dfa:early-violation": {"gate": True, "cuts": 0,
                                        "speedup": 1.0},
            },
        }))
        assert run_bench(quick=True, only="dfa:", json_path=str(path),
                         out=io.StringIO()) == 0
        payload = json.loads(path.read_text())
        assert payload["quick"] is False
        rows = payload["workloads"]
        assert sorted(rows) == ["dfa:early-violation", "slice:2x20"]
        assert rows["slice:2x20"] == kept
        assert rows["dfa:early-violation"]["cuts"] == 20

    def test_quick_json_merges_into_the_existing_file(self, monkeypatch,
                                                      tmp_path):
        """A ``--quick --json`` run over a full baseline keeps every row
        it did not run, and the file's header."""
        _stub_suites(monkeypatch)
        path = tmp_path / "bench.json"
        path.write_text(BASELINE.read_text())
        before = json.loads(path.read_text())
        assert run_bench(quick=True, json_path=str(path),
                         out=io.StringIO()) == 0
        after = json.loads(path.read_text())
        assert after["quick"] is False
        rows = after["workloads"]
        for name, row in before["workloads"].items():
            assert rows[name] == row, name
        assert "stub-por" in rows

    def test_missing_gated_baseline_row_fails_a_full_run(self, monkeypatch,
                                                         tmp_path):
        """A gated baseline row that a full unfiltered run does not
        produce is a regression; a ``--quick`` run does not look."""
        _stub_suites(monkeypatch)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"workloads": {
            "por:gone": {"gate": True, "speedup": 5.0},
            "por:info": {"gate": False, "speedup": 5.0}}}))
        buf = io.StringIO()
        assert run_bench(baseline_path=str(path), out=buf) == 1
        regressions = [line for line in buf.getvalue().splitlines()
                       if line.startswith("REGRESSION:")]
        assert regressions == [
            "REGRESSION: por:gone: gated in the baseline but not produced"]
        assert run_bench(quick=True, baseline_path=str(path),
                         out=io.StringIO()) == 0

    @pytest.mark.parametrize("row", sorted(PLANTS))
    def test_planted_regression_fails_its_row(self, row, monkeypatch):
        """Each gate fails its own row on a planted regression: exit 1
        and a ``REGRESSION:`` line naming the row, printed after every
        suite of the run has printed -- not a traceback."""
        suite, quick, plant = PLANTS[row]
        _stub_suites(monkeypatch, keep=suite)
        plant(monkeypatch)
        buf = io.StringIO()
        assert run_bench(quick=quick, baseline_path=str(BASELINE),
                         out=buf) == 1
        lines = buf.getvalue().splitlines()
        first_miss = next(i for i, line in enumerate(lines)
                          if line.startswith("REGRESSION:"))
        printed = [line.split()[0] for line in lines[:first_miss]]
        assert row in printed, lines
        for stub in SUITES:
            if stub != suite and (stub != "serve" or not quick):
                assert f"stub-{stub}" in printed, lines
        misses = lines[first_miss:]
        assert all(line.startswith("REGRESSION: ") for line in misses)
        # a full run over stubs also misses the rows the stubs replace
        own = [line for line in misses
               if not line.endswith("gated in the baseline but not produced")]
        assert own and all(line.startswith(f"REGRESSION: {row}: ")
                           for line in own), misses

    def test_quick_dfa_row_is_gated_and_wins(self):
        buf = io.StringIO()
        assert run_bench(quick=True, only="dfa:", out=buf) == 0
        text = buf.getvalue()
        assert "dfa:early-violation" in text
        assert "[gated]" in text
        assert "1 gated workload(s), 0 informational" in text
