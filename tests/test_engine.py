"""Tests for ``repro.engine``: sharding, dedupe, cache, determinism.

The headline guarantee -- a parallel report is *identical* to the
serial one (verdicts, run counts, failing-run indices) -- is asserted
here over every workload in ``benchmarks/bench_engine.py``, per the
acceptance criteria, not just sampled in the bench.
"""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.bench_engine import WORKLOADS
from repro.core import ComputationBuilder
from repro.core.errors import RunCapExceeded, VerificationError
from repro.cli import _build_cases
from repro.engine import (
    CACHE_FORMAT_VERSION,
    AmpleSelector,
    CheckOutcome,
    DedupeIndex,
    Engine,
    EngineConfig,
    ResultCache,
    make_shards,
    spec_cache_key,
)
from repro.engine.pool import Task, WorkerState, run_tasks
from repro.engine.stats import TASK_METRICS
from repro.core.specification import Specification
from repro.sim import explore, explore_or_sample
from repro.verify import Correspondence, verify_program
from tests.test_sim import CounterProgram


# -- a trivial workload: N interleavings, one partial order ---------------

NOOP_SPEC = Specification("noop")
NOOP_CORR = Correspondence(rules=())


def verify_counter(n=2, steps=2, **kwargs):
    return verify_program(CounterProgram(n, steps), NOOP_SPEC, NOOP_CORR,
                          **kwargs)


# -- sharding -------------------------------------------------------------


class TestShards:
    @pytest.mark.parametrize("n,steps", [(2, 2), (3, 2), (2, 3)])
    def test_partition_preserves_dfs_order(self, n, steps):
        program = CounterProgram(n, steps)
        serial = [r.choices for r in explore(program)]
        shards = make_shards(program, target=8, max_steps=10_000)
        merged = []
        for shard in shards:
            merged.extend(
                r.choices for r in explore(program, prefix=shard.prefix))
        assert merged == serial  # same runs, same order, no dupes

    def test_terminal_tree_smaller_than_target(self):
        program = CounterProgram(1, 2)  # single run, no branching
        shards = make_shards(program, target=8, max_steps=10_000)
        assert len(shards) == 1
        assert shards[0].terminal
        assert "leaf" in shards[0].describe()

    def test_target_reached_or_tree_exhausted(self):
        program = CounterProgram(3, 2)
        shards = make_shards(program, target=4, max_steps=10_000)
        assert len(shards) >= 4


# -- determinism: the acceptance criterion --------------------------------


class TestParallelDeterminism:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_parallel_equals_serial(self, workload):
        program, spec, corr, pspec = WORKLOADS[workload]()
        serial = verify_program(program, spec, corr, program_spec=pspec,
                                jobs=1)
        parallel = verify_program(program, spec, corr, program_spec=pspec,
                                  jobs=4)
        assert parallel.signature() == serial.signature()
        assert parallel.summary() == serial.summary()  # byte-identical
        assert serial.ok and parallel.ok
        if "fork" in __import__("multiprocessing").get_all_start_methods():
            assert parallel.engine_stats.jobs >= 2

    def test_parallel_equals_serial_on_synthetic(self):
        serial = verify_counter(3, 2, jobs=1)
        parallel = verify_counter(3, 2, jobs=3)
        assert parallel.signature() == serial.signature()


# -- dedupe ---------------------------------------------------------------


class TestDedupe:
    def test_independent_steps_collapse_to_one_computation(self):
        # 2 procs x 2 steps: 6 interleavings, all the same partial order
        report = verify_counter(2, 2)
        assert report.runs_checked == 6
        assert report.distinct_computations == 1
        assert report.dedupe_ratio == 6.0
        assert report.engine_stats.checks_performed == 1
        assert report.engine_stats.dedupe_hits == 5

    def test_summary_reports_distinct_count(self):
        report = verify_counter(2, 2)
        assert "6 runs" in report.summary()
        assert "1 distinct computations" in report.summary()

    def test_sampling_routed_through_dedupe(self):
        # cap forces the sampling fallback; every seeded walk of the
        # independent-counter program is the same partial order, and the
        # report must say so instead of claiming N independent checks
        report = verify_counter(3, 3, max_runs=5, sample=20)
        assert not report.exhaustive
        assert report.runs_checked == 20
        assert report.distinct_computations == 1
        assert report.engine_stats.mode == "sampled"
        assert report.engine_stats.checks_performed <= 2

    def test_exploration_result_reports_distinct(self):
        result = explore_or_sample(CounterProgram(2, 2))
        assert result.distinct_computations() == 1
        assert "1 distinct" in result.describe()

    def test_dedupe_index_layering(self):
        index = DedupeIndex(seed={"warm": CheckOutcome()})
        fresh = CheckOutcome(failed_restrictions=("r",))
        assert index.outcome_for("warm", lambda: fresh) == CheckOutcome()
        assert index.cache_hits == 1
        assert index.outcome_for("cold", lambda: fresh) == fresh
        assert index.computed == 1
        assert index.outcome_for("cold", lambda: CheckOutcome()) == fresh
        assert index.dedupe_hits == 1
        assert index.fresh == {"cold": fresh}
        assert "warm" in index and "cold" in index
        assert len(index) == 2


# -- stable fingerprints --------------------------------------------------


class TestStableFingerprint:
    def build(self, order):
        b = ComputationBuilder()
        events = {}
        for name in order:
            events[name] = b.add_event(name, "X", {"v": 1})
        b.add_enable(events["A"], events["B"])
        return b.freeze()

    def test_insertion_order_independent(self):
        assert (self.build(["A", "B", "C"]).stable_fingerprint()
                == self.build(["C", "A", "B"]).stable_fingerprint())

    def test_content_sensitive(self):
        b = ComputationBuilder()
        b.add_event("A", "X", {"v": 2})
        b.add_event("B", "X", {"v": 1})
        b.add_event("C", "X", {"v": 1})
        other = b.freeze()  # no A->B edge, different param
        assert (other.stable_fingerprint()
                != self.build(["A", "B", "C"]).stable_fingerprint())


# -- persistent cache -----------------------------------------------------


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, "k1")
        cache.put("fp1", CheckOutcome(failed_restrictions=("r1",),
                                      legality_ok=False))
        cache.save()
        again = ResultCache(tmp_path, "k1")
        assert len(again) == 1
        assert again.get("fp1").failed_restrictions == ("r1",)
        assert not again.get("fp1").legality_ok

    def test_records_with_a_dfa_inert_key_still_load(self, tmp_path):
        """Outcomes once carried a ``dfa_inert`` count and the
        ``slice_hits`` / ``slice_fb`` / ``dfa_hits`` route counts; files
        written then load with those keys ignored."""
        outcome = CheckOutcome(failed_restrictions=("r1",))
        cache = ResultCache(tmp_path, "k1")
        cache.put("fp1", outcome)
        cache.save()
        data = json.loads(cache.path.read_text())
        assert data["version"] == CACHE_FORMAT_VERSION == 3
        data["outcomes"]["fp1"].update(
            dfa_inert=2, slice_hits=3, slice_fb=1, dfa_hits=1)
        cache.path.write_text(json.dumps(data))
        assert ResultCache(tmp_path, "k1").get("fp1") == outcome

    def test_version_mismatch_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path, "k1")
        cache.put("fp1", CheckOutcome())
        cache.save()
        text = cache.path.read_text()
        cache.path.write_text(
            text.replace(f'"version":{CACHE_FORMAT_VERSION}', '"version":0'))
        assert len(ResultCache(tmp_path, "k1")) == 0

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "gem-cache-k1.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning):
            assert len(ResultCache(tmp_path, "k1")) == 0

    def test_keys_separate_workloads(self):
        program, spec, corr, pspec = WORKLOADS["monitor-bounded-buffer"]()
        key = spec_cache_key(spec, corr, pspec)
        assert key == spec_cache_key(spec, corr, pspec)  # deterministic
        assert key != spec_cache_key(spec, corr, None)
        assert key != spec_cache_key(spec, corr, pspec, history_cap=1)
        assert key != spec_cache_key(NOOP_SPEC, corr, pspec)

    def test_warm_cache_skips_every_check(self, tmp_path):
        cold = verify_counter(2, 2, cache_dir=str(tmp_path))
        warm = verify_counter(2, 2, cache_dir=str(tmp_path))
        assert cold.engine_stats.checks_performed == 1
        assert warm.engine_stats.checks_performed == 0
        assert warm.engine_stats.cache_hits == 1
        assert warm.engine_stats.cache_hit_rate == 1.0
        assert warm.signature() == cold.signature()

    def test_warm_cache_parallel(self, tmp_path):
        program, spec, corr, pspec = WORKLOADS["monitor-bounded-buffer"]()
        cold = verify_program(program, spec, corr, program_spec=pspec,
                              jobs=2, cache_dir=str(tmp_path))
        warm = verify_program(program, spec, corr, program_spec=pspec,
                              jobs=2, cache_dir=str(tmp_path))
        assert warm.engine_stats.checks_performed == 0
        assert warm.signature() == cold.signature()


# -- negative controls: dedupe/cache must not mask counterexamples --------


class TestMutantsThroughEngine:
    def mutant(self):
        from repro.langs.monitor import (
            MonitorProgram,
            one_slot_buffer_monitor_unguarded,
            one_slot_buffer_system,
        )
        from repro.problems.one_slot_buffer import (
            monitor_correspondence,
            one_slot_buffer_spec,
        )

        system = one_slot_buffer_system(
            items=(1, 2), monitor=one_slot_buffer_monitor_unguarded())
        return (MonitorProgram(system), one_slot_buffer_spec(),
                monitor_correspondence("osb"))

    def test_mutant_fails_serial_parallel_and_cached(self, tmp_path):
        program, spec, corr = self.mutant()
        serial = verify_program(program, spec, corr)
        parallel = verify_program(program, spec, corr, jobs=2)
        cold = verify_program(program, spec, corr, cache_dir=str(tmp_path))
        warm = verify_program(program, spec, corr, cache_dir=str(tmp_path))
        assert not serial.ok
        assert parallel.signature() == serial.signature()
        assert cold.signature() == serial.signature()
        assert warm.signature() == serial.signature()
        assert warm.engine_stats.checks_performed == 0
        failed = [v for v in warm.verdicts.values() if not v.holds]
        assert failed and all(v.failing_runs for v in failed)


# -- fuzz-found-style mutants: structural defects through every pipeline --


class TestFuzzFoundMutants:
    """Two mutant shapes the fuzzer's oracles are built to catch -- a
    dropped ``⊳`` edge and a reordered ``⇒ₑ`` pair -- replayed through
    the engine via :class:`~repro.fuzz.programs.RecipeProgram` so the
    serial, parallel, and cached pipelines all report the violation
    identically."""

    def _pipelines(self, program, spec, corr, tmp_path):
        serial = verify_program(program, spec, corr)
        parallel = verify_program(program, spec, corr, jobs=2)
        cold = verify_program(program, spec, corr, cache_dir=str(tmp_path))
        warm = verify_program(program, spec, corr, cache_dir=str(tmp_path))
        assert parallel.signature() == serial.signature()
        assert cold.signature() == serial.signature()
        assert warm.signature() == serial.signature()
        assert warm.engine_stats.checks_performed == 0
        return serial

    def _correspondence(self, pairs):
        from repro.fuzz.programs import _identity_params
        from repro.verify.correspondence import SignificantEvents

        return Correspondence(rules=tuple(
            SignificantEvents(
                name=f"id-{el}-{cls}", element=el, event_class=cls,
                target_element=el, target_class=cls,
                params=_identity_params)
            for el, cls in pairs))

    def test_dropped_enable_edge_fails_everywhere(self, tmp_path):
        from repro.core.element import ElementDecl
        from repro.core.event import EventClass
        from repro.core.formula import (
            Enables,
            Exists,
            ForAll,
            Henceforth,
            Implies,
            Occurred,
            Restriction,
        )
        from repro.fuzz.generators import ComputationRecipe
        from repro.fuzz.programs import RecipeProgram

        good = ComputationRecipe(
            events=(("A", "Go", (), ()), ("B", "Go", (), ())),
            edges=((0, 1),))
        mutant = good.without_edge(0)  # the fuzz-found defect

        spec = Specification(
            "edge-required",
            elements=[
                ElementDecl.make("A", [EventClass("Go", ())]),
                ElementDecl.make("B", [EventClass("Go", ())]),
            ],
            restrictions=[Restriction(
                "b-is-enabled",
                Henceforth(ForAll(
                    "b", "B.Go",
                    Implies(Occurred("b"),
                            Exists("a", "A.Go", Enables("a", "b"))))))])
        corr = self._correspondence([("A", "Go"), ("B", "Go")])

        assert self._pipelines(
            RecipeProgram(good), spec, corr, tmp_path / "good").ok
        report = self._pipelines(
            RecipeProgram(mutant), spec, corr, tmp_path / "mutant")
        assert not report.ok
        assert not report.verdicts["b-is-enabled"].holds

    def test_reordered_element_pair_fails_everywhere(self, tmp_path):
        from repro.core.element import ElementDecl
        from repro.core.event import EventClass, ParamSpec
        from repro.core.formula import (
            DataCmp,
            ElementPrecedes,
            ForAll,
            Henceforth,
            Implies,
            Param,
            Restriction,
        )
        from repro.fuzz.generators import ComputationRecipe
        from repro.fuzz.programs import RecipeProgram

        good = ComputationRecipe(
            events=(("A", "Put", (("v", 1),), ()),
                    ("A", "Put", (("v", 2),), ())))
        # the fuzz-found defect: the ⇒ₑ pair emitted in the wrong order
        mutant = ComputationRecipe(
            events=(("A", "Put", (("v", 2),), ()),
                    ("A", "Put", (("v", 1),), ())))

        spec = Specification(
            "values-ascend",
            elements=[ElementDecl.make(
                "A", [EventClass("Put", (ParamSpec("v", "INTEGER"),))])],
            restrictions=[Restriction(
                "puts-ascending",
                Henceforth(ForAll("a", "A.Put", ForAll(
                    "b", "A.Put",
                    Implies(ElementPrecedes("a", "b"),
                            DataCmp(Param("a", "v"), "<=",
                                    Param("b", "v")))))))])
        corr = self._correspondence([("A", "Put")])

        assert self._pipelines(
            RecipeProgram(good), spec, corr, tmp_path / "good").ok
        report = self._pipelines(
            RecipeProgram(mutant), spec, corr, tmp_path / "mutant")
        assert not report.ok
        assert not report.verdicts["puts-ascending"].holds


# -- scheduler regression: the silent-fallback bug ------------------------


class _ExplodingState:
    def __init__(self, err):
        self._err = err

    def enabled(self):
        raise self._err

    def step(self, action):  # pragma: no cover
        raise AssertionError

    def is_final(self):  # pragma: no cover
        return False

    def computation(self):  # pragma: no cover
        return ComputationBuilder().freeze()


class _ExplodingProgram:
    def __init__(self, err):
        self._err = err

    def initial_state(self):
        return _ExplodingState(self._err)


class TestRunCapFallback:
    def test_explore_raises_run_cap_exceeded(self):
        with pytest.raises(RunCapExceeded):
            list(explore(CounterProgram(3, 3), max_runs=5))

    def test_cap_exceeded_is_a_verification_error(self):
        assert issubclass(RunCapExceeded, VerificationError)

    def test_bad_bounds_propagate_instead_of_sampling(self):
        # regression: explore_or_sample used to swallow *any*
        # VerificationError and silently degrade to sampling
        with pytest.raises(VerificationError, match="max_steps"):
            explore_or_sample(CounterProgram(2, 2), max_steps=0)

    def test_interpreter_failures_propagate(self):
        boom = VerificationError("interpreter exploded")
        with pytest.raises(VerificationError, match="exploded"):
            explore_or_sample(_ExplodingProgram(boom))

    def test_only_cap_triggers_sampling(self):
        result = explore_or_sample(CounterProgram(3, 3), max_runs=5,
                                   sample=7)
        assert not result.exhaustive
        assert len(result.runs) == 7


# -- engine plumbing ------------------------------------------------------


class TestEnginePlumbing:
    def test_reused_exploration_matches_fresh(self):
        program = CounterProgram(2, 2)
        fresh = verify_program(program, NOOP_SPEC, NOOP_CORR)
        reused = verify_program(
            program, NOOP_SPEC, NOOP_CORR,
            exploration=explore_or_sample(program))
        assert reused.signature() == fresh.signature()
        assert reused.engine_stats.mode == "reused"

    def test_progress_hook_fires(self):
        events = []
        verify_counter(2, 2, jobs=1,
                       progress=lambda name, info: events.append(name))
        names = set(events)
        assert "phase:start" in names and "phase:end" in names
        assert "task:done" in names

    def test_run_verification_returns_stats(self):
        from repro.engine import run_verification

        report, stats = run_verification(
            CounterProgram(2, 2), NOOP_SPEC, NOOP_CORR,
            config=EngineConfig(jobs=1))
        assert report.engine_stats is stats
        assert stats.runs == 6
        assert stats.dedupe_ratio == 6.0
        assert "dedupe ratio" in stats.describe()

    def test_engine_stats_describe_smoke(self):
        engine = Engine(EngineConfig(jobs=2))
        report = engine.verify(CounterProgram(2, 2), NOOP_SPEC, NOOP_CORR)
        text = engine.last_stats.describe()
        assert "engine:" in text and "runs/s" in text
        assert report.ok


# -- one counter path -----------------------------------------------------

#: the route and dedupe counters a reused exploration must match
ROUTE_COUNTERS = ("checks_performed", "dedupe_hits", "slice_hits",
                  "slice_fallbacks", "dfa_hits")


def verify_one_slot(**kwargs):
    program, spec, corr, pspec = _build_cases()["monitor-one-slot-buffer"](
        False)
    if kwargs.pop("reuse", False):
        kwargs["exploration"] = explore_or_sample(program)
    return verify_program(program, spec, corr, program_spec=pspec, jobs=1,
                          **kwargs).engine_stats


class TestCounterPath:
    def test_reused_exploration_counts_like_a_fresh_one(self):
        fresh = verify_one_slot(por=False, dfa=False)
        reused = verify_one_slot(por=False, dfa=False, reuse=True)
        assert reused.mode == "reused"
        assert fresh.checks_performed > 0
        assert fresh.slice_fallbacks + fresh.dfa_hits > 0
        assert ([getattr(reused, n) for n in ROUTE_COUNTERS]
                == [getattr(fresh, n) for n in ROUTE_COUNTERS])
        # like a task, an untraced reuse gives the checker no registry,
        # so it records no metric the fresh run lacks
        names = [{r["name"] for r in stats.metrics.records()}
                 for stats in (reused, fresh)]
        assert names[0] - names[1] == set()

    def test_warm_cache_rerun_counts_no_routes(self, tmp_path):
        cold = verify_one_slot(cache_dir=str(tmp_path))
        warm = verify_one_slot(cache_dir=str(tmp_path))
        assert cold.slice_fallbacks + cold.dfa_hits > 0
        assert warm.cache_hits == cold.checks_performed > 0
        assert [getattr(warm, n) for n in ROUTE_COUNTERS] == [0] * 5
        (path,) = tmp_path.glob("gem-cache-*.json")
        outcomes = json.loads(path.read_text())["outcomes"].values()
        assert outcomes and all(
            set(rec) == {"failed", "legal", "prog_ok"} for rec in outcomes)

    def test_task_counts_are_table_metrics(self):
        program, spec, corr, pspec = _build_cases()[
            "monitor-one-slot-buffer"](False)
        state = WorkerState(program, spec, corr, pspec, max_steps=10_000,
                            max_runs=100_000)
        (result,) = run_tasks(state, [Task("explore")], jobs=1)
        assert set(result.counts) <= set(TASK_METRICS)
        assert result.counts["por.nodes"] > 0
        assert result.counts["engine.checks_performed"] == len(
            result.fresh_outcomes) > 0
        assert set(AmpleSelector().counts()) <= set(TASK_METRICS)

    def test_every_task_counter_is_recorded_once_merged(self):
        """Zeros included: the registry holds the same keys whichever
        routes ran (POR and the monitor off count nothing here)."""
        stats = verify_one_slot(por=False, dfa=False)
        kinds = {r["name"]: r["kind"] for r in stats.metrics.records()}
        assert stats.por_nodes == stats.dfa_probes == 0
        for metric in TASK_METRICS:
            assert kinds.get(metric) == "gauge", metric


# -- shared cache (the serve daemon's cross-request store) ----------------


def _cache_writer(directory, fingerprints, barrier):
    """Child-process body: write disjoint entries, save through the lock."""
    cache = ResultCache(directory, "shared-key")
    for fp in fingerprints:
        cache.put(fp, CheckOutcome(failed_restrictions=(fp,)))
    barrier.wait()  # maximise save() overlap between the two processes
    cache.save()


class TestCacheConcurrency:
    def test_two_processes_save_without_losing_entries(self, tmp_path):
        """Concurrent update()+save() must merge, not last-writer-win:
        each save re-reads the store under a lock file and folds the
        other process's entries in before the atomic replace."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        groups = [[f"p{i}-fp{j}" for j in range(5)] for i in range(2)]
        procs = [ctx.Process(target=_cache_writer,
                             args=(tmp_path, group, barrier))
                 for group in groups]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        merged = ResultCache(tmp_path, "shared-key")
        assert len(merged) == 10
        for group in groups:
            for fp in group:
                assert merged.get(fp).failed_restrictions == (fp,)

    def test_repeated_interleaved_rounds(self, tmp_path):
        """Several update/save rounds from two live caches on the same
        path: everything either wrote survives in the final store."""
        a = ResultCache(tmp_path, "k")
        b = ResultCache(tmp_path, "k")
        for i in range(3):
            a.put(f"a{i}", CheckOutcome())
            a.save()
            b.put(f"b{i}", CheckOutcome())
            b.save()
        final = ResultCache(tmp_path, "k")
        assert {f"a{i}" for i in range(3)} <= set(final.snapshot())
        assert {f"b{i}" for i in range(3)} <= set(final.snapshot())

    def test_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "gem-cache-k1.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="starting empty"):
            cache = ResultCache(tmp_path, "k1")
        assert len(cache) == 0
        # ... and the empty cache is fully usable afterwards
        cache.put("fp", CheckOutcome())
        cache.save()
        assert len(ResultCache(tmp_path, "k1")) == 1

    def test_truncated_file_warns(self, tmp_path):
        cache = ResultCache(tmp_path, "k1")
        cache.put("fp", CheckOutcome())
        cache.save()
        text = cache.path.read_text()
        cache.path.write_text(text[: len(text) // 2])
        with pytest.warns(RuntimeWarning, match="starting empty"):
            assert len(ResultCache(tmp_path, "k1")) == 0

    def test_save_is_atomic_no_partial_files(self, tmp_path):
        cache = ResultCache(tmp_path, "k1")
        cache.put("fp", CheckOutcome())
        cache.save()
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != cache.path.name]
        assert leftovers == []  # no temp or lock files left behind


class TestSharedResultCache:
    def _outcome(self, tag="r"):
        return CheckOutcome(failed_restrictions=(tag,))

    def test_view_round_trip(self):
        from repro.engine import SharedResultCache

        shared = SharedResultCache()
        view = shared.view("k1")
        view.put("fp1", self._outcome())
        assert view.get("fp1").failed_restrictions == ("r",)
        assert view.snapshot() == {"fp1": view.get("fp1")}
        assert shared.view("k2").get("fp1") is None  # keys are separate

    def test_byte_budget_evicts_lru_first(self):
        from repro.engine import SharedResultCache
        from repro.engine.cache import _entry_bytes

        one = _entry_bytes("fp00", self._outcome())
        shared = SharedResultCache(max_bytes=one * 3)
        for i in range(3):
            shared.update("k", {f"fp{i:02d}": self._outcome()})
        shared.get("k", "fp00")  # touch: fp01 becomes the eviction victim
        shared.update("k", {"fp03": self._outcome()})
        assert shared.get("k", "fp01") is None
        assert shared.get("k", "fp00") is not None
        assert shared.bytes_used <= shared.max_bytes
        assert shared.metrics.get("cache.evictions") == 1.0

    def test_persistent_directory_shared_with_oneshot_path(self, tmp_path):
        from repro.engine import SharedResultCache

        shared = SharedResultCache(directory=tmp_path)
        shared.update("k1", {"fp1": self._outcome()})
        shared.save()
        # the one-shot --cache path reads the same file...
        assert ResultCache(tmp_path, "k1").get("fp1") is not None
        # ... and a fresh shared cache warm-loads it back
        again = SharedResultCache(directory=tmp_path)
        assert again.get("k1", "fp1").failed_restrictions == ("r",)

    def test_engine_accepts_shared_cache(self, tmp_path):
        from repro.engine import SharedResultCache, run_verification

        shared = SharedResultCache()
        cfg = EngineConfig(shared_cache=shared)
        cold, cold_stats = run_verification(
            CounterProgram(2, 2), NOOP_SPEC, NOOP_CORR, config=cfg)
        warm, warm_stats = run_verification(
            CounterProgram(2, 2), NOOP_SPEC, NOOP_CORR, config=cfg)
        assert warm.signature() == cold.signature()
        assert cold_stats.checks_performed == 1
        assert warm_stats.checks_performed == 0
        assert warm_stats.cache_hits == 1
        assert shared.entries == 1
