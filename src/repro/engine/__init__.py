"""``repro.engine`` -- the parallel, deduplicating, cached verification
engine.

``PROG sat R`` quantifies over every legal computation of PROG; this
package is the execution layer that makes that quantification fast
without changing what it means.  Four ideas, four modules:

* **frontier sharding** (:mod:`.shard`) -- the DFS choice tree is split
  at a prefix frontier into independent subtrees that fan out across
  ``multiprocessing`` workers (fork-inherited state, no pickling of
  programs or specs: :mod:`.pool`);
* **computation deduplication** (:mod:`.dedupe`) -- runs are keyed by
  their partial order's stable fingerprint, so the N interleavings that
  collapse to one computation are checked once and the verdict is
  replicated to all N run indices;
* **persistent result caching** (:mod:`.cache`) -- verdicts are stored
  on disk keyed by ``(computation fingerprint, specification key)``
  with versioned invalidation, making re-verification of an unchanged
  workload incremental (zero restriction re-checks);
* **observability** (:mod:`.stats`, backed by :mod:`repro.obs`) -- an
  :class:`EngineStats` view over a metrics registry (shards, runs/s,
  dedupe ratio, cache hit rate, per-phase wall times), a guarded
  progress-callback hook, and optional span tracing: pass a
  :class:`repro.obs.Tracer` in the config and every phase, task and
  first-per-task check becomes a span, with worker segments merged
  deterministically in shard order.

Determinism guarantee
---------------------
For any ``jobs``, the engine produces a report identical to the serial
one: same verdicts, same run counts, same failing-run indices, same
``summary()`` text.  Shards are explored and merged in DFS prefix
order, so global run indices are the serial DFS indices; verdicts are
pure functions of the computation, so dedupe and caching cannot change
them -- only how often they are computed.  ``jobs=1`` is the degenerate
case of the same code path, not a separate implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.checker import DEFAULT_HISTORY_CAP
from ..core.plan import plan_for
from ..core.specification import Specification
from ..obs.trace import NULL_TRACER
from ..sim.runtime import Program
from ..sim.scheduler import (
    DEFAULT_MAX_RUNS,
    DEFAULT_MAX_STEPS,
    ExplorationResult,
)
from ..verify.correspondence import Correspondence
from ..verify.sat import RestrictionVerdict, VerificationReport
from .cache import (
    CACHE_FORMAT_VERSION,
    CheckOutcome,
    ResultCache,
    SharedCacheView,
    SharedResultCache,
    spec_cache_key,
)
from .dedupe import DedupeIndex, run_fingerprint
from .por import (
    DEFAULT_PROVISO_LIMIT,
    AmpleSelector,
    event_independent,
    make_selector,
)
from .pool import (
    CaseRef,
    JobCancelled,
    Task,
    TaskResult,
    WorkerPool,
    WorkerState,
    check_runs,
    effective_jobs,
    fork_available,
    run_tasks,
)
from .shard import Shard, make_shards
from .stats import (
    EngineStats,
    GuardedProgress,
    PhaseTimer,
    ProgressFn,
    guard_progress,
)

#: Target shards per worker: more than one absorbs uneven subtree sizes.
SHARD_FACTOR = 4

__all__ = [
    "Engine", "EngineConfig", "EngineStats", "ProgressFn",
    "GuardedProgress", "guard_progress",
    "Shard", "make_shards",
    "CheckOutcome", "ResultCache", "spec_cache_key", "CACHE_FORMAT_VERSION",
    "SharedResultCache", "SharedCacheView",
    "DedupeIndex", "run_fingerprint",
    "AmpleSelector", "make_selector", "event_independent",
    "DEFAULT_PROVISO_LIMIT",
    "WorkerPool", "CaseRef", "JobCancelled",
    "run_verification",
]


@dataclass
class EngineConfig:
    """Knobs for one engine instance (defaults match ``verify_program``).

    Which kernel decides a restriction is not a knob: every check takes
    the checker's ``temporal_mode="auto"`` route chain (DFA leaf, slice,
    interpreter), whose verdicts are byte-identical to
    the single-route reference modes by construction and by test.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    max_steps: int = DEFAULT_MAX_STEPS
    max_runs: int = DEFAULT_MAX_RUNS
    sample: int = 200
    seed: int = 0
    allow_deadlock: bool = False
    #: partial-order reduction (:mod:`repro.engine.por`): expand only an
    #: ample subset of enabled actions at each branch point.  Default on;
    #: ``--no-por`` turns it off (the fingerprint sets, verdicts and
    #: witnesses are identical either way on untruncated exploration --
    #: the reduced run census is just smaller)
    por: bool = True
    #: exploration-time restriction automata (:mod:`repro.core.automata`):
    #: monitor exploration prefixes so doomed branches record early
    #: verdicts and their checks skip the walk.  Default on; ``--no-dfa``
    #: turns the monitor off (fingerprint sets, verdicts and witnesses
    #: are byte-identical either way)
    dfa: bool = True
    progress: Optional[ProgressFn] = None
    #: a :class:`repro.obs.Tracer` to record spans into (None = no-op).
    #: With tracing on, the shard target is pinned to a jobs-invariant
    #: constant so the span structure is identical for every ``jobs``.
    tracer: Optional[object] = None
    #: history-lattice size cap forwarded to every restriction check
    #: (the serve API's ``history_cap`` job flag)
    history_cap: int = DEFAULT_HISTORY_CAP
    #: a :class:`WorkerPool` to execute tasks on instead of forking a
    #: fresh ephemeral pool per verification.  A *resident* pool
    #: additionally requires ``case_ref`` so workers can rebuild the
    #: workload themselves (see :mod:`repro.engine.pool`)
    pool: Optional[WorkerPool] = None
    #: resident-mode rebuild recipe matching (program, specs) -- must
    #: describe the same workload ``verify`` is called with
    case_ref: Optional[CaseRef] = None
    #: a :class:`repro.engine.SharedResultCache` to read/write instead
    #: of opening a private per-directory cache; ``cache_dir`` is
    #: ignored when set
    shared_cache: Optional[SharedResultCache] = None
    #: polled between task results; truthy aborts the verification with
    #: :class:`JobCancelled` (the daemon's per-job cancellation)
    cancel: Optional[object] = None


class Engine:
    """Runs verifications; holds config and the last run's stats."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.last_stats: Optional[EngineStats] = None
        # a hook that raises is warned about once and disabled, rather
        # than killing a parallel verification mid-shard
        self._progress = guard_progress(self.config.progress)
        self._tracer = self.config.tracer or NULL_TRACER

    # -- phases ------------------------------------------------------------

    def _open_cache(
        self,
        problem_spec: Specification,
        correspondence: Correspondence,
        program_spec: Optional[Specification],
        stats: EngineStats,
    ) -> "Optional[ResultCache | SharedCacheView]":
        cfg = self.config
        if cfg.cache_dir is None and cfg.shared_cache is None:
            return None
        with PhaseTimer(stats, "cache-load", self._progress, self._tracer):
            key = spec_cache_key(
                problem_spec, correspondence, program_spec,
                history_cap=(cfg.history_cap
                             if cfg.history_cap != DEFAULT_HISTORY_CAP
                             else None))
            if cfg.shared_cache is not None:
                cache: "ResultCache | SharedCacheView" = (
                    cfg.shared_cache.view(key))
            else:
                cache = ResultCache(cfg.cache_dir, key)
        stats.cache_enabled = True
        return cache

    def _gather(
        self,
        program: Program,
        state: WorkerState,
        stats: EngineStats,
    ) -> "tuple[List[TaskResult], bool]":
        """Explore-and-check: exhaustive shards, else sampling fallback."""
        cfg = self.config
        tracer = self._tracer
        with PhaseTimer(stats, "shard", self._progress, tracer):
            if tracer.enabled:
                # pinned, jobs-invariant: the shard plan (hence the task
                # list, hence the span tree) must not depend on --jobs
                # for traces to compare byte-for-byte across job counts
                target = SHARD_FACTOR * 4
            else:
                target = cfg.jobs * SHARD_FACTOR if cfg.jobs > 1 else 1
            # the planner's selector makes the plan partition the
            # *reduced* tree; its counters cover the branch points the
            # plan split through (workers count the rest, so the merged
            # totals cover each reduced-tree branch point exactly once)
            plan_selector = make_selector(cfg.por)
            shards = make_shards(program, target, cfg.max_steps,
                                 por=plan_selector)
        if plan_selector is not None:
            stats.add_counts(plan_selector.counts())
        stats.shards = len(shards)
        stats.jobs = effective_jobs(cfg.jobs, len(shards))

        def absorb(task_results: List[TaskResult], parent) -> None:
            # shard order == task order: deterministic merged trace
            for tr in task_results:
                tracer.graft(tr.spans, parent)
                stats.metrics.merge_records(tr.metrics)

        with PhaseTimer(stats, "explore+check", self._progress,
                        tracer) as timer:
            tasks = [Task("explore", prefix=s.prefix) for s in shards]
            results = self._run_tasks(state, tasks)
            absorb(results, timer.span)
            total = sum(len(r.records) for r in results)
            capped = any(r.cap_exceeded for r in results)
            if not capped and total <= cfg.max_runs:
                return results, True
            # over the cap (detected inside one shard or across the sum):
            # fall back to seeded sampling, exactly like explore_or_sample
            sample_tasks = [
                Task("sample", seed=cfg.seed + i) for i in range(cfg.sample)
            ]
            sampled = self._run_tasks(state, sample_tasks)
            absorb(sampled, timer.span)
            # keep the aborted attempt's results too: their records are
            # empty but their fresh outcomes feed the merge lookup/cache
            return list(results) + sampled, False

    def _run_tasks(self, state: WorkerState, tasks) -> "List[TaskResult]":
        """Dispatch a task batch: the configured pool, or a one-shot."""
        cfg = self.config
        if cfg.pool is not None:
            return cfg.pool.run(state, tasks, progress=self._progress,
                                cancel=cfg.cancel)
        return run_tasks(state, tasks, cfg.jobs, self._progress,
                         cancel=cfg.cancel)

    def _merge(
        self,
        results: List[TaskResult],
        problem_spec: Specification,
        program_spec: Optional[Specification],
        exhaustive: bool,
        cache_snapshot: Dict[str, CheckOutcome],
        stats: EngineStats,
    ) -> VerificationReport:
        cfg = self.config
        report = VerificationReport(
            problem_name=problem_spec.name,
            exhaustive=exhaustive,
            allow_deadlock=cfg.allow_deadlock,
        )
        for r in problem_spec.all_restrictions():
            report.verdicts[r.name] = RestrictionVerdict(r.name)

        lookup: Dict[str, CheckOutcome] = dict(cache_snapshot)
        for tr in results:
            lookup.update(tr.fresh_outcomes)
            stats.add_counts(tr.counts)

        fingerprints = set()
        index = 0
        for tr in results:
            for rec in tr.records:
                outcome = lookup[rec.fingerprint]
                report.runs_checked += 1
                if rec.deadlocked:
                    report.deadlocks += 1
                if rec.truncated:
                    report.truncated += 1
                if program_spec is not None and not outcome.program_spec_ok:
                    report.program_spec_failures.append(index)
                    if len(report.program_spec_failures) == 1:
                        report.failing_run_choices[index] = rec.choices
                if not outcome.legality_ok:
                    report.legality_failures.append(index)
                    if len(report.legality_failures) == 1:
                        report.failing_run_choices[index] = rec.choices
                for name in outcome.failed_restrictions:
                    verdict = report.verdicts[name]
                    verdict.holds = False
                    verdict.failing_runs.append(index)
                    # provenance for witness replay: each restriction's
                    # *first* failing run can be re-driven from its
                    # choice sequence, no re-exploration required
                    if len(verdict.failing_runs) == 1:
                        report.failing_run_choices[index] = rec.choices
                fingerprints.add(rec.fingerprint)
                index += 1

        report.distinct_computations = len(fingerprints)
        report.dedupe_ratio = (
            report.runs_checked / len(fingerprints) if fingerprints else 1.0
        )
        stats.runs = report.runs_checked
        stats.distinct_computations = len(fingerprints)
        return report

    # -- entry point -------------------------------------------------------

    def verify(
        self,
        program: Program,
        problem_spec: Specification,
        correspondence: Correspondence,
        program_spec: Optional[Specification] = None,
        exploration: Optional[ExplorationResult] = None,
    ) -> VerificationReport:
        """The paper's proof obligation, through the engine.

        Pass ``exploration`` to reuse runs already gathered (checking
        still benefits from dedupe and the cache; nothing is explored).
        """
        cfg = self.config
        tracer = self._tracer
        stats = EngineStats()
        stats.por_enabled = cfg.por
        stats.dfa_enabled = cfg.dfa
        # a fact of the specifications' plans, the same on a warm cache
        stats.dfa_inert = sum(plan_for(spec).inert
                              for spec in (problem_spec, program_spec)
                              if spec is not None)
        with tracer.span("verify", attrs={"problem": problem_spec.name},
                         meta={"jobs": cfg.jobs}) as root:
            cache = self._open_cache(problem_spec, correspondence,
                                     program_spec, stats)
            snapshot = cache.snapshot() if cache is not None else {}
            state = WorkerState(
                program=program,
                problem_spec=problem_spec,
                correspondence=correspondence,
                program_spec=program_spec,
                max_steps=cfg.max_steps,
                max_runs=cfg.max_runs,
                cache_snapshot=snapshot,
                trace=tracer.enabled,
                por=cfg.por,
                dfa=cfg.dfa,
                history_cap=cfg.history_cap,
                case_ref=cfg.case_ref,
            )

            if exploration is not None:
                stats.mode = "reused"
                stats.jobs = 1
                with PhaseTimer(stats, "explore+check", self._progress,
                                tracer):
                    # in-process, without a "task" span; like a task,
                    # the checker records metrics only when tracing
                    reused = TaskResult()
                    check_runs(state, exploration.runs, reused, tracer,
                               stats.metrics if tracer.enabled else None)
                    results = [reused]
                exhaustive = exploration.exhaustive
            else:
                results, exhaustive = self._gather(program, state, stats)
                stats.mode = "exhaustive" if exhaustive else "sampled"

            with PhaseTimer(stats, "merge", self._progress, tracer):
                report = self._merge(results, problem_spec, program_spec,
                                     exhaustive, snapshot, stats)

            if exploration is not None:
                # checking provenance rides on the exploration the caller
                # holds, so its describe() can say which temporal
                # verdicts were decided exactly on the slice
                exploration.record_checks(stats)

            if cache is not None:
                with PhaseTimer(stats, "cache-save", self._progress, tracer):
                    for tr in results:
                        cache.update(tr.fresh_outcomes)
                    cache.save()
            root.set_meta(mode=stats.mode, shards=stats.shards)

        self.last_stats = stats
        report.engine_stats = stats
        return report


def run_verification(
    program: Program,
    problem_spec: Specification,
    correspondence: Correspondence,
    program_spec: Optional[Specification] = None,
    config: Optional[EngineConfig] = None,
    exploration: Optional[ExplorationResult] = None,
) -> "tuple[VerificationReport, EngineStats]":
    """One-shot convenience: build an engine, verify, return report+stats."""
    engine = Engine(config)
    report = engine.verify(program, problem_spec, correspondence,
                           program_spec=program_spec, exploration=exploration)
    assert engine.last_stats is not None
    return report, engine.last_stats
