"""Worker-pool execution of engine tasks (explore-and-check shards).

Two pool modes, one worker code path:

**Ephemeral** (the one-shot CLI path, :func:`run_tasks`): state transfer
is by **fork inheritance, not pickling** -- the parent stores the full
worker bundle (program, specifications, correspondence, cache snapshot)
in a module global immediately before creating the pool; forked
children find it there.  Only task descriptions (choice prefixes /
seeds) and result records -- tuples of primitives -- ever cross the
process boundary, so interpreters are free to hold closures, lambdas,
and other unpicklable machinery.

**Resident** (the ``repro serve`` daemon path): the pool forks *once*,
before any workload exists, so nothing can be fork-inherited.  Instead
each task carries a :class:`CaseRef` -- a pure-primitive description of
the workload (a catalog case name, or an inline fuzz-program spec) plus
the engine knobs -- and every worker process *rebuilds* the worker
bundle from it on first use, primes its compilation plans, and memoises
it per state key.  Later tasks for the same key reuse the hot state:
the per-process :class:`DedupeIndex` (and the compiled ``SpecPlan``
living on the rebuilt spec instances) survive across requests, which is
what makes warm resubmission cheap.  A per-job snapshot of the shared
result cache travels with the tasks and is merged into the worker's
dedupe seed, so outcomes learned by *other* workers in earlier jobs are
not recomputed.

On platforms without the ``fork`` start method both modes degrade to
in-process execution (``effective_jobs`` reports what actually ran);
the serial degenerate case shares every line of worker code with the
parallel path, which is what makes "byte-identical reports" a
structural property rather than a hope.

Each task both *explores* (its shard's subtree, or one seeded random
walk) and *checks*: checking is the expensive half, and shipping
computations back to the parent for checking would serialise it.
Verdicts are memoised per worker process in a :class:`DedupeIndex`
seeded with the cache snapshot, so a worker checks each distinct
partial order at most once no matter how many of its shards'
interleavings collapse to it.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.checker import DEFAULT_HISTORY_CAP, CheckResult
from ..core.errors import RunCapExceeded, VerificationError
from ..core.plan import plan_for
from ..core.specification import Specification
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..sim.runtime import Program, Run
from ..sim.scheduler import explore, run_random
from ..verify.correspondence import Correspondence
from ..verify.projection import project
from .cache import CheckOutcome
from .dedupe import DedupeIndex, run_fingerprint
from .por import make_selector
from .stats import ProgressFn


class JobCancelled(VerificationError):
    """Raised out of a pool run when its cancel hook fires.

    Cancellation is best-effort and lands *between* task results: tasks
    already dispatched to workers run to completion, but no further
    result is consumed and the verification never reaches its merge
    phase."""


@dataclass(frozen=True)
class Task:
    """One unit of pool work: explore a shard, or one sampled walk."""

    kind: str  # "explore" | "sample"
    prefix: Tuple[int, ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class RunRecord:
    """Picklable digest of one run: everything the merge phase needs."""

    choices: Tuple[int, ...]
    fingerprint: str
    deadlocked: bool
    truncated: bool
    events: int


@dataclass
class TaskResult:
    """What one task sends back to the parent."""

    cap_exceeded: bool = False
    records: List[RunRecord] = field(default_factory=list)
    #: outcomes computed fresh during *this* task (cache write-back set)
    fresh_outcomes: Dict[str, CheckOutcome] = field(default_factory=dict)
    #: this task's engine counters under their metric names (the
    #: ``task`` rows of :data:`repro.engine.stats.COUNTERS`): dedupe and
    #: cache provenance, the routes of its fresh checks, and its POR
    #: selector's and automaton monitor's tallies
    counts: Counter = field(default_factory=Counter)
    #: serialised trace segment (``Tracer.to_records``), empty unless
    #: the worker state asked for tracing; grafted by the parent in
    #: shard order so the merged trace is deterministic
    spans: List[dict] = field(default_factory=list)
    #: serialised metric records (``MetricsRegistry.records``)
    metrics: List[dict] = field(default_factory=list)


@dataclass(frozen=True)
class CaseRef:
    """Pure-primitive description of a workload a worker can rebuild.

    Either a catalog ``case`` name (resolved through
    :func:`repro.cli.case_catalog` -- the daemon's catalog *is* the CLI
    catalog) or an ``inline`` fuzz-program payload ``(procs, deps,
    bug)`` (see :class:`repro.fuzz.programs.FuzzProgramSpec`), plus
    every engine knob that participates in the worker bundle.  Frozen
    and picklable: this is what crosses the process boundary in
    resident mode instead of live program/spec objects.
    """

    case: Optional[str] = None
    mutant: bool = False
    inline: Optional[Tuple] = None  # (procs, deps, bug)
    max_steps: int = 10_000
    max_runs: int = 100_000
    history_cap: int = DEFAULT_HISTORY_CAP
    por: bool = True
    dfa: bool = True
    trace: bool = False

    def state_key(self) -> str:
        """Memo key: two refs with equal keys build equivalent states."""
        return repr((self.case, self.mutant, self.inline,
                     self.max_steps, self.max_runs, self.history_cap,
                     self.por, self.dfa, self.trace))

    def build_objects(self) -> Tuple[Program, Specification, Correspondence,
                                     Optional[Specification]]:
        """(program, problem_spec, correspondence, program_spec)."""
        if self.inline is not None:
            from ..fuzz.programs import (FuzzProgram, FuzzProgramSpec,
                                         fuzz_correspondence,
                                         fuzz_problem_spec)

            procs, deps, bug = self.inline
            fspec = FuzzProgramSpec(tuple(procs),
                                    tuple(tuple(d) for d in deps), bug)
            return (FuzzProgram(fspec), fuzz_problem_spec(fspec),
                    fuzz_correspondence(fspec), None)
        from ..cli import case_catalog

        entry = case_catalog().get(self.case or "")
        if entry is None:
            raise VerificationError(f"unknown case {self.case!r}")
        return entry.factory(self.mutant)

    def build(self) -> "WorkerState":
        program, spec, corr, pspec = self.build_objects()
        return WorkerState(
            program, spec, corr, pspec,
            max_steps=self.max_steps, max_runs=self.max_runs,
            trace=self.trace, por=self.por, dfa=self.dfa,
            history_cap=self.history_cap, case_ref=self,
        )


class WorkerState:
    """The worker bundle every task executes against.

    Ephemeral pools fork-inherit one instance; resident workers rebuild
    their own from ``case_ref`` and keep it (dedupe memo, primed plans)
    hot across jobs.
    """

    def __init__(
        self,
        program: Program,
        problem_spec: Specification,
        correspondence: Correspondence,
        program_spec: Optional[Specification],
        max_steps: int,
        max_runs: int,
        cache_snapshot: Optional[Dict[str, CheckOutcome]] = None,
        trace: bool = False,
        por: bool = True,
        dfa: bool = True,
        history_cap: int = DEFAULT_HISTORY_CAP,
        case_ref: Optional[CaseRef] = None,
    ) -> None:
        self.program = program
        self.problem_spec = problem_spec
        self.correspondence = correspondence
        self.program_spec = program_spec
        self.max_steps = max_steps
        self.max_runs = max_runs
        self.history_cap = history_cap
        #: when set, tasks record span segments and checker metrics
        self.trace = trace
        #: when set, explore tasks apply partial-order reduction
        self.por = por
        #: when set, explore tasks thread an automaton monitor through
        #: the DFS (:meth:`make_monitor`)
        self.dfa = dfa
        #: resident-mode rebuild recipe (None on the one-shot path)
        self.case_ref = case_ref
        #: the shared-cache snapshot this state was built with; resident
        #: pools ship it alongside tasks so workers can seed their memo
        self.cache_snapshot: Dict[str, CheckOutcome] = dict(
            cache_snapshot or {})
        #: highest seed generation merged so far (resident mode)
        self.seed_gen = 0
        # per-process memo: forked children each mutate their own copy
        self.index = DedupeIndex(seed=self.cache_snapshot)
        # prime the per-spec restriction plans (AST analysis) before
        # any task runs: on the one-shot path this happens in the parent
        # pre-fork so every worker inherits them; on the resident path
        # it happens once per worker per state key
        for spec in (problem_spec, program_spec):
            if spec is not None:
                plan_for(spec)

    def make_monitor(self):
        """A fresh per-task :class:`AutomatonMonitor`, or ``None``.

        ``None`` when the monitor is off, or no restriction compiled to
        a monitorable automaton (the monitor would only burn probe
        budget)."""
        if not self.dfa:
            return None
        from ..core.automata import AutomatonMonitor

        plan = plan_for(self.problem_spec)
        if not plan.monitorable:
            return None
        return AutomatonMonitor(
            plan, self.problem_spec, correspondence=self.correspondence,
            history_cap=self.history_cap)

    def compute_outcome(self, run: Run, counts: Counter,
                        metrics: Optional[MetricsRegistry] = None
                        ) -> CheckOutcome:
        """Check one computation; pure function of (computation, specs).

        The route each restriction took is counted into ``counts``."""
        comp = run.computation
        program_spec_ok = True
        if self.program_spec is not None:
            pres = self.program_spec.check(
                comp, history_cap=self.history_cap, metrics=metrics)
            program_spec_ok = pres.ok
            _count_routes(counts, pres)
        projected = project(comp, self.correspondence)
        # monitor verdicts were decided on projected prefixes of this
        # run, so they apply to the problem-spec check only
        decided = dict(run.decided) if run.decided else None
        result = self.problem_spec.check(
            projected, history_cap=self.history_cap, decided=decided,
            metrics=metrics)
        _count_routes(counts, result)
        return CheckOutcome(
            failed_restrictions=tuple(result.failed_restrictions()),
            legality_ok=not result.legality_violations,
            program_spec_ok=program_spec_ok,
        )


def _count_routes(counts: Counter, result: CheckResult) -> None:
    counts["checker.slice_hits"] += result.slice_hits
    counts["checker.slice_fallbacks"] += result.slice_fallbacks
    counts["checker.dfa_hits"] += result.dfa_hits


def check_runs(state: WorkerState, runs: Iterable[Run], result: TaskResult,
               tracer: Tracer = NULL_TRACER,
               metrics: Optional[MetricsRegistry] = None) -> None:
    """Dedupe-and-check ``runs`` against ``state``, recording each into
    ``result``: the one per-run path of pool tasks and of the engine's
    reused explorations.

    With a tracer, the first check of each fingerprint within this call
    is a ``check`` span: that is a deterministic property of the run
    order, unlike freshness (which depends on what else ran in this
    process), so spans are jobs-invariant while the fresh / cached
    distinction stays in non-structural meta.  The dedupe counters and
    fresh outcomes are recorded even when ``runs`` raises part-way.
    """
    index = state.index
    counts = result.counts
    fresh_before = len(index.fresh)
    dd0, ch0, cp0 = index.dedupe_hits, index.cache_hits, index.computed
    seen_fps: set = set()
    try:
        for run in runs:
            fp = run_fingerprint(run)
            compute = functools.partial(state.compute_outcome, run, counts,
                                        metrics=metrics)
            if tracer.enabled and fp not in seen_fps:
                seen_fps.add(fp)
                computed_before = index.computed
                with tracer.span("check", attrs={"fp": fp[:12]}) as span:
                    index.outcome_for(fp, compute)
                    span.set_meta(fresh=index.computed > computed_before)
            else:
                index.outcome_for(fp, compute)
            result.records.append(RunRecord(
                choices=run.choices,
                fingerprint=fp,
                deadlocked=run.deadlocked,
                truncated=run.truncated,
                events=len(run.computation),
            ))
    finally:
        result.fresh_outcomes.update(
            itertools.islice(index.fresh.items(), fresh_before, None))
        counts["engine.dedupe_hits"] += index.dedupe_hits - dd0
        counts["engine.cache_hits"] += index.cache_hits - ch0
        counts["engine.checks_performed"] += index.computed - cp0


#: Set by the ephemeral pool in the parent just before it forks.
_STATE: Optional[WorkerState] = None

#: Resident-mode per-process memo: state key -> hot WorkerState.
_RESIDENT_STATES: Dict[str, WorkerState] = {}


def _execute_with(state: WorkerState, task: Task) -> TaskResult:
    result = TaskResult()
    tracing = state.trace
    tracer = Tracer() if tracing else NULL_TRACER
    metrics = MetricsRegistry() if tracing else None
    selector = make_selector(state.por) if task.kind == "explore" else None
    monitor = state.make_monitor() if task.kind == "explore" else None
    with tracer.span(
            "task",
            attrs={"kind": task.kind,
                   "prefix": ",".join(map(str, task.prefix)),
                   "seed": task.seed},
            meta={"worker": multiprocessing.current_process().name}):
        if task.kind == "explore":
            runs: Iterable[Run] = explore(
                state.program, max_steps=state.max_steps,
                max_runs=state.max_runs, prefix=task.prefix, por=selector,
                dfa=monitor)
        elif task.kind == "sample":
            runs = (run_random(state.program, task.seed,
                               max_steps=state.max_steps),)
        else:  # pragma: no cover - engine never builds other kinds
            raise ValueError(f"unknown task kind {task.kind!r}")
        try:
            check_runs(state, runs, result, tracer, metrics)
        except RunCapExceeded:
            # runs are discarded (the sampling fallback replaces them), but
            # verdicts already computed are valid and stay reported: later
            # tasks in this process may answer them from the memo alone, so
            # the parent must learn them here or its merge lookup goes blind
            result.cap_exceeded = True
            result.records = []
    for tallies in (selector, monitor):
        if tallies is not None:
            result.counts.update(tallies.counts())
    if tracing:
        result.spans = tracer.to_records()
        result.metrics = metrics.records() if metrics is not None else []
    return result


def _execute(task: Task) -> TaskResult:
    state = _STATE
    assert state is not None, "worker state not installed (fork lost?)"
    return _execute_with(state, task)


def _resident_state(states: Dict[str, WorkerState], ref: CaseRef,
                    seed_gen: int,
                    seed: Optional[Dict[str, CheckOutcome]]) -> WorkerState:
    """Look up (or build and memoise) the hot state for ``ref``.

    ``seed`` is the parent's shared-cache snapshot for this job;
    ``seed_gen`` orders snapshots so each is merged at most once per
    process even though it rides along with every task of the job.
    """
    key = ref.state_key()
    state = states.get(key)
    if state is None:
        state = ref.build()
        states[key] = state
    if seed and state.seed_gen < seed_gen:
        state.index.merge_seed(seed)
    if state.seed_gen < seed_gen:
        state.seed_gen = seed_gen
    return state


def _execute_resident(
    arg: "Tuple[CaseRef, int, Optional[Dict[str, CheckOutcome]], Task]",
) -> TaskResult:
    ref, seed_gen, seed, task = arg
    state = _resident_state(_RESIDENT_STATES, ref, seed_gen, seed)
    return _execute_with(state, task)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def effective_jobs(jobs: int, n_tasks: int) -> int:
    """Workers that will actually run: fork-gated and task-bounded."""
    if jobs <= 1 or n_tasks <= 1 or not fork_available():
        return 1
    return min(jobs, n_tasks)


#: Cancel hook signature: return truthy to abort the current pool run.
CancelFn = Callable[[], bool]


class WorkerPool:
    """Executes :class:`Task` batches across worker processes.

    ``resident=False`` (default) is the one-shot mode: each :meth:`run`
    installs the state for fork inheritance and forks a fresh pool for
    that batch -- exactly the historical :func:`run_tasks` behaviour,
    which is now a thin wrapper over this class.

    ``resident=True`` forks the pool *once*, immediately (before any
    workload exists), and keeps it serving :meth:`run` calls -- possibly
    concurrently, from several daemon executor threads -- until
    :meth:`close`.  Tasks are shipped as ``(case_ref, seed_gen,
    snapshot, task)`` tuples of primitives; workers rebuild and memoise
    state per :meth:`CaseRef.state_key`, so compilation plans and
    dedupe memos stay hot across requests.  Without fork support (or
    ``jobs <= 1``) the resident pool runs tasks in-process against the
    same per-key memo, serialised by a lock -- slower, never wrong.
    """

    def __init__(self, jobs: int, resident: bool = False) -> None:
        self.jobs = max(1, int(jobs))
        self.resident = resident
        self._pool = None
        self._seed_gen = 0
        self._gen_lock = threading.Lock()
        self._local_states: Dict[str, WorkerState] = {}
        self._local_lock = threading.Lock()
        if resident and self.jobs > 1 and fork_available():
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes=self.jobs)

    @property
    def workers(self) -> int:
        """Worker processes actually forked (1 = in-process)."""
        return self.jobs if self._pool is not None else 1

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        state: WorkerState,
        tasks: Sequence[Task],
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelFn] = None,
    ) -> List[TaskResult]:
        """Execute ``tasks`` against ``state``, results in task order."""
        if cancel is not None and cancel():
            raise JobCancelled("job cancelled before any task ran")
        if self.resident:
            return self._run_resident(state, tasks, progress, cancel)
        return self._run_ephemeral(state, tasks, progress, cancel)

    def _consume(self, iterator, n_tasks: int,
                 progress: Optional[ProgressFn],
                 cancel: Optional[CancelFn]) -> List[TaskResult]:
        results: List[TaskResult] = []
        for i, res in enumerate(iterator):
            results.append(res)
            if progress is not None:
                progress("task:done", {
                    "task": i, "of": n_tasks, "runs": len(res.records),
                })
            if cancel is not None and cancel():
                raise JobCancelled(
                    f"job cancelled after {i + 1}/{n_tasks} task(s)")
        return results

    def _run_ephemeral(self, state, tasks, progress, cancel):
        global _STATE
        workers = effective_jobs(self.jobs, len(tasks))
        _STATE = state
        try:
            if workers <= 1:
                return self._consume(
                    (_execute(t) for t in tasks), len(tasks), progress,
                    cancel)
            # fork *after* _STATE is installed: children inherit it
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=workers) as pool:
                return self._consume(
                    pool.imap(_execute, tasks, chunksize=1),
                    len(tasks), progress, cancel)
        finally:
            _STATE = None

    def _run_resident(self, state, tasks, progress, cancel):
        ref = state.case_ref
        if ref is None:
            raise VerificationError(
                "resident pool needs a WorkerState with a case_ref")
        with self._gen_lock:
            self._seed_gen += 1
            gen = self._seed_gen
        seed = dict(state.cache_snapshot) or None
        if self._pool is None:
            # in-process fallback: same per-key hot memo, serialised --
            # concurrent daemon jobs stay correct, just not parallel
            with self._local_lock:
                def run_local(task: Task) -> TaskResult:
                    st = _resident_state(self._local_states, ref, gen, seed)
                    return _execute_with(st, task)

                return self._consume(
                    (run_local(t) for t in tasks), len(tasks), progress,
                    cancel)
        args = [(ref, gen, seed, t) for t in tasks]
        return self._consume(
            self._pool.imap(_execute_resident, args, chunksize=1),
            len(tasks), progress, cancel)


def run_tasks(
    state: WorkerState,
    tasks: Sequence[Task],
    jobs: int,
    progress: Optional[ProgressFn] = None,
    cancel: Optional[CancelFn] = None,
) -> List[TaskResult]:
    """One-shot convenience: an ephemeral :class:`WorkerPool` run.

    ``jobs <= 1`` (or a single task, or no fork support) runs in-process
    -- the serial degenerate case shares every line of worker code with
    the parallel path, which is what makes "byte-identical reports" a
    structural property rather than a hope.
    """
    return WorkerPool(jobs).run(state, tasks, progress=progress,
                                cancel=cancel)
