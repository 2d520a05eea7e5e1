"""Engine observability: phase timings, throughput, dedupe/cache ratios.

One :class:`EngineStats` record accompanies every engine verification.
It answers the questions a bench (or an operator staring at a slow
verification) actually asks: how many shards ran on how many workers,
how many interleavings collapsed to how many distinct partial orders,
how much the cache absorbed, and where the wall-clock time went.

Since the ``repro.obs`` subsystem landed, :class:`EngineStats` is a
**view over a** :class:`~repro.obs.metrics.MetricsRegistry` rather than
a parallel bookkeeping path: every counter attribute reads and writes
one metric (the :data:`COUNTERS` table), ``phase_seconds`` is derived
from the
``engine.phase_seconds`` counters, and the registry (``stats.metrics``)
is what ``--trace`` exports -- so the stats block and the trace can
never disagree.

A *progress hook* -- any ``Callable[[str, Mapping[str, Any]], None]``
-- may be installed in the engine config; the engine calls it at phase
boundaries and per completed shard/task so long-running verifications
can drive progress bars or structured logs.  Hooks are **guarded**: a
hook that raises is warned about once and disabled for the rest of the
run, rather than killing a parallel verification mid-shard (see
:func:`guard_progress`).
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..obs.metrics import MetricsRegistry

#: Progress hook signature: ``hook(event_name, info_mapping)``.
ProgressFn = Callable[[str, Mapping[str, Any]], None]


class GuardedProgress:
    """Wraps a progress hook: first raise warns and disables it."""

    def __init__(self, hook: ProgressFn) -> None:
        self._hook: Optional[ProgressFn] = hook

    @property
    def disabled(self) -> bool:
        return self._hook is None

    def __call__(self, event: str, info: Mapping[str, Any]) -> None:
        if self._hook is None:
            return
        try:
            self._hook(event, info)
        except Exception as exc:
            self._hook = None
            warnings.warn(
                f"progress hook raised {exc!r}; hook disabled for the rest "
                "of this run", RuntimeWarning, stacklevel=2)


def guard_progress(hook: Optional[ProgressFn]) -> Optional[ProgressFn]:
    """Idempotently wrap ``hook`` in a :class:`GuardedProgress`."""
    if hook is None or isinstance(hook, GuardedProgress):
        return hook
    return GuardedProgress(hook)


class EngineCounter:
    """An :class:`EngineStats` attribute that reads and writes one metric.

    The metric is a gauge holding this verification's total.  ``task``
    marks the counters a :class:`~repro.engine.pool.TaskResult` carries
    in its ``counts`` (as the shard planner's selector does too): the
    ones :meth:`EngineStats.add_counts` sums.
    """

    def __init__(self, metric: str, doc: str, task: bool = False) -> None:
        self.metric = metric
        self.task = task
        self.attr = ""
        self.__doc__ = doc

    def __set_name__(self, owner: type, name: str) -> None:
        self.attr = name

    def __get__(self, stats: Optional["EngineStats"], owner: Any = None):
        if stats is None:
            return self
        return int(stats.metrics.get(self.metric))

    def __set__(self, stats: "EngineStats", value: int) -> None:
        stats.metrics.set(self.metric, value)


class EngineStats:
    """Everything the engine observed about one verification.

    A view: the numbers live in ``self.metrics``; only ``mode`` is a
    plain attribute (it is a string).  The :class:`EngineCounter`
    attributes below are the one counter table (:data:`COUNTERS`):
    tasks carry them by metric name, and ``--stats``, the trace,
    ``/metrics`` and the run-history snapshot all read them from here,
    so adding a counter is one entry.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 mode: str = "exhaustive") -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.mode = mode  # "exhaustive" | "sampled" | "reused"
        if not self.metrics.get("engine.jobs"):
            self.metrics.set("engine.jobs", 1)

    jobs = EngineCounter("engine.jobs", "worker processes that actually ran")
    shards = EngineCounter("engine.shards", "exploration shards")
    runs = EngineCounter("engine.runs", "total runs checked")
    distinct_computations = EngineCounter(
        "engine.distinct_computations", "distinct partial orders")
    checks_performed = EngineCounter(
        "engine.checks_performed",
        "distinct computations whose verdicts were computed fresh this run",
        task=True)
    cache_hits = EngineCounter(
        "engine.cache_hits",
        "distinct computations answered from the persistent cache",
        task=True)
    dedupe_hits = EngineCounter(
        "engine.dedupe_hits",
        "run-level memo hits (duplicate interleavings folded away)",
        task=True)
    # partial-order reduction (repro.engine.por); the "por.*" namespace
    # rather than "engine.*" so traces group the reduction's own story
    por_nodes = EngineCounter(
        "por.nodes", "branch points consulted by the ample selector",
        task=True)
    por_reduced_nodes = EngineCounter(
        "por.reduced_nodes", "branch points where a strict subset expanded",
        task=True)
    por_pruned = EngineCounter(
        "por.pruned_interleavings",
        "enabled branches not expanded (each roots >= 1 pruned "
        "interleaving)", task=True)
    por_proviso_expansions = EngineCounter(
        "por.proviso_expansions",
        "full expansions forced by the ignoring-prevention proviso",
        task=True)
    # computation slicing (repro.core.slice): per-restriction routing
    # tallies summed over the fresh checks of this verification
    slice_hits = EngineCounter(
        "checker.slice_hits",
        "temporal restriction checks decided exactly on the slice",
        task=True)
    slice_fallbacks = EngineCounter(
        "checker.slice_fallbacks",
        "temporal restriction checks that fell back to the lattice walk",
        task=True)
    # restriction automata (repro.core.automata): exploration-time
    # monitor activity plus checker-side DFA routing
    dfa_probes = EngineCounter(
        "dfa.probes",
        "guard probes the automaton monitor evaluated at branch points",
        task=True)
    dfa_cuts = EngineCounter(
        "dfa.cuts",
        "branches cut early: a restriction hit its rejecting sink on a "
        "proper prefix", task=True)
    dfa_accepts = EngineCounter(
        "dfa.accepts",
        "restrictions satisfied early on a proper prefix (accepting sink)",
        task=True)
    dfa_probe_errors = EngineCounter(
        "dfa.probe_errors",
        "monitor probes abandoned on an unexpected error (nothing is "
        "decided early there; the run is checked in full)", task=True)
    dfa_hits = EngineCounter(
        "checker.dfa_hits",
        "restriction checks resolved by an automaton (leaf or early)",
        task=True)
    dfa_inert = EngineCounter(
        "checker.dfa_inert",
        "restrictions whose shape compiled to no automaton (dfa-inert)")

    def add_counts(self, counts: Mapping[str, int]) -> None:
        """Sum a task's (or the shard planner's) counts in, by metric
        name.  Every task counter is written, zeros included, so the
        registry holds the same keys whichever routes ran."""
        for metric in TASK_METRICS:
            self.metrics.set(metric,
                             self.metrics.get(metric) + counts.get(metric, 0))

    def snapshot(self) -> Dict[str, Any]:
        """``mode``, every counter under its attribute name, and
        ``dedupe_ratio``: a daemon job's stats and its run-history row."""
        out: Dict[str, Any] = {"mode": self.mode}
        out.update((c.attr, getattr(self, c.attr)) for c in COUNTERS)
        out["dedupe_ratio"] = round(self.dedupe_ratio, 4)
        return out

    @property
    def cache_enabled(self) -> bool:
        return bool(self.metrics.get("engine.cache_enabled"))

    @cache_enabled.setter
    def cache_enabled(self, value: bool) -> None:
        self.metrics.set("engine.cache_enabled", 1 if value else 0)

    @property
    def por_enabled(self) -> bool:
        return bool(self.metrics.get("engine.por_enabled"))

    @por_enabled.setter
    def por_enabled(self, value: bool) -> None:
        self.metrics.set("engine.por_enabled", 1 if value else 0)

    @property
    def dfa_enabled(self) -> bool:
        return bool(self.metrics.get("engine.dfa_enabled"))

    @dfa_enabled.setter
    def dfa_enabled(self, value: bool) -> None:
        self.metrics.set("engine.dfa_enabled", 1 if value else 0)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Per-phase wall seconds (a fresh dict; mutate via
        :meth:`add_phase_seconds`)."""
        return self.metrics.by_label("engine.phase_seconds", "phase")

    def add_phase_seconds(self, name: str, seconds: float) -> None:
        self.metrics.inc("engine.phase_seconds", seconds, phase=name)

    @property
    def dedupe_ratio(self) -> float:
        """Runs per distinct computation (>= 1.0; 6.0 means 6x folding)."""
        if self.distinct_computations == 0:
            return 1.0
        return self.runs / self.distinct_computations

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of distinct computations answered from the cache."""
        total = self.cache_hits + self.checks_performed
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def runs_per_second(self) -> float:
        elapsed = self.phase_seconds.get("explore+check", 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self.runs / elapsed

    def describe(self) -> str:
        """Multi-line human-readable stats block (CLI ``--stats``)."""
        reused = self.mode == "reused"  # no POR or monitor ran here
        lines = [
            f"engine: {self.mode}, {self.jobs} worker(s), "
            f"{self.shards} shard(s)",
            f"  runs: {self.runs} "
            f"({self.distinct_computations} distinct computations, "
            f"dedupe ratio {self.dedupe_ratio:.2f}x)",
            f"  checks: {self.checks_performed} performed, "
            f"{self.cache_hits} from cache "
            f"(hit rate {self.cache_hit_rate:.0%})"
            + ("" if self.cache_enabled else " [cache disabled]"),
            "  por: not run on a reused exploration" if reused
            else (f"  por: {self.por_pruned} branch(es) pruned at "
                  f"{self.por_reduced_nodes} of {self.por_nodes} branch "
                  f"point(s), {self.por_proviso_expansions} proviso "
                  "expansion(s)") if self.por_enabled else "  por: disabled",
            (f"  slice: {self.slice_hits} check(s) slice-exact, "
             f"{self.slice_fallbacks} walk-sampled fallback(s)"),
            ("  dfa: monitor not run on a reused exploration, " if reused
             else (f"  dfa: {self.dfa_cuts} branch(es) cut early, "
                   f"{self.dfa_accepts} satisfied early "
                   f"({self.dfa_probes} probe(s)"
                   + (f", {self.dfa_probe_errors} probe error(s)"
                      if self.dfa_probe_errors else "")
                   + "), ")
             if self.dfa_enabled else "  dfa: monitor disabled, ")
            + (f"{self.dfa_hits} check(s) automaton-resolved, "
               f"{self.dfa_inert} restriction(s) dfa-inert"),
            f"  throughput: {self.runs_per_second:.1f} runs/s",
        ]
        phases = ", ".join(
            f"{name} {secs:.3f}s" for name, secs in self.phase_seconds.items()
        )
        lines.append(f"  phases: {phases if phases else '(none timed)'}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EngineStats(mode={self.mode!r}, jobs={self.jobs}, "
                f"runs={self.runs})")


#: The one counter table, in report order.
COUNTERS: Tuple[EngineCounter, ...] = tuple(
    v for v in vars(EngineStats).values() if isinstance(v, EngineCounter))

#: The metric names a task's ``counts`` may carry (``task=True`` rows).
TASK_METRICS: Tuple[str, ...] = tuple(c.metric for c in COUNTERS if c.task)


class PhaseTimer:
    """``with PhaseTimer(stats, "explore+check"): ...`` wall-time capture.

    Re-entering the same phase name accumulates, so retried phases (the
    exhaustive attempt followed by the sampling fallback) show their
    combined cost.  ``stats`` may be an :class:`EngineStats` (preferred:
    time lands in the metrics registry) or any object with a
    ``phase_seconds`` dict (the fuzzer's ``FuzzStats``).

    With a ``tracer``, the phase is also a ``phase:<name>`` span;
    ``self.span`` exposes it while open so callers can graft worker
    segments under it.
    """

    def __init__(self, stats: Any, name: str,
                 progress: Optional[ProgressFn] = None,
                 tracer: Optional[Any] = None) -> None:
        self._stats = stats
        self._name = name
        self._progress = progress
        self._tracer = tracer
        self._start = 0.0
        self.span: Optional[Any] = None

    def __enter__(self) -> "PhaseTimer":
        self._start = time.perf_counter()
        if self._tracer is not None:
            self.span = self._tracer.span(f"phase:{self._name}")
            self.span.__enter__()
        if self._progress is not None:
            self._progress("phase:start", {"phase": self._name})
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)
            self.span = None
        add = getattr(self._stats, "add_phase_seconds", None)
        if add is not None:
            add(self._name, elapsed)
        else:
            self._stats.phase_seconds[self._name] = (
                self._stats.phase_seconds.get(self._name, 0.0) + elapsed
            )
        if self._progress is not None:
            self._progress(
                "phase:end", {"phase": self._name, "seconds": elapsed}
            )
