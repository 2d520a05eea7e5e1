"""The interleaving explorer.

A concurrent program's behaviour is the set of executions its scheduler
may produce.  GEM's verification method quantifies over *all* legal
computations of a program (``PROG sat R``); this module realises that
quantification, bounded:

* :func:`explore` -- exhaustive DFS over scheduling choices, yielding
  every distinct maximal run up to a step bound (and a run cap);
* :func:`run_random` / :func:`sample_runs` -- seeded random walks, for
  statistical smoke-testing and benchmarks where exhaustion is too
  expensive;
* :func:`explore_or_sample` -- exhaustive if the run cap suffices, else
  sampled (reported in the result).

Forward walk: :func:`explore` hands each node's state to its last
branch, stepped in place, and starts every other branch from a fresh
state replayed through that branch's choices (see
:mod:`repro.sim.runtime`).  So each yielded run costs one prefix
replay, and interpreters may still mutate freely: no state is ever
shared between two branches.

Fairness.  A *maximal* run (no enabled action at the end, state final)
trivially satisfies weak fairness: nothing enabled remains unscheduled.
Deadlocked runs (nothing enabled, not final) are yielded too -- lack of
deadlock is itself a property the paper proves, so the explorer must
surface them rather than hide them.  Truncated runs are flagged; the
caller decides whether to treat them as failures (liveness) or ignore
them (safety is prefix-closed, so a truncated run's verdicts remain
sound for safety restrictions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import RunCapExceeded, VerificationError
from .runtime import Action, Program, Run, SimState, advance_postponed

#: Guard against interpreter bugs producing unbounded executions.
DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_RUNS = 100_000


def replay_prefix(program: Program, choices: Sequence[int]) -> SimState:
    """Fresh state advanced through ``choices``.

    The engine's frontier sharding replays choice prefixes to split the
    exploration tree, so this is public API, not just an explorer detail.
    """
    state = program.initial_state()
    for choice in choices:
        actions = state.enabled()
        state.step(actions[choice])
    return state


def replay_with_postponed(program: Program, choices: Sequence[int]):
    """Like :func:`replay_prefix`, also tracking the partial-order
    reduction's postponement counters along the path.

    Returns ``(state, postponed)`` where ``postponed`` maps each
    process with an enabled action at the resulting state's history to
    how many consecutive preceding steps it was passed over.  Counters
    depend only on the choice path (never on ample decisions), so any
    replayer -- the shard planner, a worker resuming a prefix --
    reconstructs them identically.
    """
    state = program.initial_state()
    postponed: dict = {}
    for choice in choices:
        actions = state.enabled()
        chosen = actions[choice]
        postponed = advance_postponed(postponed, actions, chosen)
        state.step(chosen)
    return state, postponed


def explore(
    program: Program,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_runs: int = DEFAULT_MAX_RUNS,
    prefix: Sequence[int] = (),
    por: Optional[object] = None,
    dfa: Optional[object] = None,
) -> Iterator[Run]:
    """Enumerate every maximal run of ``program``, depth-first.

    Yields runs in a deterministic order (choice index order).  Raises
    :class:`RunCapExceeded` when the run cap is exceeded -- a silent
    cap would turn "verified over all executions" into a lie.

    ``prefix`` restricts the walk to the subtree below that choice
    sequence (yielded ``Run.choices`` still include it); the engine's
    shards each explore one prefix so that concatenating their runs in
    prefix order reproduces the full DFS order exactly.  ``max_steps``
    counts total choices including the prefix; ``max_runs`` caps the
    runs produced by *this* call.

    ``por`` (an :class:`repro.engine.por.AmpleSelector`, duck-typed)
    enables partial-order reduction: at each branch point only the
    selector's ample subset of enabled actions is expanded.  Choice
    indices still index the *full* enabled list, so recorded runs
    replay through :func:`replay_prefix` unchanged, and the reduced run
    set is a subset of the full DFS order.

    ``dfa`` (an :class:`repro.core.automata.AutomatonMonitor`,
    duck-typed) enables on-the-fly temporal checking: internal nodes
    feed their prefix to the monitor's restriction DFAs, and verdicts
    decided early (rejecting/accepting sinks reached) ride on each
    ``Run.decided`` so the checker can skip those restrictions.  POR
    prunes first, the monitor probes second; both are pure functions of
    state+path, so the run census, replay and witnesses are unchanged.
    """
    if max_steps < 1:
        raise VerificationError("max_steps must be positive")
    produced = 0

    def rec(choices: Tuple[int, ...], state: SimState, postponed,
            mnode) -> Iterator[Run]:
        nonlocal produced
        actions = state.enabled()
        if not actions or len(choices) >= max_steps:
            produced += 1
            if produced > max_runs:
                raise RunCapExceeded(
                    f"more than {max_runs} runs; raise max_runs or shrink "
                    "the program"
                )
            decided = mnode.decided if mnode is not None else ()
            if actions:
                yield Run(state.computation(), choices, truncated=True,
                          blocked=tuple(str(a) for a in actions),
                          decided=decided)
            elif state.is_final():
                yield Run(state.computation(), choices, decided=decided)
            else:
                yield Run(state.computation(), choices, deadlocked=True,
                          decided=decided)
            return
        # probe only at internal nodes: a leaf's "prefix" is the full
        # computation, which the checker is about to examine anyway
        if mnode is not None:
            mnode = dfa.advance(mnode, state, len(choices))
        if por is None:
            branches = range(len(actions))
        else:
            branches = por.ample(state, actions, postponed)
        last = len(branches) - 1
        for n, i in enumerate(branches):
            chosen = actions[i]
            child_postponed = (None if por is None else
                               advance_postponed(postponed, actions, chosen))
            if n == last:
                # this node is done with its state: step it in place
                child = state
                child.step(chosen)
            else:
                child = replay_prefix(program, choices + (i,))
            yield from rec(choices + (i,), child, child_postponed, mnode)

    def walk(choices: Tuple[int, ...], mnode) -> Iterator[Run]:
        # the one replay for the root, deferred to the first next()
        if por is None:
            state, postponed = replay_prefix(program, choices), None
        else:
            state, postponed = replay_with_postponed(program, choices)
        yield from rec(choices, state, postponed, mnode)

    root = dfa.root() if dfa is not None else None
    return walk(tuple(prefix), root)


def run_random(
    program: Program,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Run:
    """One seeded random maximal run (deterministic per seed)."""
    rng = random.Random(seed)
    state = program.initial_state()
    choices: List[int] = []
    while len(choices) < max_steps:
        actions = state.enabled()
        if not actions:
            break
        i = rng.randrange(len(actions))
        state.step(actions[i])
        choices.append(i)
    actions = state.enabled()
    if actions:
        return Run(state.computation(), tuple(choices), truncated=True,
                   blocked=tuple(str(a) for a in actions))
    if state.is_final():
        return Run(state.computation(), tuple(choices))
    return Run(state.computation(), tuple(choices), deadlocked=True)


def sample_runs(
    program: Program,
    n: int,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[Run]:
    """``n`` seeded random runs (seeds ``seed..seed+n-1``)."""
    return [run_random(program, seed + i, max_steps) for i in range(n)]


@dataclass
class ExplorationResult:
    """All runs gathered for a program, with provenance.

    When the runs came from the sampling fallback, ``sample_seed`` and
    ``sample_count`` record the seed range actually used
    (``sample_seed .. sample_seed + sample_count - 1``, one seed per
    run, as :func:`sample_runs` assigns them) so any individual run can
    be replayed with ``run_random(program, seed)``.

    ``por_pruned`` counts the enabled branches partial-order reduction
    declined to expand during (the exhaustive attempt of) this
    exploration -- runs *proven redundant*, a different thing entirely
    from runs *not attempted* because a sample cap replaced exhaustion;
    :meth:`describe` reports the two separately.

    ``slice_hits`` / ``slice_fallbacks`` record, once a verification
    has consumed these runs, how many temporal restriction checks were
    decided exactly on the computation slice versus walked over the
    history lattice (:meth:`record_slice`, filled in by
    :meth:`repro.engine.Engine.verify`).  Slice-exact verdicts stay
    exact even when the *run census* is sampled -- provenance worth
    surfacing separately from the sampled/exhaustive mode.
    """

    runs: List[Run] = field(default_factory=list)
    exhaustive: bool = True
    sample_seed: Optional[int] = None
    sample_count: Optional[int] = None
    por_pruned: int = 0
    slice_hits: int = 0
    slice_fallbacks: int = 0
    #: restriction verdicts decided early by the automaton monitor
    #: during this exploration (rejecting sinks = branches whose checks
    #: were cut, accepting sinks = satisfied-early) and how many
    #: temporal restrictions were DFA-inert (:meth:`record_dfa`)
    dfa_cuts: int = 0
    dfa_accepts: int = 0
    dfa_inert: int = 0

    @property
    def completed_runs(self) -> List[Run]:
        return [r for r in self.runs if r.completed]

    @property
    def deadlocked_runs(self) -> List[Run]:
        return [r for r in self.runs if r.deadlocked]

    @property
    def truncated_runs(self) -> List[Run]:
        return [r for r in self.runs if r.truncated]

    def distinct_computations(self) -> int:
        """Number of distinct partial orders among the runs.

        Sampling (and, on some programs, even exhaustion) yields
        interleavings that collapse to the same computation; honest
        reporting counts what was actually distinct rather than
        pretending every run was an independent check.
        """
        return len({r.computation.stable_fingerprint() for r in self.runs})

    def describe(self) -> str:
        mode = "exhaustive" if self.exhaustive else "sampled"
        provenance = ""
        if not self.exhaustive and self.sample_seed is not None:
            # sampled runs and POR-pruned branches are different losses:
            # the former were never attempted (cap), the latter were
            # proven redundant -- surface both counts, never conflated
            count = (self.sample_count
                     if self.sample_count is not None else len(self.runs))
            last = self.sample_seed + max(count, 1) - 1
            provenance = f", {count} sampled, seeds {self.sample_seed}..{last}"
        pruned = (f", {self.por_pruned} branches pruned by por"
                  if self.por_pruned else "")
        sliced = ""
        if self.slice_hits or self.slice_fallbacks:
            sliced = (f", {self.slice_hits} checks slice-exact, "
                      f"{self.slice_fallbacks} walk fallbacks")
        dfa = ""
        if self.dfa_cuts or self.dfa_accepts or self.dfa_inert:
            dfa = (f", {self.dfa_cuts} branches cut early by dfa "
                   f"({self.dfa_accepts} satisfied-early), "
                   f"{self.dfa_inert} restrictions dfa-inert")
        return (
            f"{mode}: {len(self.runs)} runs "
            f"({self.distinct_computations()} distinct, "
            f"{len(self.completed_runs)} completed, "
            f"{len(self.deadlocked_runs)} deadlocked, "
            f"{len(self.truncated_runs)} truncated"
            f"{provenance}{pruned}{sliced}{dfa})"
        )

    def record_slice(self, hits: int, fallbacks: int) -> None:
        """Annotate with the slice routing tallies of a verification
        that consumed these runs (provenance only; never affects
        verdicts)."""
        self.slice_hits = int(hits)
        self.slice_fallbacks = int(fallbacks)

    def record_dfa(self, cuts: int, accepts: int, inert: int) -> None:
        """Annotate with the automaton monitor's tallies (provenance
        only; never affects verdicts)."""
        self.dfa_cuts = int(cuts)
        self.dfa_accepts = int(accepts)
        self.dfa_inert = int(inert)


def explore_or_sample(
    program: Program,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_runs: int = DEFAULT_MAX_RUNS,
    sample: int = 200,
    seed: int = 0,
    tracer: Optional[object] = None,
    por: Optional[object] = None,
    dfa: Optional[object] = None,
) -> ExplorationResult:
    """Exhaustive exploration when it fits in ``max_runs``, else sampling.

    The result records which you got -- verification reports must say
    "verified over all N executions" or "checked on N samples", never
    blur the two.  Only :class:`RunCapExceeded` triggers the sampling
    fallback; bad bounds and genuine interpreter failures propagate.

    ``tracer`` (a :class:`repro.obs.Tracer`, duck-typed) records the
    exploration as an ``explore`` span -- plus a ``sample`` span when
    the fallback fires -- each annotated with the run count.

    ``por`` (an :class:`repro.engine.por.AmpleSelector`) reduces the
    exhaustive attempt; random sampling is never reduced (a sample is
    one arbitrary interleaving already).  The selector's pruned-branch
    count is reported either way, so a result can honestly say both
    "N runs were sampled" and "M branches were pruned before the cap
    was hit".

    ``dfa`` (an :class:`repro.core.automata.AutomatonMonitor`) enables
    on-the-fly temporal checking of the exhaustive attempt; sampled
    walks are never monitored (each is a single path, checked once
    post-hoc anyway).  The monitor's early-verdict tallies land on the
    result either way.
    """
    if tracer is None:
        from ..obs.trace import NULL_TRACER
        tracer = NULL_TRACER

    def pruned() -> int:
        return por.pruned if por is not None else 0

    def cuts() -> "Tuple[int, int]":
        if dfa is None:
            return 0, 0
        return dfa.cuts, dfa.accepts

    try:
        with tracer.span("explore") as span:
            runs = list(explore(program, max_steps=max_steps,
                                max_runs=max_runs, por=por, dfa=dfa))
            span.set_meta(runs=len(runs), por_pruned=pruned())
        result = ExplorationResult(runs=runs, exhaustive=True,
                                   por_pruned=pruned())
    except RunCapExceeded:
        with tracer.span("sample", attrs={"seed": seed, "count": sample}):
            runs = sample_runs(program, sample, seed=seed,
                               max_steps=max_steps)
        result = ExplorationResult(
            runs=runs,
            exhaustive=False,
            sample_seed=seed,
            sample_count=sample,
            por_pruned=pruned(),
        )
    result.dfa_cuts, result.dfa_accepts = cuts()
    return result
