"""Unit tests for the simulation substrate (runtime + scheduler)."""

import pytest

from repro.core import ComputationBuilder
from repro.core.errors import VerificationError
from repro.engine.por import AmpleSelector
from repro.sim import (
    Action,
    ExplorationResult,
    Run,
    SimpleState,
    explore,
    explore_or_sample,
    run_random,
    sample_runs,
    scheduler,
)


class CounterState(SimpleState):
    """N processes, each taking `steps` independent steps."""

    def __init__(self, n_procs: int, steps: int, deadlock_after=None):
        super().__init__()
        self.remaining = {f"p{i}": steps for i in range(n_procs)}
        self.deadlock_after = deadlock_after
        self.total = 0

    def enabled(self):
        if self.deadlock_after is not None and self.total >= self.deadlock_after:
            return []
        return [
            Action(name, f"step({left})", ("step", name))
            for name, left in self.remaining.items() if left > 0
        ]

    def step(self, action):
        _kind, name = action.key
        self.emit(name, name, "Tick", {"k": self.remaining[name]})
        self.remaining[name] -= 1
        self.total += 1

    def is_final(self):
        return all(v == 0 for v in self.remaining.values())


class CounterProgram:
    def __init__(self, n_procs=2, steps=2, deadlock_after=None):
        self.n_procs = n_procs
        self.steps = steps
        self.deadlock_after = deadlock_after

    def initial_state(self):
        return CounterState(self.n_procs, self.steps, self.deadlock_after)


class TestSimpleState:
    def test_emit_chains_per_process(self):
        s = CounterState(1, 3)
        while s.enabled():
            s.step(s.enabled()[0])
        comp = s.computation()
        evs = comp.events_at("p0")
        assert comp.enables(evs[0].eid, evs[1].eid)
        assert comp.enables(evs[1].eid, evs[2].eid)

    def test_emit_extra_enables_and_no_chain(self):
        s = SimpleState()
        a = s.emit("P", "A", "X")
        b = s.emit("Q", "B", "Y", extra_enables=[a])
        c = s.emit("Q", "B", "Y", chain=False)
        comp = s.computation()
        assert comp.enables(a.eid, b.eid)
        assert not comp.enables(b.eid, c.eid)  # chain suppressed

    def test_last_event_of(self):
        s = SimpleState()
        assert s.last_event_of("P") is None
        ev = s.emit("P", "A", "X")
        assert s.last_event_of("P") == ev


class TestExplore:
    def test_counts_interleavings(self):
        # 2 procs x 2 steps: C(4,2) = 6 interleavings
        runs = list(explore(CounterProgram(2, 2)))
        assert len(runs) == 6
        assert all(r.completed for r in runs)
        assert all(len(r.computation) == 4 for r in runs)

    def test_all_runs_same_partial_order(self):
        # independent processes: all interleavings give the same order
        fps = {r.computation.fingerprint()
               for r in explore(CounterProgram(2, 2))}
        assert len(fps) == 1

    def test_deadlock_detected(self):
        runs = list(explore(CounterProgram(2, 2, deadlock_after=1)))
        assert runs
        assert all(r.deadlocked for r in runs)
        assert not any(r.completed for r in runs)

    def test_truncation_flagged(self):
        runs = list(explore(CounterProgram(1, 5), max_steps=2))
        assert all(r.truncated for r in runs)
        assert all(r.blocked for r in runs)

    def test_run_cap_raises(self):
        with pytest.raises(VerificationError, match="runs"):
            list(explore(CounterProgram(3, 3), max_runs=5))

    def test_zero_steps_rejected(self):
        with pytest.raises(VerificationError):
            list(explore(CounterProgram(), max_steps=0))

    def test_run_describe(self):
        (run,) = explore(CounterProgram(1, 1))
        assert "completed" in run.describe()
        assert "1 steps" in run.describe()


def reference_explore(program, max_steps=scheduler.DEFAULT_MAX_STEPS,
                      prefix=(), por=None, dfa=None):
    """The replay-per-node DFS: every node rebuilt from a fresh state.

    Yields ``(choices, stable fingerprint, deadlocked, truncated,
    decided)`` per run, in DFS order -- what :func:`explore` must
    reproduce exactly.
    """
    def rec(choices, mnode):
        state, postponed = scheduler.replay_with_postponed(program, choices)
        actions = state.enabled()
        if not actions or len(choices) >= max_steps:
            deadlocked = not actions and not state.is_final()
            decided = mnode.decided if mnode is not None else ()
            yield (choices, state.computation().stable_fingerprint(),
                   deadlocked, bool(actions), decided)
            return
        if mnode is not None:
            mnode = dfa.advance(mnode, state, len(choices))
        branches = (range(len(actions)) if por is None
                    else por.ample(state, actions, postponed))
        for i in branches:
            yield from rec(choices + (i,), mnode)

    return list(rec(tuple(prefix), dfa.root() if dfa is not None else None))


def census(runs):
    return [(r.choices, r.computation.stable_fingerprint(), r.deadlocked,
             r.truncated, r.decided) for r in runs]


def readers_writers():
    from repro.langs.monitor import MonitorProgram, readers_writers_system
    return MonitorProgram(readers_writers_system(1, 1),
                          eager_reductions=False)


@pytest.fixture
def replay_calls(monkeypatch):
    """Every ``replay_prefix``/``replay_with_postponed`` call the
    explorer makes, by name."""
    calls = []
    for name in ("replay_prefix", "replay_with_postponed"):
        def counting(*args, _name=name, _real=getattr(scheduler, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(scheduler, name, counting)
    return calls


class TestForwardWalk:
    """The explorer steps each node's state into its last branch, so it
    replays a prefix once per yielded run, not once per node."""

    @pytest.mark.parametrize("por", [None, AmpleSelector],
                             ids=["full", "ample"])
    def test_one_replay_per_run(self, replay_calls, por):
        runs = list(explore(CounterProgram(3, 3),
                            por=por() if por else None))
        assert len(runs) == 1680  # 9! / (3! 3! 3!)
        assert len(replay_calls) == len(runs)

    def test_one_replay_per_run_under_reduction(self, replay_calls):
        runs = list(explore(readers_writers(), por=AmpleSelector()))
        assert len(runs) == 36
        assert len(replay_calls) == len(runs)

    def test_prefix_root_replayed_lazily(self, replay_calls):
        walk = explore(CounterProgram(2, 2), prefix=(1,))
        assert replay_calls == []
        runs = list(walk)
        assert all(r.choices[:1] == (1,) for r in runs)
        assert len(replay_calls) == len(runs) == 3

    @pytest.mark.parametrize("kwargs", [
        {},
        {"max_steps": 4},
        {"prefix": (2, 0)},
    ], ids=["full", "truncated", "prefix"])
    def test_matches_replay_per_node(self, kwargs):
        program = CounterProgram(3, 2, deadlock_after=5)
        assert census(explore(program, **kwargs)) == reference_explore(
            program, **kwargs)

    def test_matches_replay_per_node_under_reduction(self):
        program = readers_writers()
        assert census(explore(program, por=AmpleSelector())) == (
            reference_explore(program, por=AmpleSelector()))

    @pytest.mark.parametrize("por", [None, AmpleSelector],
                             ids=["full", "ample"])
    def test_matches_replay_per_node_with_monitor(self, por):
        """The monitor freezes internal nodes' states, which the walk
        then steps into their last branch: its early verdicts must
        still be those of the replayed prefixes."""
        from repro.core.automata import AutomatonMonitor, automata_plan_for
        from repro.problems.ring import RingProgram, ring_spec

        def monitor():
            spec = ring_spec()
            return AutomatonMonitor(automata_plan_for(spec), spec)

        def selector():
            return por() if por else None

        program = RingProgram(workers=2, rounds=3)
        walked = census(explore(program, por=selector(), dfa=monitor()))
        assert walked == reference_explore(program, por=selector(),
                                           dfa=monitor())
        assert all(decided for *_, decided in walked)


class TestRandomRuns:
    def test_deterministic_per_seed(self):
        a = run_random(CounterProgram(2, 3), seed=7)
        b = run_random(CounterProgram(2, 3), seed=7)
        assert a.choices == b.choices

    def test_different_seeds_vary(self):
        seeds = {run_random(CounterProgram(3, 3), seed=s).choices
                 for s in range(10)}
        assert len(seeds) > 1

    def test_sample_runs_count_and_seeding(self):
        runs = sample_runs(CounterProgram(2, 2), 5, seed=3)
        assert len(runs) == 5
        again = sample_runs(CounterProgram(2, 2), 5, seed=3)
        assert [r.choices for r in runs] == [r.choices for r in again]

    def test_random_deadlock_detected(self):
        run = run_random(CounterProgram(2, 2, deadlock_after=1), seed=0)
        assert run.deadlocked


class TestExploreOrSample:
    def test_exhaustive_within_cap(self):
        result = explore_or_sample(CounterProgram(2, 2), max_runs=100)
        assert result.exhaustive
        assert len(result.runs) == 6
        assert "exhaustive" in result.describe()

    def test_falls_back_to_sampling(self):
        result = explore_or_sample(CounterProgram(3, 3), max_runs=5,
                                   sample=7, seed=1)
        assert not result.exhaustive
        assert len(result.runs) == 7
        assert "sampled" in result.describe()

    def test_sampling_reports_seed_provenance(self):
        """Regression: the sampling fallback must say which seeds it used
        (sample_runs assigns seed..seed+n-1), so individual runs can be
        replayed with run_random(program, seed)."""
        result = explore_or_sample(CounterProgram(3, 3), max_runs=5,
                                   sample=7, seed=11)
        assert result.sample_seed == 11
        assert result.sample_count == 7
        assert "seeds 11..17" in result.describe()
        # the provenance is honest: seed 11 really is the first sampled run
        assert result.runs[0].choices == run_random(
            CounterProgram(3, 3), 11).choices

    def test_exhaustive_results_omit_seed_provenance(self):
        result = explore_or_sample(CounterProgram(2, 2), max_runs=100)
        assert result.sample_seed is None
        assert "seeds" not in result.describe()

    def test_partitions(self):
        result = ExplorationResult(runs=[
            Run(ComputationBuilder().freeze(), ()),
            Run(ComputationBuilder().freeze(), (), deadlocked=True),
            Run(ComputationBuilder().freeze(), (), truncated=True),
        ])
        assert len(result.completed_runs) == 1
        assert len(result.deadlocked_runs) == 1
        assert len(result.truncated_runs) == 1
