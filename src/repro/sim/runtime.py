"""The simulation substrate: programs, states, and runs.

The paper verifies *programs* (Monitor, CSP, ADA) against *problem*
specifications.  To do that mechanically we need every legal execution
of a program as a GEM computation.  This module defines the interface
between concrete language interpreters (:mod:`repro.langs`) and the
interleaving explorer (:mod:`repro.sim.scheduler`):

* a :class:`Program` produces a fresh :class:`SimState`;
* a :class:`SimState` exposes the currently *enabled actions* (one per
  process that could take its next atomic step), performs a chosen
  action -- mutating itself and appending GEM events to its
  :class:`~repro.core.computation.ComputationBuilder` -- and reports
  whether it is final (no process will ever move again);
* the scheduler explores the tree of choices.

States are never copied or snapshotted, so interpreters are free to
use ordinary mutable Python objects.  The explorer walks forward: a
node's state is stepped in place into its last branch, and every other
branch starts from a fresh state *replayed* through its choice prefix.
That is one prefix replay per yielded run, not one per node.  Engine
shards, witnesses and the fuzz oracles replay choice prefixes too.

The contract that makes replay sound: ``enabled()`` must be
*deterministic* (same state history, same action list in the same
order), and ``step(choice)`` must be deterministic given the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Protocol, Sequence, Tuple

from ..core.computation import Computation, ComputationBuilder


@dataclass(frozen=True)
class Footprint:
    """Static read/write access summary of an action (or of a process's
    whole remaining behaviour), used by partial-order reduction.

    Tokens are opaque hashable values chosen by the interpreter --
    typically ``("kind", name)`` tuples naming the elements, queues and
    shared variables an action observes or mutates.  Two actions
    *conflict* under the standard rule: a write on either side against
    any access on the other.  Non-conflicting enabled actions must
    genuinely commute -- executing them in either order must yield the
    same interpreter state and the same computation (partial order) --
    and must not enable/disable each other; that contract is what makes
    the reduction fingerprint-preserving (see :mod:`repro.engine.por`).
    """

    reads: FrozenSet = frozenset()
    writes: FrozenSet = frozenset()

    def conflicts(self, other: "Footprint") -> bool:
        """Write/write or read/write overlap in either direction."""
        if self.writes & (other.reads | other.writes):
            return True
        return bool(other.writes & self.reads)


def advance_postponed(postponed, actions: Sequence["Action"],
                      chosen: "Action") -> dict:
    """Partial-order reduction's postponement counters, advanced one step.

    Every process with an enabled action in ``actions`` other than the
    ``chosen`` one is postponed one more consecutive step; the chosen
    process and processes with nothing enabled reset (drop out).  A pure
    function of the choice path -- never of any ample decision -- so any
    replayer reconstructs the counters identically (see
    :mod:`repro.engine.por`).
    """
    old = postponed or {}
    out: dict = {}
    for action in actions:
        p = action.process
        if p != chosen.process and p not in out:
            out[p] = old.get(p, 0) + 1
    return out


@dataclass(frozen=True)
class Action:
    """One enabled atomic step.

    ``process`` names the process taking the step; ``label`` describes
    it (for deadlock reports and scheduler debugging).  ``key`` is the
    stable identifier the interpreter dispatches on; two states reached
    by the same choices must enumerate action keys identically.
    """

    process: str
    label: str
    key: object = None

    def __str__(self) -> str:
        return f"{self.process}:{self.label}"


class SimState(Protocol):
    """What a language interpreter must expose to the scheduler.

    Interpreters may additionally implement the two optional
    partial-order-reduction hooks (duck-typed; their absence simply
    disables the reduction for that interpreter):

    ``por_action_footprint(action) -> Optional[Footprint]``
        Access summary of one *enabled* action.  ``None`` means
        "unknown" and forces full expansion at this state.

    ``por_remaining_footprints() -> Dict[str, Footprint]``
        For every process that may still act (keyed by process name,
        pseudo-processes allowed), an over-approximation of the
        accesses of *all* its future actions from this state onward.
        A process absent from the map is promised to never act again.

    Contract (the ample-set argument in :mod:`repro.engine.por` relies
    on each point; the differential oracle ``check_por_agrees`` tests
    them empirically):

    * each process's enabled actions are sequential -- new actions for
      a process appear only from its own steps or are covered by a
      pseudo-process entry in the remaining map;
    * an action's true effects (state mutated, events emitted,
      enabledness of other processes changed) are covered by its
      declared footprint whenever the footprint is conflict-free
      against every other process's remaining footprint;
    * two enabled actions with non-conflicting footprints commute to
      the *same* computation (identical partial order, hence identical
      ``stable_fingerprint``).
    """

    def enabled(self) -> Sequence[Action]:
        """Actions currently enabled, in deterministic order."""
        ...

    def step(self, action: Action) -> None:
        """Perform ``action``: mutate state, emit events."""
        ...

    def is_final(self) -> bool:
        """No action will ever be enabled again (clean termination)."""
        ...

    def computation(self) -> Computation:
        """Freeze and return the computation built so far.

        Must not mutate the state, and the value returned must not
        change when the state is stepped further: the automaton
        monitor freezes internal scheduler nodes whose states the
        explorer then steps into their last branch.
        (:class:`~repro.core.computation.Computation` copies the
        builder's lists into tuples, so :class:`SimpleState` complies.)
        """
        ...


class Program(Protocol):
    """A factory of fresh initial states."""

    def initial_state(self) -> SimState:
        ...


@dataclass
class Run:
    """One completed (or truncated) execution.

    ``deadlocked`` means no action was enabled but the state was not
    final: some process is blocked forever.  ``truncated`` means the
    step bound was hit first; liveness verdicts on truncated runs are
    unreliable and the scheduler flags them.
    """

    computation: Computation
    choices: Tuple[int, ...]
    deadlocked: bool = False
    truncated: bool = False
    blocked: Tuple[str, ...] = ()
    #: restriction verdicts the automaton monitor decided on a proper
    #: prefix of this run (``(name, holds)`` pairs); the checker skips
    #: re-deriving these (provenance ``"dfa-early"``) -- verdicts are
    #: identical either way, so reports never depend on this field
    decided: Tuple[Tuple[str, bool], ...] = ()

    @property
    def completed(self) -> bool:
        return not self.deadlocked and not self.truncated

    def describe(self) -> str:
        status = (
            "deadlock" if self.deadlocked
            else "truncated" if self.truncated
            else "completed"
        )
        return (
            f"run({status}, {len(self.computation)} events, "
            f"{len(self.choices)} steps)"
        )


class SimpleState:
    """Convenience base for interpreter states.

    Provides the computation builder, per-process control-flow chaining
    (each event a process performs is enabled by its previous event),
    and final-event bookkeeping.  Interpreters call
    :meth:`emit` instead of touching the builder directly.
    """

    def __init__(self, builder: Optional[ComputationBuilder] = None) -> None:
        self.builder = builder or ComputationBuilder()
        self._last_by_process: dict = {}

    def emit(
        self,
        process: Optional[str],
        element: str,
        event_class: str,
        params: Optional[dict] = None,
        extra_enables: Iterable = (),
        chain: bool = True,
    ):
        """Append one event.

        If ``process`` is given and ``chain`` is true, the process's
        previous event enables this one (control flow).  Events in
        ``extra_enables`` (Event or EventId) also enable it
        (cross-process causality: signals, lock hand-offs, messages).
        """
        ev = self.builder.add_event(element, event_class, params)
        if process is not None and chain:
            prev = self._last_by_process.get(process)
            if prev is not None:
                self.builder.add_enable(prev, ev)
        for src in extra_enables:
            self.builder.add_enable(src, ev)
        if process is not None:
            self._last_by_process[process] = ev
        return ev

    def last_event_of(self, process: str):
        """The most recent event the process performed, if any."""
        return self._last_by_process.get(process)

    def computation(self) -> Computation:
        return self.builder.freeze()
