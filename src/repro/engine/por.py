"""Persistent/ample-set partial-order reduction for exploration.

GEM computations are partial orders: the N! interleavings of N pairwise
independent actions all build the *same* computation, and every verdict
the engine produces is a pure function of the computation (PR 1's
dedupe layer exploits exactly this after the fact).  Chauhan & Garg
("Necessary and Sufficient Conditions on Partial Orders for Modeling
Concurrent Computations", PAPERS.md) formalise when distinct
interleavings realise the same partial order -- the license to prune
them at *generation* time instead of deduplicating them afterwards.

This module implements the classic ample-set selective search
(Godefroid's persistent sets, specialised to the replay-based
explorer):

* interpreters declare **footprints** (:class:`~repro.sim.runtime.
  Footprint`): per enabled action, the tokens it reads/writes; per
  live process, an over-approximation of everything it may still
  touch.  Two actions with non-conflicting footprints are independent
  -- they commute to the same computation;
* at each branch point the selector looks for a process all of whose
  enabled actions are *safe* (independent of every other process's
  entire future); the first such process's actions form the **ample
  set** and only they are expanded.  If no process qualifies, the
  state is fully expanded;
* the **ignoring-prevention proviso** ("cycle proviso"): a per-path
  postponement counter per process.  A process that has had an enabled
  action for :data:`DEFAULT_PROVISO_LIMIT` consecutive steps without
  moving forces full expansion, bounding how long a reduction can defer
  anyone.  The counters are a function of the choice path alone, so
  shard planning and workers recompute them identically during prefix
  replay -- ample sets stay deterministic across ``--jobs``.

Soundness (what the differential suite in ``tests/test_por.py``
asserts): on exploration that terminates without truncation, the
reduced run set contains at least one interleaving of every reachable
computation -- identical fingerprint *sets*, hence identical verdicts
and witnesses, as full exploration.  Truncated exploration may cut
different prefixes; the proviso bounds the divergence but equality is
only guaranteed untruncated.

Why no "invisibility" condition: classic ample-set POR needs ample
actions invisible to the property.  Here every property is evaluated
on the computation, and equivalent interleavings produce *identical*
computations, so every action is trivially "invisible" to the quotient
the checker sees.

:func:`event_independent` is the event-level face of the same relation
-- two events of a *built* computation are independent iff neither
reaches the other through the temporal order (``⇒``, which contains
``⊳`` and the element order ``⇒ₑ``, via
:class:`~repro.core.evalcore.EventIndex`'s closure tables).  The
Hypothesis property tests check it is symmetric, irreflexive, and
satisfies the lattice diamond: commuting independent events from any
reachable history yields the same history mask.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.evalcore import EventIndex
# advance_postponed lives in the sim layer (it only touches Actions, and
# the scheduler's prefix replay needs it without importing the engine);
# re-exported here because it is conceptually part of the reduction
from ..sim.runtime import Action, Footprint, SimState, advance_postponed

__all__ = [
    "DEFAULT_PROVISO_LIMIT", "AmpleSelector", "advance_postponed",
    "make_selector", "event_independent", "independent_pairs",
]

#: Full expansion is forced at a state where some enabled process has
#: been postponed this many consecutive steps.  Large enough to never
#: fire on the bounded workloads in this repo (their spines are short),
#: small enough to bound ignoring under step-truncated exploration.
DEFAULT_PROVISO_LIMIT = 64

#: Postponement counters: process name -> consecutive preceding steps
#: at which it had an enabled action but was not the one stepped.
Postponed = Dict[str, int]


class AmpleSelector:
    """Chooses the subset of enabled actions to expand at each state.

    One selector instance accumulates reduction statistics over however
    many nodes it is consulted on (one per explore task in the engine;
    the parent merges counts).  Selection itself is stateless: a pure
    function of ``(state, actions, postponed)``.
    """

    def __init__(self, proviso_limit: int = DEFAULT_PROVISO_LIMIT) -> None:
        self.proviso_limit = proviso_limit
        #: branch points consulted (states with >= 2 enabled actions)
        self.nodes = 0
        #: branch points where a strict subset was expanded
        self.reduced_nodes = 0
        #: enabled branches not expanded, summed over reduced nodes --
        #: each pruned branch roots at least one pruned interleaving
        self.pruned = 0
        #: full expansions forced by the ignoring-prevention proviso
        self.proviso_expansions = 0

    def counts(self) -> Dict[str, int]:
        """The tallies under their :class:`~repro.engine.EngineStats`
        metric names."""
        return {"por.nodes": self.nodes,
                "por.reduced_nodes": self.reduced_nodes,
                "por.pruned_interleavings": self.pruned,
                "por.proviso_expansions": self.proviso_expansions}

    # -- selection ---------------------------------------------------------

    def ample(self, state: SimState, actions: Sequence[Action],
              postponed: Optional[Postponed]) -> List[int]:
        """Indices (into ``actions``) to expand at this state.

        Returns all indices when the interpreter declares no footprints,
        when any footprint is unknown, when the proviso fires, or when
        no process's action set is safe.
        """
        every = list(range(len(actions)))
        if len(actions) <= 1:
            return every
        self.nodes += 1
        fp_of = getattr(state, "por_action_footprint", None)
        rem_of = getattr(state, "por_remaining_footprints", None)
        if fp_of is None or rem_of is None:
            return every
        if postponed:
            limit = self.proviso_limit
            enabled_procs = {a.process for a in actions}
            if any(postponed.get(p, 0) >= limit for p in enabled_procs):
                self.proviso_expansions += 1
                return every
        remaining: Dict[str, Footprint] = rem_of()
        # group indices by process, first-appearance order; the ample
        # set must contain *all* enabled actions of its process
        groups: Dict[str, List[int]] = {}
        order: List[str] = []
        for i, action in enumerate(actions):
            if action.process not in groups:
                groups[action.process] = []
                order.append(action.process)
            groups[action.process].append(i)
        for process in order:
            group = groups[process]
            if self._group_safe(fp_of, actions, group, process, remaining):
                if len(group) < len(actions):
                    self.reduced_nodes += 1
                    self.pruned += len(actions) - len(group)
                return group
        return every

    @staticmethod
    def _group_safe(fp_of, actions: Sequence[Action], group: List[int],
                    process: str, remaining: Dict[str, Footprint]) -> bool:
        """All of ``process``'s enabled actions independent of every
        other process's entire future."""
        footprints = []
        for i in group:
            fp = fp_of(actions[i])
            if fp is None:
                return False
            footprints.append(fp)
        for other, rest in remaining.items():
            if other == process:
                continue
            if any(fp.conflicts(rest) for fp in footprints):
                return False
        return True


def make_selector(por: bool,
                  proviso_limit: int = DEFAULT_PROVISO_LIMIT
                  ) -> Optional[AmpleSelector]:
    """An :class:`AmpleSelector` when ``por`` is on, else ``None`` (the
    scheduler treats ``None`` as full expansion everywhere)."""
    return AmpleSelector(proviso_limit) if por else None


# ---------------------------------------------------------------------------
# Event-level independence (built computations)
# ---------------------------------------------------------------------------


def event_independent(index: EventIndex, i: int, j: int) -> bool:
    """Independence of events ``i`` and ``j`` of a built computation.

    Two distinct events are independent iff neither temporally reaches
    the other: ``⇒`` is the transitive closure of the enable relation
    ``⊳`` and the element order ``⇒ₑ`` (events at the same element are
    always ordered), so independence means "at distinct elements, with
    no enable/port path between them" -- exactly the pairs whose order
    of occurrence the computation does not record.  Uses the
    :class:`EventIndex` closure bitmasks, so the check is O(1).
    """
    if i == j:
        return False
    return not (index.temporal_succ[i] >> j) & 1 \
        and not (index.temporal_succ[j] >> i) & 1


def independent_pairs(index: EventIndex) -> List[Tuple[int, int]]:
    """All unordered independent pairs ``(i, j)`` with ``i < j``."""
    out: List[Tuple[int, int]] = []
    for i in range(index.n):
        succ_i = index.temporal_succ[i]
        for j in range(i + 1, index.n):
            if not (succ_i >> j) & 1 and not (index.temporal_succ[j] >> i) & 1:
                out.append((i, j))
    return out
