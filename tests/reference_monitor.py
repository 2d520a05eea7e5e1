"""The every-node monitor placement, kept as a differential reference.

A copy of :func:`repro.sim.scheduler.explore`'s DFS as it stood before
the exploration monitor moved to branch points: here
:meth:`~repro.core.automata.AutomatonMonitor.advance` runs at *every*
internal node, single-branch ones included.  Each yielded run carries,
next to its ``decided`` verdicts, the depth (number of choices) of the
node at which each verdict was decided, so a test can tell a verdict
that only this placement finds from one that both placements must.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.sim.runtime import advance_postponed
from repro.sim.scheduler import (
    DEFAULT_MAX_STEPS,
    replay_prefix,
    replay_with_postponed,
)


def every_node_explore(program, por=None, dfa=None) -> List[tuple]:
    """``(choices, stable fingerprint, decided, cut depth by name)`` per
    run, in DFS order, probing ``dfa`` at every internal node."""

    def rec(choices, state, postponed, mnode,
            depths) -> Iterator[tuple]:
        actions = state.enabled()
        if not actions or len(choices) >= DEFAULT_MAX_STEPS:
            decided = mnode.decided if mnode is not None else ()
            yield (choices, state.computation().stable_fingerprint(),
                   decided, depths)
            return
        if mnode is not None:
            before = len(mnode.decided)
            mnode = dfa.advance(mnode, state)
            if len(mnode.decided) > before:
                depths = dict(depths)
                for name, _verdict in mnode.decided[before:]:
                    depths[name] = len(choices)
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
                child = state
                child.step(chosen)
            else:
                child = replay_prefix(program, choices + (i,))
            yield from rec(choices + (i,), child, child_postponed, mnode,
                           depths)

    if por is None:
        state, postponed = replay_prefix(program, ()), None
    else:
        state, postponed = replay_with_postponed(program, ())
    root = dfa.root() if dfa is not None else None
    return list(rec((), state, postponed, root, {}))
