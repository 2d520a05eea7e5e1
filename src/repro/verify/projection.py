"""Projecting program computations onto significant objects.

The paper's reading of ``PROG sat R``: "If we examine a computation
which is legal with respect to PROG, and only take note of significant
objects, those significant objects exhibit the same behavior as a
computation that is legal with respect to P."  *Only take note of* is
projection:

1. **Events**: keep exactly the events matched by a correspondence rule;
   rename each to its problem-level element/class and transform its
   parameters.
2. **Element order**: projected events landing on one problem element
   are sequenced by the original temporal order.  If two of them are
   potentially concurrent in the program computation, the projection
   must *invent* an order to keep the element sequential; by default we
   linearise deterministically (topological position), because the
   problems verified here only merge commuting events (e.g. concurrent
   reads).  Pass ``strict_element_order=True`` to make invention an
   error instead.
3. **Enable relation**: a projected edge ``a ⊳' b`` exists iff the
   program computation has an enable path from a to b whose intermediate
   events are all insignificant, and the correspondence's edge filter
   keeps the pair (by default: same process -- see
   :class:`~repro.verify.correspondence.Correspondence`).  When the
   correspondence defines ``process_of``, the *path* is restricted too:
   it may only traverse insignificant events of the source's process (or
   events with no process identity).  Without this, a path can tunnel
   through a third process -- e.g. from one deposit's client-side events
   through the whole buffer server to the next deposit's -- and
   fabricate an enable edge between two same-process events that share
   no control flow.

The projected object is an ordinary
:class:`~repro.core.computation.Computation`; checking it against the
problem specification (including its thread labelling) is then exactly
``legal(C', P)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.computation import Computation
from ..core.errors import VerificationError
from ..core.event import Event
from ..core.ids import EventId
from .correspondence import Correspondence

_UNSET = object()


def project(
    computation: Computation,
    correspondence: Correspondence,
    strict_element_order: bool = False,
) -> Computation:
    """Project ``computation`` onto the correspondence's significant objects.

    Works on event positions: the computation's relations are indexed
    in ``computation.events`` order, so ⇒'s topological order, its
    closure and ⊳'s successor table are read by position, not looked
    up by event id.
    """
    events = computation.events
    # 1. select and map events
    matched: List[Tuple[int, object]] = []
    for i, ev in enumerate(events):
        rule = correspondence.rule_for(ev)
        if rule is not None:
            matched.append((i, rule))
    if not matched:
        return Computation([], [])

    temporal = computation.temporal_relation
    rank = [0] * len(events)
    for r, i in enumerate(temporal.topological_indices()):
        rank[i] = r
    matched.sort(key=lambda pair: rank[pair[0]])

    # 2. per-target-element sequencing
    closure = temporal.closure_table()
    last_at: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    mapped_events: List[Event] = []
    new_ids: Dict[int, EventId] = {}
    for i, rule in matched:
        ev = events[i]
        target_el = rule.target_element_for(ev)
        prev = last_at.get(target_el)
        if (strict_element_order and prev is not None
                and not closure[prev] >> i & 1 and not closure[i] >> prev & 1):
            raise VerificationError(
                f"projection must invent an element order at "
                f"{target_el!r}: {events[prev].eid} and {ev.eid} are "
                "potentially concurrent in the program computation"
            )
        last_at[target_el] = i
        counts[target_el] = count = counts.get(target_el, 0) + 1
        new = Event.make(
            target_el,
            count,
            rule.target_class,
            rule.params_for(ev),
            threads=ev.threads,
        )
        mapped_events.append(new)
        new_ids[i] = new.eid

    # 3. path-induced enable edges through insignificant events
    succ = computation.enable_relation.succ_table()
    significant = 0
    for i, _rule in matched:
        significant |= 1 << i
    process_of = correspondence.process_of
    edge_filter = correspondence.edge_filter
    processes = [_UNSET] * len(events)

    def process(i: int) -> Optional[str]:
        p = processes[i]
        if p is _UNSET:
            p = processes[i] = process_of(events[i])
        return p

    edges: List[Tuple[EventId, EventId]] = []
    for i, _rule in matched:
        src_process = process(i) if process_of is not None else None
        for j in _significant_successors(succ, i, significant,
                                         process, src_process):
            # Correspondence.keeps_edge, on memoised processes
            if edge_filter is not None:
                keep = edge_filter(events[i], events[j])
            else:
                dst_process = None if src_process is None else process(j)
                keep = dst_process is None or dst_process == src_process
            if keep:
                edges.append((new_ids[i], new_ids[j]))

    return Computation(mapped_events, edges)


def _significant_successors(
    succ: List[int],
    source: int,
    significant: int,
    process,
    src_process: Optional[str],
) -> List[int]:
    """Positions of the significant events reachable from ``source`` by
    an enable path whose intermediate events are all insignificant.

    ``succ`` is ⊳'s successor table and ``significant`` a mask of
    positions.  When the source has a process identity, the path may
    only traverse intermediates of that process (or of no process) --
    control flow, not tunnelling through other processes.  The walk is
    a depth-first search whose frontier pops the highest position
    first, so the edge order of a projection is deterministic.
    """
    out: List[int] = []
    seen = 0
    # a stack of successor bitsets; each is popped highest bit first,
    # the order of a stack of positions pushed in ascending order
    frontier = [succ[source]] if succ[source] else []
    while frontier:
        bits = frontier.pop()
        j = bits.bit_length() - 1
        bit = 1 << j
        if bits ^ bit:
            frontier.append(bits ^ bit)
        if seen & bit:
            continue
        seen |= bit
        if significant & bit:
            out.append(j)
            continue  # paths may not pass through significant events
        if src_process is not None:
            p = process(j)
            if p is not None and p != src_process:
                continue
        if succ[j]:
            frontier.append(succ[j])
    return out
