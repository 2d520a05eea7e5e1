"""GEM computations: partially ordered sets of events.

"Each computation consists of a possibly infinite set of objects called
events, a partial relation ⊳ (the enable relation), and two strict
partial orders: ⇒ₑ (the element order) and ⇒ (the temporal order)"
(Section 3).  This library models *finite* computations -- every
verification question we ask is bounded (see DESIGN.md §2).

The three relations:

* ``⊳`` (enable) -- explicit edges added by the builder; partial,
  irreflexive, not transitive.
* ``⇒ₑ`` (element order) -- implied by event identity: ``a ⇒ₑ b`` iff
  ``a`` and ``b`` occur at the same element and ``a``'s occurrence number
  is smaller.  Total per element by construction.
* ``⇒`` (temporal order) -- the transitive closure of ``⊳ ∪ ⇒ₑ`` minus
  identity; must be irreflexive (no causal cycles).

The :class:`Computation` constructor enforces GEM's three order
legality rules -- contiguous occurrence numbers, irreflexive ``⊳``, an
acyclic ``⊳ ∪ ⇒ₑ`` -- and builds ``⇒`` as exactly that closure.  Every
computation (builder ``freeze``, projection, composition, JSON load,
thread relabelling) goes through it, so
:func:`~repro.core.legality.check_legality` checks only the
specification-relative rules.

A :class:`Computation` is immutable; build one with
:class:`ComputationBuilder`, which assigns occurrence numbers
automatically and validates event arguments against declared event
classes when a specification is attached.
"""

from __future__ import annotations

import hashlib
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .element import EventClassRef
from .errors import ComputationError, CycleError
from .event import Event
from .group import GroupStructure
from .ids import ElementName, EventClassName, EventId, ThreadId
from .order import Relation


class Computation:
    """An immutable finite GEM computation.

    Do not construct directly; use :class:`ComputationBuilder`.
    """

    __slots__ = (
        "_events",
        "_by_id",
        "_by_element",
        "_enable_pairs",
        "_enable",
        "_temporal",
        "_groups",
        "_evalcore",
    )

    def __init__(
        self,
        events: Sequence[Event],
        enable_pairs: Iterable[Tuple[EventId, EventId]],
        groups: Optional[GroupStructure] = None,
    ) -> None:
        self._events: Tuple[Event, ...] = tuple(events)
        # one eid -> position map shared by ⊳, ⊳ ∪ ⇒ₑ and ⇒: every
        # relation of a computation is indexed in ``events`` order
        ids = tuple(ev.eid for ev in self._events)
        index: Dict[EventId, int] = {eid: i for i, eid in enumerate(ids)}
        if len(index) != len(ids):
            seen: Set[EventId] = set()
            for eid in ids:
                if eid in seen:
                    raise ComputationError(f"duplicate event identity {eid}")
                seen.add(eid)
        self._by_id: Dict[EventId, Event] = dict(zip(ids, self._events))
        positions: Dict[ElementName, List[int]] = {}
        for i, eid in enumerate(ids):
            positions.setdefault(eid.element, []).append(i)

        self._by_element: Dict[ElementName, List[Event]] = {}
        for element, seq in positions.items():
            seq.sort(key=lambda i: ids[i].index)
            for pos, i in enumerate(seq, start=1):
                if ids[i].index != pos:
                    raise ComputationError(
                        f"occurrence numbers at element {element!r} are not "
                        f"contiguous from 1: saw {ids[i].index} at position {pos}"
                    )
            self._by_element[element] = [self._events[i] for i in seq]

        self._enable_pairs: Tuple[Tuple[EventId, EventId], ...] = tuple(enable_pairs)
        enable = [0] * len(ids)
        for a, b in self._enable_pairs:
            ia = index.get(a)
            ib = index.get(b)
            if ia is None or ib is None:
                raise ComputationError(
                    f"enable edge ({a}, {b}) references an unknown event"
                )
            if ia == ib:
                raise ComputationError(f"enable relation is irreflexive; got {a} ⊳ {a}")
            enable[ia] |= 1 << ib
        # ⊳ ∪ ⇒ₑ: the element order's covering pairs join the enable edges
        combined = list(enable)
        for seq in positions.values():
            for prev, nxt in zip(seq, seq[1:]):
                combined[prev] |= 1 << nxt

        self._enable: Relation = Relation._from_table(ids, index, enable)
        # temporal = transitive closure of enable ∪ element-order covers;
        # this is the computation's one Kahn pass, and ⇒ inherits its order
        generators = Relation._from_table(ids, index, combined)
        if not generators.is_acyclic():
            raise CycleError(
                "enable relation plus element order has a causal cycle; the "
                "temporal order cannot be irreflexive",
                generators.find_cycle(),
            )
        self._temporal: Relation = generators.transitive_closure()
        self._groups = groups
        # lazily built bitmask tables (repro.core.evalcore.event_index)
        self._evalcore = None

    # -- event access ------------------------------------------------------

    @property
    def events(self) -> Tuple[Event, ...]:
        """All events, in builder insertion order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, eid: EventId) -> bool:
        return eid in self._by_id

    def event(self, eid: EventId) -> Event:
        try:
            return self._by_id[eid]
        except KeyError:
            raise ComputationError(f"no event {eid} in this computation") from None

    def elements(self) -> Tuple[ElementName, ...]:
        """Elements at which at least one event occurred."""
        return tuple(self._by_element)

    def events_at(self, element: ElementName) -> Tuple[Event, ...]:
        """Events at ``element`` in element order (possibly empty)."""
        return tuple(self._by_element.get(element, ()))

    def events_of(self, ref: EventClassRef) -> Tuple[Event, ...]:
        """Events of class ``ref.event_class`` at ``ref.element``, in order."""
        return tuple(
            ev for ev in self._by_element.get(ref.element, ())
            if ev.event_class == ref.event_class
        )

    def events_of_class(self, event_class: EventClassName) -> Tuple[Event, ...]:
        """Events of the named class at *any* element, in insertion order."""
        return tuple(ev for ev in self._events if ev.event_class == event_class)

    def events_of_thread(self, thread: ThreadId) -> Tuple[Event, ...]:
        """Events labelled with ``thread``, in temporal-consistent order."""
        events = self._events
        return tuple(events[i] for i in self._temporal.topological_indices()
                     if thread in events[i].threads)

    def thread_ids(self) -> Tuple[ThreadId, ...]:
        """All thread instances appearing on any event (sorted)."""
        seen: Set[ThreadId] = set()
        for ev in self._events:
            seen.update(ev.threads)
        return tuple(sorted(seen))

    # -- relations -----------------------------------------------------------

    @property
    def enable_relation(self) -> Relation:
        """The raw enable relation ``⊳`` over event ids."""
        return self._enable

    @property
    def temporal_relation(self) -> Relation:
        """The temporal order ``⇒`` (already transitively closed)."""
        return self._temporal

    @property
    def groups(self) -> Optional[GroupStructure]:
        """Scope structure the computation was built under, if any."""
        return self._groups

    def enables(self, a: EventId, b: EventId) -> bool:
        """``a ⊳ b`` -- direct enabling only (not transitive)."""
        return self._enable.holds(a, b)

    def element_precedes(self, a: EventId, b: EventId) -> bool:
        """``a ⇒ₑ b`` -- same element, smaller occurrence number."""
        return a.element == b.element and a.index < b.index and a in self and b in self

    def temporally_precedes(self, a: EventId, b: EventId) -> bool:
        """``a ⇒ b`` in the temporal order."""
        return self._temporal.holds(a, b)

    def concurrent(self, a: EventId, b: EventId) -> bool:
        """Potentially concurrent: distinct and temporally unordered."""
        if a == b:
            return False
        return not self._temporal.holds(a, b) and not self._temporal.holds(b, a)

    def enabled_by(self, b: EventId) -> Tuple[Event, ...]:
        """Events ``a`` with ``a ⊳ b``."""
        return tuple(self._by_id[a] for a in self._enable.predecessors(b))

    def enables_of(self, a: EventId) -> Tuple[Event, ...]:
        """Events ``b`` with ``a ⊳ b``."""
        return tuple(self._by_id[b] for b in self._enable.successors(a))

    # -- misc ------------------------------------------------------------------

    def fingerprint(self) -> int:
        """Hash identifying the computation up to event insertion order.

        Two computations with the same events (same identities, classes,
        parameters, threads) and the same enable edges are the same
        partial order -- different interleavings of independent actions
        produce equal fingerprints, which lets verification deduplicate
        runs soundly (every property checked in this library is a
        function of the partial order, never of builder insertion
        order).
        """
        return hash((
            frozenset(self._events),
            frozenset(self._enable_pairs),
        ))

    def stable_fingerprint(self) -> str:
        """SHA-256 fingerprint, stable across processes and interpreter runs.

        :meth:`fingerprint` is built on ``hash``, which Python salts per
        process -- fine for deduplication inside one interpreter, useless
        as a key shared between worker processes or persisted to disk.
        This digest depends only on the canonical content of the
        computation (event identities, classes, parameters, thread
        labels, and enable edges, each in sorted order), so the
        verification engine can use it to merge results across
        ``multiprocessing`` workers and as an on-disk cache key.  Like
        :meth:`fingerprint`, it identifies the partial order: builder
        insertion order does not affect it.
        """
        h = hashlib.sha256()
        for rec in sorted(
            repr((ev.eid.element, ev.eid.index, ev.event_class, ev.params,
                  tuple(sorted(map(repr, ev.threads)))))
            for ev in self._events
        ):
            h.update(rec.encode("utf-8"))
            h.update(b"\x00")
        h.update(b"\x1e")
        for rec in sorted(
            repr((a.element, a.index, b.element, b.index))
            for a, b in self._enable_pairs
        ):
            h.update(rec.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def describe(self) -> str:
        """Multi-line human-readable dump (events then enable edges)."""
        lines = [f"computation with {len(self._events)} events"]
        for ev in self._events:
            lines.append("  " + ev.describe())
        for a, b in self._enable_pairs:
            lines.append(f"  {a} ⊳ {b}")
        return "\n".join(lines)

    def relabel_threads(
        self, labels: Mapping[EventId, FrozenSet[ThreadId]]
    ) -> "Computation":
        """Copy with thread labels *added* per the mapping (identity-preserving)."""
        new_events = [
            ev.with_threads(labels[ev.eid]) if ev.eid in labels else ev
            for ev in self._events
        ]
        return Computation(new_events, self._enable_pairs, self._groups)


class ComputationBuilder:
    """Accumulates events and enable edges, then freezes.

    Occurrence numbers are assigned automatically per element in call
    order, so the element order is exactly the builder's call order at
    each element.  ``add_enable`` accepts either :class:`Event` or
    :class:`EventId` arguments.
    """

    def __init__(self, groups: Optional[GroupStructure] = None) -> None:
        self._events: List[Event] = []
        self._counts: Dict[ElementName, int] = {}
        self._pairs: List[Tuple[EventId, EventId]] = []
        self._ids: Set[EventId] = set()
        self._groups = groups

    def add_event(
        self,
        element: ElementName,
        event_class: EventClassName,
        params: Optional[Mapping[str, Any]] = None,
        threads: Iterable[ThreadId] = (),
    ) -> Event:
        """Append the next event at ``element`` and return it."""
        index = self._counts.get(element, 0) + 1
        self._counts[element] = index
        ev = Event.make(element, index, event_class, params, frozenset(threads))
        self._events.append(ev)
        self._ids.add(ev.eid)
        return ev

    def add_enable(self, a: "Event | EventId", b: "Event | EventId") -> None:
        """Record ``a ⊳ b``.

        If the builder carries a :class:`GroupStructure`, the edge is
        checked against the scope rule immediately so violations point
        at the offending call site.
        """
        ai = a.eid if isinstance(a, Event) else a
        bi = b.eid if isinstance(b, Event) else b
        if ai not in self._ids or bi not in self._ids:
            raise ComputationError(
                f"add_enable({ai}, {bi}): both events must be added first"
            )
        if self._groups is not None:
            target = next(ev for ev in self._events if ev.eid == bi)
            if not self._groups.may_enable(ai.element, bi.element, target.event_class):
                raise ComputationError(
                    f"scope violation: {ai.element!r} may not enable "
                    f"{bi.element}.{target.event_class!r}"
                )
        self._pairs.append((ai, bi))

    def event_count(self, element: Optional[ElementName] = None) -> int:
        if element is None:
            return len(self._events)
        return self._counts.get(element, 0)

    def events_so_far(self) -> List[Event]:
        """The events added so far, in call order (live list: read-only).

        A constant-time peek for callers that must not pay
        :meth:`freeze` just to look at recent events -- the automaton
        monitor's significance trigger scans the tail of this list at
        every scheduler node.
        """
        return self._events

    def last_event_at(self, element: ElementName) -> Optional[Event]:
        """Most recently added event at ``element``, if any."""
        count = self._counts.get(element, 0)
        if count == 0:
            return None
        target = EventId(element, count)
        for ev in reversed(self._events):
            if ev.eid == target:
                return ev
        return None

    def freeze(self) -> Computation:
        """Validate and produce the immutable :class:`Computation`."""
        return Computation(self._events, self._pairs, self._groups)
