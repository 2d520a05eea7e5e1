"""Bitmask tables of one computation, shared by the slice and POR.

Histories are bitmasks over event positions throughout the package (see
:mod:`repro.core.history`); this module gathers, once per computation,
the per-event tables the slice (:mod:`repro.core.slice`) and the
partial-order reduction (:mod:`repro.engine.por`) read:

* a history is an ``int`` with bit *i* set iff event *i* has occurred;
* the child of history ``m`` adding event *i* is ``m | (1 << i)``;
* the relations ``⊳`` and ``⇒`` are per-event successor masks (they
  *are* :class:`~repro.core.order.Relation`'s tables, shared, not
  copied -- the computation indexes them in event order, and the
  temporal relation is already transitively closed, so its raw
  successor table is the closure);
* ``addable(m)`` is "every bit i ∉ m whose temporal-predecessor mask is
  contained in m", one AND-NOT per event.

An :class:`EventIndex` is built once per computation and cached on the
:class:`~repro.core.computation.Computation` instance, so the engine's
workers, the fuzz oracles and repeated ``check_computation`` calls all
share the same tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .computation import Computation
from .event import Event
from .history import addable_mask
from .ids import EventId
from .order import iter_bits


class EventIndex:
    """Dense event indexing plus relation bitmask tables for one computation.

    Event *i* is ``computation.events[i]`` (builder insertion order), so
    the indexing is deterministic run to run.  All masks use that
    indexing.
    """

    __slots__ = (
        "computation",
        "events",
        "n",
        "full_mask",
        "index_of",
        "temporal_succ",
        "temporal_pred",
        "enable_succ",
    )

    def __init__(self, computation: Computation) -> None:
        self.computation = computation
        self.events: Tuple[Event, ...] = computation.events
        n = len(self.events)
        self.n = n
        self.full_mask = (1 << n) - 1
        # the Computation constructor indexes ⊳ and ⇒ in ``events`` order,
        # so their tables are used as they are (read-only, shared); ⇒ was
        # born closed, so its closure table is its successor table
        temporal = computation.temporal_relation
        self.index_of: Dict[EventId, int] = temporal.index_table()
        self.temporal_succ: List[int] = temporal.closure_table()
        self.temporal_pred: List[int] = temporal.closure_pred_table()
        self.enable_succ: List[int] = computation.enable_relation.succ_table()

    # -- lattice steps ------------------------------------------------------

    def addable_mask(self, mask: int) -> int:
        """Events that could extend history ``mask`` (the *potential*
        events): not occurred, every temporal predecessor occurred."""
        return addable_mask(self.temporal_pred, self.full_mask, mask)

    def down_closure(self, mask: int) -> int:
        """``mask`` plus every temporal predecessor of its members -- the
        least history containing them (⇒ is transitively closed, so one
        pass over the predecessor table suffices)."""
        acc = mask
        pred = self.temporal_pred
        for i in iter_bits(mask):
            acc |= pred[i]
        return acc

    def up_closure(self, mask: int) -> int:
        """``mask`` plus every temporal successor of its members; its
        complement is the greatest history avoiding ``mask``."""
        acc = mask
        succ = self.temporal_succ
        for i in iter_bits(mask):
            acc |= succ[i]
        return acc


def event_index(computation: Computation) -> EventIndex:
    """The computation's :class:`EventIndex`, built once and cached on
    the instance (like :class:`Relation`'s closure tables)."""
    cached: Optional[EventIndex] = computation._evalcore
    if cached is None:
        cached = EventIndex(computation)
        computation._evalcore = cached
    return cached
