"""Histories and valid history sequences (Section 7 of the paper).

A *history* records "what has happened so far": a subset of a
computation's events that is downward closed under the temporal order
(every predecessor of a member is a member).  The set of histories of a
computation, ordered by inclusion, forms a lattice whose maximal point
is the whole computation.

A *valid history sequence* (vhs) is a sequence of histories that

1. is monotonically increasing (``α₀ ⊆ α₁ ⊆ ...``), and
2. only adds pairwise potentially-concurrent events in a single step --
   two events occur "for the first time in the same history" only if
   neither temporally precedes the other.

vhs enjoy the tail-closure property; temporal operators □ and ◇ are
interpreted over them (see :mod:`repro.core.formula`).

One way of viewing a GEM computation "is as the set of all of its valid
history sequences"; the enumerators here realise that view for finite
computations, with caps because vhs counts grow explosively.

Representation: a history is a bitmask over the event positions the
:class:`~repro.core.computation.Computation` constructor assigns (bit
*i* is ``computation.events[i]``), and every lattice step is an int
operation on ⇒'s memoised closure tables.  The ``frozenset`` of
:class:`~repro.core.ids.EventId` that :attr:`History.events` returns
is built lazily, once per instance, for callers that read it.
:class:`LatticeWalk` is the one AG/AF walk over those masks; the lattice
interpreter and the compiled checker both run their temporal operators
through it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .computation import Computation
from .errors import ComputationError, HistoryCapExceeded
from .ids import EventId
from .order import iter_bits


def addable_mask(pred: List[int], full: int, mask: int) -> int:
    """Positions that could extend history ``mask``: not occurred, every
    predecessor in ``pred`` (a closure predecessor table) occurred."""
    acc = 0
    rest = full & ~mask
    while rest:
        low = rest & -rest
        rest ^= low
        if not pred[low.bit_length() - 1] & ~mask:
            acc |= low
    return acc


def id_ranks(computation: Computation) -> List[int]:
    """``rank[i]``: where event *i*'s id falls in sorted-``EventId``
    order, so sorting positions by rank sorts them by id."""
    nodes = computation.temporal_relation.nodes
    rank = [0] * len(nodes)
    for r, i in enumerate(sorted(range(len(nodes)), key=nodes.__getitem__)):
        rank[i] = r
    return rank


class History:
    """One downward-closed prefix of a computation.

    Immutable.  Equality and hashing consider the event set and the
    identity of the underlying computation, so histories of different
    computations never compare equal.
    """

    __slots__ = ("_comp", "_pos", "_mask", "_events", "_frontier",
                 "_addable")

    def __init__(self, computation: Computation, events: Iterable[EventId],
                 _trusted: bool = False):
        order = computation.temporal_relation
        index = order.index_table()
        mask = 0
        for eid in events:
            if eid not in index:
                raise ComputationError(
                    f"history references {eid}, not in the computation")
            mask |= 1 << index[eid]
        pred = order.closure_pred_table()
        if not _trusted and any(pred[i] & ~mask for i in iter_bits(mask)):
            raise ComputationError(
                "history is not downward closed: some member has a "
                "temporal predecessor outside the history"
            )
        self._comp, self._pos, self._mask = computation, index, mask
        self._events = self._frontier = self._addable = None

    @classmethod
    def of_mask(cls, computation: Computation, mask: int) -> "History":
        """The history whose members are the set bits of ``mask``
        (trusted: the caller guarantees a down-set)."""
        h = cls.__new__(cls)
        h._comp, h._mask = computation, mask
        h._pos = computation.temporal_relation.index_table()
        h._events = h._frontier = h._addable = None
        return h

    # -- basics ------------------------------------------------------------

    @property
    def computation(self) -> Computation:
        return self._comp

    @property
    def mask(self) -> int:
        """Bit *i* set iff ``computation.events[i]`` has occurred."""
        return self._mask

    @property
    def events(self) -> FrozenSet[EventId]:
        if self._events is None:
            self._events = self._ids(self._mask)
        return self._events

    def _ids(self, mask: int) -> FrozenSet[EventId]:
        nodes = self._comp.temporal_relation.nodes
        return frozenset(nodes[i] for i in iter_bits(mask))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, eid: EventId) -> bool:
        return self.occurred(eid)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, History)
            and self._comp is other._comp
            and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((id(self._comp), self._mask))

    def __le__(self, other: "History") -> bool:
        """Prefix relation between histories of the same computation."""
        if self._comp is not other._comp:
            raise ComputationError("histories of different computations")
        return not self._mask & ~other._mask

    def __lt__(self, other: "History") -> bool:
        return self <= other and self._mask != other._mask

    def __repr__(self) -> str:
        names = ", ".join(str(e) for e in sorted(self.events))
        return f"History({{{names}}})"

    # -- GEM predicates over histories -----------------------------------------

    def occurred(self, eid: EventId) -> bool:
        """``occurred(e)`` evaluated at this history."""
        i = self._pos.get(eid)
        return i is not None and bool(self._mask >> i & 1)

    def is_complete(self) -> bool:
        """True iff this history is the whole computation."""
        return self._mask.bit_count() == len(self._comp)

    def frontier(self) -> FrozenSet[EventId]:
        """Members with no temporal successor inside the history.

        Pure and called inside lattice-walk and scheduler inner loops,
        so the result is computed once and cached on the instance.
        """
        if self._frontier is None:
            succ = self._comp.temporal_relation.closure_table()
            mask = self._mask
            self._frontier = self._ids(sum(
                1 << i for i in iter_bits(mask) if not succ[i] & mask))
        return self._frontier

    def addable(self) -> FrozenSet[EventId]:
        """Events of the computation that could extend this history.

        These are exactly the *potential* events: not yet occurred, with
        every temporal predecessor already in the history.  Cached per
        instance (see :meth:`frontier`).
        """
        if self._addable is None:
            pred = self._comp.temporal_relation.closure_pred_table()
            self._addable = self._ids(addable_mask(
                pred, (1 << len(self._comp)) - 1, self._mask))
        return self._addable

    def potential(self, eid: EventId) -> bool:
        """The paper's ``potential(e)``: e may legally extend this history."""
        i = self._pos.get(eid)
        if i is None or self._mask >> i & 1:
            return False
        pred = self._comp.temporal_relation.closure_pred_table()
        return not pred[i] & ~self._mask

    def new(self, eid: EventId) -> bool:
        """The paper's ``new(e)``: e occurred, and nothing observably follows it.

        ``new(e) ≡ occurred(e) ∧ ¬∃e' [e ⇒ e']`` evaluated inside the
        history: e is in the history and no temporal successor of e is.
        """
        i = self._pos.get(eid)
        if i is None or not self._mask >> i & 1:
            return False
        succ = self._comp.temporal_relation.closure_table()
        return not succ[i] & self._mask

    def at(self, eid: EventId, target_class_events: Iterable[EventId]) -> bool:
        """The paper's ``e₁ at E₂``: e₁ occurred and has not enabled an E₂ event.

        ``target_class_events`` supplies the (computation-level) extent of
        the event class E₂; the check is whether any of them both occurred
        in this history and is enabled by ``eid``.
        """
        enable = self._comp.enable_relation
        return self.occurred(eid) and not any(
            self.occurred(target) and enable.holds(eid, target)
            for target in target_class_events)

    def extend(self, new_events: Iterable[EventId]) -> "History":
        """History with ``new_events`` added (validated down-closed)."""
        return History(self._comp, self.events | set(new_events))


def empty_history(computation: Computation) -> History:
    """The empty prefix of ``computation``."""
    return History.of_mask(computation, 0)


def full_history(computation: Computation) -> History:
    """The complete computation viewed as a history."""
    return History.of_mask(computation, (1 << len(computation)) - 1)


class LatticeWalk:
    """The one AG/AF walk over a computation's history lattice, on masks.

    The interpreter (:class:`repro.core.checker.LatticeChecker`) and the
    compiled checker (:class:`repro.core.compile.CompiledSpec`) each own
    one per computation and run every □ and ◇ through it, with a *leaf*
    ``leaf(mask, env) -> bool`` evaluating the body at one history.  It
    holds their shared addable-mask cache and the visit budget (past
    ``cap`` it raises, naming ``who``).  ◇ visits children lowest
    position first, or in sorted-``EventId`` order with ``id_order``;
    ``visited`` and the cap boundary depend on the order, verdicts not.
    """

    def __init__(self, computation: Computation, cap: int, who: str,
                 id_order: bool = False) -> None:
        order = computation.temporal_relation
        self.computation = computation
        self.visited = 0
        self._cap = cap
        self._who = who
        self._id_order = id_order
        self._pred = order.closure_pred_table()
        self._succ = order.closure_table()
        self._full = (1 << len(computation)) - 1
        self._addable: Dict[int, int] = {}
        self._rank: Optional[List[int]] = None

    def bump(self) -> None:
        self.visited += 1
        if self.visited > self._cap:
            raise HistoryCapExceeded(
                f"{self._who} visited more than {self._cap} "
                "(formula, history) pairs; raise history_cap or shrink the "
                "computation (under temporal_mode=\"auto\" regular "
                "restrictions are decided on the slice and bypass the walk)"
            )

    def explored(self) -> int:
        """Distinct histories whose addable set was derived."""
        return len(self._addable)

    def addable(self, mask: int) -> int:
        """Addable-positions mask of history ``mask``, cached."""
        a = self._addable.get(mask)
        if a is None:
            a = self._addable[mask] = addable_mask(self._pred, self._full,
                                                   mask)
        return a

    def _step(self, parent_addable: int, i: int, child: int) -> int:
        """Addable mask of ``child = parent | (1 << i)``: only ``i``'s
        successors can become addable, so only they are rescanned."""
        acc = self._addable.get(child)
        if acc is None:
            acc = parent_addable & ~(1 << i)
            for j in iter_bits(self._succ[i] & ~child):
                if not self._pred[j] & ~child:
                    acc |= 1 << j
            self._addable[child] = acc
        return acc

    def by_id(self, bits: int) -> List[int]:
        """The set positions of ``bits`` in sorted-``EventId`` order."""
        if self._rank is None:
            self._rank = id_ranks(self.computation)
        return sorted(iter_bits(bits), key=self._rank.__getitem__)

    def always(self, leaf: Callable, mask: int, env,
               memo: Dict[int, bool]) -> bool:
        """AG: ``leaf`` holds at every history ⊇ ``mask``.  ``memo`` maps
        start masks to verdicts, one dict per (body, bindings)."""
        cached = memo.get(mask)
        if cached is not None:
            return cached
        self.bump()
        result = bool(leaf(mask, env))
        seen = {mask}
        stack = [(mask, self.addable(mask))] if result else []
        while stack and result:
            h, add = stack.pop()
            bits = add
            while bits:
                low = bits & -bits
                bits ^= low
                child = h | low
                if child not in seen:
                    seen.add(child)
                    self.bump()
                    if not leaf(child, env):
                        result = False
                        break
                    stack.append((child, self._step(
                        add, low.bit_length() - 1, child)))
        memo[mask] = result
        return result

    def eventually(self, leaf: Callable, mask: int, env,
                   memo: Dict[int, bool]) -> bool:
        """AF: every maximal path from ``mask`` hits a ``leaf`` history
        (``memo`` as in :meth:`always`, over every visited mask)."""
        cached = memo.get(mask)
        if cached is not None:
            return cached
        self.bump()
        result = bool(leaf(mask, env))
        if not result:
            add = self.addable(mask)
            result = bool(add) and all(
                self.eventually(leaf, mask | 1 << i, env, memo)
                for i in (self.by_id(add) if self._id_order
                          else iter_bits(add)))
        memo[mask] = result
        return result


def all_histories(
    computation: Computation, cap: Optional[int] = None, include_empty: bool = True
) -> List[History]:
    """Every history (down-set) of ``computation``, smallest first.

    Ties break by sorted event ids.  ``cap`` bounds the number produced
    (ComputationError past the cap) -- down-set counts are exponential
    in the width of the order.
    """
    pred = computation.temporal_relation.closure_pred_table()
    full = (1 << len(computation)) - 1
    seen = {0}
    queue = deque([0])
    masks: List[int] = []
    while queue:
        m = queue.popleft()
        if include_empty or m:
            masks.append(m)
            if cap is not None and len(masks) > cap:
                raise ComputationError(
                    f"more than {cap} histories; raise the cap or shrink the "
                    "computation"
                )
        for i in iter_bits(addable_mask(pred, full, m)):
            nxt = m | 1 << i
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    rank = id_ranks(computation)
    masks.sort(key=lambda m: (m.bit_count(),
                              sorted(rank[i] for i in iter_bits(m))))
    return [History.of_mask(computation, m) for m in masks]


class HistorySequence:
    """A valid history sequence (finite).

    Validates the two vhs conditions of Section 7 at construction:
    monotonicity, and pairwise potential concurrency of each step's newly
    added events.  Stuttering (equal consecutive histories) is permitted
    by the paper's ``⊆`` and accepted here.
    """

    __slots__ = ("_histories",)

    def __init__(self, histories: Sequence[History]):
        hs = list(histories)
        if not hs:
            raise ComputationError("a history sequence needs at least one history")
        comp = hs[0].computation
        succ = comp.temporal_relation.closure_table()
        for i, (prev, cur) in enumerate(zip(hs, hs[1:]), start=1):
            if cur.computation is not comp:
                raise ComputationError("histories of different computations")
            if not prev <= cur:
                raise ComputationError(
                    f"history sequence not monotonically increasing at step {i}"
                )
            added = cur.mask & ~prev.mask
            if any(succ[j] & added for j in iter_bits(added)):
                raise ComputationError(
                    f"step {i} adds temporally ordered events "
                    f"{sorted(cur.events - prev.events)}; "
                    "simultaneous events must be potentially concurrent"
                )
        self._histories = tuple(hs)

    @property
    def histories(self) -> Tuple[History, ...]:
        return self._histories

    @property
    def computation(self) -> Computation:
        return self._histories[0].computation

    def __len__(self) -> int:
        return len(self._histories)

    def __getitem__(self, i: int) -> History:
        return self._histories[i]

    def __iter__(self) -> Iterator[History]:
        return iter(self._histories)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HistorySequence)
            and self._histories == other._histories
        )

    def __hash__(self) -> int:
        return hash(self._histories)

    def tail(self, i: int) -> "HistorySequence":
        """The tail sequence S[i] = αᵢ, αᵢ₊₁, ... (tail-closure property)."""
        if not 0 <= i < len(self._histories):
            raise IndexError(f"tail index {i} out of range")
        return HistorySequence(self._histories[i:])

    def first(self) -> History:
        return self._histories[0]

    def is_maximal(self) -> bool:
        """True iff the sequence ends with the complete computation."""
        return self._histories[-1].is_complete()

    def is_initial(self) -> bool:
        """True iff the sequence starts from the empty history."""
        return len(self._histories[0]) == 0


def _antichains(
    candidates: Sequence[int], order, max_step: Optional[int]
) -> Iterator[int]:
    """Non-empty antichains among ``candidates`` (positions, already all
    addable), as masks."""
    n = len(candidates)
    limit = n if max_step is None else min(n, max_step)
    succ = order.closure_table()
    pred = order.closure_pred_table()

    def rec(start: int, chosen: int, size: int) -> Iterator[int]:
        if size:
            yield chosen
        if size == limit:
            return
        for i in range(start, n):
            c = candidates[i]
            # two addable events can never be temporally ordered (an
            # ordered pair cannot both have all predecessors satisfied
            # while the later one's predecessor -- the earlier -- is
            # absent).  Guard anyway for clarity.
            if not (succ[c] | pred[c]) & chosen:
                yield from rec(i + 1, chosen | 1 << c, size + 1)

    return rec(0, 0, 0)


def maximal_history_sequences(
    computation: Computation,
    cap: Optional[int] = None,
    max_step: Optional[int] = 1,
) -> Iterator[HistorySequence]:
    """Enumerate maximal vhs from the empty history.

    ``max_step`` bounds how many (pairwise concurrent) events may be
    added per step; ``max_step=1`` yields exactly the linear extensions
    of the temporal order, which is the sound-and-complete fragment for
    the stutter-insensitive formulae used in this reproduction (see
    :mod:`repro.core.checker`).  ``max_step=None`` allows arbitrary
    antichain steps (the full Section 7 semantics).  ``cap`` bounds the
    number of sequences yielded.  Steps are tried in sorted-id order.
    """
    produced = 0
    order = computation.temporal_relation
    pred = order.closure_pred_table()
    full = (1 << len(computation)) - 1
    rank = id_ranks(computation)

    def rec(prefix: List[History]) -> Iterator[HistorySequence]:
        nonlocal produced
        current = prefix[-1].mask
        if current == full:
            produced += 1
            yield HistorySequence(prefix)
            return
        addable = sorted(iter_bits(addable_mask(pred, full, current)),
                         key=rank.__getitem__)
        for step in _antichains(addable, order, max_step):
            prefix.append(History.of_mask(computation, current | step))
            for seq in rec(prefix):
                yield seq
                if cap is not None and produced >= cap:
                    prefix.pop()
                    return
            prefix.pop()

    return rec([empty_history(computation)])


def count_maximal_history_sequences(
    computation: Computation, max_step: Optional[int] = 1, cap: int = 10_000_000
) -> int:
    """Count maximal vhs (memoised on the reached history), up to ``cap``."""
    order = computation.temporal_relation
    pred = order.closure_pred_table()
    full = (1 << len(computation)) - 1
    memo: Dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == full:
            return 1
        if mask in memo:
            return memo[mask]
        total = 0
        addable = list(iter_bits(addable_mask(pred, full, mask)))
        for step in _antichains(addable, order, max_step):
            total += count(mask | step)
            if total >= cap:
                break
        memo[mask] = min(total, cap)
        return memo[mask]

    return count(0)
