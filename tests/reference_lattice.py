"""The frozenset lattice: the reference the position-indexed one replaced.

:class:`History` below is the history of a computation as a
``frozenset`` of :class:`~repro.core.ids.EventId`, and
:class:`LatticeChecker` the AG/AF interpreter over it, together with the
witness searches :func:`_first_failing_history` and
:func:`_path_avoiding`.  They are kept verbatim from before histories
became bitmasks over the positions the ``Computation`` constructor
assigns, so ``tests/test_lattice_walk.py`` can hold the mask-based
lattice to them: same verdicts, same witnesses, same explanations.

Not part of the package; tests only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.core.computation import Computation
from repro.core.errors import ComputationError, SpecificationError
from repro.core.formula import (
    And,
    AtMostOne,
    Eventually,
    Exists,
    ExistsUnique,
    ForAll,
    Formula,
    Henceforth,
    Iff,
    Implies,
    Not,
    Or,
)
from repro.core.ids import EventId

DEFAULT_HISTORY_CAP = 2_000_000


class History:
    """One downward-closed prefix of a computation.

    Immutable.  Equality and hashing consider the event set and the
    identity of the underlying computation, so histories of different
    computations never compare equal.
    """

    __slots__ = ("_comp", "_events", "_hash", "_frontier", "_addable")

    def __init__(self, computation: Computation, events: Iterable[EventId],
                 _trusted: bool = False):
        self._comp = computation
        self._frontier: Optional[FrozenSet[EventId]] = None
        self._addable: Optional[FrozenSet[EventId]] = None
        ev_set = frozenset(events)
        if not _trusted:
            for eid in ev_set:
                if eid not in computation:
                    raise ComputationError(
                        f"history references {eid}, not in the computation"
                    )
            if not computation.temporal_relation.is_down_closed(ev_set):
                raise ComputationError(
                    "history is not downward closed: some member has a "
                    "temporal predecessor outside the history"
                )
        self._events = ev_set
        self._hash = hash((id(computation), ev_set))

    # -- basics ------------------------------------------------------------

    @property
    def computation(self) -> Computation:
        return self._comp

    @property
    def events(self) -> FrozenSet[EventId]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, eid: EventId) -> bool:
        return eid in self._events

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, History)
            and self._comp is other._comp
            and self._events == other._events
        )

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "History") -> bool:
        """Prefix relation between histories of the same computation."""
        if self._comp is not other._comp:
            raise ComputationError("histories of different computations")
        return self._events <= other._events

    def __lt__(self, other: "History") -> bool:
        return self <= other and self._events != other._events

    def __repr__(self) -> str:
        names = ", ".join(str(e) for e in sorted(self._events))
        return f"History({{{names}}})"

    # -- GEM predicates over histories -----------------------------------------

    def occurred(self, eid: EventId) -> bool:
        """``occurred(e)`` evaluated at this history."""
        return eid in self._events

    def is_complete(self) -> bool:
        """True iff this history is the whole computation."""
        return len(self._events) == len(self._comp)

    def frontier(self) -> FrozenSet[EventId]:
        """Members with no temporal successor inside the history.

        Pure and called inside lattice-walk and scheduler inner loops,
        so the result is computed once and cached on the instance.
        """
        if self._frontier is None:
            temporal = self._comp.temporal_relation
            out: Set[EventId] = set()
            for eid in self._events:
                if all(s not in self._events
                       for s in temporal.successors(eid)):
                    out.add(eid)
            self._frontier = frozenset(out)
        return self._frontier

    def addable(self) -> FrozenSet[EventId]:
        """Events of the computation that could extend this history.

        These are exactly the *potential* events: not yet occurred, with
        every temporal predecessor already in the history.  Cached per
        instance (see :meth:`frontier`).
        """
        if self._addable is None:
            temporal = self._comp.temporal_relation
            out: Set[EventId] = set()
            for ev in self._comp.events:
                if ev.eid in self._events:
                    continue
                if all(p in self._events
                       for p in temporal.predecessors(ev.eid)):
                    out.add(ev.eid)
            self._addable = frozenset(out)
        return self._addable

    def potential(self, eid: EventId) -> bool:
        """The paper's ``potential(e)``: e may legally extend this history."""
        if eid in self._events:
            return False
        temporal = self._comp.temporal_relation
        return all(p in self._events for p in temporal.predecessors(eid))

    def new(self, eid: EventId) -> bool:
        """The paper's ``new(e)``: e occurred, and nothing observably follows it.

        ``new(e) ≡ occurred(e) ∧ ¬∃e' [e ⇒ e']`` evaluated inside the
        history: e is in the history and no temporal successor of e is.
        """
        if eid not in self._events:
            return False
        temporal = self._comp.temporal_relation
        return all(s not in self._events for s in temporal.successors(eid))

    def at(self, eid: EventId, target_class_events: Iterable[EventId]) -> bool:
        """The paper's ``e₁ at E₂``: e₁ occurred and has not enabled an E₂ event.

        ``target_class_events`` supplies the (computation-level) extent of
        the event class E₂; the check is whether any of them both occurred
        in this history and is enabled by ``eid``.
        """
        if eid not in self._events:
            return False
        enable = self._comp.enable_relation
        for target in target_class_events:
            if target in self._events and enable.holds(eid, target):
                return False
        return True

    def extend(self, new_events: Iterable[EventId]) -> "History":
        """History with ``new_events`` added (validated down-closed)."""
        return History(self._comp, self._events | set(new_events))


def empty_history(computation: Computation) -> History:
    """The empty prefix of ``computation``."""
    return History(computation, frozenset(), _trusted=True)


def full_history(computation: Computation) -> History:
    """The complete computation viewed as a history."""
    return History(computation, (ev.eid for ev in computation.events), _trusted=True)


class LatticeChecker:
    """Temporal evaluation over the history lattice of one computation.

    Stateful only in its memo tables; safe to reuse for many formulae
    over the same computation.
    """

    def __init__(self, computation: Computation,
                 history_cap: int = DEFAULT_HISTORY_CAP):
        self._comp = computation
        self._cap = history_cap
        # memo: (formula, events, env-key, mode) -> bool; keyed on the
        # formula object itself (structural equality) rather than id() --
        # ids are reused after garbage collection, which poisons the memo
        self._memo: Dict[Tuple, bool] = {}
        self._visited = 0

    @property
    def visited(self) -> int:
        """(formula, history) pairs evaluated so far (memo misses)."""
        return self._visited

    def distinct_histories(self) -> int:
        """Distinct history prefixes in the memo -- the explored slice
        of the computation's history lattice."""
        return len({key[1] for key in self._memo})

    def _env_key(self, env: Dict) -> Tuple:
        return tuple(sorted((k, v.eid) for k, v in env.items()))

    def holds(self, formula: Formula, history: Optional[History] = None,
              env: Optional[Dict] = None) -> bool:
        """Evaluate ``formula`` at ``history`` (default: empty history)."""
        if history is None:
            history = empty_history(self._comp)
        return self._eval(formula, history, dict(env or {}))

    def _eval(self, formula: Formula, history: History, env: Dict) -> bool:
        if not formula.is_temporal():
            return formula.holds_at(history, env)
        if isinstance(formula, Henceforth):
            return self._always(formula.body, history, env)
        if isinstance(formula, Eventually):
            return self._eventually(formula.body, history, env)
        if isinstance(formula, Not):
            return not self._eval(formula.body, history, env)
        if isinstance(formula, And):
            return all(self._eval(p, history, env) for p in formula.parts)
        if isinstance(formula, Or):
            return any(self._eval(p, history, env) for p in formula.parts)
        if isinstance(formula, Implies):
            return (not self._eval(formula.antecedent, history, env)) or self._eval(
                formula.consequent, history, env
            )
        if isinstance(formula, Iff):
            return self._eval(formula.left, history, env) == self._eval(
                formula.right, history, env
            )
        if isinstance(formula, (ForAll, Exists, ExistsUnique, AtMostOne)):
            results = (
                self._eval(formula.body, history, self._bind(env, formula.var, ev))
                for ev in formula.dom.events(self._comp)
            )
            if isinstance(formula, ForAll):
                return all(results)
            if isinstance(formula, Exists):
                return any(results)
            count = 0
            for r in results:
                if r:
                    count += 1
                    if count > 1:
                        break
            return count == 1 if isinstance(formula, ExistsUnique) else count <= 1
        raise SpecificationError(
            f"lattice checker cannot handle node {type(formula).__name__} "
            "with temporal content"
        )

    @staticmethod
    def _bind(env: Dict, var: str, ev) -> Dict:
        env2 = dict(env)
        env2[var] = ev
        return env2

    def _bump(self) -> None:
        self._visited += 1
        if self._visited > self._cap:
            raise ComputationError(
                f"lattice checker visited more than {self._cap} "
                "(formula, history) pairs; raise history_cap or shrink the "
                "computation (under temporal_mode=\"auto\" regular "
                "restrictions are decided on the slice and bypass the walk)"
            )

    def _always(self, body: Formula, history: History, env: Dict) -> bool:
        """AG body: body holds at every history ⊇ ``history``."""
        key = (body, history.events, self._env_key(env), "AG")
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._bump()
        result = True
        if not self._eval(body, history, env):
            result = False
        else:
            seen = {history.events}
            stack = [history]
            while stack:
                h = stack.pop()
                for eid in h.addable():
                    nxt_events = h.events | {eid}
                    if nxt_events in seen:
                        continue
                    seen.add(nxt_events)
                    nxt = History(self._comp, nxt_events, _trusted=True)
                    self._bump()
                    if not self._eval(body, nxt, env):
                        result = False
                        stack.clear()
                        break
                    stack.append(nxt)
        self._memo[key] = result
        return result

    def _eventually(self, body: Formula, history: History, env: Dict) -> bool:
        """AF body: every maximal path from ``history`` hits a body-history."""
        key = (body, history.events, self._env_key(env), "AF")
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._bump()
        if self._eval(body, history, env):
            self._memo[key] = True
            return True
        addable = sorted(history.addable())
        if not addable:
            self._memo[key] = False
            return False
        result = all(
            self._eventually(
                body, History(self._comp, history.events | {eid}, _trusted=True), env
            )
            for eid in addable
        )
        self._memo[key] = result
        return result


def _first_failing_history(computation, body, start, env, checker, visited,
                           cap) -> Optional[History]:
    """BFS over the lattice from ``start`` for a history falsifying body."""
    seen = {start.events}
    queue = [start]
    while queue:
        h = queue.pop(0)
        visited[0] += 1
        if visited[0] > cap:
            return None
        if not checker.holds(body, h, env) if body.is_temporal() else (
                not body.holds_at(h, env)):
            return h
        for eid in sorted(h.addable()):
            nxt = h.events | {eid}
            if nxt not in seen:
                seen.add(nxt)
                queue.append(History(computation, nxt, _trusted=True))
    return None


def _path_avoiding(computation, body, start, env, checker, visited,
                   cap) -> Optional[History]:
    """A maximal history reachable from ``start`` along a path on which
    the ◇ body never holds; returns the path's final history."""

    def holds_here(h: History) -> bool:
        return (checker.holds(body, h, env) if body.is_temporal()
                else body.holds_at(h, env))

    memo: Dict[frozenset, Optional[History]] = {}

    def search(h: History) -> Optional[History]:
        key = h.events
        if key in memo:
            return memo[key]
        visited[0] += 1
        if visited[0] > cap:
            return None
        if holds_here(h):
            memo[key] = None
            return None
        addable = sorted(h.addable())
        if not addable:
            memo[key] = h
            return h
        for eid in addable:
            nxt = History(computation, h.events | {eid}, _trusted=True)
            found = search(nxt)
            if found is not None:
                memo[key] = found
                return found
        memo[key] = None
        return None

    return search(start)
