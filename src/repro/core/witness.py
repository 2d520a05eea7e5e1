"""Counterexample extraction for failed restrictions.

A bare "restriction R fails" is a poor verdict for a verification tool;
this module recovers *where* and *under which bindings* a formula
failed, so reports can show the offending history and events.

Witness search mirrors formula evaluation:

* immediate formulae: descend through quantifiers collecting the
  binding that falsifies (for ∀ / satisfies for ∃-failure counts) and
  report it with the history;
* temporal formulae: search the history lattice for a failing history
  (for □-shaped failures) or a maximal path that never satisfies the
  body (for ◇-shaped failures, reported by its final history).

The search re-evaluates subformulae, so it costs about as much as the
original check; it is invoked only on failure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .computation import Computation
from .event import Event
from .formula import (
    And,
    Eventually,
    Exists,
    ForAll,
    Formula,
    Henceforth,
    Iff,
    Implies,
    Not,
    Or,
    Restriction,
)
from .history import History, empty_history, full_history


@dataclass
class Witness:
    """A counterexample: the failing history plus the event bindings.

    ``history`` is the prefix at which the innermost immediate formula
    evaluated the wrong way; ``bindings`` are the quantified events that
    produced the failure, outermost first; ``trail`` is a human-readable
    account of the descent.
    """

    history: History
    bindings: Dict[str, Event] = field(default_factory=dict)
    trail: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = []
        occurred = sorted(str(e) for e in self.history.events)
        lines.append(f"at history {{{', '.join(occurred)}}}")
        for var, ev in self.bindings.items():
            lines.append(f"  {var} = {ev.describe()}")
        lines.extend(f"  {t}" for t in self.trail)
        return "\n".join(lines)


def find_witness(
    computation: Computation,
    restriction: Restriction,
    history_cap: int = 500_000,
) -> Optional[Witness]:
    """A counterexample for ``restriction`` on ``computation``, or None.

    Returns None when the restriction actually holds (or when the search
    cannot localise the failure below the given cap).
    """
    formula = restriction.formula
    if not formula.is_temporal():
        history = full_history(computation)
        return _search_immediate(formula, history, {}, [])
    return _search_temporal(computation, formula, empty_history(computation),
                            {}, [], [0], history_cap)


def _search_immediate(
    formula: Formula, history: History, env: Dict[str, Event],
    trail: List[str],
) -> Optional[Witness]:
    """Find why an immediate formula is false at ``history``."""
    if formula.holds_at(history, env):
        return None
    if isinstance(formula, ForAll):
        for ev in formula.dom.events(history.computation):
            env2 = dict(env)
            env2[formula.var] = ev
            if not formula.body.holds_at(history, env2):
                return _search_immediate(
                    formula.body, history, env2,
                    trail + [f"∀ fails for {formula.var} = {ev.describe()}"],
                )
    elif isinstance(formula, Exists):
        return Witness(history, dict(env),
                       trail + [f"no {formula.var} in "
                                f"{formula.dom.describe()} satisfies the body"])
    elif isinstance(formula, Implies):
        return _search_immediate(formula.consequent, history, env,
                                 trail + ["antecedent holds, consequent fails"])
    elif isinstance(formula, And):
        for part in formula.parts:
            if not part.holds_at(history, env):
                return _search_immediate(
                    part, history, env,
                    trail + [f"conjunct fails: {part.describe()}"])
    elif isinstance(formula, Or):
        return Witness(history, dict(env),
                       trail + ["no disjunct holds"])
    elif isinstance(formula, Not):
        return Witness(history, dict(env),
                       trail + [f"negated formula holds: "
                                f"{formula.body.describe()}"])
    elif isinstance(formula, Iff):
        return Witness(history, dict(env), trail + ["sides disagree"])
    return Witness(history, dict(env),
                   trail + [f"fails: {formula.describe()}"])


def _search_temporal(
    computation: Computation,
    formula: Formula,
    history: History,
    env: Dict[str, Event],
    trail: List[str],
    visited: List[int],
    cap: int,
) -> Optional[Witness]:
    """Find a failing history for a temporal formula (lattice semantics)."""
    from .checker import LatticeChecker

    checker = LatticeChecker(computation, history_cap=cap)
    if checker.holds(formula, history, env):
        return None

    if isinstance(formula, Henceforth):
        target = _first_failing_history(computation, formula.body, history,
                                        env, checker, visited, cap)
        if target is not None:
            body = formula.body
            sub_trail = trail + ["□ fails at a reachable history"]
            if body.is_temporal():
                return _search_temporal(computation, body, target, env,
                                        sub_trail, visited, cap)
            return (_search_immediate(body, target, env, sub_trail)
                    or Witness(target, dict(env), sub_trail))
    if isinstance(formula, Eventually):
        terminal = _path_avoiding(computation, formula.body, history, env,
                                  checker, visited, cap)
        if terminal is not None:
            return Witness(
                terminal, dict(env),
                trail + ["a maximal path never satisfies the ◇ body; "
                         "shown: its final history"])
    if isinstance(formula, ForAll):
        for ev in formula.dom.events(computation):
            env2 = dict(env)
            env2[formula.var] = ev
            if not checker.holds(formula.body, history, env2):
                return _search_temporal(
                    computation, formula.body, history, env2,
                    trail + [f"∀ fails for {formula.var} = {ev.describe()}"],
                    visited, cap)
    if isinstance(formula, Implies):
        return _search_temporal(computation, formula.consequent, history, env,
                                trail + ["antecedent holds, consequent fails"],
                                visited, cap)
    if isinstance(formula, And):
        for part in formula.parts:
            if not checker.holds(part, history, env):
                return _search_temporal(
                    computation, part, history, env,
                    trail + [f"conjunct fails: {part.describe()}"],
                    visited, cap)
    # other shapes: report at the current history
    if formula.is_temporal():
        return Witness(history, dict(env),
                       trail + [f"fails: {formula.describe()}"])
    return (_search_immediate(formula, history, env, trail)
            or Witness(history, dict(env), trail))


def _holds_at(checker, body, computation, mask, env) -> bool:
    h = History.of_mask(computation, mask)
    return (checker.holds(body, h, env) if body.is_temporal()
            else body.holds_at(h, env))


def _first_failing_history(computation, body, start, env, checker, visited,
                           cap) -> Optional[History]:
    """BFS over the lattice from ``start`` for a history falsifying body,
    queueing children in sorted-``EventId`` order."""
    walk = checker.walk
    seen = {start.mask}
    queue = deque([start.mask])
    while queue:
        mask = queue.popleft()
        visited[0] += 1
        if visited[0] > cap:
            return None
        if not _holds_at(checker, body, computation, mask, env):
            return History.of_mask(computation, mask)
        for i in walk.by_id(walk.addable(mask)):
            nxt = mask | 1 << i
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return None


def _path_avoiding(computation, body, start, env, checker, visited,
                   cap) -> Optional[History]:
    """A maximal history reachable from ``start`` along a path on which
    the ◇ body never holds (children tried in sorted-``EventId`` order);
    returns the path's final history."""
    walk = checker.walk
    memo: Dict[int, Optional[int]] = {}

    def search(mask: int) -> Optional[int]:
        if mask in memo:
            return memo[mask]
        visited[0] += 1
        if visited[0] > cap:
            return None
        found = None
        if not _holds_at(checker, body, computation, mask, env):
            addable = walk.addable(mask)
            found = None if addable else mask
            for i in walk.by_id(addable):
                found = search(mask | 1 << i)
                if found is not None:
                    break
        memo[mask] = found
        return found

    found = search(start.mask)
    return None if found is None else History.of_mask(computation, found)
