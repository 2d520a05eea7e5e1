"""Counterexamples and explanations for failed restrictions: one descent.

A bare "restriction R fails" is a poor verdict for a verification tool;
this module recovers *where* and *under which bindings* a formula
failed, and *how* the verdict was reached.  :func:`descend` walks the
failing formula once, over one shared
:class:`~repro.core.checker.LatticeChecker`:

* quantifiers and connectives: descend into the falsifying binding
  (for ∀), the failing conjunct, or the consequent of a failing ⊃;
  ∃, ∨, ¬, ≡ and atoms are leaves;
* □: breadth-first search of the history lattice for the first history
  falsifying the body, then descend into the body there;
* ◇: a maximal path on which the body never holds, reported by its
  final history (a leaf).

It records the walk as a tree of :class:`ExplainStep` nodes (rendered
by :mod:`repro.obs.explain`); the :class:`Witness` is the leaf it
reaches: that history, the bindings there, and the trail of phrases
along the path.  It runs only on failure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .computation import Computation
from .errors import HistoryCapExceeded
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


def _names(history: History) -> Tuple[str, ...]:
    return tuple(sorted(str(e) for e in history.events))


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
        lines = [f"at history {{{', '.join(_names(self.history))}}}"]
        for var, ev in self.bindings.items():
            lines.append(f"  {var} = {ev.describe()}")
        lines.extend(f"  {t}" for t in self.trail)
        return "\n".join(lines)


@dataclass
class ExplainStep:
    """One node of the failing descent.

    ``history`` is the (sorted, stringified) event set of the history at
    which this step's verdict was taken, when the step pinned one down
    -- □/◇ steps and leaves do, the others inherit their parent's.
    """

    kind: str
    formula: str
    note: str
    history: Optional[Tuple[str, ...]] = None
    binding: Optional[str] = None
    children: List["ExplainStep"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "formula": self.formula,
                               "note": self.note}
        if self.history is not None:
            out["history"] = list(self.history)
        if self.binding is not None:
            out["binding"] = self.binding
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


#: A descent's result: the root of the explanation, and the witness at
#: its leaf.
Found = Tuple[ExplainStep, Witness]


def descend(
    computation: Computation,
    restriction: Restriction,
    history_cap: int = 500_000,
) -> Optional[Found]:
    """The failing descent of ``restriction`` on ``computation``.

    Returns None when the restriction holds, or when a lattice search
    gives up at ``history_cap`` visits (counted across all of the
    descent's □/◇ searches, and separately by the shared checker's own
    walk) and so cannot localise the failure.
    """
    from .checker import LatticeChecker  # lazy: keeps layering one-way

    checker = LatticeChecker(computation, history_cap=history_cap)
    visited = [0]

    def walk(formula: Formula, history: History, env: Dict[str, Event],
             trail: List[str]) -> Optional[Found]:
        """Why ``formula`` is false at ``history`` under ``env``."""
        text = formula.describe()

        def leaf(kind: str, note: str, phrase: str,
                 at: History = history) -> Found:
            return (ExplainStep(kind, text, note, history=_names(at)),
                    Witness(at, dict(env), trail + [phrase]))

        def node(kind: str, note: str, found: Optional[Found],
                 at: Optional[History] = None,
                 binding: Optional[str] = None) -> Optional[Found]:
            if found is None:
                return None
            step = ExplainStep(kind, text, note, binding=binding,
                               history=None if at is None else _names(at),
                               children=[found[0]])
            return step, found[1]

        if isinstance(formula, Henceforth):
            target = _first_failing_history(computation, formula.body,
                                            history, env, checker, visited,
                                            history_cap)
            if target is None:
                return None
            phrase = "□ fails at a reachable history"
            return node("henceforth", phrase,
                        walk(formula.body, target, env, trail + [phrase]),
                        at=target)
        if isinstance(formula, Eventually):
            terminal = _path_avoiding(computation, formula.body, history,
                                      env, checker, visited, history_cap)
            if terminal is None:
                return None
            return leaf("eventually",
                        "◇ fails: a maximal path never satisfies the body "
                        "(shown: its final history)",
                        "a maximal path never satisfies the ◇ body; "
                        "shown: its final history", at=terminal)
        if isinstance(formula, ForAll):
            for ev in formula.dom.events(computation):
                env2 = {**env, formula.var: ev}
                if not checker.holds(formula.body, history, env2):
                    binding = f"{formula.var} = {ev.describe()}"
                    return node("forall", f"∀{formula.var} fails",
                                walk(formula.body, history, env2,
                                     trail + [f"∀ fails for {binding}"]),
                                binding=binding)
            if not formula.is_temporal():
                return leaf("forall",
                            "∀ fails (no falsifying binding located)",
                            f"fails: {text}")
        if isinstance(formula, Implies):
            return node("implies",
                        "⊃ fails: antecedent holds, consequent fails",
                        walk(formula.consequent, history, env,
                             trail + ["antecedent holds, consequent fails"]))
        if isinstance(formula, And):
            for part in formula.parts:
                if not checker.holds(part, history, env):
                    return node("and",
                                f"∧ fails on conjunct: {part.describe()}",
                                walk(part, history, env,
                                     trail + ["conjunct fails: "
                                              f"{part.describe()}"]))
        if formula.is_temporal():
            return leaf("temporal", f"fails: {text}", f"fails: {text}")
        if isinstance(formula, Exists):
            return leaf("exists",
                        f"∃{formula.var} fails: no event in "
                        f"{formula.dom.describe()} satisfies the body",
                        f"no {formula.var} in {formula.dom.describe()} "
                        "satisfies the body")
        if isinstance(formula, Or):
            return leaf("or", "∨ fails: no disjunct holds",
                        "no disjunct holds")
        if isinstance(formula, Not):
            body = formula.body.describe()
            return leaf("not", f"¬ fails: {body} holds",
                        f"negated formula holds: {body}")
        if isinstance(formula, Iff):
            return leaf("iff", "≡ fails: sides disagree", "sides disagree")
        return leaf("atom", f"fails: {text}", f"fails: {text}")

    formula = restriction.formula
    start = (empty_history(computation) if formula.is_temporal()
             else full_history(computation))
    try:
        if checker.holds(formula, start):
            return None
        return walk(formula, start, {}, [])
    except HistoryCapExceeded:
        return None  # the shared checker's own walk ran past the cap


def find_witness(
    computation: Computation,
    restriction: Restriction,
    history_cap: int = 500_000,
) -> Optional[Witness]:
    """A counterexample for ``restriction`` on ``computation``, or None.

    Returns None when the restriction actually holds (or when the search
    cannot localise the failure below the given cap).
    """
    found = descend(computation, restriction, history_cap)
    return None if found is None else found[1]


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
