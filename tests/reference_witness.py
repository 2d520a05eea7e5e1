"""The two failure descents the one in ``repro.core.witness`` replaced.

Before :func:`repro.core.witness.descend`, the witness and the
explanation of a failed restriction each walked the formula on their
own: :func:`find_witness` with :func:`_search_immediate` /
:func:`_search_temporal` (a fresh ``LatticeChecker`` at every temporal
level), and :func:`explain_restriction` with :func:`_explain_immediate`
/ :func:`_explain_temporal`, which then called :func:`find_witness`
again for the trace's witness.  They are kept verbatim, with relative
imports made absolute; the lattice searches, :class:`Witness`,
:class:`ExplainStep` and :class:`ExplanationTrace` are the package's.
``tests/test_lattice_walk.py`` holds the one descent to them: same
witnesses, same explanations.

Not part of the package; tests only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.computation import Computation
from repro.core.event import Event
from repro.core.formula import (
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
from repro.core.history import History, empty_history, full_history
from repro.core.witness import (
    ExplainStep,
    Witness,
    _first_failing_history,
    _path_avoiding,
)
from repro.obs.explain import DEFAULT_EXPLAIN_CAP, ExplanationTrace


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
    from repro.core.checker import LatticeChecker

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




def _hist(history: History) -> Tuple[str, ...]:
    return tuple(sorted(str(e) for e in history.events))


def explain_restriction(
    computation: Computation,
    restriction: Restriction,
    history_cap: int = DEFAULT_EXPLAIN_CAP,
) -> Optional[ExplanationTrace]:
    """Explain why ``restriction`` fails on ``computation``.

    Returns None when it actually holds (or the search cannot localise
    the failure under the cap) -- mirroring :func:`find_witness`.
    """
    from repro.core.checker import LatticeChecker

    formula = restriction.formula
    if not formula.is_temporal():
        history = full_history(computation)
        if formula.holds_at(history, {}):
            return None
        root = _explain_immediate(formula, history, {})
    else:
        checker = LatticeChecker(computation, history_cap=history_cap)
        start = empty_history(computation)
        if checker.holds(formula, start):
            return None
        root = _explain_temporal(computation, formula, start, {}, checker,
                                 [0], history_cap)
    witness = find_witness(computation, restriction, history_cap=history_cap)
    return ExplanationTrace(restriction=restriction.name,
                            formula=formula.describe(), root=root,
                            witness=witness)


def _explain_immediate(formula: Formula, history: History,
                       env: Dict[str, Event]) -> ExplainStep:
    """Record the descent of ``witness._search_immediate``."""
    if isinstance(formula, ForAll):
        for ev in formula.dom.events(history.computation):
            env2 = dict(env)
            env2[formula.var] = ev
            if not formula.body.holds_at(history, env2):
                step = ExplainStep(
                    kind="forall", formula=formula.describe(),
                    note=f"∀{formula.var} fails",
                    binding=f"{formula.var} = {ev.describe()}")
                step.children.append(
                    _explain_immediate(formula.body, history, env2))
                return step
        return ExplainStep(kind="forall", formula=formula.describe(),
                           note="∀ fails (no falsifying binding located)",
                           history=_hist(history))
    if isinstance(formula, Exists):
        return ExplainStep(
            kind="exists", formula=formula.describe(),
            note=(f"∃{formula.var} fails: no event in "
                  f"{formula.dom.describe()} satisfies the body"),
            history=_hist(history))
    if isinstance(formula, Implies):
        step = ExplainStep(kind="implies", formula=formula.describe(),
                           note="⊃ fails: antecedent holds, consequent fails")
        step.children.append(
            _explain_immediate(formula.consequent, history, env))
        return step
    if isinstance(formula, And):
        for part in formula.parts:
            if not part.holds_at(history, env):
                step = ExplainStep(
                    kind="and", formula=formula.describe(),
                    note=f"∧ fails on conjunct: {part.describe()}")
                step.children.append(_explain_immediate(part, history, env))
                return step
    if isinstance(formula, Or):
        return ExplainStep(kind="or", formula=formula.describe(),
                           note="∨ fails: no disjunct holds",
                           history=_hist(history))
    if isinstance(formula, Not):
        return ExplainStep(
            kind="not", formula=formula.describe(),
            note=f"¬ fails: {formula.body.describe()} holds",
            history=_hist(history))
    if isinstance(formula, Iff):
        return ExplainStep(kind="iff", formula=formula.describe(),
                           note="≡ fails: sides disagree",
                           history=_hist(history))
    return ExplainStep(kind="atom", formula=formula.describe(),
                       note=f"fails: {formula.describe()}",
                       history=_hist(history))


def _explain_temporal(computation: Computation, formula: Formula,
                      history: History, env: Dict[str, Event],
                      checker: Any, visited: List[int],
                      cap: int) -> ExplainStep:
    """Record the descent of ``witness._search_temporal``."""
    if isinstance(formula, Henceforth):
        target = _first_failing_history(computation, formula.body, history,
                                        env, checker, visited, cap)
        step = ExplainStep(kind="henceforth", formula=formula.describe(),
                           note="□ fails at a reachable history",
                           history=_hist(target) if target is not None
                           else None)
        if target is not None:
            body = formula.body
            if body.is_temporal():
                step.children.append(_explain_temporal(
                    computation, body, target, env, checker, visited, cap))
            else:
                step.children.append(
                    _explain_immediate(body, target, env))
        return step
    if isinstance(formula, Eventually):
        terminal = _path_avoiding(computation, formula.body, history, env,
                                  checker, visited, cap)
        return ExplainStep(
            kind="eventually", formula=formula.describe(),
            note="◇ fails: a maximal path never satisfies the body "
                 "(shown: its final history)",
            history=_hist(terminal) if terminal is not None else None)
    if isinstance(formula, ForAll):
        for ev in formula.dom.events(computation):
            env2 = dict(env)
            env2[formula.var] = ev
            if not checker.holds(formula.body, history, env2):
                step = ExplainStep(
                    kind="forall", formula=formula.describe(),
                    note=f"∀{formula.var} fails",
                    binding=f"{formula.var} = {ev.describe()}")
                step.children.append(_explain_temporal(
                    computation, formula.body, history, env2, checker,
                    visited, cap))
                return step
    if isinstance(formula, Implies):
        step = ExplainStep(kind="implies", formula=formula.describe(),
                           note="⊃ fails: antecedent holds, consequent fails")
        step.children.append(_explain_temporal(
            computation, formula.consequent, history, env, checker, visited,
            cap))
        return step
    if isinstance(formula, And):
        for part in formula.parts:
            if not checker.holds(part, history, env):
                step = ExplainStep(
                    kind="and", formula=formula.describe(),
                    note=f"∧ fails on conjunct: {part.describe()}")
                step.children.append(_explain_temporal(
                    computation, part, history, env, checker, visited, cap))
                return step
    if formula.is_temporal():
        return ExplainStep(kind="temporal", formula=formula.describe(),
                           note=f"fails: {formula.describe()}",
                           history=_hist(history))
    return _explain_immediate(formula, history, env)
