"""Checking computations against GEM specifications.

This is the "tool" half of the paper's title: given a computation C and
a specification σ, decide ``legal(C, σ)`` and report *why not* when the
answer is no.

Immediate restrictions are evaluated once, by the interpreter, at the
complete computation.  Temporal restrictions (containing □ or ◇) are
interpreted over valid history sequences (Section 7), by a kernel
that is not part of the semantics: ``temporal_mode`` takes one of
three values, all deciding the same ``legal(C, σ)``.

``auto`` (default)
    The production route chain.  A temporal restriction is decided by
    the first route that can decide it, in this order:

    1. an early verdict from ``decided`` (the exploration-time
       automaton monitor of :mod:`repro.core.automata`);
    2. the DFA leaf: restrictions whose automaton is leaf-resolvable
       (◇ with monotone bodies) are evaluated at the full history;
    3. the slice (:mod:`repro.core.slice`): regular and linear shapes
       are decided exactly on the join-closed sublattice of
       satisfying cuts;
    4. the lattice interpreter, for what the slice declines
       (``PyPred`` and other opaque nodes, shapes outside its
       fragment).

    The outcome's ``provenance`` records which step decided it.

    Which steps a restriction is offered is a static fact of its
    formula: :mod:`repro.core.plan` works out each restriction's route
    once per specification (a leaf-resolvable automaton always decides
    at step 2), and one :class:`~repro.core.plan.CheckContext` per
    computation builds each backend the first time a route reaches it.

``lattice``
    The reference interpreter: evaluate recursively over the lattice
    of histories, reading □ as "at every history reachable from here"
    (AG) and ◇ as "on every path from here, eventually" (AF), with
    memoisation keyed by (subformula, history, relevant bindings).
    Histories are bitmasks over event positions, and □/◇ run through
    :class:`~repro.core.history.LatticeWalk`.

``exact``
    Enumerate maximal valid history sequences from the empty history and
    require the formula to hold on every one.  With ``max_step=1`` the
    sequences are the linear extensions of the temporal order; with
    ``max_step=None`` arbitrary antichain steps are allowed (the full
    Section 7 semantics).  Exact but exponential; use for small
    computations and cross-validation.

The two single-route modes are references the ``auto`` chain is
differentially tested against.  Failure explanations and witnesses are
always produced by the interpreter, so detail strings and diagnostics
are identical across every mode that walks the lattice.

The lattice/exact modes agree on the formula shapes used throughout this
reproduction.  For ``□p`` with immediate ``p`` they agree always: a vhs
visits only reachable histories, and every reachable history lies on
some maximal vhs.  For ``◇p`` and for nesting like ``□(p ⊃ ◇q)`` they
agree whenever the temporal operands are *monotone* assertions
(built from ``occurred``, conjunction, disjunction, and quantifiers
— once true of a history, true of every extension), which covers every
temporal restriction in this repository; ``tests/test_checker.py``
cross-validates the modes on randomised computations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .computation import Computation
from .errors import SpecificationError
from .formula import (
    And,
    Eventually,
    Exists,
    ExistsUnique,
    AtMostOne,
    ForAll,
    Formula,
    Henceforth,
    Iff,
    Implies,
    Not,
    Or,
    Restriction,
)
from .history import (
    History,
    LatticeWalk,
    empty_history,
    full_history,
    maximal_history_sequences,
)
from .legality import check_legality
from .plan import CheckContext, SpecPlan, plan_for
from .specification import Specification

#: Default cap on exact-mode vhs enumeration.
DEFAULT_VHS_CAP = 20_000
#: Default cap on distinct histories explored in lattice mode.
DEFAULT_HISTORY_CAP = 2_000_000


@dataclass(frozen=True)
class RestrictionOutcome:
    """Verdict for one restriction on one computation.

    ``provenance`` records which route of the ``auto`` chain decided
    a temporal verdict -- ``"dfa-early"`` (the exploration-time
    automaton monitor decided it on a proper prefix and the check was
    skipped), ``"dfa"`` (restriction automaton resolved it at the full
    history, no walk), ``"slice"`` (exact, no lattice walk) or
    ``"walk"`` (slice declined, the interpreter's walk decided it);
    empty for immediate restrictions and the single-route modes.
    Excluded from equality and ``__str__`` so report signatures and
    differential oracles stay byte-identical across modes.
    """

    name: str
    holds: bool
    detail: str = ""
    provenance: str = field(default="", compare=False)

    def __str__(self) -> str:
        verdict = "OK " if self.holds else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{verdict}] {self.name}{suffix}"


@dataclass
class CheckResult:
    """Outcome of checking one computation against one specification."""

    spec_name: str
    legality_violations: List = field(default_factory=list)
    outcomes: List[RestrictionOutcome] = field(default_factory=list)
    #: temporal restrictions decided exactly on the slice / via the walk
    #: after the slice declined (both 0 outside ``temporal_mode="auto"``)
    slice_hits: int = 0
    slice_fallbacks: int = 0
    #: temporal restrictions decided by the automaton route -- early
    #: (monitor verdicts) or at the full history (leaf-resolvable); 0
    #: outside ``temporal_mode="auto"``
    dfa_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.legality_violations and all(o.holds for o in self.outcomes)

    def failed_restrictions(self) -> List[str]:
        return [o.name for o in self.outcomes if not o.holds]

    def summary(self) -> str:
        lines = [
            f"check against {self.spec_name!r}: "
            f"{'LEGAL' if self.ok else 'ILLEGAL'}"
        ]
        for v in self.legality_violations:
            lines.append(f"  legality: {v}")
        for o in self.outcomes:
            lines.append(f"  {o}")
        return "\n".join(lines)


class LatticeChecker:
    """Temporal evaluation over the history lattice of one computation.

    Stateful only in its memo tables; safe to reuse for many formulae
    over the same computation.  □ and ◇ run through the computation's
    shared :class:`~repro.core.history.LatticeWalk` on history masks,
    with this interpreter's formula evaluation as the leaf; ◇ visits
    children in sorted-``EventId`` order.
    """

    def __init__(self, computation: Computation,
                 history_cap: int = DEFAULT_HISTORY_CAP):
        self._comp = computation
        self.walk = LatticeWalk(computation, history_cap, "lattice checker")
        # memo: (□/◇ formula, env-key) -> {history mask: bool}; keyed
        # on the formula object itself (structural equality) rather than
        # id() -- ids are reused after garbage collection, which poisons
        # the memo
        self._memo: Dict[Tuple, Dict[int, bool]] = {}

    @property
    def visited(self) -> int:
        """(formula, history) pairs evaluated so far (memo misses)."""
        return self.walk.visited

    def holds(self, formula: Formula, history: Optional[History] = None,
              env: Optional[Dict] = None) -> bool:
        """Evaluate ``formula`` at ``history`` (default: empty history)."""
        if history is None:
            history = empty_history(self._comp)
        return self._eval(formula, history, dict(env or {}))

    def _eval(self, formula: Formula, history: History, env: Dict) -> bool:
        if not formula.is_temporal():
            return formula.holds_at(history, env)
        if isinstance(formula, (Henceforth, Eventually)):
            walk = (self.walk.always if isinstance(formula, Henceforth)
                    else self.walk.eventually)
            key = (formula, tuple(sorted((k, v.eid) for k, v in env.items())))
            return walk(self._leaf(formula.body), history.mask, env,
                        self._memo.setdefault(key, {}))
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

    def _leaf(self, body: Formula):
        """``body`` evaluated at a history mask: the walk's leaf."""
        comp = self._comp
        if not body.is_temporal():
            return lambda mask, env: body.holds_at(
                History.of_mask(comp, mask), env)
        evaluate = self._eval
        return lambda mask, env: evaluate(body, History.of_mask(comp, mask),
                                          env)


#: Every accepted ``temporal_mode``: the production chain, then the
#: two single-route references it is differentially tested against.
TEMPORAL_MODES = ("auto", "lattice", "exact")


def check_restriction(
    computation: Computation,
    restriction: Restriction,
    temporal_mode: str = "auto",
    vhs_cap: int = DEFAULT_VHS_CAP,
    max_step: Optional[int] = 1,
    history_cap: int = DEFAULT_HISTORY_CAP,
    with_witness: bool = False,
    decided: Optional[Dict[str, bool]] = None,
    context: Optional[CheckContext] = None,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
) -> RestrictionOutcome:
    """Check a single restriction on a (thread-labelled) computation.

    ``temporal_mode`` is one of :data:`TEMPORAL_MODES` (see the module
    docstring).  Under ``"auto"`` the restriction follows its plan's
    route (:class:`repro.core.plan.RestrictionPlan`): a temporal
    restriction is offered, in order, to ``decided`` (the
    exploration-time automaton monitor's early verdicts, semantically
    equal to what this check would derive; ``provenance="dfa-early"``),
    to its restriction automaton when that is leaf-resolvable
    (``provenance="dfa"``), and to :class:`repro.core.slice.SliceChecker`
    (``provenance="slice"``, or ``"walk"`` when the slice declines and
    the interpreter decides).  An immediate restriction takes no route:
    it is one interpreter evaluation at the complete computation, in
    every mode.
    ``decided`` is ignored by the single-route modes.  Every
    route yields the same verdict and detail string -- failing verdicts
    re-derive witnesses and explanations through the interpreter via
    ``fail()`` -- and the route differential in the tests and the
    ``route-differential`` / ``dfa-differential`` fuzz oracles gate that.

    With ``with_witness``, a failing outcome's detail carries a located
    counterexample (the failing history and quantifier bindings) from
    :func:`repro.core.witness.descend`.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`, duck-typed so
    this module needs no obs import) receives ``checker.evals`` /
    ``checker.seconds`` per restriction (plus, for □/◇ restrictions,
    the ``checker.dfa_*`` / ``checker.slice_*`` routing counters).
    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the
    evaluation in a ``restriction`` span, and on failure is handed the
    same descent (``tracer.explain``), which it records as a subformula
    evaluation trace (:mod:`repro.obs.explain`) explaining which
    binding / history prefix / temporal unrolling flipped the verdict.
    A failure runs that descent once, through the reference
    interpreter, whether the witness, the trace or both ask for it.

    ``context`` (a :class:`repro.core.plan.CheckContext`) carries the
    plan and the computation's backends that :func:`check_computation`
    shares across a spec's restrictions.  Without it the restriction is
    planned on the spot.
    """
    if temporal_mode not in TEMPORAL_MODES:
        raise SpecificationError(
            f"unknown temporal_mode {temporal_mode!r}; expected one of "
            f"{', '.join(TEMPORAL_MODES)}")
    if context is None:
        context = CheckContext(SpecPlan((restriction,)), computation,
                               history_cap)
    planned = context.plan.restrictions[restriction.name]
    name = restriction.name
    formula = restriction.formula
    temporal = planned.temporal
    tracing = tracer is not None and getattr(tracer, "enabled", False)

    def fail(detail: str) -> RestrictionOutcome:
        if tracing or with_witness:
            from .witness import descend

            found = descend(computation, restriction, history_cap)
            if found is not None:
                if tracing:
                    tracer.explain(restriction, found)
                if with_witness:
                    detail = f"{detail}; witness: {found[1].describe()}"
        return RestrictionOutcome(name, False, detail)

    def verdict(holds: bool) -> RestrictionOutcome:
        # detail strings match the interpreter byte for byte, and fail()
        # re-derives witnesses/explanations through the interpreter, so
        # failure output is route-invariant
        if holds:
            return RestrictionOutcome(name, True)
        return fail("fails over the history lattice" if temporal
                    else "fails at complete computation")

    def count(metric: str, value: int = 1) -> None:
        if metrics is not None:
            metrics.inc(metric, value, restriction=name)

    #: the auto route that decided (or declined) a temporal verdict
    provenance = [""]
    #: lattice visits (or vhs count), at least 1 for the top-level pass
    evals = [0]

    def step(route: str) -> Optional[RestrictionOutcome]:
        """One backend of the route; ``None`` hands over to the next."""
        if route == "dfa-early":
            if decided is None or name not in decided:
                return None
            provenance[0] = "dfa-early"
            count("checker.dfa_early")
            return verdict(decided[name])
        if route == "dfa":
            provenance[0] = "dfa"
            count("checker.dfa_hits")
            return verdict(planned.automaton.resolve_at_top(computation))
        if route == "slice":
            sliced = context.slice.analyze(restriction).verdict
            if sliced is None:
                provenance[0] = "walk"
                count("checker.slice_fallbacks")
                return None
            provenance[0] = "slice"
            count("checker.slice_hits")
            return verdict(sliced)
        if route == "lattice":
            checker = context.lattice
            visited_before = checker.visited
            holds = checker.holds(formula)
            evals[0] = checker.visited - visited_before
            return verdict(holds)
        # route == "exact"
        for seq in maximal_history_sequences(computation, cap=vhs_cap,
                                             max_step=max_step):
            evals[0] += 1
            if not formula.holds_on(seq):
                return RestrictionOutcome(
                    name, False,
                    f"fails on vhs #{evals[0]} (steps: "
                    f"{[sorted(map(str, h.events)) for h in seq]})")
        return RestrictionOutcome(name, True,
                                  f"holds on all {evals[0]} maximal vhs")

    routes = planned.route if temporal_mode == "auto" else (temporal_mode,)

    def decide() -> RestrictionOutcome:
        if not temporal:
            return verdict(formula.holds_at(full_history(computation)))
        for route in routes:
            outcome = step(route)
            if outcome is not None:
                return outcome
        raise AssertionError(f"route {routes} decided nothing")

    def stamp(outcome: RestrictionOutcome) -> RestrictionOutcome:
        if provenance[0]:
            return replace(outcome, provenance=provenance[0])
        return outcome

    if metrics is None and not tracing:
        return stamp(decide())

    started = time.perf_counter()
    if tracing:
        with tracer.span("restriction", attrs={"name": name}):
            outcome = decide()
    else:
        outcome = decide()
    if metrics is not None:
        metrics.inc("checker.evals", max(evals[0], 1), restriction=name)
        metrics.observe("checker.seconds", time.perf_counter() - started,
                        restriction=name)
    return stamp(outcome)


def check_computation(
    computation: Computation,
    spec: Specification,
    temporal_mode: str = "auto",
    vhs_cap: int = DEFAULT_VHS_CAP,
    max_step: Optional[int] = 1,
    history_cap: int = DEFAULT_HISTORY_CAP,
    label_threads: bool = True,
    decided: Optional[Dict[str, bool]] = None,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
) -> CheckResult:
    """Full ``legal(C, σ)`` check: legality rules plus every restriction.

    Thread labels are (re)applied before restriction evaluation unless
    ``label_threads`` is false (pass false when the computation already
    carries labels you want preserved exactly).

    Every restriction follows the route of the specification's
    :class:`~repro.core.plan.SpecPlan` (built once per specification
    content, so engine workers inherit it across computations) through
    one :class:`~repro.core.plan.CheckContext` per computation: the
    slice and the interpreter are built the first time a route reaches
    them and shared after that.

    ``metrics``/``tracer`` thread through to :func:`check_restriction`;
    the histories the interpreter's lattice walk expanded for this
    computation (0 when no route reached it) land in the
    ``checker.lattice_histories`` histogram.
    """
    result = CheckResult(spec.name)
    result.legality_violations = check_legality(computation, spec)
    labelled = spec.label_threads(computation) if label_threads else computation
    context = plan_for(spec).bind(labelled, history_cap)
    for restriction in spec.all_restrictions():
        result.outcomes.append(
            check_restriction(
                labelled,
                restriction,
                temporal_mode=temporal_mode,
                vhs_cap=vhs_cap,
                max_step=max_step,
                history_cap=history_cap,
                decided=decided,
                context=context,
                metrics=metrics,
                tracer=tracer,
            )
        )
    result.slice_hits = sum(
        1 for o in result.outcomes if o.provenance == "slice")
    result.slice_fallbacks = sum(
        1 for o in result.outcomes if o.provenance == "walk")
    result.dfa_hits = sum(
        1 for o in result.outcomes if o.provenance in ("dfa", "dfa-early"))
    if metrics is not None:
        metrics.inc("checker.computations")
        if temporal_mode != "exact":
            metrics.observe("checker.lattice_histories", context.explored(),
                            spec=spec.name)
    return result


def check_safety_at_all_histories(
    computation: Computation, formula: Formula,
    history_cap: int = DEFAULT_HISTORY_CAP,
) -> bool:
    """Convenience: does an immediate ``formula`` hold at *every* history?

    Equivalent to checking ``□ formula`` over all valid history
    sequences (every reachable history lies on some maximal vhs).
    """
    checker = LatticeChecker(computation, history_cap)
    return checker.holds(Henceforth(formula))
