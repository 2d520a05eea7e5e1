"""One restriction plan per specification.

GEM decides ``legal(C, σ)`` restriction by restriction (Section 7), and
the checker has several routes to each verdict: the exploration
monitor's early verdict, the DFA leaf, the slice, the compiled walk and
the lattice interpreter.  Which route a restriction takes is mostly a
static fact of its formula.  This module works those facts out once per
specification *content* and hands them to every route:

* :func:`shape` -- the one formula analysis: temporal or not, opaque
  ``PyPred`` content, quantifier count, compilability and the history
  polarity (free / monotone / antitone) of every node, memoised on the
  node itself;
* :class:`RestrictionPlan` -- per restriction, its shape, its
  restriction automaton (:mod:`repro.core.automata`; kind, reason and
  alphabet) and its ordered route;
* :class:`SpecPlan` -- the plans of a specification's restrictions plus
  the automata census, memoised by :func:`spec_fingerprint` in
  :func:`plan_for`, so resident serve workers that rebuild a resubmitted
  specification reuse it;
* :class:`CheckContext` -- one computation's backends (slice, compiled
  closures, interpreter), each built on first use by the route that
  needs it.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .formula import (
    And,
    AtControl,
    AtElement,
    AtMostOne,
    Concurrent,
    Const,
    DataCmp,
    DataEq,
    DistinctThreads,
    ElementPrecedes,
    Enables,
    EventEq,
    Eventually,
    Exists,
    ExistsUnique,
    FalseF,
    ForAll,
    Formula,
    Henceforth,
    Iff,
    Implies,
    New,
    Not,
    Occurred,
    Or,
    Param,
    Potential,
    PyPred,
    Restriction,
    SameThread,
    TemporallyPrecedes,
    TrueF,
)

#: Atoms whose value depends only on the bound events and the
#: computation's (extension-stable) relations -- never on the history.
HISTORY_INDEPENDENT = (TrueF, FalseF, Concurrent, EventEq, DataEq,
                       DataCmp, SameThread, DistinctThreads)
#: Atoms monotone-increasing in the history (each is "relation holds and
#: the operands occurred"): once true at a cut, true at every extension.
MONOTONE_ATOMS = (Occurred, AtElement, Enables, ElementPrecedes,
                  TemporallyPrecedes)
#: Atoms extension-stable at a *fixed* cut but not monotone (``new``,
#: ``potential``, ``at`` can flip in both directions as the cut grows).
STABLE_ATOMS = (New, Potential, AtControl)

QUANTIFIERS = (ForAll, Exists, ExistsUnique, AtMostOne)
#: Formula types the compiler translates, matched by exact type: a user
#: subclass with overridden semantics falls back to the interpreter
#: rather than being silently compiled as its base class.
_COMPILED_LEAVES = frozenset((TrueF, FalseF, Occurred, AtElement, Enables,
                              ElementPrecedes, TemporallyPrecedes,
                              Concurrent, EventEq, New, Potential,
                              SameThread, DistinctThreads, AtControl))
_COMPILED_NODES = frozenset((Not, And, Or, Implies, Iff, Henceforth,
                             Eventually) + QUANTIFIERS)


class Shape(NamedTuple):
    """What every route needs to know about one formula node.

    The polarities describe the value at a history under the lattice
    semantics (□ = AG, ◇ = AF) with quantifier domains fixed: ``free``
    ignores the history, ``up`` once true stays true at every extension,
    ``down`` once false stays false.  ``free`` implies both.
    """

    temporal: bool
    pypred: bool
    quantifiers: int
    free: bool
    up: bool
    down: bool
    #: why the compiler cannot translate the node ("" when it can)
    uncompiled: str

    @property
    def monotone(self) -> bool:
        """Monotone and free of □/◇: the DFA certificates' notion."""
        return self.up and not self.temporal


def shape(f: Formula) -> Shape:
    """The node's :class:`Shape`, analysed once and kept on the node."""
    memo = f.__dict__.get("_shape")
    if memo is None:
        memo = f.__dict__["_shape"] = _analyze(f)
    return memo


def _analyze(f: Formula) -> Shape:
    kids = [shape(c) for c in f._children()]
    if isinstance(f, HISTORY_INDEPENDENT):
        free = up = down = True
    elif isinstance(f, MONOTONE_ATOMS):
        free, up, down = False, True, False
    elif isinstance(f, Not):
        free, up, down = kids[0].free, kids[0].down, kids[0].up
    elif isinstance(f, (And, Or)):
        free = all(k.free for k in kids)
        up = all(k.up for k in kids)
        down = all(k.down for k in kids)
    elif isinstance(f, Implies):
        ante, cons = kids
        free = ante.free and cons.free
        up, down = ante.down and cons.up, ante.up and cons.down
    elif isinstance(f, (Iff, ExistsUnique, AtMostOne)):
        # equivalences and tallies keep no polarity unless constant
        free = up = down = all(k.free for k in kids)
    elif isinstance(f, (ForAll, Exists)):
        free, up, down = kids[0].free, kids[0].up, kids[0].down
    elif isinstance(f, Henceforth):
        # AG is monotone; of a monotone body it is the body itself
        free, up, down = kids[0].free, True, kids[0].free
    elif isinstance(f, Eventually):
        # AF of a monotone body is the body at the complete history
        free = up = down = kids[0].up
    else:  # STABLE_ATOMS, PyPred, unknown nodes
        free = up = down = False
    return Shape(
        temporal=f.is_temporal(),
        pypred=isinstance(f, PyPred) or any(k.pypred for k in kids),
        quantifiers=(isinstance(f, QUANTIFIERS)
                     + sum(k.quantifiers for k in kids)),
        free=free, up=up, down=down,
        uncompiled=_uncompiled(f, kids))


def _uncompiled(f: Formula, kids) -> str:
    t = type(f)
    if t in _COMPILED_LEAVES:
        return ""
    if t is DataEq or t is DataCmp:
        if t is DataCmp and f.op not in DataCmp._OPS:
            return f"unknown comparison {f.op!r}"
        for term in (f.left, f.right):
            if type(term) not in (Const, Param):
                return f"no compiled form for term {type(term).__name__}"
        return ""
    if t in _COMPILED_NODES:
        return next((k.uncompiled for k in kids if k.uncompiled), "")
    if t is PyPred:
        return f"opaque PyPred {f.describe()}"
    return f"no compiled form for {t.__name__}"


class RestrictionPlan:
    """The static facts about one restriction that every route needs.

    ``route`` is the ordered list of backends the ``auto`` chain offers
    the restriction; the first that decides wins:

    * ``dfa-early`` -- the exploration monitor's verdict, when it has one;
    * ``dfa`` -- the restriction automaton at the complete computation
      (leaf-resolvable automata only; always decides);
    * ``slice`` -- declines outside the sliceable fragment, which is
      decided per computation (a ∀ over an empty domain grounds even a
      ``PyPred`` body away);
    * ``compiled`` -- □/◇ only; declines only on an unbound variable;
    * ``lattice`` -- the interpreter; always decides, and is the whole
      route of an immediate restriction.

    ``walk`` is the route's compiled/interpreter tail, the whole route
    under ``temporal_mode="compiled"``.
    """

    __slots__ = ("restriction", "shape", "automaton", "walk", "route")

    def __init__(self, restriction: Restriction) -> None:
        from .automata import classify_restriction

        self.restriction = restriction
        self.shape = shape(restriction.formula)
        self.walk: Tuple[str, ...] = (
            ("lattice",) if self.shape.uncompiled or not self.shape.temporal
            else ("compiled", "lattice"))
        self.automaton = None
        self.route = self.walk
        if self.shape.temporal:
            self.automaton = classify_restriction(restriction)
            self.route = ("dfa-early",) + (
                ("dfa",) if self.automaton.leaf_resolvable
                else ("slice",) + self.walk)

    @property
    def temporal(self) -> bool:
        return self.shape.temporal


class SpecPlan:
    """The :class:`RestrictionPlan` of every restriction of a specification.

    Computation-independent: build it once per specification content
    (:func:`plan_for`) and :meth:`bind` it to each computation checked.
    It also carries the automata census the stats and describe surfaces
    report.
    """

    __slots__ = ("restrictions", "automata", "monitorable", "leaf", "inert")

    def __init__(self, restrictions: Iterable[Restriction]) -> None:
        from .automata import DIA_LEAF, INERT

        self.restrictions: Dict[str, RestrictionPlan] = {
            r.name: RestrictionPlan(r) for r in restrictions}
        #: name -> restriction automaton, temporal restrictions only
        self.automata = {name: p.automaton
                         for name, p in self.restrictions.items()
                         if p.automaton is not None}
        kinds = [a.kind for a in self.automata.values()]
        self.monitorable = sum(1 for a in self.automata.values()
                               if a.monitorable)
        self.leaf = kinds.count(DIA_LEAF)
        self.inert = kinds.count(INERT)

    @property
    def temporal(self) -> int:
        return len(self.automata)

    def automaton(self, name: str):
        return self.automata.get(name)

    def bind(self, computation, history_cap: int) -> "CheckContext":
        """The per-computation context the routes share; builds nothing
        until a route asks for it."""
        return CheckContext(self, computation, history_cap)

    def describe(self) -> str:
        lines = [f"automata: {self.temporal} temporal restriction(s), "
                 f"{self.monitorable} monitorable, {self.leaf} leaf-"
                 f"resolvable, {self.inert} dfa-inert"]
        lines.extend(f"  {a.describe()}" for a in self.automata.values())
        return "\n".join(lines)


def spec_fingerprint(spec) -> str:
    """Stable digest of a specification's declarative content.

    Keys :func:`plan_for`'s memo: two spec *instances* with equal
    fingerprints have identical element vocabularies and restriction
    formulas, so their plans coincide.  ``PyPred`` contributes only its
    name -- safe because a plan never evaluates a ``PyPred``: routes run
    the checked instance's own restriction, and the only formulas a plan
    evaluates itself (automaton guards) contain none.
    """
    parts = [f"spec:{spec.name}"]
    parts.extend(sorted(f"element:{n}" for n in spec.element_names()))
    parts.extend(sorted(
        f"group:{g.name}:{','.join(sorted(map(str, g.members)))}"
        for g in spec.groups))
    parts.extend(sorted(
        f"restriction:{r.name}={r.formula.describe()}"
        for r in spec.all_restrictions()))
    parts.extend(sorted(f"thread:{t.name}" for t in spec.thread_types))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


#: spec fingerprint -> SpecPlan, across spec instances: a resident serve
#: worker receives a fresh Specification per submitted job even when the
#: content is identical.  FIFO eviction.
_PLANS: Dict[str, SpecPlan] = {}
_PLANS_CAP = 128


def plan_for(spec) -> SpecPlan:
    """The specification's :class:`SpecPlan`, built once per content and
    kept on the instance (so fork-inherited engine workers share it)."""
    plan: Optional[SpecPlan] = getattr(spec, "_plan", None)
    if plan is None:
        key = spec_fingerprint(spec)
        plan = _PLANS.get(key)
        if plan is None:
            plan = SpecPlan(spec.all_restrictions())
            while len(_PLANS) >= _PLANS_CAP:
                _PLANS.pop(next(iter(_PLANS)))
            _PLANS[key] = plan
        spec._plan = plan
    return plan


class CheckContext:
    """One computation's backends, shared by a plan's routes.

    The slice (:class:`~repro.core.slice.SliceChecker`), the compiled
    closures (:class:`~repro.core.compile.CompiledSpec`, each □/◇
    restriction compiled on its first request) and the interpreter
    (:class:`~repro.core.checker.LatticeChecker`) are each built the
    first time a route reaches them.
    """

    def __init__(self, plan: SpecPlan, computation, history_cap: int):
        self.plan = plan
        self.computation = computation
        self.history_cap = history_cap

    @cached_property
    def slice(self):
        from .slice import SliceChecker

        return SliceChecker(self.computation)

    @cached_property
    def compiled(self):
        from .compile import CompiledSpec

        return CompiledSpec(self.computation, self.history_cap)

    @cached_property
    def lattice(self):
        from .checker import LatticeChecker

        return LatticeChecker(self.computation, self.history_cap)

    def explored(self) -> int:
        """Histories expanded by every lattice walk that ran."""
        built = vars(self)
        return sum(built[walker].walk.explored()
                   for walker in ("compiled", "lattice") if walker in built)
