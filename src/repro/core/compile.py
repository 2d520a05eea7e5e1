"""Compiling GEM restrictions to bitmask closure pipelines.

The lattice interpreter in :mod:`repro.core.checker` is a recursive
tree-walk: every evaluation re-dispatches on ``Formula`` node types,
copies dict environments per quantifier binding, wraps each history
mask in a :class:`~repro.core.history.History`, and re-enumerates
quantifier domains through ``Domain.events``.  This module performs
that work **once per (restriction, computation)**, the first time a
check routes the restriction here, instead of once per evaluation
(only □/◇ restrictions come here; immediate ones are the interpreter's):

* each ``Restriction`` becomes a pipeline of Python closures evaluated
  over **bitmask histories** (see :mod:`repro.core.evalcore`): a history
  is an ``int``, the child adding event *i* is ``m | (1 << i)``, and the
  relations are per-event successor masks;
* **static quantifier-domain pruning**: a ``∀e @ EL`` quantifier
  iterates a tuple of event indices precomputed at compile time from
  the element/class extent, not the whole event set, and never calls
  ``Domain.events`` again;
* **constant folding**: a history-independent subformula with no free
  variables is evaluated once at compile time and replaced by its
  truth value (skipped if evaluation raises, so interpreter-visible
  errors still surface at check time);
* **guard hoisting**: ``□(g ⊃ p)`` with history-independent ``g``
  compiles to ``g ⊃ □p`` (and ``◇(g ∧ p)`` to ``g ∧ ◇p``), keeping the
  guard out of the lattice recursion; ``□(p ∧ q)`` distributes to
  ``□p ∧ □q`` so each conjunct gets the cheapest strategy it admits;
* **monotone latching**: for monotone formulas (once true of a
  history, true of every extension -- the polarity the plan's
  :func:`~repro.core.plan.shape` analysis assigns each node),
  ``□q`` collapses to ``q`` at the current history, ``◇q`` collapses to
  ``q`` at the complete history (every maximal path in the finite
  lattice ends there), and monotone quantifier nodes latch their first
  true history per binding and short-circuit on any extension of it;
* the remaining (non-monotone) ``□``/``◇`` bodies run through the
  interpreter's own memoised AG/AF walk
  (:class:`~repro.core.history.LatticeWalk`), with the compiled body
  closure as its leaf.

The interpreter keeps its exact semantics and acts as the reference
oracle; anything the compiler cannot express -- ``PyPred`` escape
hatches, unknown ``Formula`` subclasses, unbound variables -- makes the
whole restriction **fall back** to the interpreter (counted by the
``checker.fallbacks`` metric; the plan routes statically uncompilable
restrictions straight there), so the compiled route (step 4 of the
``auto`` chain, and ``temporal_mode="compiled"`` alone) is
behaviour-preserving by construction: compiled restrictions are proven
equivalent (see ``tests/test_compile.py`` and the ``compiled-differential``
fuzz oracle), and everything else *is* the interpreter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .computation import Computation
from .evalcore import EventIndex, event_index
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
    Restriction,
    SameThread,
    TemporallyPrecedes,
    TrueF,
)
from .history import LatticeWalk
from .plan import SpecPlan, plan_for, shape  # noqa: F401 (re-exported)


class _Uncompilable(Exception):
    """Internal: this restriction needs the interpreter."""


class _Node:
    """One compiled subformula: ``fn(mask, env) -> bool`` evaluates at
    history ``mask`` with ``env`` a slot-indexed list of bound event
    indices; ``free_slots`` are the env slots it reads.  Its history
    polarity is the formula's :func:`~repro.core.plan.shape`."""

    __slots__ = ("fn", "free_slots")

    def __init__(self, fn: Callable[[int, list], bool],
                 free_slots: frozenset = frozenset()):
        self.fn = fn
        self.free_slots = free_slots


class CompiledRestriction:
    """One □/◇ restriction bound to one computation, ready to evaluate."""

    __slots__ = ("restriction", "_fn", "_nslots")

    def __init__(self, restriction: Restriction,
                 fn: Callable[[int, list], bool], nslots: int):
        self.restriction = restriction
        self._fn = fn
        self._nslots = nslots

    def holds(self) -> bool:
        """Evaluate at the empty history (AG/AF over the lattice), the
        interpreter's entry point for a temporal restriction."""
        return bool(self._fn(0, [0] * self._nslots))


class CompiledSpec:
    """Compiled □/◇ restrictions over one computation, each compiled the
    first time it is asked for.

    Shares one :class:`EventIndex` and one
    :class:`~repro.core.history.LatticeWalk` (its addable-mask cache and
    visit budget) across its restrictions, mirroring the single
    ``LatticeChecker`` of a :class:`~repro.core.plan.CheckContext`.
    ``walk.visited`` counts compiled (node, history) evaluations against
    ``history_cap`` (the ``checker.compiled_evals`` metric).
    """

    def __init__(self, computation: Computation, history_cap: int) -> None:
        self.index: EventIndex = event_index(computation)
        self.walk = LatticeWalk(computation, history_cap, "compiled checker")
        self._compiled: Dict[str, Optional[CompiledRestriction]] = {}

    def restriction(self, restriction: Restriction
                    ) -> Optional[CompiledRestriction]:
        """The compiled form, or ``None`` when the compiler cannot
        translate the restriction (it needs the interpreter)."""
        name = restriction.name
        if name not in self._compiled:
            try:
                compiler = _Compiler(self)
                node = compiler.compile(restriction.formula)
                compiled = CompiledRestriction(
                    restriction, node.fn, max(compiler.nslots, 1))
            except _Uncompilable:
                compiled = None
            self._compiled[name] = compiled
        return self._compiled[name]


class _Compiler:
    """One-pass compiler for a single restriction over one computation."""

    def __init__(self, spec: CompiledSpec) -> None:
        self.spec = spec
        self.idx = spec.index
        self.scope: Dict[str, List[int]] = {}
        self.depth = 0
        self.nslots = 0

    # -- helpers -----------------------------------------------------------

    def _slot(self, var: str) -> int:
        stack = self.scope.get(var)
        if not stack:
            raise _Uncompilable(f"unbound variable {var!r}")
        return stack[-1]

    def _latch(self, node: _Node) -> _Node:
        """Monotone latching: remember the first true history per
        binding; any extension of it is true without re-evaluation."""
        free = tuple(sorted(node.free_slots))
        cache: Dict[Tuple, int] = {}
        inner = node.fn

        def fn(m, env):
            key = tuple(env[s] for s in free)
            latched = cache.get(key)
            if latched is not None and m & latched == latched:
                return True
            if inner(m, env):
                if latched is None or m & latched == m:
                    cache[key] = m
                return True
            return False

        return _Node(fn, node.free_slots)

    # -- dispatch ----------------------------------------------------------

    def compile(self, f: Formula) -> _Node:
        node = self._translate(f)
        if shape(f).free and not node.free_slots:
            # constant folding: a closed history-independent subformula
            # is evaluated once, here
            try:
                value = bool(node.fn(0, [0] * max(self.nslots, 1)))
            except Exception:
                return node  # evaluation raises: keep it lazy so the
                # interpreter-visible error still surfaces at check time
            return _Node(_const_true if value else _const_false)
        return node

    def _translate(self, f: Formula) -> _Node:
        t = type(f)
        if t is TrueF:
            return _Node(_const_true)
        if t is FalseF:
            return _Node(_const_false)
        if t is Occurred:
            s = self._slot(f.var)
            return _Node(lambda m, env: bool(m >> env[s] & 1),
                         frozenset((s,)))
        if t is AtElement:
            s = self._slot(f.var)
            ok = tuple(ev.element == f.element for ev in self.idx.events)
            return _Node(lambda m, env: ok[env[s]] and bool(m >> env[s] & 1),
                         frozenset((s,)))
        if t is Enables:
            return self._pair(f.a, f.b, self.idx.enable_succ)
        if t is ElementPrecedes:
            return self._pair(f.a, f.b, self.idx.element_succ)
        if t is TemporallyPrecedes:
            return self._pair(f.a, f.b, self.idx.temporal_succ)
        if t is Concurrent:
            sa, sb = self._slot(f.a), self._slot(f.b)
            succ = self.idx.temporal_succ

            def concurrent(m, env):
                ia, ib = env[sa], env[sb]
                return (ia != ib and not succ[ia] >> ib & 1
                        and not succ[ib] >> ia & 1)

            return _Node(concurrent, frozenset((sa, sb)))
        if t is EventEq:
            sa, sb = self._slot(f.a), self._slot(f.b)
            return _Node(lambda m, env: env[sa] == env[sb],
                         frozenset((sa, sb)))
        if t is SameThread:
            sa, sb = self._slot(f.a), self._slot(f.b)
            threads = self.idx.threads
            return _Node(
                lambda m, env: bool(threads[env[sa]] & threads[env[sb]]),
                frozenset((sa, sb)))
        if t is DistinctThreads:
            sa, sb = self._slot(f.a), self._slot(f.b)
            threads = self.idx.threads
            return _Node(
                lambda m, env: not (threads[env[sa]] & threads[env[sb]]),
                frozenset((sa, sb)))
        if t is DataEq:
            lf, lfree = self._term(f.left)
            rf, rfree = self._term(f.right)
            return _Node(lambda m, env: lf(env) == rf(env), lfree | rfree)
        if t is DataCmp:
            op = DataCmp._OPS.get(f.op)
            if op is None:
                raise _Uncompilable(f"unknown comparison {f.op!r}")
            lf, lfree = self._term(f.left)
            rf, rfree = self._term(f.right)
            return _Node(lambda m, env: bool(op(lf(env), rf(env))),
                         lfree | rfree)
        if t is New:
            s = self._slot(f.var)
            succ = self.idx.temporal_succ

            def new(m, env):
                i = env[s]
                return bool(m >> i & 1) and not succ[i] & m

            return _Node(new, frozenset((s,)))
        if t is Potential:
            s = self._slot(f.var)
            pred = self.idx.temporal_pred

            def potential(m, env):
                i = env[s]
                return not m >> i & 1 and not pred[i] & ~m

            return _Node(potential, frozenset((s,)))
        if t is AtControl:
            s = self._slot(f.var)
            targets = 0
            for ev in f.dom.events(self.idx.computation):
                targets |= 1 << self.idx.index_of[ev.eid]
            enable = self.idx.enable_succ

            def at_control(m, env):
                i = env[s]
                return bool(m >> i & 1) and not enable[i] & targets & m

            return _Node(at_control, frozenset((s,)))
        if t is Not:
            body = self.compile(f.body)
            bfn = body.fn
            return _Node(lambda m, env: not bfn(m, env), body.free_slots)
        if t is And:
            return self._all([self.compile(p) for p in f.parts])
        if t is Or:
            return self._any([self.compile(p) for p in f.parts])
        if t is Implies:
            ante, cons = self.compile(f.antecedent), self.compile(f.consequent)
            afn, cfn = ante.fn, cons.fn
            return _Node(lambda m, env: (not afn(m, env)) or bool(cfn(m, env)),
                         ante.free_slots | cons.free_slots)
        if t is Iff:
            left, right = self.compile(f.left), self.compile(f.right)
            lfn, rfn = left.fn, right.fn
            return _Node(
                lambda m, env: bool(lfn(m, env)) == bool(rfn(m, env)),
                left.free_slots | right.free_slots)
        if t in (ForAll, Exists, ExistsUnique, AtMostOne):
            return self._quantifier(f)
        if t is Henceforth:
            return self._henceforth(f.body)
        if t is Eventually:
            return self._eventually(f.body)
        raise _Uncompilable(f"cannot compile {type(f).__name__}")

    # -- pieces ------------------------------------------------------------

    def _pair(self, a: str, b: str, succ: List[int]) -> _Node:
        sa, sb = self._slot(a), self._slot(b)

        def fn(m, env):
            ia, ib = env[sa], env[sb]
            return (bool(m >> ia & 1) and bool(m >> ib & 1)
                    and bool(succ[ia] >> ib & 1))

        return _Node(fn, frozenset((sa, sb)))

    def _term(self, t) -> Tuple[Callable[[list], object], frozenset]:
        if type(t) is Const:
            value = t.val
            return (lambda env: value), frozenset()
        if type(t) is Param:
            s = self._slot(t.var)
            name = t.name
            events = self.idx.events
            # evaluated lazily per binding, so a missing parameter
            # raises at check time exactly like the interpreter
            return (lambda env: events[env[s]].param(name)), frozenset((s,))
        raise _Uncompilable(f"cannot compile term {type(t).__name__}")

    @staticmethod
    def _all(nodes: List[_Node]) -> _Node:
        fns = [n.fn for n in nodes]
        if len(fns) == 2:
            f0, f1 = fns
            fn = lambda m, env: bool(f0(m, env)) and bool(f1(m, env))  # noqa: E731
        else:
            def fn(m, env):
                for g in fns:
                    if not g(m, env):
                        return False
                return True
        return _Node(fn, frozenset().union(*(n.free_slots for n in nodes)))

    @staticmethod
    def _any(nodes: List[_Node]) -> _Node:
        fns = [n.fn for n in nodes]
        if len(fns) == 2:
            f0, f1 = fns
            fn = lambda m, env: bool(f0(m, env)) or bool(f1(m, env))  # noqa: E731
        else:
            def fn(m, env):
                for g in fns:
                    if g(m, env):
                        return True
                return False
        return _Node(fn, frozenset().union(*(n.free_slots for n in nodes)))

    def _quantifier(self, f) -> _Node:
        # static domain pruning: the extent of the element/class domain
        # is resolved to a tuple of event indices exactly once
        dom_idx = tuple(self.idx.index_of[ev.eid]
                        for ev in f.dom.events(self.idx.computation))
        slot = self.depth
        self.depth += 1
        self.nslots = max(self.nslots, self.depth)
        self.scope.setdefault(f.var, []).append(slot)
        try:
            body = self.compile(f.body)
        finally:
            self.scope[f.var].pop()
            self.depth -= 1
        bfn = body.fn
        t = type(f)
        if t is ForAll:
            def fn(m, env):
                for i in dom_idx:
                    env[slot] = i
                    if not bfn(m, env):
                        return False
                return True
        elif t is Exists:
            def fn(m, env):
                for i in dom_idx:
                    env[slot] = i
                    if bfn(m, env):
                        return True
                return False
        elif t is ExistsUnique:
            def fn(m, env):
                count = 0
                for i in dom_idx:
                    env[slot] = i
                    if bfn(m, env):
                        count += 1
                        if count > 1:
                            return False
                return count == 1
        else:  # AtMostOne
            def fn(m, env):
                count = 0
                for i in dom_idx:
                    env[slot] = i
                    if bfn(m, env):
                        count += 1
                        if count > 1:
                            return False
                return True
        node = _Node(fn, body.free_slots - {slot})
        facts = shape(f)
        if facts.up and not facts.free:
            node = self._latch(node)
        return node

    # -- temporal ----------------------------------------------------------

    def _henceforth(self, body: Formula) -> _Node:
        if type(body) is And:
            # □ distributes over ∧, letting each conjunct pick its own
            # strategy (monotone conjuncts collapse, others walk)
            return self.compile(
                And(tuple(Henceforth(p) for p in body.parts)))
        if type(body) is Implies and shape(body.antecedent).free:
            # guard hoisting: □(g ⊃ p) ≡ g ⊃ □p for history-independent g
            return self.compile(
                Implies(body.antecedent, Henceforth(body.consequent)))
        if shape(body).up:
            # AG q ≡ q for monotone q: true here means true at every
            # extension, false here already refutes the □
            return self.compile(body)
        # AG is monotone in the history: extensions see a subset of the
        # lattice above, so a true □ stays true
        return self._walk(self.compile(body), self.spec.walk.always)

    def _eventually(self, body: Formula) -> _Node:
        if type(body) is And:
            # guard hoisting: ◇(g ∧ p) ≡ g ∧ ◇p for history-independent g
            guards = [p for p in body.parts
                      if shape(p).free and not shape(p).temporal]
            rest = [p for p in body.parts if p not in guards]
            if guards and rest:
                inner = rest[0] if len(rest) == 1 else And(tuple(rest))
                return self.compile(
                    And(tuple(guards) + (Eventually(inner),)))
        node = self.compile(body)
        if not shape(body).up:
            return self._walk(node, self.spec.walk.eventually)
        # AF q ≡ q at ⊤ for monotone q: every maximal path of the finite
        # lattice ends at the complete history, and a q true anywhere
        # stays true there
        full = self.idx.full_mask
        bfn = node.fn
        free = tuple(sorted(node.free_slots))
        cache: Dict[Tuple, bool] = {}

        def fn(m, env):
            key = tuple(env[s] for s in free)
            cached = cache.get(key)
            if cached is None:
                cached = bool(bfn(full, env))
                cache[key] = cached
            return cached

        return _Node(fn, node.free_slots)

    def _walk(self, body: _Node, walk) -> _Node:
        """□/◇ of a non-monotone body: ``walk`` is the spec's shared
        :meth:`LatticeWalk.always` or :meth:`~LatticeWalk.eventually`,
        with the compiled body as its leaf and one memo per binding of
        the body's free slots."""
        bfn = body.fn
        free = tuple(sorted(body.free_slots))
        memos: Dict[Tuple, Dict[int, bool]] = {}

        def fn(m, env):
            key = tuple(env[s] for s in free)
            memo = memos.get(key)
            if memo is None:
                memo = memos[key] = {}
            return walk(bfn, m, env, memo)

        return _Node(fn, body.free_slots)


def _const_true(m, env) -> bool:
    return True


def _const_false(m, env) -> bool:
    return False
