"""Compiling GEM restrictions to bitmask closure pipelines.

The lattice interpreter in :mod:`repro.core.checker` is a recursive
tree-walk: every evaluation re-dispatches on ``Formula`` node types,
copies dict environments per quantifier binding, wraps each history
mask in a :class:`~repro.core.history.History`, and re-enumerates
quantifier domains through ``Domain.events``.  This module performs
that work **once per (specification, computation)** instead of once
per evaluation:

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
* **monotone latching**: for the monotone formula class documented in
  :mod:`repro.core.checker` (built from ``occurred``, ∧, ∨ and
  quantifiers -- once true of a history, true of every extension),
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
``checker.fallbacks`` metric), so the compiled route (step 4 of the
``auto`` chain, and ``temporal_mode="compiled"`` alone) is
behaviour-preserving by construction: compiled restrictions are proven
equivalent (see ``tests/test_compile.py`` and the ``compiled-differential``
fuzz oracle), and everything else *is* the interpreter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


class _Uncompilable(Exception):
    """Internal: this restriction needs the interpreter."""


class _Node:
    """One compiled subformula: an evaluator plus its static analysis.

    ``fn(mask, env) -> bool`` evaluates at history ``mask`` with ``env``
    a slot-indexed list of bound event indices.  ``monotone`` means
    "once true of a mask, true of every superset mask" (with the same
    bindings); ``history_free`` means the value ignores the mask
    entirely; ``free_slots`` are the env slots the evaluator reads.
    """

    __slots__ = ("fn", "monotone", "history_free", "free_slots")

    def __init__(self, fn: Callable[[int, list], bool], monotone: bool,
                 history_free: bool, free_slots: frozenset):
        self.fn = fn
        self.monotone = monotone
        self.history_free = history_free
        self.free_slots = free_slots


#: Formula types the compiler knows how to translate.  Exact-type
#: matched: a user subclass with overridden semantics falls back to the
#: interpreter rather than being silently compiled as its base class.
_LEAVES = frozenset((TrueF, FalseF, Occurred, AtElement, Enables,
                     ElementPrecedes, TemporallyPrecedes, Concurrent,
                     EventEq, New, Potential, SameThread, DistinctThreads))
_CONNECTIVES = (Not, And, Or, Implies, Iff, Henceforth, Eventually)
_QUANTIFIERS = (ForAll, Exists, ExistsUnique, AtMostOne)


def is_compilable(formula: Formula) -> bool:
    """Static check: can the compiler translate this formula?

    ``PyPred`` nodes, unrecognised ``Formula`` subclasses, and exotic
    terms force the interpreter fallback for the whole restriction.
    """
    t = type(formula)
    if t in _LEAVES:
        return True
    if t is DataEq:
        return (type(formula.left) in (Const, Param)
                and type(formula.right) in (Const, Param))
    if t is DataCmp:
        return (formula.op in DataCmp._OPS
                and type(formula.left) in (Const, Param)
                and type(formula.right) in (Const, Param))
    if t is AtControl:
        return True
    if t in _CONNECTIVES or t in _QUANTIFIERS:
        return all(is_compilable(c) for c in formula._children())
    return False


class CompiledRestriction:
    """One restriction bound to one computation, ready to evaluate."""

    __slots__ = ("restriction", "temporal", "_fn", "_nslots", "_spec")

    def __init__(self, restriction: Restriction, temporal: bool,
                 fn: Callable[[int, list], bool], nslots: int,
                 spec: "CompiledSpec"):
        self.restriction = restriction
        self.temporal = temporal
        self._fn = fn
        self._nslots = nslots
        self._spec = spec

    def holds(self) -> bool:
        """Evaluate: temporal restrictions start at the empty history
        (AG/AF over the lattice), immediate ones at the complete one --
        the same entry points the interpreter uses."""
        env = [0] * self._nslots
        if self.temporal:
            return bool(self._fn(0, env))
        return bool(self._fn(self._spec.index.full_mask, env))


class CompiledSpec:
    """All compiled restrictions of one specification over one computation.

    Shares one :class:`EventIndex` and one
    :class:`~repro.core.history.LatticeWalk` (its addable-mask cache and
    visit budget) across its restrictions, mirroring the single
    ``LatticeChecker`` that ``check_computation`` shares in interpreted
    mode.  ``walk.visited`` counts compiled (node, history) evaluations
    against ``history_cap`` (the ``checker.compiled_evals`` metric);
    restrictions the compiler rejected map to ``None`` and are listed
    in ``fallback_names``.
    """

    def __init__(self, computation: Computation,
                 restrictions: Sequence[Restriction],
                 history_cap: int,
                 compilable: Optional[Dict[str, bool]] = None) -> None:
        self.computation = computation
        self.index: EventIndex = event_index(computation)
        self.walk = LatticeWalk(computation, history_cap, "compiled checker")
        self.compiled: Dict[str, Optional[CompiledRestriction]] = {}
        self.fallback_names: Tuple[str, ...] = ()
        fallbacks: List[str] = []
        for r in restrictions:
            ok = (compilable[r.name] if compilable is not None
                  else is_compilable(r.formula))
            cr = _compile_restriction(self, r) if ok else None
            self.compiled[r.name] = cr
            if cr is None:
                fallbacks.append(r.name)
        self.fallback_names = tuple(fallbacks)

    def restriction(self, restriction: Restriction
                    ) -> Optional[CompiledRestriction]:
        """The compiled form, or ``None`` if it fell back."""
        return self.compiled.get(restriction.name)


def _compile_restriction(spec: CompiledSpec, restriction: Restriction
                         ) -> Optional[CompiledRestriction]:
    try:
        compiler = _Compiler(spec)
        node = compiler.compile(restriction.formula)
    except _Uncompilable:
        return None
    return CompiledRestriction(
        restriction, restriction.formula.is_temporal(),
        node.fn, max(compiler.nslots, 1), spec)


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

    def _finish(self, node: _Node) -> _Node:
        """Constant-fold closed history-independent subformulas."""
        if node.history_free and not node.free_slots:
            try:
                value = bool(node.fn(0, [0] * max(self.nslots, 1)))
            except Exception:
                return node  # evaluation raises: keep it lazy so the
                # interpreter-visible error still surfaces at check time
            fn = (_const_true if value else _const_false)
            return _Node(fn, True, True, frozenset())
        return node

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

        return _Node(fn, node.monotone, node.history_free, node.free_slots)

    # -- dispatch ----------------------------------------------------------

    def compile(self, f: Formula) -> _Node:
        t = type(f)
        if t is TrueF:
            return _Node(_const_true, True, True, frozenset())
        if t is FalseF:
            return _Node(_const_false, True, True, frozenset())
        if t is Occurred:
            s = self._slot(f.var)
            return _Node(lambda m, env: bool(m >> env[s] & 1),
                         True, False, frozenset((s,)))
        if t is AtElement:
            s = self._slot(f.var)
            ok = tuple(ev.element == f.element for ev in self.idx.events)
            return _Node(lambda m, env: ok[env[s]] and bool(m >> env[s] & 1),
                         True, False, frozenset((s,)))
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

            return self._finish(
                _Node(concurrent, True, True, frozenset((sa, sb))))
        if t is EventEq:
            sa, sb = self._slot(f.a), self._slot(f.b)
            return self._finish(
                _Node(lambda m, env: env[sa] == env[sb],
                      True, True, frozenset((sa, sb))))
        if t is SameThread:
            sa, sb = self._slot(f.a), self._slot(f.b)
            threads = self.idx.threads
            return self._finish(_Node(
                lambda m, env: bool(threads[env[sa]] & threads[env[sb]]),
                True, True, frozenset((sa, sb))))
        if t is DistinctThreads:
            sa, sb = self._slot(f.a), self._slot(f.b)
            threads = self.idx.threads
            return self._finish(_Node(
                lambda m, env: not (threads[env[sa]] & threads[env[sb]]),
                True, True, frozenset((sa, sb))))
        if t is DataEq:
            lf, lfree = self._term(f.left)
            rf, rfree = self._term(f.right)
            return self._finish(
                _Node(lambda m, env: lf(env) == rf(env),
                      True, True, lfree | rfree))
        if t is DataCmp:
            op = DataCmp._OPS.get(f.op)
            if op is None:
                raise _Uncompilable(f"unknown comparison {f.op!r}")
            lf, lfree = self._term(f.left)
            rf, rfree = self._term(f.right)
            return self._finish(
                _Node(lambda m, env: bool(op(lf(env), rf(env))),
                      True, True, lfree | rfree))
        if t is New:
            s = self._slot(f.var)
            succ = self.idx.temporal_succ

            def new(m, env):
                i = env[s]
                return bool(m >> i & 1) and not succ[i] & m

            return _Node(new, False, False, frozenset((s,)))
        if t is Potential:
            s = self._slot(f.var)
            pred = self.idx.temporal_pred

            def potential(m, env):
                i = env[s]
                return not m >> i & 1 and not pred[i] & ~m

            return _Node(potential, False, False, frozenset((s,)))
        if t is AtControl:
            s = self._slot(f.var)
            targets = 0
            for ev in f.dom.events(self.idx.computation):
                targets |= 1 << self.idx.index_of[ev.eid]
            enable = self.idx.enable_succ

            def at_control(m, env):
                i = env[s]
                return bool(m >> i & 1) and not enable[i] & targets & m

            return _Node(at_control, False, False, frozenset((s,)))
        if t is Not:
            body = self.compile(f.body)
            bfn = body.fn
            return self._finish(
                _Node(lambda m, env: not bfn(m, env),
                      body.history_free, body.history_free,
                      body.free_slots))
        if t is And:
            return self._combine_and([self.compile(p) for p in f.parts])
        if t is Or:
            return self._combine_or([self.compile(p) for p in f.parts])
        if t is Implies:
            return self._implies(self.compile(f.antecedent),
                                 self.compile(f.consequent))
        if t is Iff:
            left, right = self.compile(f.left), self.compile(f.right)
            lfn, rfn = left.fn, right.fn
            hf = left.history_free and right.history_free
            return self._finish(
                _Node(lambda m, env: bool(lfn(m, env)) == bool(rfn(m, env)),
                      hf, hf, left.free_slots | right.free_slots))
        if t in (ForAll, Exists, ExistsUnique, AtMostOne):
            return self._quantifier(f)
        if t is Henceforth:
            return self._henceforth(f)
        if t is Eventually:
            return self._eventually(f)
        raise _Uncompilable(f"cannot compile {type(f).__name__}")

    # -- pieces ------------------------------------------------------------

    def _pair(self, a: str, b: str, succ: List[int]) -> _Node:
        sa, sb = self._slot(a), self._slot(b)

        def fn(m, env):
            ia, ib = env[sa], env[sb]
            return (bool(m >> ia & 1) and bool(m >> ib & 1)
                    and bool(succ[ia] >> ib & 1))

        return _Node(fn, True, False, frozenset((sa, sb)))

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

    def _combine_and(self, nodes: List[_Node]) -> _Node:
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
        return self._finish(_Node(
            fn,
            all(n.monotone for n in nodes),
            all(n.history_free for n in nodes),
            frozenset().union(*(n.free_slots for n in nodes))))

    def _combine_or(self, nodes: List[_Node]) -> _Node:
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
        return self._finish(_Node(
            fn,
            all(n.monotone for n in nodes),
            all(n.history_free for n in nodes),
            frozenset().union(*(n.free_slots for n in nodes))))

    def _implies(self, ante: _Node, cons: _Node) -> _Node:
        afn, cfn = ante.fn, cons.fn
        hf = ante.history_free and cons.history_free
        # ¬g ∨ p is monotone when g is history-independent (¬g constant
        # over the lattice) and p is monotone
        mono = hf or (ante.history_free and cons.monotone)
        return self._finish(_Node(
            lambda m, env: (not afn(m, env)) or bool(cfn(m, env)),
            mono, hf, ante.free_slots | cons.free_slots))

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
            mono, hf = body.monotone, body.history_free
        elif t is Exists:
            def fn(m, env):
                for i in dom_idx:
                    env[slot] = i
                    if bfn(m, env):
                        return True
                return False
            mono, hf = body.monotone, body.history_free
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
            mono, hf = body.history_free, body.history_free
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
            mono, hf = body.history_free, body.history_free
        node = _Node(fn, mono, hf, body.free_slots - {slot})
        node = self._finish(node)
        if node.monotone and not node.history_free:
            node = self._latch(node)
        return node

    # -- temporal ----------------------------------------------------------

    def _henceforth(self, f: Henceforth) -> _Node:
        body = f.body
        # □ distributes over ∧, letting each conjunct pick its own
        # strategy (monotone conjuncts collapse, others walk)
        if type(body) is And:
            return self._combine_and(
                [self._henceforth(Henceforth(p)) for p in body.parts])
        # guard hoisting: □(g ⊃ p) ≡ g ⊃ □p for history-independent g
        if type(body) is Implies:
            ante = self.compile(body.antecedent)
            if ante.history_free:
                return self._implies(
                    ante, self._henceforth(Henceforth(body.consequent)))
        node = self.compile(body)
        if node.monotone:
            # AG q ≡ q for monotone q: true here means true at every
            # extension, false here already refutes the □
            return node
        # AG is monotone in the history: extensions see a subset of the
        # lattice above, so a true □ stays true
        return self._walk(node, self.spec.walk.always, True)

    def _eventually(self, f: Eventually) -> _Node:
        body = f.body
        # guard hoisting: ◇(g ∧ p) ≡ g ∧ ◇p for history-independent g
        if type(body) is And:
            guards = [p for p in body.parts
                      if not p.is_temporal() and self._is_history_free(p)]
            rest = [p for p in body.parts if p not in guards]
            if guards and rest:
                inner = rest[0] if len(rest) == 1 else And(tuple(rest))
                return self._combine_and(
                    [self.compile(g) for g in guards]
                    + [self._eventually(Eventually(inner))])
        node = self.compile(body)
        if node.monotone:
            # AF q ≡ q at ⊤ for monotone q: every maximal path of the
            # finite lattice ends at the complete history, and a q true
            # anywhere stays true there
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

            return self._finish(
                _Node(fn, True, True, node.free_slots))
        return self._walk(node, self.spec.walk.eventually, False)

    def _is_history_free(self, formula: Formula) -> bool:
        """Cheap static probe used only to pick a hoisting split."""
        try:
            probe = _Compiler(self.spec)
            probe.scope = {v: list(s) for v, s in self.scope.items()}
            probe.depth = self.depth
            probe.nslots = self.nslots
            return probe.compile(formula).history_free
        except _Uncompilable:
            return False

    def _walk(self, body: _Node, walk, monotone: bool) -> _Node:
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

        return _Node(fn, monotone, False, body.free_slots)


def _const_true(m, env) -> bool:
    return True


def _const_false(m, env) -> bool:
    return False


# ---------------------------------------------------------------------------
# Plans: the computation-independent half of compilation
# ---------------------------------------------------------------------------


class SpecPlan:
    """Computation-independent compilation plan for a specification.

    Holds the restriction list and the per-restriction compilability
    analysis; :meth:`bind` does the (cheap) per-computation closure
    generation.  Build one per worker -- the engine's ``WorkerState``
    primes :func:`plan_for`'s per-spec cache before forking, so every
    worker inherits the analysed plan instead of re-walking formula
    ASTs per computation.
    """

    __slots__ = ("restrictions", "compilable")

    def __init__(self, spec) -> None:
        self.restrictions: Tuple[Restriction, ...] = tuple(
            spec.all_restrictions())
        self.compilable: Dict[str, bool] = {
            r.name: is_compilable(r.formula) for r in self.restrictions
        }

    def bind(self, computation: Computation,
             history_cap: int) -> CompiledSpec:
        """Compile the plan's restrictions against one computation."""
        return CompiledSpec(computation, self.restrictions, history_cap,
                            compilable=self.compilable)


#: Cross-instance plan memo, keyed by spec fingerprint.  A resident
#: serve worker receives a *fresh* Specification instance per submitted
#: job even when the spec content is identical (inline fuzz-spec
#: resubmission, catalog case rebuilds); the fingerprint key lets those
#: reuse the analysed plan instead of re-walking formula ASTs.  FIFO
#: eviction; tiny (plans hold per-restriction analysis, not closures).
_PLAN_MEMO: Dict[str, SpecPlan] = {}
_PLAN_MEMO_CAP = 128


def plan_for(spec) -> SpecPlan:
    """The specification's :class:`SpecPlan`, built once per spec
    *content*: cached on the spec instance (shared by fork-inherited
    engine workers) and, across instances, in a module-level memo keyed
    by :func:`repro.core.automata.spec_fingerprint` -- safe because the
    plan holds only formula-level analysis, and restrictions the
    analysis cannot see through (``PyPred``) are marked non-compilable,
    so a memoised plan never evaluates another instance's closures."""
    plan: Optional[SpecPlan] = getattr(spec, "_compile_plan", None)
    if plan is None:
        from .automata import spec_fingerprint

        key = spec_fingerprint(spec)
        plan = _PLAN_MEMO.get(key)
        if plan is None:
            plan = SpecPlan(spec)
            while len(_PLAN_MEMO) >= _PLAN_MEMO_CAP:
                _PLAN_MEMO.pop(next(iter(_PLAN_MEMO)))
            _PLAN_MEMO[key] = plan
        spec._compile_plan = plan
    return plan


def bind_restriction(computation: Computation, restriction: Restriction,
                     history_cap: int) -> CompiledSpec:
    """Compile a single bare restriction (no specification context)."""
    return CompiledSpec(computation, (restriction,), history_cap)
