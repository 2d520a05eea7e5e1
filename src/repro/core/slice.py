"""Computation slicing: exact temporal verdicts without walking chains.

The lattice interpreter answers ``□p`` / ``◇p`` by exploring the history
lattice history by history; the compiled checker does the same walk over
bitmasks.  Both are exponential in the width of the temporal order, and
``history_cap`` turns "verified" into "sampled" exactly on the large
computations we care about.  Following the computation-slicing line of
work (Chauhan–Garg, see PAPERS.md), many restriction shapes admit a
*slice*: a small, lattice-structured description of the set of cuts
(histories) satisfying a predicate, on which □/◇ legality can be decided
exactly in polynomial time.

This module grounds a :class:`~repro.core.formula.Restriction` against
one computation's :class:`~repro.core.evalcore.EventIndex` into a
propositional tree over *occurrence literals* ("event i has occurred"),
then decides the branching temporal semantics the lattice interpreter
implements (□ = AG, ◇ = AF) by cube reasoning:

* the cuts satisfying a conjunction of literals form a sublattice
  ``[down-closure(pos), full \\ up-closure(neg)]`` -- a single *cube*
  ``(pos, neg)``, closed under joins and meets;
* ``□q`` at cut ``m`` is "no cut above ``m`` satisfies ¬q", decided per
  cube of the DNF of ¬q by inspecting the cube's two extremal cuts;
* ``◇q`` at cut ``m`` is ¬EG¬q; EG is decided exactly on monotone or
  antitone regions (every cube positive-only, or every cube
  negative-only), where truth along one chain is determined by truth at
  the endpoints.

Shapes outside this fragment -- ``PyPred``, counting quantifiers over
non-constant bodies, mixed-polarity regions under ◇, entangled nested
temporal operators -- raise :class:`SliceError`, and the checker falls
back to the walk (counted by ``checker.slice_fallbacks``, the same
pattern as ``checker.fallbacks`` for the compiler).  The slice can
therefore only *add* exact verdicts; it never changes one.  A standing
differential oracle (``slice-differential`` in :mod:`repro.fuzz`) and
``tests/test_slice.py`` keep it byte-equal to the interpreter.

Classification vocabulary (reported by :meth:`SliceChecker.analyze`):

``immediate``
    No temporal operator; the checker already evaluates these directly
    at the complete computation, so the slice declines them.

``regular``
    Every DNF computed while deciding the restriction had at most one
    cube: the satisfying cuts of every queried subformula form a single
    sublattice (a regular predicate in the slicing literature).

``linear``
    Decided exactly, but some region was a union of several cubes (a
    finite union of sublattices -- linear predicates).

``non-regular``
    Outside the fragment; the verdict is ``None`` and the caller walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .computation import Computation
from .evalcore import EventIndex, event_index, iter_bits
from .formula import (
    And,
    AtControl,
    AtElement,
    AtMostOne,
    Concurrent,
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
    Potential,
    Restriction,
    SameThread,
    TemporallyPrecedes,
    TrueF,
)
from .history import empty_history

#: Cap on grounded-tree nodes (quantifier expansion is quadratic in
#: domain sizes for the paper's pairwise restrictions).
DEFAULT_NODE_CAP = 50_000
#: Cap on cubes per DNF; past it the region is treated as non-regular.
DEFAULT_CUBE_CAP = 256
#: Cap on evaluation steps (cube visits + memo misses).
DEFAULT_VISIT_CAP = 250_000

_T = ("const", True)
_F = ("const", False)


class SliceError(Exception):
    """The restriction falls outside the sliceable fragment.

    Internal control flow only: :meth:`SliceChecker.analyze` converts it
    into a ``non-regular`` analysis and the checker falls back to the
    lattice walk.  Never escapes ``check_restriction``.
    """


def _const(value: bool):
    return _T if value else _F


def _lit(i: int, positive: bool):
    return ("lit", i, positive)


def _not(node):
    kind = node[0]
    if kind == "const":
        return _const(not node[1])
    if kind == "lit":
        return _lit(node[1], not node[2])
    if kind == "not":
        return node[1]
    return ("not", node)


def _and(parts):
    out: List[tuple] = []
    for p in parts:
        if p[0] == "const":
            if not p[1]:
                return _F
            continue
        if p[0] == "and":
            out.extend(p[1])
        else:
            out.append(p)
    out = list(dict.fromkeys(out))
    if not out:
        return _T
    if len(out) == 1:
        return out[0]
    return ("and", tuple(out))


def _or(parts):
    out: List[tuple] = []
    for p in parts:
        if p[0] == "const":
            if p[1]:
                return _T
            continue
        if p[0] == "or":
            out.extend(p[1])
        else:
            out.append(p)
    out = list(dict.fromkeys(out))
    if not out:
        return _F
    if len(out) == 1:
        return out[0]
    return ("or", tuple(out))


@dataclass(frozen=True)
class SliceCube:
    """One sublattice of cuts: ``pos ⊆ cut`` and ``cut ∩ ↑neg = ∅``.

    ``pos`` is stored down-closed, so the cube's least cut is ``pos``
    itself and its greatest is ``full \\ up-closure(neg)``.  The cube is
    closed under unions and intersections of its cuts -- the join/meet
    closure law ``tests/test_slice.py`` pins.
    """

    pos: int
    neg: int

    def max_mask(self, index: EventIndex) -> int:
        return index.full_mask & ~index.up_closure(self.neg)

    def contains(self, index: EventIndex, mask: int) -> bool:
        """Cube membership for a down-closed ``mask``."""
        return (self.pos & ~mask) == 0 and not (
            mask & index.up_closure(self.neg))

    def cuts(self, index: EventIndex, cap: Optional[int] = None
             ) -> Tuple[int, ...]:
        """Every cut in the cube, ascending; ``cap`` raises past it."""
        hi = self.max_mask(index)
        if self.pos & ~hi:
            return ()
        seen = {self.pos}
        queue = [self.pos]
        out: List[int] = []
        while queue:
            m = queue.pop()
            out.append(m)
            if cap is not None and len(out) > cap:
                raise SliceError(f"cube holds more than {cap} cuts")
            for i in iter_bits(index.addable_mask(m) & hi):
                nm = m | (1 << i)
                if nm not in seen:
                    seen.add(nm)
                    queue.append(nm)
        out.sort()
        return tuple(out)


@dataclass(frozen=True)
class SliceAnalysis:
    """Outcome of slicing one restriction on one computation.

    ``verdict`` is the exact legality answer when ``kind`` is
    ``regular`` or ``linear``; ``None`` means the caller must walk
    (``immediate`` restrictions are declined by design, ``non-regular``
    ones fall outside the fragment -- ``detail`` says why).
    """

    kind: str  # "immediate" | "regular" | "linear" | "non-regular"
    verdict: Optional[bool]
    detail: str = ""

    @property
    def exact(self) -> bool:
        return self.verdict is not None


class SliceChecker:
    """Slice-based temporal evaluation for one (thread-labelled) computation.

    Stateful only in its memo tables, like :class:`LatticeChecker`; safe
    to share across a specification's restrictions.  ``analyze`` caches
    per restriction, so the engine's resident workers pay the grounding
    cost once per (computation, restriction) pair.
    """

    def __init__(self, computation: Computation,
                 node_cap: int = DEFAULT_NODE_CAP,
                 cube_cap: int = DEFAULT_CUBE_CAP,
                 visit_cap: int = DEFAULT_VISIT_CAP):
        self._comp = computation
        self._index = event_index(computation)
        self._empty = empty_history(computation)
        self._node_cap = node_cap
        self._cube_cap = cube_cap
        self._visit_cap = visit_cap
        self._analyses: Dict[Restriction, SliceAnalysis] = {}
        # memo keys use id(node); every node that enters a memo is also
        # appended to _keep so its id stays live for the checker's life
        self._nnf_memo: Dict[Tuple[int, bool], tuple] = {}
        self._dnf_memo: Dict[int, tuple] = {}
        self._eval_memo: Dict[Tuple[int, int], bool] = {}
        self._keep: List[object] = []
        self._visited = 0
        self._nodes = 0
        self._max_cubes = 1

    @property
    def visited(self) -> int:
        """Evaluation steps so far (cube visits + eval memo misses)."""
        return self._visited

    # -- public API ---------------------------------------------------------

    def analyze(self, restriction: Restriction) -> SliceAnalysis:
        """Classify ``restriction`` and, when sliceable, decide it exactly."""
        hit = self._analyses.get(restriction)
        if hit is not None:
            return hit
        analysis = self._analyze(restriction)
        self._analyses[restriction] = analysis
        return analysis

    def _analyze(self, restriction: Restriction) -> SliceAnalysis:
        formula = restriction.formula
        if not formula.is_temporal():
            return SliceAnalysis(
                "immediate", None,
                "no temporal operator; checked at the complete computation")
        self._max_cubes = 1
        try:
            root = self._ground(formula, {})
            self._keep.append(root)
            verdict = self._eval_at(root, 0)
        except SliceError as exc:
            return SliceAnalysis("non-regular", None, str(exc))
        kind = "regular" if self._max_cubes <= 1 else "linear"
        return SliceAnalysis(kind, verdict, f"max {self._max_cubes} cube(s)")

    # -- grounding: Formula × Env → literal tree ----------------------------

    def _event(self, env: Dict, var: str):
        try:
            return env[var]
        except KeyError:
            raise SliceError(f"unbound variable {var!r}") from None

    def _bit(self, env: Dict, var: str) -> int:
        ev = self._event(env, var)
        try:
            return self._index.index_of[ev.eid]
        except KeyError:
            raise SliceError(
                f"{ev.eid} bound to {var!r} is not in the computation"
            ) from None

    def _ground(self, f: Formula, env: Dict) -> tuple:
        self._nodes += 1
        if self._nodes > self._node_cap:
            raise SliceError(
                f"grounded formula exceeds {self._node_cap} nodes")
        idx = self._index
        comp = self._comp
        if isinstance(f, TrueF):
            return _T
        if isinstance(f, FalseF):
            return _F
        if isinstance(f, Not):
            return _not(self._ground(f.body, env))
        if isinstance(f, And):
            return _and([self._ground(p, env) for p in f.parts])
        if isinstance(f, Or):
            return _or([self._ground(p, env) for p in f.parts])
        if isinstance(f, Implies):
            return _or([_not(self._ground(f.antecedent, env)),
                        self._ground(f.consequent, env)])
        if isinstance(f, Iff):
            a = self._ground(f.left, env)
            b = self._ground(f.right, env)
            return _or([_and([a, b]), _and([_not(a), _not(b)])])
        if isinstance(f, Henceforth):
            body = self._ground(f.body, env)
            # AG/AF of a history-independent truth value is that value
            return body if body[0] == "const" else ("box", body)
        if isinstance(f, Eventually):
            body = self._ground(f.body, env)
            return body if body[0] == "const" else ("dia", body)
        if isinstance(f, (ForAll, Exists)):
            parts = [self._ground(f.body, {**env, f.var: ev})
                     for ev in f.dom.events(comp)]
            return _and(parts) if isinstance(f, ForAll) else _or(parts)
        if isinstance(f, (ExistsUnique, AtMostOne)):
            parts = [self._ground(f.body, {**env, f.var: ev})
                     for ev in f.dom.events(comp)]
            if any(p[0] != "const" for p in parts):
                raise SliceError(
                    "counting quantifier over a history-dependent body")
            count = sum(1 for p in parts if p[1])
            return _const(count == 1 if isinstance(f, ExistsUnique)
                          else count <= 1)
        if isinstance(f, Occurred):
            return _lit(self._bit(env, f.var), True)
        if isinstance(f, AtElement):
            ev = self._event(env, f.var)
            if ev.element != f.element:
                return _F
            return _lit(self._bit(env, f.var), True)
        if isinstance(f, (Enables, ElementPrecedes, TemporallyPrecedes)):
            ea = self._event(env, f.a)
            eb = self._event(env, f.b)
            rel = (comp.enables if isinstance(f, Enables)
                   else comp.element_precedes if isinstance(f, ElementPrecedes)
                   else comp.temporally_precedes)
            if not rel(ea.eid, eb.eid):
                return _F
            return _and([_lit(self._bit(env, f.a), True),
                         _lit(self._bit(env, f.b), True)])
        if isinstance(f, Concurrent):
            return _const(comp.concurrent(self._event(env, f.a).eid,
                                          self._event(env, f.b).eid))
        if isinstance(f, EventEq):
            return _const(self._event(env, f.a).eid
                          == self._event(env, f.b).eid)
        if isinstance(f, New):
            i = self._bit(env, f.var)
            return _and([_lit(i, True)]
                        + [_lit(s, False)
                           for s in iter_bits(idx.temporal_succ[i])])
        if isinstance(f, Potential):
            i = self._bit(env, f.var)
            return _and([_lit(i, False)]
                        + [_lit(p, True)
                           for p in iter_bits(idx.temporal_pred[i])])
        if isinstance(f, AtControl):
            i = self._bit(env, f.var)
            targets = 0
            for t in f.dom.events(comp):
                ti = idx.index_of.get(t.eid)
                if ti is not None:
                    targets |= 1 << ti
            forbidden = idx.enable_succ[i] & targets
            return _and([_lit(i, True)]
                        + [_lit(t, False) for t in iter_bits(forbidden)])
        if isinstance(f, (SameThread, DistinctThreads)):
            shared = bool(self._event(env, f.a).threads
                          & self._event(env, f.b).threads)
            return _const(shared if isinstance(f, SameThread) else not shared)
        if isinstance(f, (DataEq, DataCmp)):
            # history-independent, but the interpreter may short-circuit
            # past a raising comparison; eager grounding must fall back
            # rather than diverge, so any failure is a SliceError
            try:
                return _const(bool(f._eval(self._empty, env)))
            except SliceError:
                raise
            except Exception as exc:
                raise SliceError(
                    f"data predicate {f.describe()} not groundable: {exc}"
                ) from None
        raise SliceError(f"no slice grounding for {type(f).__name__}")

    # -- negation normal form ----------------------------------------------

    def _nnf(self, node: tuple, neg: bool) -> tuple:
        """Push negation to literals.  Negated temporal operators stay as
        ``("not", ("box"/"dia", q))`` literals: under the branching
        semantics ¬□q is EF¬q, *not* ◇¬q, so ¬ must not cross □/◇."""
        key = (id(node), neg)
        hit = self._nnf_memo.get(key)
        if hit is not None:
            return hit
        kind = node[0]
        if kind == "const":
            out = _const(node[1] != neg)
        elif kind == "lit":
            out = _lit(node[1], node[2] != neg)
        elif kind == "not":
            out = self._nnf(node[1], not neg)
        elif kind == "and":
            parts = [self._nnf(p, neg) for p in node[1]]
            out = _or(parts) if neg else _and(parts)
        elif kind == "or":
            parts = [self._nnf(p, neg) for p in node[1]]
            out = _and(parts) if neg else _or(parts)
        elif kind in ("box", "dia"):
            out = ("not", node) if neg else node
        else:
            raise SliceError(f"cannot normalise slice node {kind!r}")
        self._nnf_memo[key] = out
        self._keep.append(node)
        self._keep.append(out)
        return out

    # -- disjunctive normal form over cubes ---------------------------------

    def _dnf(self, node: tuple) -> tuple:
        """Cubes ``(pos, neg, temporal_children)`` whose union is ``node``.
        Input must be in NNF."""
        key = id(node)
        hit = self._dnf_memo.get(key)
        if hit is not None:
            return hit
        kind = node[0]
        if kind == "const":
            cubes: Tuple = ((0, 0, ()),) if node[1] else ()
        elif kind == "lit":
            bit = 1 << node[1]
            cubes = ((bit, 0, ()),) if node[2] else ((0, bit, ()),)
        elif kind in ("box", "dia"):
            cubes = ((0, 0, (node,)),)
        elif kind == "not":
            if node[1][0] not in ("box", "dia"):
                raise SliceError("negation inside DNF input is not in NNF")
            cubes = ((0, 0, (node,)),)
        elif kind == "or":
            acc: List[tuple] = []
            for p in node[1]:
                acc.extend(self._dnf(p))
            cubes = tuple(acc)
        elif kind == "and":
            acc = [(0, 0, ())]
            for p in node[1]:
                nxt: List[tuple] = []
                for pos, negm, children in acc:
                    for p2, n2, c2 in self._dnf(p):
                        np_, nn = pos | p2, negm | n2
                        if np_ & nn:
                            continue  # contradictory cube, drop
                        nc = children + tuple(
                            c for c in c2 if c not in children)
                        nxt.append((np_, nn, nc))
                        if len(nxt) > self._cube_cap:
                            raise SliceError(
                                f"DNF exceeds {self._cube_cap} cubes")
                acc = nxt
            cubes = tuple(acc)
        else:
            raise SliceError(f"cannot DNF slice node {kind!r}")
        if len(cubes) > self._cube_cap:
            raise SliceError(f"DNF exceeds {self._cube_cap} cubes")
        self._max_cubes = max(self._max_cubes, len(cubes))
        self._dnf_memo[key] = cubes
        self._keep.append(node)
        return cubes

    # -- evaluation ---------------------------------------------------------

    def _bump(self) -> None:
        self._visited += 1
        if self._visited > self._visit_cap:
            raise SliceError(
                f"slice evaluation exceeded {self._visit_cap} steps")

    def _eval_at(self, node: tuple, mask: int) -> bool:
        """Exact truth of ``node`` at the cut ``mask``, matching the
        lattice interpreter's branching semantics (□ = AG, ◇ = AF)."""
        kind = node[0]
        if kind == "const":
            return node[1]
        if kind == "lit":
            return bool(mask >> node[1] & 1) == node[2]
        key = (id(node), mask)
        hit = self._eval_memo.get(key)
        if hit is not None:
            return hit
        self._bump()
        if kind == "not":
            out = not self._eval_at(node[1], mask)
        elif kind == "and":
            out = all(self._eval_at(p, mask) for p in node[1])
        elif kind == "or":
            out = any(self._eval_at(p, mask) for p in node[1])
        elif kind == "box":
            # AG q at m  ⇔  no cut ⊇ m satisfies ¬q
            out = not self._sat_up(self._nnf(node[1], True), mask)
        elif kind == "dia":
            # AF q at m  ⇔  no maximal chain from m keeps ¬q throughout
            out = not self._eg(self._nnf(node[1], True), mask)
        else:
            raise SliceError(f"cannot evaluate slice node {kind!r}")
        self._eval_memo[key] = out
        self._keep.append(node)
        return out

    def _sat_up(self, node: tuple, mask: int) -> bool:
        """∃ a cut ``h ⊇ mask`` satisfying ``node`` (NNF input).

        Per DNF cube the candidate cuts form the sublattice
        ``[low, hi] = [closure(mask|pos), full \\ ↑neg]``.  Temporal
        children are decided at the two extremal cuts: every child that
        evaluates without error is a monotone, antitone or constant
        function of the cut (AG is monotone, ¬AG antitone; AF/EG verdicts
        are only ever produced on shape-certified monotone/antitone
        regions, see :meth:`_eg`), so truth at an endpoint witnesses the
        cube and falsity at both endpoints refutes it.  Mixed-direction
        children are genuinely entangled and raise."""
        idx = self._index
        for pos, neg, children in self._dnf(node):
            self._bump()
            low = idx.down_closure(mask | pos)
            if low & neg:
                continue  # any candidate would contain a forbidden event
            if not children:
                return True  # low itself is a satisfying cut
            hi = idx.full_mask & ~idx.up_closure(neg)
            at_low = [self._eval_at(c, low) for c in children]
            if all(at_low):
                return True
            at_hi = [self._eval_at(c, hi) for c in children]
            if all(at_hi):
                return True
            if any(not lo and not hi_ for lo, hi_ in zip(at_low, at_hi)):
                continue  # some child is false on the whole interval
            raise SliceError("entangled temporal scenario in slice cube")
        return False

    def _eg(self, node: tuple, mask: int) -> bool:
        """∃ a maximal chain from ``mask`` with ``node`` true at every cut.

        Exact on three certified shapes -- ``node`` false at the full
        history (no chain can end true), monotone regions (every cube
        positive-only: truth at ``mask`` persists along any chain) and
        antitone regions (every cube negative-only: truth at the full
        history implies truth everywhere).  The shape check runs before
        any mask-specific answer so that every non-exceptional verdict
        certifies the region globally -- :meth:`_sat_up`'s endpoint rule
        relies on that."""
        cubes = self._dnf(node)
        if any(c[2] for c in cubes):
            raise SliceError("nested temporal operator under ◇")
        self._bump()
        if not self._eval_at(node, self._index.full_mask):
            return False  # every maximal chain ends at the full history
        monotone = all(c[1] == 0 for c in cubes)
        antitone = all(c[0] == 0 for c in cubes)
        if not (monotone or antitone):
            raise SliceError("◇ body over a mixed-polarity cube region")
        return self._eval_at(node, mask)


def predicate_cubes(computation: Computation, formula: Formula,
                    env: Optional[Dict] = None) -> Tuple[SliceCube, ...]:
    """The slice of an *immediate* formula, as cubes of cuts.

    Grounds ``formula`` (under ``env``) and returns the non-empty cubes
    of its DNF, each normalised so ``pos`` is down-closed.  The union of
    the cubes' cuts is exactly the set of histories satisfying the
    formula -- the property the Hypothesis laws in ``tests/test_slice.py``
    exercise.  Raises :class:`SliceError` on temporal or non-groundable
    formulas.
    """
    checker = SliceChecker(computation)
    root = checker._ground(formula, dict(env or {}))
    node = checker._nnf(root, False)
    idx = checker._index
    out: List[SliceCube] = []
    for pos, neg, children in checker._dnf(node):
        if children:
            raise SliceError("temporal operator inside an immediate predicate")
        low = idx.down_closure(pos)
        if low & idx.up_closure(neg):
            continue  # empty cube: a required event forces a forbidden one
        out.append(SliceCube(low, neg))
    return tuple(out)
