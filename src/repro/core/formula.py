"""The GEM restriction language: first-order logic + temporal operators.

"Restrictions are first-order logic formulae composed of GEM predicates,
the two temporal operators ◇ and □, and equality between events, groups,
and event data" (Section 8.2).

This module gives restrictions an explicit AST with two evaluation
entry points:

* :meth:`Formula.holds_at` -- evaluate as an *immediate assertion* at a
  single :class:`~repro.core.history.History` (GEM predicates are read
  off the prefix: ``occurred(e)`` means membership, order predicates are
  restricted to occurred events);
* :meth:`Formula.holds_on` -- evaluate over a
  :class:`~repro.core.history.HistorySequence` (a vhs).  An immediate
  assertion is true of a sequence iff it is true of the sequence's first
  history; ``□p`` quantifies over all tails, ``◇p`` over some tail,
  exactly as Section 7 defines them (finite-sequence semantics).

Quantifier domains range over the events *of the computation* (not just
of the current history): this is what lets restrictions such as readers'
priority say "if the write has occurred, the read must have occurred" --
the read event is quantified over even in histories where it has not yet
occurred, with ``occurred`` making the distinction.

Variables are bound to :class:`~repro.core.event.Event` objects.  Data
parameters are reached through :class:`Param` terms.  A ``PyPred``
escape hatch admits predicates that are clumsy to spell in the AST; it
is used sparingly and is always named so counterexamples stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .computation import Computation
from .element import EventClassRef
from .errors import SpecificationError
from .event import Event
from .history import History, HistorySequence
from .ids import EventClassName

Env = Dict[str, Event]


# ---------------------------------------------------------------------------
# Quantifier domains
# ---------------------------------------------------------------------------


class Domain:
    """Where a quantified variable ranges.  Subclasses enumerate events."""

    def events(self, computation: Computation) -> Tuple[Event, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ClassAt(Domain):
    """Events of one class at one element: the paper's ``e : Var.Assign``."""

    ref: EventClassRef

    def events(self, computation: Computation) -> Tuple[Event, ...]:
        return computation.events_of(self.ref)

    def describe(self) -> str:
        return str(self.ref)


@dataclass(frozen=True)
class ClassAnywhere(Domain):
    """Events of one class regardless of element (``e : Assign``)."""

    event_class: EventClassName

    def events(self, computation: Computation) -> Tuple[Event, ...]:
        return computation.events_of_class(self.event_class)

    def describe(self) -> str:
        return self.event_class


@dataclass(frozen=True)
class UnionDomain(Domain):
    """Union of several domains -- the paper's ``{Event Class Set}``."""

    parts: Tuple[Domain, ...]

    def events(self, computation: Computation) -> Tuple[Event, ...]:
        seen: Dict[object, Event] = {}
        for part in self.parts:
            for ev in part.events(computation):
                seen.setdefault(ev.eid, ev)
        return tuple(seen.values())

    def describe(self) -> str:
        return "{" + ", ".join(p.describe() for p in self.parts) + "}"


@dataclass(frozen=True)
class AllEvents(Domain):
    """Every event of the computation."""

    def events(self, computation: Computation) -> Tuple[Event, ...]:
        return computation.events

    def describe(self) -> str:
        return "<any>"


def domain(spec: Union[Domain, EventClassRef, str, Iterable]) -> Domain:
    """Coerce common spellings into a :class:`Domain`.

    Strings containing a dot parse as ``element.Class``; bare strings are
    class-anywhere; iterables form unions.
    """
    if isinstance(spec, Domain):
        return spec
    if isinstance(spec, EventClassRef):
        return ClassAt(spec)
    if isinstance(spec, str):
        if "." in spec:
            return ClassAt(EventClassRef.parse(spec))
        return ClassAnywhere(spec)
    if isinstance(spec, Iterable):
        return UnionDomain(tuple(domain(s) for s in spec))
    raise SpecificationError(f"cannot interpret {spec!r} as a quantifier domain")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """A data term: evaluates to a value under an environment."""

    def value(self, env: Env) -> Any:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Term):
    """A literal value."""

    val: Any

    def value(self, env: Env) -> Any:
        return self.val

    def describe(self) -> str:
        return repr(self.val)


@dataclass(frozen=True)
class Param(Term):
    """``var.name`` -- a data parameter of a bound event."""

    var: str
    name: str

    def value(self, env: Env) -> Any:
        return env[self.var].param(self.name)

    def describe(self) -> str:
        return f"{self.var}.{self.name}"


def term(spec: Union[Term, Any]) -> Term:
    return spec if isinstance(spec, Term) else Const(spec)


# ---------------------------------------------------------------------------
# Formula base and boolean connectives
# ---------------------------------------------------------------------------


class Formula:
    """Base class.  Immutable; combine with ``&``, ``|``, ``~``, ``>>``."""

    def holds_at(self, history: History, env: Optional[Env] = None) -> bool:
        """Evaluate as an immediate assertion at ``history``."""
        return self._eval(history, dict(env or {}))

    def holds_on(self, seq: HistorySequence, env: Optional[Env] = None) -> bool:
        """Evaluate over a valid history sequence."""
        return self._eval_seq(seq, 0, dict(env or {}))

    # subclasses implement _eval; temporal subclasses override _eval_seq
    def _eval(self, history: History, env: Env) -> bool:
        raise NotImplementedError

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        # an immediate assertion is true of a sequence iff true of its
        # first history (Section 7)
        return self._eval(seq[i], env)

    def is_temporal(self) -> bool:
        """Does the formula contain □ or ◇ anywhere?"""
        return any(child.is_temporal() for child in self._children())

    def _children(self) -> Tuple["Formula", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """``p >> q`` is implication ``p ⊃ q``."""
        return Implies(self, other)

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class TrueF(Formula):
    def _eval(self, history: History, env: Env) -> bool:
        return True

    def describe(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def _eval(self, history: History, env: Env) -> bool:
        return False

    def describe(self) -> str:
        return "false"


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def _eval(self, history: History, env: Env) -> bool:
        return not self.body._eval(history, env)

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return not self.body._eval_seq(seq, i, env)

    def _children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def describe(self) -> str:
        return f"¬({self.body.describe()})"


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]

    def _eval(self, history: History, env: Env) -> bool:
        return all(p._eval(history, env) for p in self.parts)

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return all(p._eval_seq(seq, i, env) for p in self.parts)

    def _children(self) -> Tuple[Formula, ...]:
        return self.parts

    def describe(self) -> str:
        return "(" + " ∧ ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]

    def _eval(self, history: History, env: Env) -> bool:
        return any(p._eval(history, env) for p in self.parts)

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return any(p._eval_seq(seq, i, env) for p in self.parts)

    def _children(self) -> Tuple[Formula, ...]:
        return self.parts

    def describe(self) -> str:
        return "(" + " ∨ ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def _eval(self, history: History, env: Env) -> bool:
        return (not self.antecedent._eval(history, env)) or self.consequent._eval(
            history, env
        )

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return (not self.antecedent._eval_seq(seq, i, env)) or (
            self.consequent._eval_seq(seq, i, env)
        )

    def _children(self) -> Tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def describe(self) -> str:
        return f"({self.antecedent.describe()} ⊃ {self.consequent.describe()})"


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def _eval(self, history: History, env: Env) -> bool:
        return self.left._eval(history, env) == self.right._eval(history, env)

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return self.left._eval_seq(seq, i, env) == self.right._eval_seq(seq, i, env)

    def _children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"({self.left.describe()} ≡ {self.right.describe()})"


# ---------------------------------------------------------------------------
# Quantifiers
# ---------------------------------------------------------------------------


class _Quantifier(Formula):
    """Shared machinery: bind ``var`` over ``dom`` and fold the body."""

    def __init__(self, var: str, dom: Union[Domain, EventClassRef, str, Iterable],
                 body: Formula):
        self.var = var
        self.dom = domain(dom)
        self.body = body

    def _bindings(self, history: History, env: Env) -> Iterator[Env]:
        for ev in self.dom.events(history.computation):
            env2 = dict(env)
            env2[self.var] = ev
            yield env2

    def _children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.var == other.var  # type: ignore[attr-defined]
            and self.dom == other.dom  # type: ignore[attr-defined]
            and self.body == other.body  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.var, self.dom, self.body))


class ForAll(_Quantifier):
    """``(∀ var : Domain) body``."""

    def _eval(self, history: History, env: Env) -> bool:
        return all(self.body._eval(history, e) for e in self._bindings(history, env))

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return all(
            self.body._eval_seq(seq, i, e) for e in self._bindings(seq[i], env)
        )

    def describe(self) -> str:
        return f"(∀ {self.var}:{self.dom.describe()}) {self.body.describe()}"


class Exists(_Quantifier):
    """``(∃ var : Domain) body``."""

    def _eval(self, history: History, env: Env) -> bool:
        return any(self.body._eval(history, e) for e in self._bindings(history, env))

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return any(
            self.body._eval_seq(seq, i, e) for e in self._bindings(seq[i], env)
        )

    def describe(self) -> str:
        return f"(∃ {self.var}:{self.dom.describe()}) {self.body.describe()}"


class ExistsUnique(_Quantifier):
    """``(∃! var : Domain) body`` -- exactly one binding satisfies the body."""

    def _count(self, history: History, env: Env, seq=None, i=0) -> int:
        count = 0
        for e in self._bindings(history, env):
            ok = (
                self.body._eval_seq(seq, i, e)
                if seq is not None
                else self.body._eval(history, e)
            )
            if ok:
                count += 1
                if count > 1:
                    break
        return count

    def _eval(self, history: History, env: Env) -> bool:
        return self._count(history, env) == 1

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return self._count(seq[i], env, seq, i) == 1

    def describe(self) -> str:
        return f"(∃! {self.var}:{self.dom.describe()}) {self.body.describe()}"


class AtMostOne(_Quantifier):
    """``(∃ at most one var : Domain) body`` -- the paper's phrasing."""

    def _eval(self, history: History, env: Env) -> bool:
        count = 0
        for e in self._bindings(history, env):
            if self.body._eval(history, e):
                count += 1
                if count > 1:
                    return False
        return True

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        count = 0
        for e in self._bindings(seq[i], env):
            if self.body._eval_seq(seq, i, e):
                count += 1
                if count > 1:
                    return False
        return True

    def describe(self) -> str:
        return f"(∃≤1 {self.var}:{self.dom.describe()}) {self.body.describe()}"


# ---------------------------------------------------------------------------
# Atomic GEM predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Occurred(Formula):
    """``occurred(var)`` -- the bound event is in the history."""

    var: str

    def _eval(self, history: History, env: Env) -> bool:
        return history.occurred(env[self.var].eid)

    def describe(self) -> str:
        return f"occurred({self.var})"


@dataclass(frozen=True)
class AtElement(Formula):
    """``var @ EL`` -- the bound event occurs at element EL."""

    var: str
    element: str

    def _eval(self, history: History, env: Env) -> bool:
        ev = env[self.var]
        return ev.element == self.element and history.occurred(ev.eid)

    def describe(self) -> str:
        return f"{self.var} @ {self.element}"


@dataclass(frozen=True)
class Enables(Formula):
    """``a ⊳ b`` -- a directly enables b; both occurred in the history."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        ea, eb = env[self.a], env[self.b]
        return (
            history.occurred(ea.eid)
            and history.occurred(eb.eid)
            and history.computation.enables(ea.eid, eb.eid)
        )

    def describe(self) -> str:
        return f"{self.a} ⊳ {self.b}"


@dataclass(frozen=True)
class ElementPrecedes(Formula):
    """``a ⇒ₑ b`` -- element order; both occurred in the history."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        ea, eb = env[self.a], env[self.b]
        return (
            history.occurred(ea.eid)
            and history.occurred(eb.eid)
            and history.computation.element_precedes(ea.eid, eb.eid)
        )

    def describe(self) -> str:
        return f"{self.a} ⇒ₑ {self.b}"


@dataclass(frozen=True)
class TemporallyPrecedes(Formula):
    """``a ⇒ b`` -- temporal order; both occurred in the history."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        ea, eb = env[self.a], env[self.b]
        return (
            history.occurred(ea.eid)
            and history.occurred(eb.eid)
            and history.computation.temporally_precedes(ea.eid, eb.eid)
        )

    def describe(self) -> str:
        return f"{self.a} ⇒ {self.b}"


@dataclass(frozen=True)
class Concurrent(Formula):
    """Potentially concurrent: distinct and temporally unordered."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        return history.computation.concurrent(env[self.a].eid, env[self.b].eid)

    def describe(self) -> str:
        return f"{self.a} ∥ {self.b}"


@dataclass(frozen=True)
class EventEq(Formula):
    """``a = b`` between bound events."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        return env[self.a].eid == env[self.b].eid

    def describe(self) -> str:
        return f"{self.a} = {self.b}"


@dataclass(frozen=True)
class DataEq(Formula):
    """Equality between two data terms (``send.par1 = receive.par2``)."""

    left: Term
    right: Term

    def _eval(self, history: History, env: Env) -> bool:
        return self.left.value(env) == self.right.value(env)

    def describe(self) -> str:
        return f"{self.left.describe()} = {self.right.describe()}"


@dataclass(frozen=True)
class DataCmp(Formula):
    """An ordered comparison between two data terms."""

    left: Term
    op: str  # one of < <= > >= !=
    right: Term

    _OPS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "!=": lambda a, b: a != b,
    }

    def _eval(self, history: History, env: Env) -> bool:
        try:
            fn = self._OPS[self.op]
        except KeyError:
            raise SpecificationError(f"unknown comparison operator {self.op!r}")
        return fn(self.left.value(env), self.right.value(env))

    def describe(self) -> str:
        return f"{self.left.describe()} {self.op} {self.right.describe()}"


@dataclass(frozen=True)
class New(Formula):
    """``new(var)`` -- var occurred and nothing observably followed it."""

    var: str

    def _eval(self, history: History, env: Env) -> bool:
        return history.new(env[self.var].eid)

    def describe(self) -> str:
        return f"new({self.var})"


@dataclass(frozen=True)
class Potential(Formula):
    """``potential(var)`` -- var could legally extend the history."""

    var: str

    def _eval(self, history: History, env: Env) -> bool:
        return history.potential(env[self.var].eid)

    def describe(self) -> str:
        return f"potential({self.var})"


class AtControl(Formula):
    """``var at E`` -- var occurred and has not enabled an E event (§8.2.4)."""

    def __init__(self, var: str, dom: Union[Domain, EventClassRef, str, Iterable]):
        self.var = var
        self.dom = domain(dom)

    def _eval(self, history: History, env: Env) -> bool:
        targets = (ev.eid for ev in self.dom.events(history.computation))
        return history.at(env[self.var].eid, targets)

    def describe(self) -> str:
        return f"{self.var} at {self.dom.describe()}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AtControl)
            and self.var == other.var
            and self.dom == other.dom
        )

    def __hash__(self) -> int:
        return hash(("AtControl", self.var, self.dom))


@dataclass(frozen=True)
class SameThread(Formula):
    """The two bound events share at least one thread identifier."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        return bool(env[self.a].threads & env[self.b].threads)

    def describe(self) -> str:
        return f"samethread({self.a}, {self.b})"


@dataclass(frozen=True)
class DistinctThreads(Formula):
    """The two bound events' thread label sets are disjoint."""

    a: str
    b: str

    def _eval(self, history: History, env: Env) -> bool:
        return not (env[self.a].threads & env[self.b].threads)

    def describe(self) -> str:
        return f"distinctthreads({self.a}, {self.b})"


class PyPred(Formula):
    """Named escape hatch: a Python predicate over (history, env).

    Use when the prose restriction is far easier to state directly in
    Python than in the AST.  Keep the name specific -- it is what appears
    in counterexample reports.
    """

    def __init__(self, name: str, fn: Callable[[History, Env], bool]):
        self.name = name
        self.fn = fn

    def _eval(self, history: History, env: Env) -> bool:
        return bool(self.fn(history, env))

    def describe(self) -> str:
        return f"<{self.name}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PyPred) and self.name == other.name and self.fn is other.fn

    def __hash__(self) -> int:
        return hash(("PyPred", self.name, id(self.fn)))


# ---------------------------------------------------------------------------
# Temporal operators (Section 7)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Henceforth(Formula):
    """``□ p`` -- p holds of every tail of the sequence."""

    body: Formula

    def _eval(self, history: History, env: Env) -> bool:
        raise SpecificationError(
            "□ is a temporal operator; evaluate it on a history sequence "
            "(holds_on), not a single history"
        )

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return all(self.body._eval_seq(seq, j, env) for j in range(i, len(seq)))

    def is_temporal(self) -> bool:
        return True

    def _children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def describe(self) -> str:
        return f"□({self.body.describe()})"


@dataclass(frozen=True)
class Eventually(Formula):
    """``◇ p`` -- p holds of some tail of the sequence."""

    body: Formula

    def _eval(self, history: History, env: Env) -> bool:
        raise SpecificationError(
            "◇ is a temporal operator; evaluate it on a history sequence "
            "(holds_on), not a single history"
        )

    def _eval_seq(self, seq: HistorySequence, i: int, env: Env) -> bool:
        return any(self.body._eval_seq(seq, j, env) for j in range(i, len(seq)))

    def is_temporal(self) -> bool:
        return True

    def _children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def describe(self) -> str:
        return f"◇({self.body.describe()})"


# ---------------------------------------------------------------------------
# Restrictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Restriction:
    """A named restriction: the unit a GEM specification is made of.

    ``formula`` may be immediate (checked at the complete computation)
    or temporal (checked over valid history sequences); the checker
    dispatches on :meth:`Formula.is_temporal`.
    """

    name: str
    formula: Formula
    comment: str = ""

    def describe(self) -> str:
        suffix = f"  -- {self.comment}" if self.comment else ""
        return f"{self.name}: {self.formula.describe()}{suffix}"
