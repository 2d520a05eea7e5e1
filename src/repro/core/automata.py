"""On-the-fly temporal checking: restriction DFAs over the event alphabet.

Every temporal restriction used to be decided *post-hoc*: the scheduler
enumerates complete runs, and only then does the checker (slice or
lattice walk) pass verdict per computation.  This
module compiles each □/◇ restriction into a minimal DFA over the
alphabet "event *i* was added to the execution prefix", so that a
per-path :class:`AutomatonMonitor` threaded through
:func:`repro.sim.scheduler.explore` can decide restrictions *while*
exploring:

* a restriction whose DFA reaches its **rejecting sink** on some prefix
  is *provably violated by every completion* of that prefix -- the whole
  subtree below carries an early-violation verdict and the expensive
  per-computation check is skipped for it;
* a restriction whose DFA reaches its **accepting sink** is provably
  satisfied by every completion, and likewise never re-checked below.

The run *census* is never changed: GEM reports count runs, deadlocks
and failing-run indices, so the monitor cuts **checking work**, not
runs, and report signatures are byte-identical with the monitor on or
off (gated by tests and the ``dfa-differential`` fuzz oracle).

Soundness certificates
----------------------
Enable edges only ever point old → new (builder semantics), which makes
every prefix of an execution *relation-stable*: the temporal/enable
relations, thread labels, and history predicates among prefix events
never change as the execution extends, and every down-closed cut of the
prefix is a reachable cut of the completion.  On top of that:

``BOX_REJECT`` (□ body, under an optional ∀-prefix -- hoisting is valid
because GEM quantifier domains are rigid):  eligible when *falsity
transfers* (:func:`_transfers`): the body false at a fixed cut of the
prefix is false at that same cut in every extension.  Since a □ failing
on the prefix exhibits a reachable prefix cut where the body is false,
and prefix cuts remain reachable cuts of every completion, the
completion provably fails -- the DFA may enter its rejecting sink.
Transfer is a syntactic analysis over the *exact stability* of every
non-``PyPred`` atom at fixed bindings, with quantifier-domain growth
discharged by occurrence-guardedness (``∃`` gains no witness the cut
does not contain) and vacuity (``∀`` over unoccurred bindings holds
trivially).

``DIA_ACCEPT`` (◇ body at top level):  every maximal chain of the
history lattice ends at the full history, so ``body`` true at the top
implies ``AF body`` unconditionally.  Eligible when *truth transfers*
(the body true at the prefix's top stays true at that cut in every
extension, new quantifier bindings included) *and* the body is monotone
in the history at rigid domains -- together: true at the extension's
own top, so the DFA may enter its accepting sink.

``DIA_LEAF``:  a boolean/quantifier tree whose non-temporal atoms are
history-independent and whose ◇-leaves have *monotone* bodies satisfies
``F  ⟺  strip(F)`` evaluated at the full history (``◇q ⟺ q@top`` in
both directions for monotone ``q``).  Not an early decision -- domains
grow -- but a checker fast path at complete computations: no lattice
walk at all (``provenance="dfa"``).

``INERT``:  everything else (opaque bodies -- ``PyPred`` or a user
subclass of a built-in node -- nested temporal,
counting quantifiers, quantifier blow-up past the cap) is left entirely
to the post-hoc pipeline, with the reason recorded and counted.

Overhead control mirrors the related LTLf2DFA work's cache/explosion
handling: the scheduler probes branch points only (a single-branch
node's verdicts are decided the same way one branch point further
down), a *significance trigger* skips every branch point whose prefix
gained no correspondence-kept event (no freeze, no projection), guard
evaluation is memoised per projected-prefix fingerprint (diamond
prefixes collapse), probing stops after :data:`DEFAULT_PROBE_BUDGET`
guard evaluations and :data:`DEFAULT_PROJECTION_BUDGET` projections, a
quantifier cap rules out grounding blow-ups up front, and the
automata are part of the specification's one
:class:`~repro.core.plan.SpecPlan`, built once per specification
content, so resident serve workers never re-analyse a resubmitted
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .formula import (
    And,
    AtElement,
    AtMostOne,
    ElementPrecedes,
    Enables,
    Eventually,
    Exists,
    ExistsUnique,
    ForAll,
    Formula,
    Henceforth,
    Iff,
    Implies,
    Not,
    Occurred,
    Or,
    Restriction,
    TemporallyPrecedes,
    TrueF,
)
from .history import full_history
from .plan import (
    HISTORY_INDEPENDENT,
    MONOTONE_ATOMS,
    STABLE_ATOMS,
    CheckContext,
    SpecPlan,
    plan_for,
    shape,
)

#: Per-monitor probe budget: after this many guard evaluations (memo
#: misses, each one restriction check on one projected prefix) an
#: undecided monitor goes dormant (decisions already taken stay valid).
DEFAULT_PROBE_BUDGET = 1024
#: Per-monitor projection budget: :meth:`AutomatonMonitor.advance`
#: projects, labels and fingerprints at most this many prefixes (memo
#: hits included) before going dormant -- the hard bound on total
#: monitor overhead per task, independent of guard work.
DEFAULT_PROJECTION_BUDGET = 8192
#: Quantifier-count cap: restrictions with more quantifiers than this
#: are classified inert rather than risking grounding blow-up per probe.
DEFAULT_QUANTIFIER_CAP = 8
#: Memoised guard verdicts kept per monitor (prefix fingerprints).
_GUARD_MEMO_CAP = 4096

# -- automaton kinds --------------------------------------------------------

BOX_REJECT = "box-reject"
DIA_ACCEPT = "dia-accept"
DIA_LEAF = "dia-leaf"
INERT = "inert"

# -- DFA states (shared by every restriction automaton: the minimal
#    3-state machine WATCH --guard--> ACCEPT|REJECT, sinks absorbing) --

WATCH = "watch"
ACCEPT = "accept"
REJECT = "reject"

def _occ_guarded(f: Formula, var: str) -> bool:
    """``f`` true at a cut forces ``occurred(var)`` at that cut.

    Sound syntactic under-approximation: every :data:`MONOTONE_ATOMS`
    atom's evaluation conjoins ``history.occurred`` for each operand, so
    any such atom mentioning ``var`` guards it.  Events *new* in an
    extension are never members of a prefix cut, so a guarded body can
    gain no new bindings at a fixed cut -- the lemma both quantifier
    transfer rules below lean on.
    """
    if isinstance(f, (Occurred, AtElement)):
        return f.var == var
    if isinstance(f, (Enables, ElementPrecedes, TemporallyPrecedes)):
        return var in (f.a, f.b)
    if isinstance(f, And):
        return any(_occ_guarded(p, var) for p in f.parts)
    if isinstance(f, Or):
        # Or(()) is constant-false: "true ⇒ occurred" holds vacuously
        return all(_occ_guarded(p, var) for p in f.parts)
    if isinstance(f, (Exists, ExistsUnique)):
        # a witness binding makes the body true, so the body's guard
        # fires -- unless the inner quantifier shadows ``var``
        return f.var != var and _occ_guarded(f.body, var)
    # ForAll/AtMostOne can be vacuously true; Not/Implies/Iff give no
    # positive occurrence guarantee
    return False


def _vacuous(f: Formula, var: str) -> bool:
    """``¬occurred(var)`` at a cut forces ``f`` true there.

    The ∀-rule's companion lemma: bindings new in an extension are
    absent from every prefix cut, so a vacuous body is true of them and
    a ``∀`` that held over the prefix domain still holds over the grown
    one.
    """
    if isinstance(f, TrueF):
        return True
    if isinstance(f, Not):
        # ¬ψ with ψ ⇒ occurred(var): an unoccurred binding falsifies ψ
        return _occ_guarded(f.body, var)
    if isinstance(f, Implies):
        return (_occ_guarded(f.antecedent, var)
                or _vacuous(f.consequent, var))
    if isinstance(f, Or):
        return any(_vacuous(p, var) for p in f.parts)
    if isinstance(f, And):
        return all(_vacuous(p, var) for p in f.parts)
    if isinstance(f, ForAll):
        return f.var != var and _vacuous(f.body, var)
    return False


def _transfers(f: Formula, up: bool) -> bool:
    """Truth (``up``) / falsity (``not up``) of ``f`` at a **fixed** cut
    of a prefix transfers to that same cut viewed in any extension.

    The crux: enable edges only point old → new, so relations, thread
    labels and cut membership among prefix events never change as the
    execution extends -- every non-``PyPred`` atom is *exactly stable*
    at a fixed (cut, old-bindings) pair.  Only quantifier domains grow.
    Hence the rules:

    * atoms transfer both ways; connectives recurse with ``Implies``
      flipping its antecedent and ``Iff`` needing both sides both ways;
    * ``∃`` transfers truth (an old witness stays a witness) and
      transfers falsity only when the body is occurrence-guarded in the
      bound variable (no *new* binding can satisfy it at an old cut);
    * ``∀`` transfers falsity (an old counterexample survives) and
      transfers truth only when new bindings are vacuously satisfied;
    * counting quantifiers need the witness *set* pinned: body stable
      both ways and occurrence-guarded;
    * ``PyPred`` receives the full :class:`History` -- including the
      ambient computation -- and transfers nothing; nested temporal
      operators move the cut and are handled by the outer classifier.
    """
    if isinstance(f, (HISTORY_INDEPENDENT + MONOTONE_ATOMS
                      + STABLE_ATOMS)):
        return True
    if isinstance(f, Not):
        return _transfers(f.body, not up)
    if isinstance(f, (And, Or)):
        return all(_transfers(p, up) for p in f.parts)
    if isinstance(f, Implies):
        return (_transfers(f.antecedent, not up)
                and _transfers(f.consequent, up))
    if isinstance(f, Iff):
        return all(_transfers(side, d)
                   for side in (f.left, f.right) for d in (True, False))
    if isinstance(f, Exists):
        if not _transfers(f.body, up):
            return False
        return up or _occ_guarded(f.body, f.var)
    if isinstance(f, ForAll):
        if not _transfers(f.body, up):
            return False
        return (not up) or _vacuous(f.body, f.var)
    if isinstance(f, (ExistsUnique, AtMostOne)):
        return (_transfers(f.body, True) and _transfers(f.body, False)
                and _occ_guarded(f.body, f.var))
    return False


def _domain_classes(dom) -> Optional[frozenset]:
    """Event classes a quantifier domain draws from (None = any)."""
    from .formula import AllEvents, ClassAnywhere, ClassAt, UnionDomain

    if isinstance(dom, ClassAnywhere):
        return frozenset((dom.event_class,))
    if isinstance(dom, ClassAt):
        return frozenset((dom.ref.event_class,))
    if isinstance(dom, UnionDomain):
        out = set()
        for part in dom.parts:
            classes = _domain_classes(part)
            if classes is None:
                return None
            out |= classes
        return frozenset(out)
    if isinstance(dom, AllEvents):
        return None
    return None


def _alphabet(f: Formula) -> Optional[frozenset]:
    """The automaton's input alphabet: event classes whose arrival can
    change the formula's verdict on a growing prefix (None = every
    event is a letter).

    Sound because (a) enable edges only point old → new, so any cut of
    an extended prefix restricts -- by repeatedly dropping maximal new
    events -- to a cut of the unextended prefix with the same
    domain-class membership, and (b) when every atom is
    history-independent or occurrence-monotone over *bound* variables,
    a formula's truth at a cut depends only on which domain-class
    events the cut contains.  The cut-sensitive stable atoms (``new``,
    ``potential``, ``at``) read the whole cut, so they widen the
    alphabet to everything, as do ``PyPred`` and all-events domains.
    """
    if isinstance(f, (HISTORY_INDEPENDENT + MONOTONE_ATOMS)):
        return frozenset()
    if isinstance(f, STABLE_ATOMS):
        return None
    if isinstance(f, (Henceforth, Eventually, Not)):
        return _alphabet(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        out = set()
        for child in f._children():
            classes = _alphabet(child)
            if classes is None:
                return None
            out |= classes
        return frozenset(out)
    if isinstance(f, (ForAll, Exists, ExistsUnique, AtMostOne)):
        dom_classes = _domain_classes(f.dom)
        body_classes = _alphabet(f.body)
        if dom_classes is None or body_classes is None:
            return None
        return dom_classes | body_classes
    return None


def _dia_leaf(f: Formula) -> bool:
    """``F ⟺ strip(F)@full-history`` certificate for the whole tree.

    A ◇-leaf needs a body monotone in the history at *fixed* quantifier
    domains (``◇q ⟺ q@top`` both ways, :attr:`Shape.monotone`)."""
    if isinstance(f, Eventually):
        return shape(f.body).monotone
    if isinstance(f, Henceforth):
        return False
    if isinstance(f, HISTORY_INDEPENDENT):
        return True
    if isinstance(f, (MONOTONE_ATOMS + STABLE_ATOMS)):
        # outer atoms are evaluated at the *empty* history by the
        # lattice semantics; only history-independent ones transfer
        return False
    if isinstance(f, (ForAll, Exists, ExistsUnique, AtMostOne, Not, And, Or,
                      Implies, Iff)):
        return all(_dia_leaf(c) for c in f._children())
    return False


def _strip(f: Formula) -> Formula:
    """Replace every ◇-leaf by its body (valid under :func:`_dia_leaf`)."""
    if isinstance(f, Eventually):
        return f.body
    if isinstance(f, Not):
        return Not(_strip(f.body))
    if isinstance(f, And):
        return And(tuple(_strip(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_strip(p) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(_strip(f.antecedent), _strip(f.consequent))
    if isinstance(f, Iff):
        return Iff(_strip(f.left), _strip(f.right))
    if isinstance(f, ForAll):
        return ForAll(f.var, f.dom, _strip(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, f.dom, _strip(f.body))
    if isinstance(f, ExistsUnique):
        return ExistsUnique(f.var, f.dom, _strip(f.body))
    if isinstance(f, AtMostOne):
        return AtMostOne(f.var, f.dom, _strip(f.body))
    return f


@dataclass(frozen=True)
class RestrictionAutomaton:
    """The minimal DFA for one temporal restriction.

    All four kinds share the same 3-state presentation over the "event
    added" alphabet: ``WATCH`` (initial), plus absorbing ``ACCEPT`` and
    ``REJECT`` sinks.  The transition *guard* is the memoised predicate
    :meth:`probe` evaluates on a projected prefix; ``INERT`` automata
    have no transitions out of ``WATCH`` at all and ``DIA_LEAF`` ones
    transition only on the final letter (the complete computation).
    """

    restriction: Restriction
    kind: str
    #: why an ``INERT`` classification was made ("" otherwise)
    reason: str = ""
    #: ``strip(F)`` for the ◇-kinds (what :meth:`resolve_at_top` evaluates)
    stripped: Optional[Formula] = field(default=None, compare=False)
    #: the DFA's input alphabet: problem-level event classes that are
    #: letters (can move the machine); ``None`` = every event class
    alphabet: Optional[frozenset] = field(default=None, compare=False)

    @property
    def name(self) -> str:
        return self.restriction.name

    @property
    def monitorable(self) -> bool:
        """Can this automaton leave ``WATCH`` on a *proper* prefix?"""
        return self.kind in (BOX_REJECT, DIA_ACCEPT)

    @property
    def leaf_resolvable(self) -> bool:
        """Can the checker resolve this at the top without any walk?"""
        return self.kind in (DIA_ACCEPT, DIA_LEAF)

    def states(self) -> Tuple[str, ...]:
        if self.kind == INERT:
            return (WATCH,)
        return (WATCH, ACCEPT) if self.kind != BOX_REJECT else (WATCH, REJECT)

    def probe(self, prefix, history_cap: int,
              plan: SpecPlan) -> Optional[bool]:
        """One guard evaluation on a projected, thread-labelled prefix.

        Returns the restriction's (completion-wide) verdict when the DFA
        leaves ``WATCH``, else ``None``.  Pure function of the prefix
        computation -- replay, sharding and witnesses stay byte-identical.
        A ``BOX_REJECT`` guard is the ``auto`` check of the restriction
        on the prefix, routed by ``plan`` (the plan this automaton came
        from), so it is not re-classified.
        """
        if self.kind == BOX_REJECT:
            from .checker import check_restriction

            outcome = check_restriction(
                prefix, self.restriction, history_cap=history_cap,
                context=CheckContext(plan, prefix, history_cap))
            return False if not outcome.holds else None
        if self.kind == DIA_ACCEPT:
            assert self.stripped is not None
            if self.stripped.holds_at(full_history(prefix)):
                return True
            return None
        return None

    def resolve_at_top(self, computation) -> bool:
        """Checker fast path at a complete computation (◇-kinds only)."""
        assert self.stripped is not None
        return self.stripped.holds_at(full_history(computation))

    def describe(self) -> str:
        tail = f" ({self.reason})" if self.reason else ""
        return f"{self.name}: {self.kind}{tail}"


def classify_restriction(
        restriction: Restriction,
        quantifier_cap: int = DEFAULT_QUANTIFIER_CAP,
) -> RestrictionAutomaton:
    """Compile one temporal restriction to its :class:`RestrictionAutomaton`.

    Non-temporal restrictions never reach here (the checker evaluates
    them at the full history directly); they classify inert if they do.
    """
    formula = restriction.formula
    facts = shape(formula)
    if not facts.temporal:
        return RestrictionAutomaton(restriction, INERT, "not temporal")
    if facts.quantifiers > quantifier_cap:
        return RestrictionAutomaton(
            restriction, INERT,
            f"more than {quantifier_cap} quantifiers (grounding cap)")
    if facts.opaque:
        # the certificates below read a node by its built-in type; an
        # opaque one (PyPred, a user subclass) means what its own
        # ``_eval`` says, which only the interpreter asks
        return RestrictionAutomaton(restriction, INERT,
                                    f"opaque {facts.opaque} body")
    # hoist the ∀-prefix over □ (valid: GEM domains are rigid, so
    # ∀x.□p ⟺ □∀x.p) and look for the safety shape: a □ fails on the
    # prefix at some prefix cut, prefix cuts survive into every
    # extension, and a falsity-transferring body stays false there
    body = formula
    while isinstance(body, ForAll):
        body = body.body
    if isinstance(body, Henceforth) and _transfers(body.body, False):
        return RestrictionAutomaton(restriction, BOX_REJECT,
                                    alphabet=_alphabet(formula))
    # ◇ accepts early when its body, true at the prefix *top*, (a)
    # transfers to that cut in every extension and (b) is monotone, so
    # it stays true at the extension's own top -- where every maximal
    # chain ends
    if isinstance(formula, Eventually) and shape(
            formula.body).monotone and _transfers(formula.body, True):
        return RestrictionAutomaton(restriction, DIA_ACCEPT,
                                    stripped=formula.body,
                                    alphabet=_alphabet(formula))
    if _dia_leaf(formula):
        return RestrictionAutomaton(restriction, DIA_LEAF,
                                    stripped=_strip(formula))
    if isinstance(body, Henceforth):
        return RestrictionAutomaton(
            restriction, INERT, "□-body falsity not extension-stable")
    return RestrictionAutomaton(restriction, INERT, "shape not regular")


#: The automata are part of the specification's one plan.
automata_plan_for = plan_for


class _MonitorNode:
    """Immutable per-path product state: which automata still watch,
    the verdicts decided so far on this path, and how many raw prefix
    events the significance trigger has already scanned."""

    __slots__ = ("active", "decided", "seen")

    def __init__(self, active: Tuple[int, ...],
                 decided: Tuple[Tuple[str, bool], ...],
                 seen: int = 0) -> None:
        self.active = active
        self.decided = decided
        self.seen = seen


class AutomatonMonitor:
    """The per-task DFA product the scheduler threads through its DFS.

    One monitor per explore task; nodes (:class:`_MonitorNode`) are
    immutable and flow down the recursion, so sibling subtrees never see
    each other's decisions -- every decision is a pure function of the
    path's own prefix.  The interaction rule with partial-order
    reduction: POR picks the ample branches first, the monitor then
    probes whatever prefix is actually explored -- neither consults the
    other, so both remain pure functions of state+path.  The scheduler
    calls :meth:`advance` at branch points only (nodes expanding two or
    more branches); a verdict at a single-branch node reaches no run
    that the next branch point below does not decide the same way (see
    :func:`repro.sim.scheduler.explore`).

    ``correspondence=None`` monitors raw computations (unit tests,
    benches); the engine always passes the problem correspondence so
    probes see exactly what :meth:`WorkerState.compute_outcome` checks.
    """

    def __init__(self, plan: SpecPlan, problem_spec, correspondence=None,
                 history_cap: int = 2_000_000,
                 probe_budget: int = DEFAULT_PROBE_BUDGET,
                 projection_budget: int = DEFAULT_PROJECTION_BUDGET) -> None:
        self._plan = plan
        self._spec = problem_spec
        self._corr = correspondence
        self._cap = history_cap
        self._budget = probe_budget
        self._proj_budget = projection_budget
        self._watch: Tuple[RestrictionAutomaton, ...] = tuple(
            a for a in plan.automata.values() if a.monitorable)
        #: union input alphabet of the watched machines (None = every
        #: event class is a letter and can trigger a probe)
        self._alphabet: Optional[frozenset] = frozenset()
        for a in self._watch:
            if a.alphabet is None:
                self._alphabet = None
                break
            self._alphabet = self._alphabet | a.alphabet
        #: (automaton name, projected-prefix fingerprint) -> verdict|None
        self._memo: Dict[Tuple[str, str], Optional[bool]] = {}
        #: guard evaluations performed (memo misses)
        self.probes = 0
        #: prefixes projected/labelled/fingerprinted (memo hits included)
        self.projections = 0
        #: early-violation verdicts decided (rejecting sinks reached)
        self.cuts = 0
        #: satisfied-early verdicts decided (accepting sinks reached)
        self.accepts = 0
        #: probes abandoned on an unexpected projection/labelling error
        self.probe_errors = 0

    def root(self) -> _MonitorNode:
        return _MonitorNode(tuple(range(len(self._watch))), ())

    def counts(self) -> Dict[str, int]:
        """The tallies under their :class:`~repro.engine.EngineStats`
        metric names."""
        return {"dfa.probes": self.probes, "dfa.cuts": self.cuts,
                "dfa.accepts": self.accepts,
                "dfa.probe_errors": self.probe_errors}

    def _fresh_significant(self, state, node: _MonitorNode):
        """``(raw_count, fresh)``: did a *letter* arrive since this
        path last looked?

        The trigger that keeps per-node overhead flat: a guard verdict
        can only change when an event is appended that (a) the
        correspondence keeps and (b) projects into the union input
        alphabet of the watched machines -- so scheduler steps that
        emit bookkeeping events or significant-but-unwatched classes
        (the vast majority in language interpreters) are skipped
        without freezing, projecting or fingerprinting anything.  Falls
        back to "always fresh" for interpreter states without a
        peekable builder.
        """
        builder = getattr(state, "builder", None)
        events = (builder.events_so_far()
                  if builder is not None
                  and hasattr(builder, "events_so_far") else None)
        if events is None:
            return node.seen, True
        n = len(events)
        if n == node.seen:
            return n, False
        for ev in events[node.seen:]:
            if self._corr is None:
                if self._alphabet is None or (
                        ev.event_class in self._alphabet):
                    return n, True
                continue
            rule = self._corr.rule_for(ev)
            if rule is not None and (
                    self._alphabet is None
                    or rule.target_class in self._alphabet):
                return n, True
        return n, False

    def advance(self, node: _MonitorNode, state) -> _MonitorNode:
        """Feed one branch point's prefix to the remaining automata.

        Returns ``node`` unchanged when nothing was decided (the common
        case; free once every automaton is decided or the budgets are
        spent, and nearly free when the steps since the last branch
        point emitted no significant event)."""
        if not node.active:
            return node
        if (self.probes >= self._budget
                or self.projections >= self._proj_budget):
            return node
        seen, fresh = self._fresh_significant(state, node)
        if not fresh:
            if seen == node.seen:
                return node
            return _MonitorNode(node.active, node.decided, seen)
        try:
            self.projections += 1
            prefix = state.computation()
            if self._corr is not None:
                from ..verify.projection import project

                prefix = project(prefix, self._corr)
            prefix = self._spec.label_threads(prefix)
            fp = prefix.stable_fingerprint()
        except Exception:
            self.probe_errors += 1
            return _MonitorNode(node.active, node.decided, seen)
        active = []
        decided = list(node.decided)
        for idx in node.active:
            automaton = self._watch[idx]
            verdict = self._guard(automaton, prefix, fp)
            if verdict is None:
                active.append(idx)
                continue
            decided.append((automaton.name, verdict))
            if verdict:
                self.accepts += 1
            else:
                self.cuts += 1
        return _MonitorNode(tuple(active), tuple(decided), seen)

    def _guard(self, automaton: RestrictionAutomaton, prefix,
               fp: str) -> Optional[bool]:
        key = (automaton.name, fp)
        if key in self._memo:
            return self._memo[key]
        self.probes += 1
        try:
            verdict = automaton.probe(prefix, self._cap, self._plan)
        except Exception:
            self.probe_errors += 1
            verdict = None
        if len(self._memo) < _GUARD_MEMO_CAP:
            self._memo[key] = verdict
        return verdict
