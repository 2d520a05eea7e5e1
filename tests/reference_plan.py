"""The restriction analyses the one plan replaced, kept verbatim.

Before :mod:`repro.core.plan`, three modules each analysed a
restriction's shape on their own.  :func:`classify_restriction` (with
its helpers) is the restriction-automata classifier of
:mod:`repro.core.automata` as it was then, and ``tests/test_plan.py``
holds the plan's DFA kind, reason and alphabet to it.  (The compiler's
static check, the third analysis, went with the compiler.)  Only the
automaton record type and its kind constants are imported from the
package; the analyses are copies, with one relative import made
absolute.

Not part of the package; tests only.
"""

from __future__ import annotations

from typing import Optional

from repro.core.automata import (
    BOX_REJECT,
    DIA_ACCEPT,
    DIA_LEAF,
    INERT,
    RestrictionAutomaton,
)
from repro.core.formula import (
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
    PyPred,
    Restriction,
    SameThread,
    TemporallyPrecedes,
    TrueF,
)

# -- repro.core.automata -----------------------------------------------------

#: Quantifier-count cap: restrictions with more quantifiers than this
#: are classified inert rather than risking grounding blow-up per probe.
DEFAULT_QUANTIFIER_CAP = 8

#: Atoms whose value depends only on the bound events and the
#: computation's (extension-stable) relations -- never on the history.
_HISTORY_INDEPENDENT = (TrueF, FalseF, Concurrent, EventEq, DataEq,
                        DataCmp, SameThread, DistinctThreads)
#: Atoms monotone-increasing in the history (each is "relation holds and
#: the operands occurred"): once true at a cut, true at every extension.
_MONOTONE_ATOMS = (Occurred, AtElement, Enables, ElementPrecedes,
                   TemporallyPrecedes)
#: Atoms extension-stable at a *fixed* cut but not monotone (``new``,
#: ``potential``, ``at`` can flip in both directions as the cut grows).
_STABLE_ATOMS = (New, Potential, AtControl)


def _count_quantifiers(f: Formula) -> int:
    n = 1 if isinstance(f, (ForAll, Exists, ExistsUnique, AtMostOne)) else 0
    return n + sum(_count_quantifiers(c) for c in f._children())


def _history_independent(f: Formula) -> bool:
    """Every atom of ``f`` is history-independent; no temporal, no PyPred."""
    if isinstance(f, _HISTORY_INDEPENDENT):
        return True
    if isinstance(f, (_MONOTONE_ATOMS + _STABLE_ATOMS)) or isinstance(
            f, (PyPred, Henceforth, Eventually)):
        return False
    if isinstance(f, (ForAll, Exists, ExistsUnique, AtMostOne, Not, And, Or,
                      Implies, Iff)):
        return all(_history_independent(c) for c in f._children())
    return False


def _occ_guarded(f: Formula, var: str) -> bool:
    """``f`` true at a cut forces ``occurred(var)`` at that cut.

    Sound syntactic under-approximation: every :data:`_MONOTONE_ATOMS`
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
    if isinstance(f, (_HISTORY_INDEPENDENT + _MONOTONE_ATOMS
                      + _STABLE_ATOMS)):
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


def _contains_pypred(f: Formula) -> bool:
    return isinstance(f, PyPred) or any(
        _contains_pypred(c) for c in f._children())


def _domain_classes(dom) -> Optional[frozenset]:
    """Event classes a quantifier domain draws from (None = any)."""
    from repro.core.formula import (AllEvents, ClassAnywhere, ClassAt,
                                    UnionDomain)

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
    if isinstance(f, (_HISTORY_INDEPENDENT + _MONOTONE_ATOMS)):
        return frozenset()
    if isinstance(f, _STABLE_ATOMS):
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


def _monotone(f: Formula, pol: int) -> bool:
    """Monotone in the history at *fixed* quantifier domains: once true
    at a cut, true at every larger cut of the same computation.

    The ``DIA_LEAF`` ◇-body certificate (``◇q ⟺ q@top`` both ways).
    """
    if isinstance(f, _HISTORY_INDEPENDENT):
        return True
    if isinstance(f, _MONOTONE_ATOMS):
        return pol > 0
    if isinstance(f, Not):
        return _monotone(f.body, -pol)
    if isinstance(f, (And, Or)):
        return all(_monotone(p, pol) for p in f.parts)
    if isinstance(f, Implies):
        return (_monotone(f.antecedent, -pol)
                and _monotone(f.consequent, pol))
    if isinstance(f, Iff):
        return (_history_independent(f.left)
                and _history_independent(f.right))
    if isinstance(f, (ForAll, Exists)):
        # domains are rigid within one computation: ∀/∃ of monotone
        # bodies are monotone
        return _monotone(f.body, pol)
    if isinstance(f, (ExistsUnique, AtMostOne)):
        # tallies are not monotone unless every term is history-constant
        return _history_independent(f.body)
    return False


def _dia_leaf(f: Formula) -> bool:
    """``F ⟺ strip(F)@full-history`` certificate for the whole tree."""
    if isinstance(f, Eventually):
        return _monotone(f.body, 1)
    if isinstance(f, Henceforth) or isinstance(f, PyPred):
        return False
    if isinstance(f, _HISTORY_INDEPENDENT):
        return True
    if isinstance(f, (_MONOTONE_ATOMS + _STABLE_ATOMS)):
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


def classify_restriction(
        restriction: Restriction,
        quantifier_cap: int = DEFAULT_QUANTIFIER_CAP,
) -> RestrictionAutomaton:
    """Compile one temporal restriction to its :class:`RestrictionAutomaton`.

    Non-temporal restrictions never reach here (the checker evaluates
    them at the full history directly); they classify inert if they do.
    """
    formula = restriction.formula
    if not formula.is_temporal():
        return RestrictionAutomaton(restriction, INERT, "not temporal")
    if _count_quantifiers(formula) > quantifier_cap:
        return RestrictionAutomaton(
            restriction, INERT,
            f"more than {quantifier_cap} quantifiers (grounding cap)")
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
    if isinstance(formula, Eventually) and _monotone(
            formula.body, 1) and _transfers(formula.body, True):
        return RestrictionAutomaton(restriction, DIA_ACCEPT,
                                    stripped=formula.body,
                                    alphabet=_alphabet(formula))
    if _dia_leaf(formula):
        return RestrictionAutomaton(restriction, DIA_LEAF,
                                    stripped=_strip(formula))
    if _contains_pypred(formula):
        return RestrictionAutomaton(restriction, INERT, "opaque PyPred body")
    if isinstance(body, Henceforth):
        return RestrictionAutomaton(
            restriction, INERT, "□-body falsity not extension-stable")
    return RestrictionAutomaton(restriction, INERT, "shape not regular")
