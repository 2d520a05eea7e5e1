"""GEM's implicit legality restrictions (Sections 3-5).

"There are certain properties that must be true of all legal
computations.  These properties are described by a set of GEM legality
restrictions which are automatically part of any GEM specification."

The rules, as enumerated in the paper's prose, and where each is
enforced:

* ``element-declared`` -- every event belongs to some element specified
  in σ (Section 4: "the events which may legally occur within a
  computation are those belonging to a specified list of elements");
  checked here;
* ``class-declared`` -- the event's class is declared at its element and
  the event's data parameters match the declared signature; checked
  here;
* ``element-order-total`` -- all events at one element are totally
  ordered by ⇒ₑ with contiguous occurrence numbers, and ⇒ₑ never relates
  events of different elements (Section 5); enforced by the
  :class:`~repro.core.computation.Computation` constructor;
* ``enable-irreflexive`` -- ⊳ is irreflexive (Section 5); enforced by
  the constructor;
* ``temporal-order`` -- ⇒ equals the transitive closure of ⊳ ∪ ⇒ₑ minus
  identity and is a strict partial order (Section 3); enforced by the
  constructor, which builds ⇒ as exactly that closure and raises
  :class:`~repro.core.errors.CycleError` on a causal cycle;
* ``scope`` -- every enable edge is permitted by the group structure and
  ports (Section 4, footnote 4); checked here.

The three order rules are properties of the partial order alone, and
every computation -- built, projected, composed, relabelled or loaded
from JSON -- goes through that one constructor, so an ill-formed order
never reaches :func:`check_legality`.  The rules checked here are the
ones that depend on the specification.  The ``order-laws`` fuzz oracle
(:func:`repro.fuzz.oracles.check_order_laws`) independently recomputes
the closure and compares it pair by pair.

Violations are collected, not raised, so a caller sees all problems at
once.
"""

from __future__ import annotations

from typing import List

from .computation import Computation
from .errors import LegalityViolation, SpecificationError


def check_legality(
    computation: Computation, spec: "Specification"  # noqa: F821 (cycle)
) -> List[LegalityViolation]:
    """All legality violations of ``computation`` w.r.t. ``spec``."""
    violations: List[LegalityViolation] = []
    violations.extend(_check_elements_declared(computation, spec))
    violations.extend(_check_classes_declared(computation, spec))
    violations.extend(_check_scope(computation, spec))
    return violations


def _check_elements_declared(computation, spec) -> List[LegalityViolation]:
    declared = set(spec.element_names())
    out = []
    for ev in computation.events:
        if ev.element not in declared:
            out.append(
                LegalityViolation(
                    "element-declared",
                    f"event {ev.eid} occurs at undeclared element {ev.element!r}",
                    [ev.eid],
                )
            )
    return out


def _check_classes_declared(computation, spec) -> List[LegalityViolation]:
    out = []
    for ev in computation.events:
        decl = spec.element_or_none(ev.element)
        if decl is None:
            continue  # reported by element-declared
        if not decl.declares(ev.event_class):
            out.append(
                LegalityViolation(
                    "class-declared",
                    f"event {ev.eid} has class {ev.event_class!r}, not "
                    f"declared at element {ev.element!r} "
                    f"(declared: {list(decl.class_names())})",
                    [ev.eid],
                )
            )
            continue
        try:
            decl.event_class(ev.event_class).validate_args(ev.param_dict())
        except SpecificationError as exc:
            out.append(
                LegalityViolation("class-declared", str(exc), [ev.eid])
            )
    return out


def _check_scope(computation, spec) -> List[LegalityViolation]:
    groups = spec.group_structure()
    out = []
    for a, b in computation.enable_relation.pairs():
        target = computation.event(b)
        if not groups.may_enable(a.element, b.element, target.event_class):
            out.append(
                LegalityViolation(
                    "scope",
                    f"enable edge {a} ⊳ {b} violates group scope: "
                    f"{a.element!r} has no access to "
                    f"{b.element}.{target.event_class}",
                    [a, b],
                )
            )
    return out
