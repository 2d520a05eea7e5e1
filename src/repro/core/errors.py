"""Exception hierarchy for the GEM library.

All library errors derive from :class:`GemError` so callers can catch
model-level failures without masking programming errors (``TypeError``
etc. are never wrapped).

Two families matter to users:

* construction errors (:class:`SpecificationError`,
  :class:`ComputationError`) -- the object being built is malformed;
* verdict errors (:class:`LegalityViolation`, :class:`RestrictionViolation`)
  -- a well-formed computation fails a GEM legality rule or an explicit
  restriction.  These carry enough structure to print a counterexample.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class GemError(Exception):
    """Base class for all GEM model errors."""


class SpecificationError(GemError):
    """A specification, type, or restriction is malformed."""


class ComputationError(GemError):
    """A computation under construction is malformed.

    Examples: two distinct events with the same (element, index) identity,
    an enable edge naming an unknown event, a causal cycle.
    """


class CycleError(ComputationError):
    """The union of enable relation and element order has a cycle.

    GEM requires the temporal order (the transitive closure of the two)
    to be irreflexive; a cycle makes that impossible.  ``cycle`` lists
    event ids along one offending cycle, in order.
    """

    def __init__(self, message: str, cycle: Optional[Sequence[object]] = None):
        super().__init__(message)
        self.cycle: List[object] = list(cycle or [])


class HistoryCapExceeded(ComputationError):
    """A history-lattice walk visited more than its ``history_cap``.

    Not a verdict: the check gave up.  Witness searches catch it and
    report nothing located; everything else lets it propagate.
    """


class LegalityViolation(GemError):
    """A computation violates one of GEM's implicit legality restrictions.

    ``rule`` names the violated rule (see :mod:`repro.core.legality`),
    ``subjects`` lists the events/elements/groups involved.
    """

    def __init__(self, rule: str, message: str, subjects: Sequence[object] = ()):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
        self.subjects = tuple(subjects)


class RestrictionViolation(GemError):
    """A computation (or history sequence) violates an explicit restriction.

    ``restriction`` is the name of the failing restriction and
    ``witness`` optionally carries the variable binding under which the
    formula evaluated to false -- the counterexample.
    """

    def __init__(self, restriction: str, message: str, witness: Optional[dict] = None):
        super().__init__(f"restriction {restriction!r} violated: {message}")
        self.restriction = restriction
        self.witness = dict(witness or {})


class VerificationError(GemError):
    """A verification run could not be completed (not a verdict).

    Raised for setup problems such as a correspondence that names
    unknown objects, or an exploration bound of zero.
    """


class RunCapExceeded(VerificationError):
    """Exhaustive exploration produced more runs than its cap allows.

    Distinct from other :class:`VerificationError`\\ s so that callers
    who want to degrade to sampling (``explore_or_sample``, the
    verification engine) can catch exactly this condition without
    swallowing genuine setup or interpreter failures.
    """
