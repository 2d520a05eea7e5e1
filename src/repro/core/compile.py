"""Where the restriction plan used to be compiled.

This module held the compiled □/◇ walk (restriction ASTs translated to
closures over bitmask histories).  Every restriction it could express
was decided first by the DFA leaf or the slice, so the walk is gone and
the interpreter is the only one left (:mod:`repro.core.checker`).  The
names below stay importable from here because external measurement
code addresses the plan by this path: :class:`SpecPlan` (whose
``bind`` is timed as ``compile.bind``), :func:`plan_for` and
:func:`shape` now live in :mod:`repro.core.plan`.
"""

from .plan import SpecPlan, plan_for, shape  # noqa: F401 (re-exported)
