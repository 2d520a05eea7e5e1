"""Lattice differential: mask histories against the frozenset lattice.

A :class:`~repro.core.history.History` is a bitmask over the event
positions the computation assigns, and the interpreter runs □/◇
through one :class:`~repro.core.history.LatticeWalk`.  ``tests/reference_lattice.py`` keeps the
frozenset ``History``, ``LatticeChecker`` and witness searches they
replaced, verbatim.  On every catalog case and mutant:

* the interpreter's verdict on every restriction equals the
  reference's;
* both equal ``temporal_mode="exact"`` (enumerating every maximal valid
  history sequence) on a prefix of each computation small enough to
  enumerate -- the down-closure of its first events, grown while the
  prefix has at most :data:`EXACT_MAX_VHS` sequences;
* for every failing restriction, ``find_witness(...).describe()`` and
  ``explain_restriction(...).to_record()`` / ``.render_text()`` are
  byte-identical to the ones the reference lattice drives, and to the
  two separate descents of ``tests/reference_witness.py`` that the one
  descent of :mod:`repro.core.witness` replaced.

The tier-1 run takes the first :data:`TIER1_RUNS` runs of each
workload; the full sweep (every distinct computation within
:data:`SWEEP_MAX_RUNS` runs) is marked ``slow``.  A hypothesis law
holds the ``History`` API itself to the reference on random DAGs.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.checker as checker_module
import repro.core.witness as witness_module
from repro.cli import case_catalog
from repro.core.checker import LatticeChecker, check_restriction
from repro.core.compose import restrict_events
from repro.core.computation import Computation, ComputationBuilder
from repro.core.errors import ComputationError, RunCapExceeded
from repro.core.formula import (
    Eventually,
    Exists,
    ForAll,
    Henceforth,
    New,
    Not,
    Occurred,
    Restriction,
)
from repro.core.history import (
    History,
    LatticeWalk,
    all_histories,
    count_maximal_history_sequences,
    full_history,
)
from repro.core.ids import EventId
from repro.core.witness import find_witness
from repro.obs.explain import explain_restriction
from repro.sim.scheduler import explore
from repro.verify.projection import project

from tests import reference_lattice as ref
from tests import reference_witness

#: Runs per workload in the tier-1 run.
TIER1_RUNS = 3
#: Run cap of the full sweep.
SWEEP_MAX_RUNS = 3000
#: Largest maximal-vhs count of the prefix compared against ``exact``.
EXACT_MAX_VHS = 400


def catalog_workloads() -> Iterator[Tuple[str, bool]]:
    for name, entry in case_catalog().items():
        yield name, False
        if entry.has_mutant:
            yield name, True


WORKLOADS = list(catalog_workloads())
IDS = [f"{c}{'-mutant' if m else ''}" for c, m in WORKLOADS]


# -- verdicts -----------------------------------------------------------------


def verdicts(comp: Computation, restrictions, checker, history_at_top
             ) -> List[bool]:
    """Each restriction's interpreted verdict: temporal ones over the
    lattice from the empty history, immediate ones at the top."""
    return [checker.holds(r.formula) if r.formula.is_temporal()
            else r.formula.holds_at(history_at_top(comp))
            for r in restrictions]


def exact_prefix(comp: Computation) -> Computation:
    """The largest down-closure of ``comp``'s first events whose maximal
    vhs count is at most :data:`EXACT_MAX_VHS`."""
    order = comp.temporal_relation
    ids = [ev.eid for ev in comp.events]
    best = restrict_events(comp, ())
    for k in range(1, len(ids) + 1):
        prefix = restrict_events(comp, order.down_set(ids[:k]))
        if count_maximal_history_sequences(
                prefix, cap=EXACT_MAX_VHS + 1) > EXACT_MAX_VHS:
            break
        best = prefix
    return best


# -- diagnostics driven by either lattice -----------------------------------


def use_reference_lattice(monkeypatch) -> None:
    """Route the witness and explanation searches through the
    frozenset lattice of ``tests/reference_lattice.py``."""
    monkeypatch.setattr(checker_module, "LatticeChecker", ref.LatticeChecker)
    for name in ("empty_history", "full_history",
                 "_first_failing_history", "_path_avoiding"):
        monkeypatch.setattr(witness_module, name, getattr(ref, name))


def diagnostics(comp: Computation, restriction, searches=None
                ) -> Tuple[object, ...]:
    """The witness's ``describe()`` and the explanation's record and
    text, from the package's descent or the module ``searches`` (one
    with ``find_witness`` and ``explain_restriction``)."""
    witness = (searches.find_witness if searches else find_witness)(
        comp, restriction)
    explanation = (searches.explain_restriction if searches
                   else explain_restriction)(comp, restriction)
    return (witness.describe() if witness is not None else None,
            explanation.to_record() if explanation is not None else None,
            explanation.render_text() if explanation is not None else None)


# -- the differential ---------------------------------------------------------


def assert_same_lattice(comp: Computation, spec, monkeypatch) -> None:
    restrictions = spec.all_restrictions()
    new = verdicts(comp, restrictions, LatticeChecker(comp), full_history)
    old = verdicts(comp, restrictions, ref.LatticeChecker(comp),
                   ref.full_history)
    assert new == old, comp.describe()

    prefix = exact_prefix(comp)
    on_prefix = verdicts(prefix, restrictions, LatticeChecker(prefix),
                         full_history)
    assert on_prefix == verdicts(prefix, restrictions,
                                 ref.LatticeChecker(prefix),
                                 ref.full_history)
    exact = [check_restriction(prefix, r, temporal_mode="exact",
                               vhs_cap=EXACT_MAX_VHS + 1).holds
             for r in restrictions]
    assert on_prefix == exact, prefix.describe()

    failing = [r for r, ok in zip(restrictions, new) if not ok]
    mine = [diagnostics(comp, r) for r in failing]
    assert mine == [diagnostics(comp, r, reference_witness)
                    for r in failing]
    with monkeypatch.context() as patch:
        use_reference_lattice(patch)
        theirs = [diagnostics(comp, r) for r in failing]
    assert mine == theirs


def lattice_differential(case: str, mutant: bool, max_runs: int,
                         monkeypatch) -> int:
    program, spec, corr, pspec = case_catalog()[case].factory(mutant)
    seen: Set[str] = set()
    runs = 0
    try:
        for run in explore(program, max_runs=SWEEP_MAX_RUNS):
            runs += 1
            checks = [(spec, project(run.computation, corr))]
            if pspec is not None:
                checks.append((pspec, run.computation))
            for sp, comp in checks:
                labelled = sp.label_threads(comp)
                key = labelled.stable_fingerprint()
                if key not in seen:
                    seen.add(key)
                    assert_same_lattice(labelled, sp, monkeypatch)
            if runs >= max_runs:
                break
    except RunCapExceeded:
        pass
    assert runs, f"{case}: nothing explored"
    return len(seen)


class TestLatticeDifferential:
    @pytest.mark.parametrize("case, mutant", WORKLOADS, ids=IDS)
    def test_equals_reference(self, case, mutant, monkeypatch):
        assert lattice_differential(case, mutant, TIER1_RUNS, monkeypatch)

    @pytest.mark.slow
    @pytest.mark.parametrize("case, mutant", WORKLOADS, ids=IDS)
    def test_equals_reference_full_sweep(self, case, mutant, monkeypatch):
        assert lattice_differential(case, mutant, SWEEP_MAX_RUNS,
                                    monkeypatch)


# -- the History API on random DAGs -------------------------------------------


@st.composite
def random_dags(draw) -> Computation:
    """Up to 7 events over up to 3 elements, enable edges pointing
    forward in insertion order (so the order is acyclic)."""
    n = draw(st.integers(min_value=1, max_value=7))
    elements = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    b = ComputationBuilder()
    events = [b.add_event(el, "E") for el in elements]
    for j in range(n):
        for i in range(j):
            if draw(st.integers(0, 3)) == 0:
                b.add_enable(events[i], events[j])
    return b.freeze()


class TestHistoryAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(random_dags(), st.randoms(use_true_random=False))
    def test_history_api_agrees(self, comp, rnd: random.Random):
        ids = [ev.eid for ev in comp.events]
        outsider = EventId("Z", 1)
        histories = all_histories(comp)
        assert [h.events for h in histories] == sorted(
            {frozenset(h.events) for h in histories},
            key=lambda s: (len(s), tuple(sorted(s))))
        for h in histories:
            r = ref.History(comp, h.events)
            assert h.events == r.events
            assert h.addable() == r.addable()
            assert h.frontier() == r.frontier()
            assert len(h) == len(r)
            assert h.is_complete() == r.is_complete()
            for eid in ids:
                assert h.potential(eid) == r.potential(eid)
                assert h.new(eid) == r.new(eid)
                assert h.occurred(eid) == r.occurred(eid)
            assert not h.potential(outsider)
            other = rnd.choice(histories)
            assert (h <= other) == (r <= ref.History(comp, other.events))
            assert (h < other) == (r < ref.History(comp, other.events))
            assert (h == History(comp, other.events)) == (
                r == ref.History(comp, other.events))

    @settings(max_examples=80, deadline=None)
    @given(random_dags())
    def test_walks_visit_exactly_the_down_sets(self, comp):
        """AG of an always-true leaf, and AF of a leaf true only at the
        complete history, each visit every history once: the down-sets
        the reference ``History`` accepts, found by brute force over
        all subsets."""
        ids = [ev.eid for ev in comp.events]
        down_sets = set()
        for bits in range(1 << len(ids)):
            members = [eid for i, eid in enumerate(ids) if bits >> i & 1]
            try:
                down_sets.add(ref.History(comp, members).events)
            except ComputationError:
                pass
        walk = LatticeWalk(comp, 10_000, "test walk")
        seen: List[int] = []
        assert walk.always(lambda m, env: seen.append(m) or True, 0,
                           None, {})
        full = (1 << len(ids)) - 1
        assert walk.eventually(
            lambda m, env: seen.append(m) or m == full, 0, None, {})
        half = len(seen) // 2
        for visits in (seen[:half], seen[half:]):
            assert len(visits) == len(set(visits)) == len(down_sets)
            assert {History.of_mask(comp, m).events
                    for m in visits} == down_sets
        assert walk.visited == len(seen)


#: Restrictions that fail at many histories of one size, so the
#: witness depends on the order the lattice search visits children in.
ORDER_SENSITIVE = (
    Restriction("nothing-happens",
                Henceforth(Not(Exists("e", "E", Occurred("e"))))),
    Restriction("nothing-is-new", Henceforth(ForAll("e", "E", Not(New("e"))))),
    Restriction("some-event-stays-new",
                Henceforth(Eventually(Exists("e", "E", New("e"))))),
)


class TestDiagnosticsAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_witness_and_explanation_agree(self, comp):
        """Events are inserted in random element order, so position
        order and ``EventId`` order disagree; the witness and the
        explanation must still be the reference lattice's, and the
        reference descents'."""
        failing = [r for r in ORDER_SENSITIVE
                   if not LatticeChecker(comp).holds(r.formula)]
        mine = [diagnostics(comp, r) for r in failing]
        assert mine == [diagnostics(comp, r, reference_witness)
                        for r in failing]
        with pytest.MonkeyPatch.context() as patch:
            use_reference_lattice(patch)
            theirs = [diagnostics(comp, r) for r in failing]
        assert mine == theirs
