"""Projection differential: :func:`~repro.verify.projection.project`
against the reference implementation it replaced.

``project`` works on event positions: ⇒'s topological ranks by index,
and a depth-first walk over ⊳'s successor bitsets under a
significant-events mask, with each event's process identity computed
once.  :func:`reference_project` below is the identity-based
implementation it replaced, kept verbatim.  On every catalog case and
mutant -- the explored runs *and* the prefixes the automaton monitor
projects while it explores -- both must give the same projected
computation: equal ``describe()`` (events, and enable edges in order)
and equal ``stable_fingerprint()``; under ``strict_element_order=True``
both must raise the same :class:`VerificationError` or neither.

The tier-1 run takes the first :data:`TIER1_RUNS` runs of each
workload; the full sweep (every run within :data:`SWEEP_MAX_RUNS`) is
marked ``slow``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

import repro.verify.projection as projection
from repro.cli import case_catalog
from repro.core.automata import AutomatonMonitor, automata_plan_for
from repro.core.computation import Computation
from repro.core.errors import RunCapExceeded, VerificationError
from repro.core.event import Event
from repro.core.ids import EventId
from repro.sim.scheduler import explore
from repro.verify.correspondence import Correspondence
from repro.verify.projection import project

#: Runs per workload in the tier-1 run.
TIER1_RUNS = 3
#: Run cap of the full sweep.
SWEEP_MAX_RUNS = 3000


# -- reference implementation (verbatim) ------------------------------------

def reference_project(
    computation: Computation,
    correspondence: Correspondence,
    strict_element_order: bool = False,
) -> Computation:
    """Project ``computation`` onto the correspondence's significant objects."""
    # 1. select and map events
    matched: List[Tuple[Event, object]] = []
    for ev in computation.events:
        rule = correspondence.rule_for(ev)
        if rule is not None:
            matched.append((ev, rule))
    if not matched:
        return Computation([], [])

    topo_pos = {
        eid: i
        for i, eid in enumerate(computation.temporal_relation.topological_order())
    }
    matched.sort(key=lambda pair: topo_pos[pair[0].eid])

    # 2. per-target-element sequencing
    by_target: Dict[str, List[Event]] = {}
    mapped_events: List[Event] = []
    id_map: Dict[EventId, EventId] = {}
    for ev, rule in matched:
        target_el = rule.target_element_for(ev)
        seq = by_target.setdefault(target_el, [])
        if strict_element_order and seq:
            prev = seq[-1]
            if computation.concurrent(prev.eid, ev.eid):
                raise VerificationError(
                    f"projection must invent an element order at "
                    f"{target_el!r}: {prev.eid} and {ev.eid} are potentially "
                    "concurrent in the program computation"
                )
        seq.append(ev)
        new = Event.make(
            target_el,
            len(seq),
            rule.target_class,
            rule.params_for(ev),
            threads=ev.threads,
        )
        mapped_events.append(new)
        id_map[ev.eid] = new.eid

    # 3. path-induced enable edges through insignificant events
    significant: Set[EventId] = set(id_map)
    edges: List[Tuple[EventId, EventId]] = []
    for ev, _rule in matched:
        src_process = (correspondence.process_of(ev)
                       if correspondence.process_of is not None else None)
        reachable = _significant_successors(
            computation, ev.eid, significant,
            correspondence.process_of, src_process,
        )
        for dst in reachable:
            dst_ev = computation.event(dst)
            if correspondence.keeps_edge(ev, dst_ev):
                edges.append((id_map[ev.eid], id_map[dst]))

    return Computation(mapped_events, edges)


def _significant_successors(
    computation: Computation,
    source: EventId,
    significant: Set[EventId],
    process_of,
    src_process: Optional[str],
) -> List[EventId]:
    """Significant events reachable from ``source`` by an enable path
    whose intermediate events are all insignificant.

    When a process map is given and the source has a process identity,
    the path may only traverse intermediates of that process (or of no
    process) -- control flow, not tunnelling through other processes.
    """

    def traversable(eid: EventId) -> bool:
        if process_of is None or src_process is None:
            return True
        p = process_of(computation.event(eid))
        return p is None or p == src_process

    out: List[EventId] = []
    seen: Set[EventId] = set()
    frontier: List[EventId] = [
        e.eid for e in computation.enables_of(source)
    ]
    while frontier:
        eid = frontier.pop()
        if eid in seen:
            continue
        seen.add(eid)
        if eid in significant:
            out.append(eid)
            continue  # paths may not pass through significant events
        if not traversable(eid):
            continue
        frontier.extend(e.eid for e in computation.enables_of(eid))
    return out


# -- the differential ---------------------------------------------------------


def outcome(project_fn, computation, correspondence, strict):
    try:
        projected = project_fn(computation, correspondence,
                               strict_element_order=strict)
    except VerificationError as exc:
        return ("raises", str(exc))
    return ("projects", projected.describe(), projected.stable_fingerprint())


def assert_same_projection(computation, correspondence) -> None:
    for strict in (False, True):
        new = outcome(project, computation, correspondence, strict)
        ref = outcome(reference_project, computation, correspondence, strict)
        assert new == ref, (strict, computation.describe())


def explored_inputs(case: str, mutant: bool, max_runs: int,
                    monkeypatch) -> Iterator[Computation]:
    """Every computation the engine projects while exploring one
    workload: the probe prefixes the automaton monitor projects, then
    each run's computation, up to ``max_runs`` runs."""
    program, spec, corr, _pspec = case_catalog()[case].factory(mutant)
    plan = automata_plan_for(spec)
    monitor = (AutomatonMonitor(plan, spec, correspondence=corr)
               if plan.monitorable else None)
    probed: List[Computation] = []

    def recording(computation, correspondence, *args, **kwargs):
        probed.append(computation)
        return project(computation, correspondence, *args, **kwargs)

    monkeypatch.setattr(projection, "project", recording)
    runs = 0
    try:
        for run in explore(program, max_runs=SWEEP_MAX_RUNS, dfa=monitor):
            runs += 1
            pending = probed[:]
            probed.clear()
            yield from pending
            yield run.computation
            if runs >= max_runs:
                break
    except RunCapExceeded:
        pass
    finally:
        monkeypatch.undo()
    assert runs, f"{case}: nothing explored"


def projection_differential(case: str, mutant: bool, max_runs: int,
                            monkeypatch) -> int:
    _program, _spec, corr, _pspec = case_catalog()[case].factory(mutant)
    seen: Set[str] = set()
    for computation in explored_inputs(case, mutant, max_runs, monkeypatch):
        key = computation.describe()
        if key not in seen:
            seen.add(key)
            assert_same_projection(computation, corr)
    return len(seen)


def catalog_workloads() -> Iterator[Tuple[str, bool]]:
    for name, entry in case_catalog().items():
        yield name, False
        if entry.has_mutant:
            yield name, True


WORKLOADS = list(catalog_workloads())
IDS = [f"{c}{'-mutant' if m else ''}" for c, m in WORKLOADS]


class TestProjectionDifferential:
    @pytest.mark.parametrize("case, mutant", WORKLOADS, ids=IDS)
    def test_equals_reference(self, case, mutant, monkeypatch):
        assert projection_differential(case, mutant, TIER1_RUNS,
                                       monkeypatch)

    @pytest.mark.slow
    @pytest.mark.parametrize("case, mutant", WORKLOADS, ids=IDS)
    def test_equals_reference_full_sweep(self, case, mutant, monkeypatch):
        assert projection_differential(case, mutant, SWEEP_MAX_RUNS,
                                       monkeypatch)


class TestHandBuilt:
    """Shapes the catalog may not reach."""

    @staticmethod
    def computation(events, pairs):
        evs = [Event.make(el, idx, cls, {}) for el, idx, cls in events]
        return Computation(evs, [(EventId(*a), EventId(*b))
                                 for a, b in pairs])

    def test_tunnelling_and_process_restriction(self):
        from repro.verify.correspondence import SignificantEvents

        comp = self.computation(
            [("p1", 1, "Sig"), ("p1", 2, "Hop"), ("p2", 1, "Hop"),
             ("p1", 3, "Sig"), ("p2", 2, "Sig"), ("srv", 1, "Hop")],
            [(("p1", 1), ("p1", 2)), (("p1", 1), ("srv", 1)),
             (("srv", 1), ("p2", 1)), (("p2", 1), ("p2", 2)),
             (("srv", 1), ("p1", 3)), (("p1", 2), ("p2", 2))])
        rules = (SignificantEvents("sig", "p*", "Sig", "P", "S"),)
        for process_of in (None, lambda ev: None if ev.element == "srv"
                           else ev.element):
            corr = Correspondence(rules, process_of=process_of)
            assert_same_projection(comp, corr)
