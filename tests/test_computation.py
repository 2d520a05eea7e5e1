"""Unit tests for computations and the builder."""

import pytest

from repro.core import (
    Computation,
    ComputationBuilder,
    Event,
    EventClassRef,
    EventId,
    GroupDecl,
    GroupStructure,
    ThreadId,
)
from repro.core.errors import ComputationError, CycleError


def diamond():
    """e1 ⊳ e2, e1 ⊳ e3, e2 ⊳ e4, e3 ⊳ e4, four distinct elements."""
    b = ComputationBuilder()
    e1 = b.add_event("P", "Fork")
    e2 = b.add_event("Q", "Work")
    e3 = b.add_event("R", "Work")
    e4 = b.add_event("S", "Join")
    b.add_enable(e1, e2)
    b.add_enable(e1, e3)
    b.add_enable(e2, e4)
    b.add_enable(e3, e4)
    return b.freeze(), (e1, e2, e3, e4)


class TestBuilder:
    def test_occurrence_numbers_assigned_per_element(self):
        b = ComputationBuilder()
        a1 = b.add_event("Var", "Assign", {"newval": 1})
        a2 = b.add_event("Var", "Assign", {"newval": 2})
        g1 = b.add_event("Other", "Getval", {"oldval": 1})
        assert a1.index == 1
        assert a2.index == 2
        assert g1.index == 1

    def test_add_enable_requires_existing_events(self):
        b = ComputationBuilder()
        e1 = b.add_event("A", "X")
        with pytest.raises(ComputationError):
            b.add_enable(e1, EventId("B", 1))

    def test_add_enable_accepts_ids(self):
        b = ComputationBuilder()
        e1 = b.add_event("A", "X")
        e2 = b.add_event("B", "Y")
        b.add_enable(e1.eid, e2.eid)
        c = b.freeze()
        assert c.enables(e1.eid, e2.eid)

    def test_event_count_and_last_event(self):
        b = ComputationBuilder()
        assert b.event_count() == 0
        assert b.last_event_at("A") is None
        e1 = b.add_event("A", "X")
        e2 = b.add_event("A", "X")
        assert b.event_count() == 2
        assert b.event_count("A") == 2
        assert b.event_count("B") == 0
        assert b.last_event_at("A") == e2

    def test_scope_checked_at_add_enable(self):
        gs = GroupStructure(
            ["In", "Out"], [GroupDecl.make("G", ["In"])]
        )
        b = ComputationBuilder(gs)
        i = b.add_event("In", "X")
        o = b.add_event("Out", "Y")
        b.add_enable(i, o)  # Out is global: fine
        with pytest.raises(ComputationError, match="scope"):
            b.add_enable(o, i)  # In is hidden


class TestComputationStructure:
    def test_cycle_rejected_at_freeze(self):
        b = ComputationBuilder()
        e1 = b.add_event("A", "X")
        e2 = b.add_event("B", "Y")
        b.add_enable(e1, e2)
        b.add_enable(e2, e1)
        with pytest.raises(CycleError):
            b.freeze()

    def test_enable_plus_element_order_cycle_rejected(self):
        # element order A^1 -> A^2 plus enable A^2 -> B^1 -> A^1 is cyclic
        b = ComputationBuilder()
        a1 = b.add_event("A", "X")
        a2 = b.add_event("A", "X")
        b1 = b.add_event("B", "Y")
        b.add_enable(a2, b1)
        b.add_enable(b1, a1)
        with pytest.raises(CycleError):
            b.freeze()

    def test_self_enable_rejected(self):
        e = Event.make("A", 1, "X")
        with pytest.raises(ComputationError):
            Computation([e], [(e.eid, e.eid)])

    def test_duplicate_identity_rejected(self):
        e1 = Event.make("A", 1, "X")
        e2 = Event.make("A", 1, "Y")
        with pytest.raises(ComputationError):
            Computation([e1, e2], [])

    def test_noncontiguous_indices_rejected(self):
        e2 = Event.make("A", 2, "X")
        with pytest.raises(ComputationError, match="contiguous"):
            Computation([e2], [])

    def test_unknown_event_in_enable_rejected(self):
        e1 = Event.make("A", 1, "X")
        with pytest.raises(ComputationError):
            Computation([e1], [(e1.eid, EventId("B", 1))])


class TestRelations:
    def test_element_order(self):
        b = ComputationBuilder()
        a1 = b.add_event("Var", "Assign", {"newval": 1})
        a2 = b.add_event("Var", "Assign", {"newval": 2})
        o = b.add_event("Other", "X")
        c = b.freeze()
        assert c.element_precedes(a1.eid, a2.eid)
        assert not c.element_precedes(a2.eid, a1.eid)
        assert not c.element_precedes(a1.eid, o.eid)

    def test_element_order_feeds_temporal(self):
        b = ComputationBuilder()
        a1 = b.add_event("Var", "Assign", {"newval": 1})
        a2 = b.add_event("Var", "Assign", {"newval": 2})
        c = b.freeze()
        # causally unconnected but observably ordered (Section 2)
        assert not c.enables(a1.eid, a2.eid)
        assert c.temporally_precedes(a1.eid, a2.eid)

    def test_temporal_is_closure(self):
        c, (e1, e2, e3, e4) = diamond()
        assert c.temporally_precedes(e1.eid, e4.eid)
        assert not c.enables(e1.eid, e4.eid)

    def test_concurrency(self):
        c, (e1, e2, e3, e4) = diamond()
        assert c.concurrent(e2.eid, e3.eid)
        assert not c.concurrent(e1.eid, e2.eid)
        assert not c.concurrent(e2.eid, e2.eid)

    def test_enabled_by_and_enables_of(self):
        c, (e1, e2, e3, e4) = diamond()
        assert {e.eid for e in c.enabled_by(e4.eid)} == {e2.eid, e3.eid}
        assert {e.eid for e in c.enables_of(e1.eid)} == {e2.eid, e3.eid}


class TestAccessors:
    def test_events_at_and_of(self):
        b = ComputationBuilder()
        b.add_event("Var", "Assign", {"newval": 1})
        b.add_event("Var", "Getval", {"oldval": 1})
        b.add_event("Var", "Assign", {"newval": 2})
        c = b.freeze()
        assert len(c.events_at("Var")) == 3
        assigns = c.events_of(EventClassRef("Var", "Assign"))
        assert [e.param("newval") for e in assigns] == [1, 2]
        assert len(c.events_of_class("Assign")) == 2
        assert c.events_at("Missing") == ()

    def test_event_lookup(self):
        c, (e1, *_rest) = diamond()
        assert c.event(e1.eid) == e1
        with pytest.raises(ComputationError):
            c.event(EventId("Zed", 1))
        assert e1.eid in c
        assert EventId("Zed", 1) not in c

    def test_elements_listed(self):
        c, _ = diamond()
        assert set(c.elements()) == {"P", "Q", "R", "S"}

    def test_describe_mentions_events_and_edges(self):
        c, (e1, e2, *_rest) = diamond()
        text = c.describe()
        assert "P^1:Fork" in text
        assert "⊳" in text


class TestThreadsOnComputation:
    def test_relabel_and_query(self):
        c, (e1, e2, e3, e4) = diamond()
        t = ThreadId("pi", 1)
        c2 = c.relabel_threads({e1.eid: frozenset({t}), e2.eid: frozenset({t})})
        assert c2.thread_ids() == (t,)
        evs = c2.events_of_thread(t)
        assert [e.eid for e in evs] == [e1.eid, e2.eid]
        # original untouched
        assert c.thread_ids() == ()

    def test_events_of_thread_in_temporal_order(self):
        b = ComputationBuilder()
        x1 = b.add_event("A", "X")
        x2 = b.add_event("B", "X")
        b.add_enable(x1, x2)
        c = b.freeze()
        t = ThreadId("pi", 1)
        c2 = c.relabel_threads({x2.eid: frozenset({t}), x1.eid: frozenset({t})})
        assert [e.eid for e in c2.events_of_thread(t)] == [x1.eid, x2.eid]


class TestOneKahnPass:
    """⇒ is derived once per computation: the constructor's Kahn pass
    over ⊳ ∪ ⇒ₑ and its closure DP are the only ones, and every later
    order query on the computation is a lookup.

    Counts *non-memoised* executions of Kahn's algorithm and of the
    closure DP, by relation, so the tests are deterministic."""

    @pytest.fixture
    def passes(self, monkeypatch):
        from repro.core.order import Relation

        kahn, closure_dp, built = [], [], []
        real_topo = Relation._try_topological
        real_closure = Relation._closure_table
        real_init = Computation.__init__

        def topo(rel):
            if rel._topo is None:
                kahn.append(rel)
            return real_topo(rel)

        def closure(rel):
            if rel._closure_succ is None:
                closure_dp.append(rel)
            return real_closure(rel)

        def init(comp, *args, **kwargs):
            built.append(comp)
            real_init(comp, *args, **kwargs)

        monkeypatch.setattr(Relation, "_try_topological", topo)
        monkeypatch.setattr(Relation, "_closure_table", closure)
        monkeypatch.setattr(Computation, "__init__", init)

        def take():
            counts = (list(kahn), list(closure_dp), list(built))
            kahn.clear()
            closure_dp.clear()
            built.clear()
            return counts

        return take

    @staticmethod
    def catalog_run():
        from repro.cli import case_catalog
        from repro.sim.scheduler import explore

        program, spec, corr, _pspec = case_catalog()[
            "monitor-readers-writers"].factory(False)
        return next(iter(explore(program))).computation, spec, corr

    def test_build_runs_exactly_one_kahn_pass(self, passes):
        comp, _spec, _corr = self.catalog_run()
        events = comp.events
        pairs = list(comp.enable_relation.pairs())
        passes()
        Computation(events, pairs)
        kahn, closure_dp, built = passes()
        assert len(built) == 1
        assert len(kahn) == 1
        assert len(closure_dp) == 1

    def test_derived_queries_run_no_more_passes(self, passes):
        from repro.core.evalcore import event_index
        from repro.verify.projection import project

        comp, spec, corr = self.catalog_run()
        passes()
        projected = project(comp, corr)
        labelled = spec.label_threads(projected)
        for c in (comp, projected, labelled):
            event_index(c)
            c.temporal_relation.closure_table()
            c.temporal_relation.closure_pred_table()
            c.temporal_relation.topological_order()
            for tid in c.thread_ids():
                c.events_of_thread(tid)
        assert labelled.thread_ids()
        kahn, closure_dp, built = passes()
        # only the new computations' own constructions derive anything
        assert len(built) == 1 + len(spec.thread_types)
        assert len(kahn) == len(built)
        assert len(closure_dp) == len(built)
        for c in (comp, projected, labelled):
            for rel in (c.temporal_relation, c.enable_relation):
                assert rel not in kahn and rel not in closure_dp

    def test_histories_read_positions_without_an_event_index(
            self, monkeypatch):
        """A history is a mask over the positions ⇒ already indexes:
        building one, or walking the interpreter's lattice, neither calls
        :func:`~repro.core.evalcore.event_index` nor builds an
        :class:`~repro.core.evalcore.EventIndex`."""
        import repro.core.evalcore as evalcore
        from repro.core.checker import LatticeChecker
        from repro.core.history import History, empty_history, full_history

        built = []
        real_init = evalcore.EventIndex.__init__
        real_call = evalcore.event_index

        def counting_init(index, computation):
            built.append(computation)
            real_init(index, computation)

        def counting_call(computation):
            built.append(computation)
            return real_call(computation)

        monkeypatch.setattr(evalcore.EventIndex, "__init__", counting_init)
        monkeypatch.setattr(evalcore, "event_index", counting_call)
        comp, spec, _corr = self.catalog_run()
        labelled = spec.label_threads(comp)
        empty_history(labelled)
        full_history(labelled)
        History(labelled, [labelled.events[0].eid])
        checker = LatticeChecker(labelled)
        for r in spec.all_restrictions():
            if r.formula.is_temporal():
                checker.holds(r.formula)
        assert checker.visited
        assert built == []

    def test_lattice_walk_builds_id_sets_only_for_readers(self, monkeypatch):
        """The interpreter's walk hands leaves mask histories; the
        ``EventId`` frozenset is built once per history a leaf reads
        ``.events`` of, and never otherwise."""
        from repro.core.checker import LatticeChecker
        from repro.core.formula import (
            Eventually,
            Exists,
            Henceforth,
            Occurred,
            PyPred,
        )
        from repro.core.history import History

        sets = []
        real = History._ids

        def counting(history, mask):
            sets.append(mask)
            return real(history, mask)

        monkeypatch.setattr(History, "_ids", counting)
        comp, _events = diamond()
        top = len(comp)
        blind = Henceforth(PyPred("occurred-only", lambda h, env: all(
            h.occurred(ev.eid) or not h.occurred(ev.eid)
            for ev in h.computation.events)))
        assert LatticeChecker(comp).holds(blind)
        assert LatticeChecker(comp).holds(
            Eventually(Exists("e", comp.events[-1].event_class,
                              Occurred("e"))))
        assert sets == []

        reads = Henceforth(PyPred("reads-events",
                                  lambda h, env: len(h.events) <= top))
        checker = LatticeChecker(comp)
        assert checker.holds(reads)
        assert len(sets) == checker.visited
        assert len(set(sets)) == len(sets)

    def test_relations_are_indexed_in_event_order(self):
        """The invariant :class:`~repro.core.evalcore.EventIndex` relies
        on to share ⇒'s and ⊳'s tables instead of remapping them."""
        from repro.core.evalcore import event_index

        comp, _events = diamond()
        ids = tuple(ev.eid for ev in comp.events)
        assert comp.temporal_relation.nodes == ids
        assert comp.enable_relation.nodes == ids
        idx = event_index(comp)
        assert idx.temporal_succ is comp.temporal_relation.succ_table()
        assert idx.enable_succ is comp.enable_relation.succ_table()
        assert idx.index_of == {eid: i for i, eid in enumerate(ids)}
