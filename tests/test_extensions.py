"""Tests for the release-quality extensions: counterexample witnesses,
DOT rendering, JSON round-trips, dynamic groups, and the CLI."""

import json

import pytest

from repro.core import (
    ADD_GROUP_MEMBER,
    CREATE_GROUP,
    ComputationBuilder,
    DynamicGroupStructure,
    Eventually,
    Exists,
    FalseF,
    ForAll,
    GroupDecl,
    Henceforth,
    Implies,
    Not,
    Occurred,
    Restriction,
    ThreadId,
    Witness,
    check_dynamic_scope,
    computation_from_json,
    computation_from_json_str,
    computation_to_dot,
    computation_to_json,
    computation_to_json_str,
    find_witness,
    history_lattice_to_dot,
    is_structure_event,
)
from repro.core.checker import check_restriction
from repro.core.errors import ComputationError, SpecificationError
from repro.obs import explain_restriction


def diamond():
    b = ComputationBuilder()
    e1 = b.add_event("E1", "Fork")
    e2 = b.add_event("E2", "Work")
    e3 = b.add_event("E3", "Work")
    e4 = b.add_event("E4", "Join")
    b.add_enable(e1, e2)
    b.add_enable(e1, e3)
    b.add_enable(e2, e4)
    b.add_enable(e3, e4)
    return b.freeze(), (e1, e2, e3, e4)


class TestWitness:
    def test_no_witness_when_restriction_holds(self):
        comp, _ = diamond()
        r = Restriction("ok", Exists("j", "Join", Occurred("j")))
        assert find_witness(comp, r) is None

    def test_immediate_forall_witness_names_binding(self):
        comp, (e1, e2, e3, e4) = diamond()
        # "no Work event occurs" is false; the witness should name one
        r = Restriction("no-work", ForAll("w", "Work", Not(Occurred("w"))))
        w = find_witness(comp, r)
        assert w is not None
        assert "w" in w.bindings
        assert w.bindings["w"].event_class == "Work"
        assert "∀ fails" in "\n".join(w.trail)
        assert "Work" in w.describe()

    def test_immediate_exists_witness(self):
        comp, _ = diamond()
        r = Restriction("phantom", Exists("z", "Phantom", Occurred("z")))
        w = find_witness(comp, r)
        assert w is not None
        assert "no z" in "\n".join(w.trail)

    def test_temporal_box_witness_finds_failing_history(self):
        comp, (e1, e2, e3, e4) = diamond()
        # □(e4 not occurred) fails exactly at histories containing e4
        r = Restriction(
            "never-join",
            Henceforth(ForAll("j", "Join", Not(Occurred("j")))))
        w = find_witness(comp, r)
        assert w is not None
        assert e4.eid in w.history.events

    def test_temporal_diamond_witness_reports_terminal_history(self):
        comp, _ = diamond()
        r = Restriction("never", Eventually(FalseF()))
        w = find_witness(comp, r)
        assert w is not None
        assert w.history.is_complete()

    def test_nested_implication_witness(self):
        comp, (e1, e2, e3, e4) = diamond()
        # whenever Fork occurred, Phantom occurred -- fails
        r = Restriction(
            "fork-implies-phantom",
            Henceforth(ForAll(
                "f", "Fork",
                Implies(Occurred("f"),
                        Exists("p", "Phantom", Occurred("p"))))))
        w = find_witness(comp, r)
        assert w is not None
        assert e1.eid in w.history.events


    @staticmethod
    def join_after_six_works():
        # six independent Work events all enabling one Join: the 64
        # histories without the Join come first in the □ search, so
        # the failing (complete) history is its 65th visit
        b = ComputationBuilder()
        join = b.add_event("J", "Join")
        for i in range(6):
            b.add_enable(b.add_event(f"W{i}", "Work"), join)
        comp = b.freeze()
        r = Restriction("never-join",
                        Henceforth(ForAll("j", "Join", Not(Occurred("j")))))
        return comp, r

    def test_search_past_the_cap_localises_nothing(self):
        comp, r = self.join_after_six_works()
        (join,) = [e for e in comp.events if e.event_class == "Join"]
        # caps below 64 stop the shared checker's own walk, not the BFS
        for cap in (1, 2, 3, 5, 8, 64):
            assert find_witness(comp, r, history_cap=cap) is None, cap
            assert explain_restriction(comp, r, history_cap=cap) is None
        w = find_witness(comp, r, history_cap=65)
        assert w is not None and w.history.is_complete()
        assert w.bindings["j"].eid == join.eid
        explanation = explain_restriction(comp, r, history_cap=65)
        assert explanation is not None
        assert explanation.witness.describe() == w.describe()

    def test_asking_for_a_witness_keeps_a_decided_verdict(self):
        """The check decides the failure within the cap; a witness
        search that cannot localise it leaves the verdict alone."""
        comp, r = self.join_after_six_works()
        plain = check_restriction(comp, r, history_cap=8)
        with_witness = check_restriction(comp, r, history_cap=8,
                                         with_witness=True)
        assert str(plain) == "[FAIL] never-join (fails over the history " \
            "lattice)"
        assert with_witness == plain and "witness" not in str(with_witness)

    def test_other_computation_errors_still_propagate(self, monkeypatch):
        from repro.core.checker import LatticeChecker

        def broken(self, formula, history=None, env=None):
            raise ComputationError("not a cap overrun")

        comp, r = self.join_after_six_works()
        monkeypatch.setattr(LatticeChecker, "holds", broken)
        with pytest.raises(ComputationError, match="not a cap overrun"):
            find_witness(comp, r)


class TestDot:
    def test_computation_dot_structure(self):
        comp, (e1, e2, e3, e4) = diamond()
        dot = computation_to_dot(comp, title="d")
        assert dot.startswith('digraph "d" {')
        assert dot.rstrip().endswith("}")
        assert '"E1^1" -> "E2^1";' in dot
        assert "subgraph cluster_0" in dot
        assert "E4^1:Join" in dot

    def test_computation_dot_without_clusters_with_params(self):
        b = ComputationBuilder()
        b.add_event("Var", "Assign", {"newval": 5})
        dot = computation_to_dot(b.freeze(), cluster_by_element=False,
                                 show_params=True)
        assert "newval=5" in dot
        assert "subgraph" not in dot

    def test_element_order_rendered_dashed(self):
        b = ComputationBuilder()
        b.add_event("Var", "Assign", {"newval": 1})
        b.add_event("Var", "Assign", {"newval": 2})
        dot = computation_to_dot(b.freeze())
        assert "style=dashed" in dot

    def test_lattice_dot(self):
        comp, _ = diamond()
        dot = history_lattice_to_dot(comp)
        assert dot.count("h0") >= 1
        assert "∅" in dot
        # 6 nodes: empty + 5 non-empty
        assert sum(1 for line in dot.splitlines()
                   if line.strip().startswith("h") and "label=" in line
                   and "->" not in line) == 6

    def test_lattice_cap(self):
        b = ComputationBuilder()
        for i in range(12):
            b.add_event(f"E{i}", "A")
        with pytest.raises(ComputationError):
            history_lattice_to_dot(b.freeze(), cap=10)


class TestJsonIO:
    def test_round_trip_preserves_fingerprint(self):
        comp, _ = diamond()
        data = computation_to_json(comp)
        back = computation_from_json(data)
        assert back.fingerprint() == comp.fingerprint()
        assert len(back) == len(comp)
        assert set(back.enable_relation.pairs()) == set(
            comp.enable_relation.pairs())

    def test_round_trip_with_params_and_threads(self):
        b = ComputationBuilder()
        t = ThreadId("pi", 1)
        b.add_event("Var", "Assign", {"newval": 5, "site": "x"},
                    threads=[t])
        comp = b.freeze()
        back = computation_from_json_str(computation_to_json_str(comp))
        ev = back.events[0]
        assert ev.param("newval") == 5
        assert t in ev.threads

    def test_json_is_valid_and_stable(self):
        comp, _ = diamond()
        text = computation_to_json_str(comp)
        assert json.loads(text)["format"] == "gem-computation"
        assert text == computation_to_json_str(comp)  # deterministic

    def test_bad_format_rejected(self):
        with pytest.raises(ComputationError, match="format"):
            computation_from_json({"format": "nope", "version": 1})
        with pytest.raises(ComputationError, match="version"):
            computation_from_json({"format": "gem-computation",
                                   "version": 99})

    @pytest.mark.parametrize("events, enables, match", [
        # enable cycle: A^1 ⊳ B^1 ⊳ A^1
        ([("A", 1), ("B", 1)],
         [[["A", 1], ["B", 1]], [["B", 1], ["A", 1]]], "cycle"),
        # self-enable: A^1 ⊳ A^1
        ([("A", 1)], [[["A", 1], ["A", 1]]], "irreflexive"),
        # gap in occurrence numbers: A^1, A^3
        ([("A", 1), ("A", 3)], [], "contiguous"),
    ], ids=["enable-cycle", "self-enable", "occurrence-gap"])
    def test_ill_formed_order_rejected(self, events, enables, match):
        # loading is the boundary for outside input; the Computation
        # constructor is its only structural check
        data = {
            "format": "gem-computation", "version": 1,
            "events": [{"element": e, "index": i, "class": "Go"}
                       for e, i in events],
            "enables": enables,
        }
        with pytest.raises(ComputationError, match=match):
            computation_from_json(data)

    def test_file_round_trip(self, tmp_path):
        from repro.core.io import dump, load

        comp, _ = diamond()
        path = tmp_path / "comp.json"
        dump(comp, str(path))
        assert load(str(path)).fingerprint() == comp.fingerprint()


class TestDynamicGroups:
    def build(self, grant_before_use: bool):
        """Private element In inside G; Out gains access by *joining* G
        via an AddGroupMember event that it may or may not have observed
        when it fires."""
        b = ComputationBuilder()
        structure = b.add_event(
            "structure", ADD_GROUP_MEMBER,
            {"group": "G", "member": "Out"})
        src = b.add_event("Out", "Go")
        dst = b.add_event("In", "Hit")
        if grant_before_use:
            b.add_enable(structure, src)
        b.add_enable(src, dst)
        return b.freeze()

    def dynamic(self):
        # the structure element sits inside G too, so its grant events
        # can reach the (now G-internal) member they admitted
        return DynamicGroupStructure(
            ["In", "Out", "structure"],
            [GroupDecl.make("G", ["In", "structure"])],
        )

    def test_access_after_grant_is_legal(self):
        comp = self.build(grant_before_use=True)
        assert check_dynamic_scope(comp, self.dynamic()) == []

    def test_access_without_observed_grant_is_illegal(self):
        comp = self.build(grant_before_use=False)
        violations = check_dynamic_scope(comp, self.dynamic())
        assert len(violations) == 1
        assert violations[0].rule == "dynamic-scope"

    def test_create_group_event(self):
        b = ComputationBuilder()
        create = b.add_event("structure", CREATE_GROUP, {"group": "New"})
        add = b.add_event("structure", ADD_GROUP_MEMBER,
                          {"group": "New", "member": "X"})
        x = b.add_event("X", "Ping")
        comp = b.freeze()
        dyn = DynamicGroupStructure(["X", "structure"])
        final = dyn.final(comp)
        assert final.contained("X", "New")
        # at the create event, the group exists but X is not yet a member
        # (the AddGroupMember event is element-later, outside its past)
        at_create = dyn.in_force_at(comp, create.eid)
        assert not at_create.contained("X", "New")
        assert is_structure_event(create) and is_structure_event(add)

    def test_recreate_group_rejected(self):
        b = ComputationBuilder()
        b.add_event("structure", CREATE_GROUP, {"group": "G"})
        b.add_event("structure", CREATE_GROUP, {"group": "G"})
        comp = b.freeze()
        dyn = DynamicGroupStructure(["structure"])
        with pytest.raises(SpecificationError, match="re-creates"):
            dyn.final(comp)

    def test_add_to_unknown_group_rejected(self):
        b = ComputationBuilder()
        b.add_event("structure", ADD_GROUP_MEMBER,
                    {"group": "Nope", "member": "X"})
        comp = b.freeze()
        dyn = DynamicGroupStructure(["X", "structure"])
        with pytest.raises(SpecificationError, match="unknown group"):
            dyn.final(comp)

    def test_monotone_growth(self):
        """Later events see a superset of earlier structure."""
        comp = self.build(grant_before_use=True)
        dyn = self.dynamic()
        structure_ev = comp.events[0]
        dst = comp.events[2]
        early = dyn.in_force_at(comp, structure_ev.eid)
        late = dyn.in_force_at(comp, dst.eid)
        assert early.contained("Out", "G")
        assert late.contained("Out", "G")

    def test_structure_element_decl(self):
        from repro.core import structure_element_decl

        decl = structure_element_decl()
        assert decl.declares(CREATE_GROUP)
        assert decl.declares(ADD_GROUP_MEMBER)


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "monitor-readers-writers" in out
        assert len(out.strip().splitlines()) == 15

    def test_examples(self, capsys):
        from repro.cli import main

        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "EL1: EL1, EL6" in out
        assert "(paper: 5)" in out

    def test_verify_ok(self, capsys):
        from repro.cli import main

        assert main(["verify", "monitor-one-slot-buffer"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_mutant(self, capsys):
        from repro.cli import main

        assert main(["verify", "monitor-one-slot-buffer", "--mutant"]) == 0
        assert "FAILED" in capsys.readouterr().out

    def test_verify_unknown_case(self, capsys):
        from repro.cli import main

        assert main(["verify", "zzz"]) == 2

    def test_dot(self, capsys):
        from repro.cli import main

        assert main(["dot", "csp-one-slot-buffer"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_lattice(self, capsys):
        from repro.cli import main

        assert main(["lattice"]) == 0
        assert "∅" in capsys.readouterr().out


class TestComposition:
    def chain(self, element, n, cls="A"):
        b = ComputationBuilder()
        prev = None
        for _ in range(n):
            ev = b.add_event(element, cls)
            if prev is not None:
                b.add_enable(prev, ev)
            prev = ev
        return b.freeze()

    def test_parallel_compose_concurrent(self):
        from repro.core import parallel_compose

        comp = parallel_compose(self.chain("P", 2), self.chain("Q", 2))
        assert len(comp) == 4
        for p_ev in comp.events_at("P"):
            for q_ev in comp.events_at("Q"):
                assert comp.concurrent(p_ev.eid, q_ev.eid)

    def test_parallel_compose_rejects_shared_elements(self):
        from repro.core import parallel_compose

        with pytest.raises(ComputationError, match="disjoint"):
            parallel_compose(self.chain("P", 1), self.chain("P", 1))

    def test_sequential_compose_orders_everything(self):
        from repro.core import sequential_compose

        comp = sequential_compose(self.chain("P", 2), self.chain("Q", 2))
        for p_ev in comp.events_at("P"):
            for q_ev in comp.events_at("Q"):
                assert comp.temporally_precedes(p_ev.eid, q_ev.eid)

    def test_sequential_compose_renumbers_shared_elements(self):
        from repro.core import sequential_compose

        comp = sequential_compose(self.chain("P", 2), self.chain("P", 3))
        assert [e.index for e in comp.events_at("P")] == [1, 2, 3, 4, 5]

    def test_sequential_without_barrier_leaves_disjoint_concurrent(self):
        from repro.core import sequential_compose

        comp = sequential_compose(self.chain("P", 1), self.chain("Q", 1),
                                  barrier=False)
        (p_ev,) = comp.events_at("P")
        (q_ev,) = comp.events_at("Q")
        assert comp.concurrent(p_ev.eid, q_ev.eid)

    def test_sequential_associative_up_to_fingerprint(self):
        from repro.core import sequential_compose as seq

        a, b, c = self.chain("P", 1), self.chain("Q", 1), self.chain("R", 1)
        left = seq(seq(a, b), c)
        right = seq(a, seq(b, c))
        # not identical (the barrier edges differ: left adds P->Q then
        # Q->R edges; right the same set) -- check temporal equivalence
        for x in left.events:
            for y in left.events:
                assert left.temporally_precedes(x.eid, y.eid) == (
                    right.temporally_precedes(x.eid, y.eid))

    def test_restrict_to_history(self):
        from repro.core import restrict_events

        comp = self.chain("P", 3)
        ids = [e.eid for e in comp.events]
        sub = restrict_events(comp, ids[:2])
        assert len(sub) == 2
        assert sub.enables(ids[0], ids[1])

    def test_restrict_rejects_non_down_closed(self):
        from repro.core import restrict_events

        comp = self.chain("P", 3)
        ids = [e.eid for e in comp.events]
        with pytest.raises(ComputationError, match="downward"):
            restrict_events(comp, [ids[2]])

    def test_restrict_rejects_unknown(self):
        from repro.core import EventId, restrict_events

        comp = self.chain("P", 1)
        with pytest.raises(ComputationError, match="unknown"):
            restrict_events(comp, [EventId("Z", 1)])

    def test_compositions_are_checkable(self):
        """Composed computations flow through histories and the checker."""
        from repro.core import (
            Henceforth,
            LatticeChecker,
            Occurred,
            ForAll,
            Implies,
            Exists,
            parallel_compose,
            sequential_compose,
        )

        comp = sequential_compose(
            parallel_compose(self.chain("P", 1, "Early"),
                             self.chain("Q", 1, "Early")),
            self.chain("R", 1, "Late"),
        )
        safety = Henceforth(ForAll(
            "l", "Late",
            Implies(Occurred("l"), Exists("e", "Early", Occurred("e")))))
        assert LatticeChecker(comp).holds(safety)
