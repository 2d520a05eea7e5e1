"""Unit tests for the partial-order algebra (repro.core.order)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CycleError
from repro.core.order import Relation


def rel(nodes, pairs):
    return Relation.from_pairs(nodes, pairs)


class TestConstruction:
    def test_from_pairs_and_holds(self):
        r = rel("abc", [("a", "b"), ("b", "c")])
        assert r.holds("a", "b")
        assert r.holds("b", "c")
        assert not r.holds("a", "c")

    def test_unknown_node_in_pair_rejected(self):
        with pytest.raises(ValueError):
            rel("ab", [("a", "z")])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(["a", "a"], [])

    def test_empty_relation(self):
        r = Relation.empty("abc")
        assert len(r) == 3
        assert r.pair_count() == 0
        assert list(r.pairs()) == []

    def test_contains(self):
        r = rel("ab", [])
        assert "a" in r
        assert "z" not in r


class TestNeighbours:
    def test_successors_predecessors(self):
        r = rel("abcd", [("a", "b"), ("a", "c"), ("c", "d")])
        assert set(r.successors("a")) == {"b", "c"}
        assert set(r.predecessors("d")) == {"c"}
        assert set(r.predecessors("a")) == set()

    def test_minimal_maximal(self):
        r = rel("abcd", [("a", "b"), ("b", "c")])
        assert set(r.minimal_nodes()) == {"a", "d"}
        assert set(r.maximal_nodes()) == {"c", "d"}


class TestClosure:
    def test_closure_holds_transitively(self):
        r = rel("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert r.closure_holds("a", "d")
        assert not r.closure_holds("d", "a")
        assert not r.closure_holds("a", "a")

    def test_transitive_closure_relation(self):
        r = rel("abc", [("a", "b"), ("b", "c")])
        tc = r.transitive_closure()
        assert tc.holds("a", "c")
        assert tc.is_strict_partial_order()

    def test_closure_of_cyclic_raises(self):
        r = rel("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            r.transitive_closure()

    def test_closure_idempotent(self):
        r = rel("abcde", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "e")])
        tc = r.transitive_closure()
        tc2 = tc.transitive_closure()
        assert set(tc.pairs()) == set(tc2.pairs())


class TestCycles:
    def test_self_loop_detected(self):
        r = rel("ab", [("a", "a")])
        assert not r.is_acyclic()
        cyc = r.find_cycle()
        assert cyc == ["a", "a"]

    def test_two_cycle_detected(self):
        r = rel("abc", [("a", "b"), ("b", "a")])
        assert not r.is_acyclic()
        cyc = r.find_cycle()
        assert cyc[0] == cyc[-1]
        assert len(cyc) == 3

    def test_long_cycle_witness_is_closed_path(self):
        r = rel("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("a", "e")])
        cyc = r.find_cycle()
        assert cyc[0] == cyc[-1]
        for x, y in zip(cyc, cyc[1:]):
            assert r.holds(x, y)

    def test_acyclic_has_no_cycle(self):
        r = rel("abc", [("a", "b"), ("a", "c")])
        assert r.is_acyclic()
        assert r.find_cycle() is None


class TestOrderPredicates:
    def test_is_strict_partial_order(self):
        # raw chain is not transitive, closure is
        chain = rel("abc", [("a", "b"), ("b", "c")])
        assert not chain.is_strict_partial_order()
        assert chain.transitive_closure().is_strict_partial_order()

    def test_concurrent(self):
        r = rel("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]).transitive_closure()
        assert r.concurrent("b", "c")
        assert not r.concurrent("a", "d")
        assert not r.concurrent("a", "a")

    def test_topological_order_respects_edges(self):
        r = rel("abcde", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "e")])
        topo = r.topological_order()
        pos = {n: i for i, n in enumerate(topo)}
        for x, y in r.pairs():
            assert pos[x] < pos[y]

    def test_topological_order_cyclic_raises(self):
        with pytest.raises(CycleError):
            rel("ab", [("a", "b"), ("b", "a")]).topological_order()


class TestReduction:
    def test_reduction_removes_implied_edge(self):
        r = rel("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        red = r.transitive_reduction()
        assert red.holds("a", "b")
        assert red.holds("b", "c")
        assert not red.holds("a", "c")

    def test_reduction_closure_round_trip(self):
        r = rel("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "d"),
                          ("a", "d"), ("a", "c")])
        red = r.transitive_reduction()
        assert set(red.transitive_closure().pairs()) == set(
            r.transitive_closure().pairs())

    def test_reduction_cyclic_raises(self):
        with pytest.raises(CycleError):
            rel("ab", [("a", "b"), ("b", "a")]).transitive_reduction()


class TestSets:
    def diamond(self):
        return rel("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])

    def test_down_set(self):
        r = self.diamond()
        assert r.down_set(["d"]) == frozenset("abcd")
        assert r.down_set(["b"]) == frozenset("ab")
        assert r.down_set(["b", "c"]) == frozenset("abc")

    def test_up_set(self):
        r = self.diamond()
        assert r.up_set(["a"]) == frozenset("abcd")
        assert r.up_set(["c"]) == frozenset("cd")

    def test_is_down_closed(self):
        r = self.diamond()
        assert r.is_down_closed(set("ab"))
        assert r.is_down_closed(set())
        assert not r.is_down_closed(set("bd"))

    def test_is_antichain(self):
        r = self.diamond()
        assert r.is_antichain(set("bc"))
        assert r.is_antichain({"b"})
        assert r.is_antichain(set())
        assert not r.is_antichain(set("ab"))

    def test_restricted_to(self):
        r = self.diamond()
        sub = r.restricted_to(["a", "b", "d"])
        assert set(sub.nodes) == {"a", "b", "d"}
        assert sub.holds("a", "b")
        assert sub.holds("b", "d")
        assert not sub.holds("a", "d")  # raw restriction keeps raw pairs only

    def test_union(self):
        r1 = rel("abc", [("a", "b")])
        r2 = Relation.from_pairs(list(r1.nodes), [("b", "c")])
        u = r1.union(r2)
        assert u.holds("a", "b") and u.holds("b", "c")

    def test_union_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            rel("ab", []).union(rel("abc", []))


class TestLinearExtensions:
    def test_chain_has_one_extension(self):
        r = rel("abc", [("a", "b"), ("b", "c")])
        exts = list(r.linear_extensions())
        assert exts == [["a", "b", "c"]]

    def test_antichain_has_factorial_extensions(self):
        r = Relation.empty("abc")
        exts = list(r.linear_extensions())
        assert len(exts) == 6
        assert len({tuple(e) for e in exts}) == 6

    def test_diamond_count(self):
        r = rel("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert r.count_linear_extensions() == 2
        assert len(list(r.linear_extensions())) == 2

    def test_limit_respected(self):
        r = Relation.empty("abcde")
        exts = list(r.linear_extensions(limit=7))
        assert len(exts) == 7

    def test_every_extension_is_valid(self):
        r = rel("abcde", [("a", "c"), ("b", "c"), ("c", "d")])
        for ext in r.linear_extensions():
            pos = {n: i for i, n in enumerate(ext)}
            for x, y in r.pairs():
                assert pos[x] < pos[y]

    def test_count_matches_enumeration(self):
        r = rel("abcde", [("a", "c"), ("b", "c")])
        assert r.count_linear_extensions() == len(list(r.linear_extensions()))

    def test_cyclic_raises(self):
        r = rel("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            list(r.linear_extensions())
        with pytest.raises(CycleError):
            r.count_linear_extensions()


class TestClosedRelation:
    """A relation from :meth:`Relation.transitive_closure` knows it is
    closed: it inherits the source's topological order and is its own
    closure table."""

    def test_closure_table_is_succ_table(self):
        tc = rel("abcd", [("a", "b"), ("b", "c"), ("a", "d")]).transitive_closure()
        assert tc.closure_table() is tc.succ_table()
        assert tc.closure_pred_table() == [
            sum(1 << j for j in range(4) if tc.succ_table()[j] >> i & 1)
            for i in range(4)]

    def test_inherits_order_not_insertion_order(self):
        # insertion order d, c, b, a; edges run a -> b -> c -> d
        r = rel("dcba", [("a", "b"), ("b", "c"), ("c", "d")])
        tc = r.transitive_closure()
        assert tc.topological_order() == list("abcd")
        fresh = rel("dcba", list(tc.pairs()))
        assert fresh.topological_order() == tc.topological_order()


@st.composite
def dags(draw):
    """A random DAG whose insertion order is a random permutation of a
    hidden topological order, so Kahn's tie-breaking matters."""
    n = draw(st.integers(min_value=0, max_value=12))
    rank = draw(st.permutations(range(n)))
    pairs = [
        (a, b) for a in range(n) for b in range(n)
        if rank[a] < rank[b] and draw(st.booleans())
    ]
    return list(range(n)), pairs


@settings(max_examples=200, deadline=None)
@given(dags())
def test_closure_inherits_kahn_order_and_is_its_own_closure(dag):
    nodes, pairs = dag
    tc = Relation.from_pairs(nodes, pairs).transitive_closure()
    order = tc.topological_order()
    assert Relation.from_pairs(nodes, pairs).topological_order() == order
    assert Relation.from_pairs(nodes, tc.pairs()).topological_order() == order
    assert tc.closure_table() == tc.succ_table()
    assert tc.closure_table() == Relation.from_pairs(
        nodes, tc.pairs()).closure_table()
