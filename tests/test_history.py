"""Unit tests for histories and valid history sequences (Section 7).

The Section 7 worked example (the diamond computation) is reproduced in
full: its five non-empty histories and its three valid history
sequences.
"""

import pytest

from repro.core import (
    ComputationBuilder,
    History,
    HistorySequence,
    all_histories,
    count_maximal_history_sequences,
    empty_history,
    full_history,
    maximal_history_sequences,
)
from repro.core.errors import ComputationError


def paper_diamond():
    """The Section 7 computation: e1 ⊳ e2, e1 ⊳ e3, e2 ⊳ e4, e3 ⊳ e4."""
    b = ComputationBuilder()
    e1 = b.add_event("E1", "A")
    e2 = b.add_event("E2", "A")
    e3 = b.add_event("E3", "A")
    e4 = b.add_event("E4", "A")
    b.add_enable(e1, e2)
    b.add_enable(e1, e3)
    b.add_enable(e2, e4)
    b.add_enable(e3, e4)
    return b.freeze(), (e1, e2, e3, e4)


class TestHistoryBasics:
    def test_empty_and_full(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        assert len(empty_history(c)) == 0
        assert full_history(c).is_complete()

    def test_down_closure_enforced(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        with pytest.raises(ComputationError, match="downward closed"):
            History(c, {e2.eid})  # e1 missing

    def test_unknown_event_rejected(self):
        from repro.core import EventId

        c, _ = paper_diamond()
        with pytest.raises(ComputationError):
            History(c, {EventId("Nope", 1)})

    def test_prefix_relation(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        a0 = History(c, {e1.eid})
        a1 = History(c, {e1.eid, e2.eid})
        assert a0 <= a1
        assert a0 < a1
        assert not (a1 <= a0)

    def test_prefix_across_computations_rejected(self):
        c, (e1, *_p) = paper_diamond()
        c2, (f1, *_q) = paper_diamond()
        with pytest.raises(ComputationError):
            History(c, {e1.eid}) <= History(c2, {f1.eid})

    def test_equality_and_hash(self):
        c, (e1, *_r) = paper_diamond()
        assert History(c, {e1.eid}) == History(c, {e1.eid})
        assert len({History(c, {e1.eid}), History(c, {e1.eid})}) == 1

    def test_extend(self):
        c, (e1, e2, *_r) = paper_diamond()
        h = History(c, {e1.eid}).extend([e2.eid])
        assert e2.eid in h


class TestHistoryPredicates:
    def test_occurred(self):
        c, (e1, e2, *_r) = paper_diamond()
        h = History(c, {e1.eid})
        assert h.occurred(e1.eid)
        assert not h.occurred(e2.eid)

    def test_addable_and_potential(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        h = History(c, {e1.eid})
        assert h.addable() == {e2.eid, e3.eid}
        assert h.potential(e2.eid)
        assert not h.potential(e4.eid)
        assert not h.potential(e1.eid)  # already occurred

    def test_foreign_event_is_never_potential(self):
        """Like ``new``, ``occurred`` and ``at``, ``potential`` answers
        False for an event outside the computation instead of raising."""
        from repro.core import EventId

        c, (e1, *_r) = paper_diamond()
        outsider = EventId("Nope", 1)
        for h in (empty_history(c), History(c, {e1.eid}), full_history(c)):
            assert not h.potential(outsider)
            assert not h.new(outsider)
            assert not h.occurred(outsider)
            assert not h.at(outsider, [e1.eid])

    def test_frontier(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        h = History(c, {e1.eid, e2.eid, e3.eid})
        assert h.frontier() == {e2.eid, e3.eid}

    def test_new(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        h = History(c, {e1.eid, e2.eid})
        assert h.new(e2.eid)
        assert not h.new(e1.eid)  # e2 followed it
        assert not h.new(e4.eid)  # hasn't occurred

    def test_at(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        h1 = History(c, {e1.eid})
        # e1 has not yet enabled e2 or e3 within h1
        assert h1.at(e1.eid, [e2.eid, e3.eid])
        h2 = History(c, {e1.eid, e2.eid})
        assert not h2.at(e1.eid, [e2.eid])
        assert h2.at(e1.eid, [e3.eid])


class TestSection7Example:
    def test_five_nonempty_histories(self):
        c, _ = paper_diamond()
        hs = all_histories(c, include_empty=False)
        assert len(hs) == 5

    def test_history_sets_match_paper(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        expected = [
            {e1.eid},
            {e1.eid, e2.eid},
            {e1.eid, e3.eid},
            {e1.eid, e2.eid, e3.eid},
            {e1.eid, e2.eid, e3.eid, e4.eid},
        ]
        got = [set(h.events) for h in all_histories(c, include_empty=False)]
        for e in expected:
            assert e in got

    def test_three_vhs_from_alpha0(self):
        """The paper lists exactly three vhs starting at α₀ = {e1}."""
        c, _ = paper_diamond()
        seqs = list(maximal_history_sequences(c, max_step=None))
        # sequences start at the empty history; drop it and the α₀ step
        # remains first in each
        assert len(seqs) == 3
        assert count_maximal_history_sequences(c, max_step=None) == 3

    def test_simultaneous_step_present(self):
        """One vhs jumps α₀ → α₃, adding e2 and e3 'at the same time'."""
        c, (e1, e2, e3, e4) = paper_diamond()
        jumps = [
            seq
            for seq in maximal_history_sequences(c, max_step=None)
            if any(
                len(b.events - a.events) == 2
                for a, b in zip(seq.histories, seq.histories[1:])
            )
        ]
        assert len(jumps) == 1
        (seq,) = jumps
        steps = [b.events - a.events for a, b in zip(seq.histories, seq.histories[1:])]
        assert {e2.eid, e3.eid} in steps

    def test_linear_vhs_are_two(self):
        c, _ = paper_diamond()
        assert count_maximal_history_sequences(c, max_step=1) == 2


class TestHistorySequence:
    def test_monotonicity_enforced(self):
        c, (e1, e2, *_r) = paper_diamond()
        h0 = History(c, {e1.eid, e2.eid})
        h1 = History(c, {e1.eid})
        with pytest.raises(ComputationError, match="monotonically"):
            HistorySequence([h0, h1])

    def test_ordered_simultaneous_events_rejected(self):
        c, (e1, e2, e3, e4) = paper_diamond()
        h0 = empty_history(c)
        h1 = History(c, {e1.eid, e2.eid})  # e1 ⇒ e2: cannot be one step
        with pytest.raises(ComputationError, match="concurrent"):
            HistorySequence([h0, h1])

    def test_stuttering_allowed(self):
        c, (e1, *_r) = paper_diamond()
        h = History(c, {e1.eid})
        seq = HistorySequence([h, h])
        assert len(seq) == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(ComputationError):
            HistorySequence([])

    def test_tail_closure(self):
        c, _ = paper_diamond()
        seq = next(iter(maximal_history_sequences(c, max_step=None)))
        for i in range(len(seq)):
            tail = seq.tail(i)
            assert isinstance(tail, HistorySequence)
            assert tail[0] == seq[i]
        with pytest.raises(IndexError):
            seq.tail(len(seq))

    def test_maximal_and_initial(self):
        c, _ = paper_diamond()
        seq = next(iter(maximal_history_sequences(c)))
        assert seq.is_maximal()
        assert seq.is_initial()
        assert not seq.tail(1).is_initial() or len(seq[1]) == 0

    def test_cross_computation_rejected(self):
        c, (e1, *_p) = paper_diamond()
        c2, (f1, *_q) = paper_diamond()
        with pytest.raises(ComputationError):
            HistorySequence([empty_history(c), History(c2, {f1.eid})])


class TestCapsAndCounts:
    def test_all_histories_cap(self):
        c, _ = paper_diamond()
        with pytest.raises(ComputationError, match="histories"):
            all_histories(c, cap=2)

    def test_vhs_cap(self):
        c, _ = paper_diamond()
        seqs = list(maximal_history_sequences(c, cap=1, max_step=None))
        assert len(seqs) == 1

    def test_count_matches_enumeration_wider(self):
        b = ComputationBuilder()
        events = [b.add_event(f"E{i}", "A") for i in range(4)]
        c = b.freeze()  # four concurrent events
        n_linear = count_maximal_history_sequences(c, max_step=1)
        assert n_linear == 24
        n_anti = count_maximal_history_sequences(c, max_step=None)
        assert n_anti == len(list(maximal_history_sequences(c, max_step=None)))
        assert n_anti == 75  # ordered set partitions (Fubini number a(4))
