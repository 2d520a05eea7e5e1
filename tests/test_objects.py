"""The differential test battery for the distributed-object workloads.

Two independent deciders -- the production memoised witness search and
the brute-force permutation oracle -- are swept against each other over
seeded random histories, the three planted non-linearizable mutants
must be rejected by both, and Hypothesis checks the structural laws
(linearizable implies SC; verdicts invariant under process relabelling
and enumeration-order permutation).  The cross-mode matrix asserts the
workloads produce byte-identical signatures across every engine flag
combination and through the serve daemon.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.oracles import ObjectsArtifact, check_objects_agree, \
    make_oracles
from repro.problems.objects import (
    MUTANTS,
    OBJ,
    object_case,
    object_program,
    planted_mutant_history,
    standard_scripts,
)
from repro.serve.client import ServeClient
from repro.serve.daemon import start_in_thread
from repro.serve.protocol import signature_json
from repro.verify import verify_program
from repro.verify.consistency import (
    OBJECT_TYPES,
    brute_force_linearizable,
    brute_force_sequentially_consistent,
    check_history_agreement,
    linearizable,
    permute_ops,
    random_object_history,
    relabel_processes,
    sequentially_consistent,
)

COMMON = settings(max_examples=25, deadline=None, derandomize=True)

PLANTED = tuple(MUTANTS.values())


def seeded_history(seed, object_type, corrupt):
    """The sweep's history shape: 2-3 procs, every history <= 9 ops."""
    rng = random.Random(seed)
    n_procs, ops_per_proc = rng.choice(((2, 2), (2, 3), (2, 3), (3, 2)))
    return random_object_history(
        rng, object_type, n_procs=n_procs, ops_per_proc=ops_per_proc,
        corrupt=corrupt)


# -- the differential sweep: search verdict == brute-force verdict ----------


class TestDifferentialSweep:
    @pytest.mark.parametrize("object_type", OBJECT_TYPES)
    def test_quick_sweep(self, object_type):
        """25 seeds per object type, half corrupted, in-tier-1 always."""
        for seed in range(25):
            history = seeded_history(seed, object_type, corrupt=seed % 2 == 0)
            problem = check_history_agreement(history)
            assert problem is None, f"seed {seed}: {problem}"

    @pytest.mark.slow
    @pytest.mark.parametrize("object_type", OBJECT_TYPES)
    def test_200_seed_sweep(self, object_type):
        """The acceptance sweep: 200 seeds x 4 types, both verdicts."""
        for seed in range(200):
            history = seeded_history(seed, object_type, corrupt=seed % 2 == 0)
            problem = check_history_agreement(history)
            assert problem is None, f"seed {seed}: {problem}"

    def test_corrupted_histories_are_actually_exercised(self):
        """The sweep must see non-linearizable histories, or it proves
        nothing; at least one corrupted seed per mutable type fails."""
        for object_type in ("register", "queue"):
            assert any(
                not linearizable(seeded_history(s, object_type, corrupt=True))
                for s in range(25))


# -- the planted mutants ----------------------------------------------------


class TestPlantedMutants:
    @pytest.mark.parametrize("kind", PLANTED)
    def test_both_deciders_reject(self, kind):
        history = planted_mutant_history(kind)
        assert not linearizable(history), kind
        assert not brute_force_linearizable(history), kind

    def test_textbook_separation(self):
        """Stale read and double acquire are SC but not linearizable;
        a dropped dequeue violates both."""
        for kind, sc in (("stale-read", True),
                         ("dropped-dequeue", False),
                         ("double-acquire", True)):
            history = planted_mutant_history(kind)
            assert sequentially_consistent(history) == sc, kind
            assert brute_force_sequentially_consistent(history) == sc, kind

    @pytest.mark.parametrize("object_type,mutant_name",
                             sorted(MUTANTS.items()))
    def test_verify_program_rejects_mutants(self, object_type, mutant_name):
        """End to end: the mutant workload fails its linearizability
        restriction through the full engine pipeline."""
        program, spec, corr, _ = object_case(object_type, mutant=True)
        report = verify_program(program, spec, corr)
        assert not report.ok, mutant_name
        assert f"linearizable-{object_type}" in report.failed_restrictions()

    @pytest.mark.parametrize("object_type", OBJECT_TYPES)
    def test_verify_program_accepts_correct_workloads(self, object_type):
        program, spec, corr, _ = object_case(object_type)
        report = verify_program(program, spec, corr)
        assert report.ok, report.failed_restrictions()
        assert report.exhaustive


# -- the fuzz oracle has teeth ----------------------------------------------


class TestOracle:
    def test_registered(self):
        oracle = make_oracles()["objects-differential"]
        assert oracle.check is check_objects_agree

    @pytest.mark.parametrize("kind", PLANTED)
    def test_planted_artifacts_pass_with_honest_checkers(self, kind):
        assert check_objects_agree(
            ObjectsArtifact(object_type="register", seed=0,
                            planted=kind)) is None

    @pytest.mark.parametrize("kind", PLANTED)
    def test_lying_linearizability_checker_is_killed(self, kind):
        """A checker that calls the planted mutants linearizable must be
        caught -- the law is not vacuous."""
        artifact = ObjectsArtifact(object_type="register", seed=0,
                                   planted=kind)
        assert check_objects_agree(
            artifact, linearizable_impl=lambda h: True) is not None

    def test_lying_sc_checker_is_killed(self):
        """On a random non-SC corrupted history, an always-True SC
        checker disagrees with the brute-force oracle."""
        seed = next(
            s for s in range(50)
            if not sequentially_consistent(
                seeded_history(s, "queue", corrupt=True)))
        artifact = ObjectsArtifact(object_type="queue", seed=seed,
                                   corrupt=True)
        assert check_objects_agree(
            artifact, sc_impl=lambda h: True) is not None

    def test_artifact_round_trips_through_repr(self):
        artifact = ObjectsArtifact(object_type="lock", seed=7, corrupt=True)
        assert eval(repr(artifact)) == artifact


# -- hypothesis: structural laws of the verdicts ----------------------------


@st.composite
def histories(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    object_type = draw(st.sampled_from(OBJECT_TYPES))
    corrupt = draw(st.booleans())
    return seeded_history(seed, object_type, corrupt)


class TestHypothesisLaws:
    @COMMON
    @given(histories())
    def test_linearizable_implies_sc(self, history):
        if linearizable(history):
            assert sequentially_consistent(history)

    @COMMON
    @given(histories(), st.randoms(use_true_random=False))
    def test_verdicts_invariant_under_relabelling(self, history, rng):
        procs = sorted({op.process for op in history.ops})
        renamed = rng.sample([f"q{i}" for i in range(len(procs))],
                             len(procs))
        relabelled = relabel_processes(history, dict(zip(procs, renamed)))
        assert linearizable(relabelled) == linearizable(history)
        assert (sequentially_consistent(relabelled)
                == sequentially_consistent(history))

    @COMMON
    @given(histories(), st.randoms(use_true_random=False))
    def test_verdicts_invariant_under_enumeration_order(self, history, rng):
        """Any interleaving re-enumeration (per-process order kept --
        index order is program order) leaves the verdicts unchanged."""
        remaining = {}
        for idx, op in enumerate(history.ops):
            remaining.setdefault(op.process, []).append(idx)
        perm = []
        while remaining:
            p = rng.choice(sorted(remaining))
            perm.append(remaining[p].pop(0))
            if not remaining[p]:
                del remaining[p]
        permuted = permute_ops(history, perm)
        assert linearizable(permuted) == linearizable(history)
        assert (sequentially_consistent(permuted)
                == sequentially_consistent(history))

    @COMMON
    @given(histories())
    def test_program_order_violating_permutations_are_rejected(self, history):
        procs = [op.process for op in history.ops]
        two = next((p for p in set(procs) if procs.count(p) >= 2), None)
        if two is None:
            return
        i, j = [k for k, p in enumerate(procs) if p == two][:2]
        perm = list(range(len(history.ops)))
        perm[i], perm[j] = j, i
        with pytest.raises(ValueError):
            permute_ops(history, perm)


# -- cross-mode matrix: byte-identical signatures ---------------------------


MATRIX_CASES = ("register", "lock")


class TestCrossModeMatrix:
    @pytest.mark.slow
    @pytest.mark.parametrize("object_type", MATRIX_CASES)
    def test_flag_matrix_signatures_identical(self, object_type):
        """--por/--no-por x --dfa/--no-dfa x --jobs 1/4: one
        signature."""
        program, spec, corr, _ = object_case(object_type)
        signatures = set()
        for por, dfa, jobs in itertools.product(
                (True, False), (True, False), (1, 4)):
            report = verify_program(program, spec, corr, por=por,
                                    dfa=dfa, jobs=jobs)
            signatures.add(json.dumps(signature_json(report.signature())))
        assert len(signatures) == 1

    @pytest.mark.parametrize("object_type", MATRIX_CASES)
    def test_flag_corners_signatures_identical(self, object_type):
        """Tier-1 subset of the matrix: the two all-on/all-off corners."""
        program, spec, corr, _ = object_case(object_type)
        on = verify_program(program, spec, corr)
        off = verify_program(program, spec, corr, por=False, dfa=False)
        assert on.signature() == off.signature()

    @pytest.mark.slow
    def test_daemon_signature_matches_oneshot(self):
        """The serve daemon returns the same signature the in-process
        pipeline computes, for every objects case."""
        handle = start_in_thread(jobs=2, job_workers=2)
        try:
            client = ServeClient(port=handle.port)
            assert client.ping()
            for object_type in OBJECT_TYPES:
                snap = client.verify({"case": f"objects-{object_type}"})
                assert snap["state"] == "done", snap
                program, spec, corr, _ = object_case(object_type)
                report = verify_program(program, spec, corr)
                assert (snap["result"]["signature"]
                        == signature_json(report.signature())), object_type
        finally:
            handle.stop()


# -- workload plumbing ------------------------------------------------------


class TestWorkloadShape:
    @pytest.mark.parametrize("object_type", OBJECT_TYPES)
    def test_standard_scripts_are_two_processes(self, object_type):
        scripts = standard_scripts(object_type)
        assert [p for p, _ in scripts] == ["p1", "p2"]

    def test_mutant_catalog_is_closed(self):
        assert set(MUTANTS) == {"register", "queue", "lock"}
        with pytest.raises(ValueError):
            object_program("counter", mutant=True)
        with pytest.raises(ValueError):
            planted_mutant_history("no-such-mutant")

    @pytest.mark.parametrize("object_type", OBJECT_TYPES)
    def test_programs_emit_at_the_shared_element(self, object_type):
        state = object_program(object_type).initial_state()
        while not state.is_final():
            state.step(sorted(state.enabled(),
                              key=lambda a: a.key)[0])
        events = list(state.computation().events_at(OBJ))
        assert events, "no events at the shared object element"
        assert {ev.event_class for ev in events} == {"Inv", "Res"}
