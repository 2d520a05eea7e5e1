"""Tests for :mod:`repro.fuzz`: generators, oracles, shrinker, runner.

Three layers:

* generator sanity -- seeded determinism, structural well-formedness,
  recipe algebra (``repr`` round-trips, shuffles, shrink steps);
* killed mutants -- every oracle must demonstrably *fail* on a seeded
  defect (a tampered relation, a forged history, a lossy fingerprint, a
  barrier-less composition, an out-of-fragment formula, a
  nondeterministic program, a fork-divergent program);
* the loop -- ``run_fuzz`` passes clean over every oracle, the shrinker
  minimises a planted engine disagreement to a handful of events, and
  the emitted pytest snippet actually runs and reproduces.
"""

import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.computation import ComputationBuilder
from repro.core.formula import (
    And,
    Eventually,
    Exists,
    Not,
    Occurred,
    Restriction,
)
from repro.core.history import History, all_histories
from repro.core.order import Relation
from repro.engine.pool import fork_available
from repro.fuzz import (
    CheckerArtifact,
    ComputationRecipe,
    FuzzConfig,
    FuzzProgram,
    FuzzProgramSpec,
    check_compose_laws,
    check_engine_agreement,
    check_fingerprint_laws,
    check_history_laws,
    check_order_laws,
    check_replay_determinism,
    check_routes_agree,
    make_oracles,
    oracle_names,
    random_choices,
    random_computation,
    random_formula,
    repro_snippet,
    run_fuzz,
    seed_token,
    shrink_failure,
)
from repro.fuzz.programs import FORK_DROPS_ENABLES, random_program_spec
from repro.sim import run_random, sample_runs

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")


# -- generators ------------------------------------------------------------


class TestGenerators:
    def test_same_seed_same_recipe(self):
        for seed in range(10):
            a = random_computation(random.Random(seed))
            b = random_computation(random.Random(seed))
            assert a == b

    def test_recipes_build_well_formed_computations(self):
        for seed in range(30):
            recipe = random_computation(random.Random(seed))
            comp = recipe.build()
            assert comp.temporal_relation.is_strict_partial_order()
            # edges were declared forward in insertion order
            assert all(i < j for i, j in recipe.edges)

    def test_group_recipes_respect_access_rules(self):
        saw_groups = False
        for seed in range(30):
            recipe = random_computation(random.Random(seed), with_groups=True)
            structure = recipe.group_structure()
            if structure is None:
                continue
            saw_groups = True
            for i, j in recipe.edges:
                src = recipe.events[i][0]
                dst, dst_class = recipe.events[j][0], recipe.events[j][1]
                assert structure.may_enable(src, dst, dst_class)
        assert saw_groups

    def test_recipe_repr_round_trips(self):
        from repro.fuzz.generators import GroupRecipe  # snippet namespace

        for seed in range(10):
            recipe = random_computation(random.Random(seed))
            clone = eval(repr(recipe))
            assert clone == recipe
            assert clone.build().stable_fingerprint() == \
                recipe.build().stable_fingerprint()

    def test_shuffle_preserves_per_element_order(self):
        recipe = random_computation(random.Random(7), max_events=10)
        rng = random.Random(1)
        for _ in range(5):
            order = recipe.element_preserving_shuffle(rng)
            assert sorted(order) == list(range(len(recipe.events)))
            seen = {}
            for pos in order:
                element = recipe.events[pos][0]
                assert seen.get(element, -1) < pos
                seen[element] = pos

    def test_shrink_candidates_are_strictly_smaller(self):
        recipe = random_computation(random.Random(3), max_events=8)
        for cand in recipe.shrink_candidates():
            assert (len(cand.events), len(cand.edges)) < \
                (len(recipe.events), len(recipe.edges)) or \
                len(cand.events) < len(recipe.events)
            cand.build()  # still well-formed

    def test_random_formula_deterministic_and_checkable(self):
        from repro.core.checker import check_restriction
        from repro.core.formula import Henceforth

        recipe = random_computation(random.Random(11), max_events=6,
                                    with_groups=False)
        comp = recipe.build()
        f1 = random_formula(random.Random(5), comp)
        f2 = random_formula(random.Random(5), comp)
        assert f1 == f2
        outcome = check_restriction(
            comp, Restriction("r", Henceforth(f1)))
        assert isinstance(outcome.holds, bool)

    def test_random_choices_replayable(self):
        spec = random_program_spec(random.Random(4))
        program = FuzzProgram(spec)
        choices = random_choices(random.Random(9), program)
        assert choices == random_choices(random.Random(9), program)
        state = program.initial_state()
        for c in choices:
            state.step(state.enabled()[c])
        assert state.is_final()


# -- every oracle passes on clean inputs -----------------------------------


class TestOraclesPass:
    def test_fuzz_loop_clean(self):
        failures, stats = run_fuzz(FuzzConfig(iterations=35, seed=0))
        assert failures == []
        assert stats.iterations == 35
        assert set(stats.per_oracle) == set(oracle_names())

    def test_seed_tokens_reproduce_artifacts(self):
        oracles = make_oracles()
        for name, oracle in oracles.items():
            token = seed_token(0, name, 3)
            a = oracle.generate(random.Random(token))
            b = oracle.generate(random.Random(token))
            assert a == b, name


# -- killed mutants: one per oracle ----------------------------------------


def _diamond():
    b = ComputationBuilder()
    e1 = b.add_event("A", "Go")
    e2 = b.add_event("B", "Go")
    b.add_enable(e1, e2)
    return b.freeze()


class TestKilledMutants:
    def test_order_oracle_kills_reflexive_relation(self):
        comp = _diamond()
        ids = [ev.eid for ev in comp.events]
        comp._temporal = Relation.from_pairs(
            ids, list(comp.temporal_relation.pairs()) + [(ids[0], ids[0])])
        assert check_order_laws(comp) is not None

    def test_order_oracle_kills_missing_transitive_pair(self):
        b = ComputationBuilder()
        e1 = b.add_event("A", "Go")
        e2 = b.add_event("B", "Go")
        e3 = b.add_event("C", "Go")
        b.add_enable(e1, e2)
        b.add_enable(e2, e3)
        comp = b.freeze()
        ids = [ev.eid for ev in comp.events]
        broken = [p for p in comp.temporal_relation.pairs()
                  if p != (e1.eid, e3.eid)]
        comp._temporal = Relation.from_pairs(ids, broken)
        message = check_order_laws(comp)
        assert message is not None

    def test_order_oracle_kills_spurious_pair_between_concurrent_events(self):
        # A ⇒ B and C are unordered; a tampered ⇒ that adds A ⇒ C is
        # still a strict partial order containing ⊳ and ⇒ₑ, so only the
        # comparison against the closure of ⊳ ∪ ⇒ₑ can reject it
        b = ComputationBuilder()
        e1 = b.add_event("A", "Go")
        e2 = b.add_event("B", "Go")
        e3 = b.add_event("C", "Go")
        b.add_enable(e1, e2)
        comp = b.freeze()
        assert comp.concurrent(e1.eid, e3.eid)
        ids = [ev.eid for ev in comp.events]
        comp._temporal = Relation.from_pairs(
            ids, list(comp.temporal_relation.pairs()) + [(e1.eid, e3.eid)])
        message = check_order_laws(comp)
        assert message is not None
        assert "not in the closure" in message

    def test_history_oracle_kills_forged_history(self):
        b = ComputationBuilder()
        e1 = b.add_event("A", "Go")
        e2 = b.add_event("A", "Go")
        comp = b.freeze()
        forged = History(comp, [e2.eid], _trusted=True)
        message = check_history_laws(
            comp, histories=all_histories(comp) + [forged])
        assert message is not None
        assert "down-closed" in message

    def _recipe_with_edge_and_params(self):
        return ComputationRecipe(
            events=(("A", "Put", (("v", 1),), ()),
                    ("B", "Get", (("v", 1),), ()),
                    ("A", "Put", (("v", 2),), ())),
            edges=((0, 1),),
        )

    def test_fingerprint_oracle_kills_edge_blind_fingerprint(self):
        recipe = self._recipe_with_edge_and_params()
        message = check_fingerprint_laws(
            recipe,
            fingerprint=lambda c: str(sorted(
                (str(ev.eid), ev.event_class, tuple(sorted(ev.param_dict().items())))
                for ev in c.events)))
        assert message is not None
        assert "insensitive" in message

    def test_fingerprint_oracle_kills_insertion_order_sensitivity(self):
        recipe = self._recipe_with_edge_and_params()
        message = check_fingerprint_laws(
            recipe,
            fingerprint=lambda c: str([str(ev.eid) for ev in c.events])
            + str(sorted(c.enable_relation.pairs()))
            + str(sorted(str(p) for ev in c.events
                         for p in ev.param_dict().items())))
        assert message is not None
        assert "invariant" in message

    def _compose_recipes(self):
        a = ComputationRecipe(
            events=(("LA", "Put", (("v", 3),), ()),
                    ("LB", "Go", (), ())),
            edges=((0, 1),))
        b = ComputationRecipe(
            events=(("RA", "Get", (("v", 3),), ()),))
        return a, b

    def test_compose_oracle_kills_missing_barrier(self):
        from repro.core.compose import sequential_compose

        a, b = self._compose_recipes()
        message = check_compose_laws(
            a, b,
            compose_sequential=lambda x, y: sequential_compose(
                x, y, barrier=False))
        assert message is not None
        assert "sequential_compose" in message

    def test_compose_oracle_kills_param_dropping_projection(self):
        from repro.verify.correspondence import (
            Correspondence,
            SignificantEvents,
        )
        from repro.verify.projection import project

        def lossy(comp, corr):
            rules = tuple(
                SignificantEvents(
                    name=r.name, element=r.element,
                    event_class=r.event_class,
                    target_element=r.target_element,
                    target_class=r.target_class)  # params dropped
                for r in corr.rules)
            return project(comp, Correspondence(rules=rules))

        a, b = self._compose_recipes()
        message = check_compose_laws(a, b, projector=lossy)
        assert message is not None
        assert "identity projection" in message

    def test_checker_oracle_kills_out_of_fragment_formula(self):
        # ¬◇p with a non-monotone p is path-sensitive: the exact checker
        # quantifies per path, the lattice checker's AF is path-universal.
        # The fuzzer only generates □-of-immediate restrictions, where the
        # two provably agree; this formula is the seeded divergence.
        b = ComputationBuilder()
        b.add_event("A", "Go")
        b.add_event("B", "Go")
        comp = b.freeze()
        only_a = And((Exists("x", "A.Go", Occurred("x")),
                      Not(Exists("y", "B.Go", Occurred("y")))))
        mutant = Restriction("never-only-a", Not(Eventually(only_a)))
        message = check_routes_agree(comp, mutant)
        assert message is not None
        assert "disagree" in message

    def test_replay_oracle_kills_nondeterministic_program(self):
        from repro.sim.runtime import Action, SimpleState

        class ChainState(SimpleState):
            """Emits E0..E3 in scheduling order, chaining each event to
            the previously emitted one -- so the computation records the
            order.  ``enabled()`` shuffles with the *ambient* RNG: the
            planted defect."""

            def __init__(self):
                super().__init__()
                self._emitted = []
                self._pending = list(range(4))

            def enabled(self):
                actions = [Action(f"E{i}", "go", key=i)
                           for i in self._pending]
                random.shuffle(actions)  # the defect
                return actions

            def step(self, action):
                k = action.key
                prev = [self._emitted[-1]] if self._emitted else []
                self._emitted.append(
                    self.emit(None, f"E{k}", "Go", {}, extra_enables=prev,
                              chain=False))
                self._pending.remove(k)

            def is_final(self):
                return not self._pending

        class ChainProgram:
            def initial_state(self):
                return ChainState()

        random.seed(0xC0FFEE)  # make the ambient-RNG defect reproducible
        messages = {
            check_replay_determinism(ChainProgram(), seed)
            for seed in range(10)
        }
        assert messages != {None}

    def test_replay_oracle_kills_explorer_reusing_stepped_state(self):
        from repro.sim.runtime import Run

        def in_place_explore(program, max_steps, por=None):
            """Steps the parent's state in place for *every* branch --
            the planted defect: siblings after the first start from
            wherever the previous subtree left the state."""
            def rec(choices, state):
                actions = state.enabled()
                if not actions or len(choices) >= max_steps:
                    yield Run(state.computation(), choices)
                    return
                for i, action in enumerate(actions):
                    state.step(action)
                    yield from rec(choices + (i,), state)
            return rec((), program.initial_state())

        program = FuzzProgram(FuzzProgramSpec(procs=(2, 2)))
        assert check_replay_determinism(program, 0) is None
        message = check_replay_determinism(
            program, 0, explore_impl=in_place_explore)
        assert message is not None
        assert "explore (full)" in message

    @needs_fork
    def test_engine_oracle_kills_fork_divergent_program(self):
        spec = FuzzProgramSpec(
            procs=(1, 2), deps=((1, 1, 0, 0),), bug=FORK_DROPS_ENABLES)
        message = check_engine_agreement(spec, jobs=2)
        assert message is not None
        assert "parallel" in message

    def test_engine_oracle_passes_without_bug(self):
        spec = FuzzProgramSpec(procs=(1, 2), deps=((1, 1, 0, 0),))
        assert check_engine_agreement(spec, jobs=2) is None


# -- shrinker --------------------------------------------------------------


class TestShrinker:
    def test_greedy_shrink_on_synthetic_predicate(self):
        recipe = random_computation(random.Random(12), max_events=10)
        if not recipe.edges:  # ensure the failure condition is present
            recipe = random_computation(random.Random(13), max_events=10)
        assert recipe.edges

        def fails_if_any_edge(r):
            return "has an edge" if r.edges else None

        shrunk, message = shrink_failure(
            recipe, fails_if_any_edge, lambda r: r.shrink_candidates())
        assert message == "has an edge"
        assert len(shrunk.edges) == 1
        assert len(shrunk.events) == 2

    def test_shrink_requires_failing_artifact(self):
        recipe = random_computation(random.Random(1))
        with pytest.raises(ValueError):
            shrink_failure(recipe, lambda r: None,
                           lambda r: r.shrink_candidates())

    @needs_fork
    def test_planted_engine_disagreement_shrinks_small(self):
        planted = FuzzProgramSpec(
            procs=(3, 3, 2),
            deps=((1, 1, 0, 0), (2, 1, 1, 0), (0, 2, 2, 1)),
            bug=FORK_DROPS_ENABLES,
        )

        def check(spec):
            return check_engine_agreement(spec, jobs=2)

        assert check(planted) is not None
        shrunk, message = shrink_failure(
            planted, check, lambda s: s.shrink_candidates())
        assert shrunk.total_steps <= 6
        assert shrunk.deps  # the dropped edge is part of the minimal repro
        assert "parallel" in message

        snippet = repro_snippet("engine-differential", shrunk, message)
        namespace: dict = {}
        exec(compile(snippet, "<fuzz-repro>", "exec"), namespace)
        with pytest.raises(AssertionError):
            namespace["test_fuzz_repro"]()

    def test_snippet_is_valid_python_with_imports(self):
        artifact = CheckerArtifact(
            recipe=random_computation(random.Random(2), max_events=4,
                                      with_groups=False),
            formula_seed=7)
        snippet = repro_snippet("route-differential", artifact, "msg")
        assert "from repro.fuzz.oracles import CheckerArtifact" in snippet
        assert "from repro.fuzz.generators import ComputationRecipe" in snippet
        compile(snippet, "<snippet>", "exec")


# -- runner ----------------------------------------------------------------


class TestRunner:
    def test_failure_stops_oracle_and_emits_snippet(self, monkeypatch):
        import repro.fuzz.runner as runner_mod
        from repro.fuzz.oracles import Oracle

        def broken_registry(jobs=2):
            registry = make_oracles(jobs=jobs)
            good = registry["order-laws"]
            registry["order-laws"] = Oracle(
                name=good.name, summary=good.summary,
                generate=good.generate,
                check=lambda recipe: "edge present" if recipe.edges else None,
                shrink=good.shrink)
            return registry

        monkeypatch.setattr(runner_mod, "make_oracles", broken_registry)
        failures, stats = run_fuzz(FuzzConfig(
            iterations=30, seed=0, oracles=("order-laws",)))
        assert len(failures) == 1
        failure = failures[0]
        assert failure.oracle == "order-laws"
        assert failure.seed_token.startswith("0:order-laws:")
        assert failure.message == "edge present"
        # shrunk to the minimal edge-bearing recipe: two events, one edge
        assert len(failure.shrunk_artifact.events) == 2
        assert len(failure.shrunk_artifact.edges) == 1
        assert "def test_fuzz_repro" in failure.snippet
        assert "ComputationRecipe" in failure.snippet
        # the oracle stops being scheduled after its first failure
        assert stats.per_oracle["order-laws"] < 30
        assert stats.failures == 1
        assert "order-laws" in failure.describe()

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(FuzzConfig(iterations=1, oracles=("nope",)))

    def test_stats_describe_mentions_each_oracle(self):
        _failures, stats = run_fuzz(FuzzConfig(
            iterations=4, seed=2, oracles=("order-laws", "fingerprint")))
        text = stats.describe()
        assert "order-laws" in text and "fingerprint" in text


# -- cross-process seed reproducibility (satellite) ------------------------


class TestSeedReproducibility:
    def test_sample_runs_reproduce_in_subprocess(self):
        """``sample_runs`` must be immune to hash randomisation and any
        other per-process state: a subprocess with a different
        PYTHONHASHSEED must reproduce the parent's choice sequences and
        computation fingerprints exactly."""
        spec = FuzzProgramSpec(procs=(2, 2, 1), deps=((1, 1, 0, 0),))
        parent = [
            [list(r.choices), r.computation.stable_fingerprint()]
            for r in sample_runs(FuzzProgram(spec), 6, seed=42)
        ]

        repo_root = Path(__file__).resolve().parents[1]
        code = (
            "import json\n"
            "from repro.fuzz.programs import FuzzProgram, FuzzProgramSpec\n"
            "from repro.sim import sample_runs\n"
            f"spec = {spec!r}\n"
            "runs = sample_runs(FuzzProgram(spec), 6, seed=42)\n"
            "print(json.dumps([[list(r.choices),"
            " r.computation.stable_fingerprint()] for r in runs]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        env["PYTHONHASHSEED"] = "271828"  # different salt, same answers
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(repo_root),
            capture_output=True, text=True, check=True)
        child = json.loads(out.stdout)
        assert child == parent

    def test_run_random_choices_stable_across_seeds(self):
        spec = FuzzProgramSpec(procs=(2, 2))
        program = FuzzProgram(spec)
        for seed in range(5):
            assert run_random(program, seed).choices == \
                run_random(program, seed).choices
