"""Metamorphic and differential oracles.

Each oracle pairs a generator (``random.Random`` -> artifact) with a
pure checker (artifact -> failure message or ``None``).  Checkers are
deterministic functions of the artifact alone -- that is what lets the
shrinker re-run them on reduced artifacts and lets a repro snippet
re-run them years later from nothing but ``repr(artifact)``.

The law functions (``check_*``) are public and separately importable:
the killed-mutant tests call them directly on deliberately broken
inputs (a tampered temporal relation, a non-down-closed history, a
fingerprint that ignores edges, a program that emits different edges in
forked workers) to prove each oracle can actually fail.  Where a law
exercises a replaceable implementation (fingerprinting, composition,
projection), the implementation is an injectable parameter so mutants
are seeded without monkeypatching.
"""

from __future__ import annotations

import itertools
import random
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.checker import check_restriction
from ..core.compose import parallel_compose, restrict_events, sequential_compose
from ..core.computation import Computation
from ..core.formula import Formula, Henceforth, Restriction
from ..core.history import History, all_histories, maximal_history_sequences
from ..core.order import Relation
from ..engine import EngineConfig, run_verification
from ..engine.por import AmpleSelector
from ..sim.scheduler import explore, replay_prefix, run_random
from ..verify.consistency import (
    OBJECT_TYPES,
    check_history_agreement,
    random_object_history,
)
from ..verify.correspondence import Correspondence, SignificantEvents
from ..verify.projection import project
from .generators import (
    ComputationRecipe,
    random_computation,
    random_formula,
)
from .programs import (
    FuzzProgram,
    FuzzProgramSpec,
    dfa_problem_spec,
    fuzz_correspondence,
    fuzz_problem_spec,
    random_program_spec,
)

# ---------------------------------------------------------------------------
# Law functions
# ---------------------------------------------------------------------------


def check_order_laws(comp: Computation) -> Optional[str]:
    """Strict-partial-order laws of ``⇒`` and the Relation algebra.

    ``⇒`` must be an irreflexive transitive (hence acyclic) order that
    equals the closure of ``⊳ ∪ ⇒ₑ`` -- recomputed here from the enable
    edges and element sequences and compared pair by pair, so this is
    the reference for the order the constructor builds; closure must be
    idempotent, reduction must round-trip through closure, topological
    order must linearise it, and concurrency must be the symmetric
    irreflexive complement.  ``⇒`` inherits its topological order and
    closure from the constructor's one Kahn pass over ``⊳ ∪ ⇒ₑ``, so
    its order must equal Kahn recomputed on a fresh copy
    of ``⇒`` and on the generators, and its closure table must be its
    own successor table.
    """
    t = comp.temporal_relation
    if not t.is_strict_partial_order():
        return "temporal relation is not a strict partial order"
    if t.is_acyclic() != (t.find_cycle() is None):
        return "is_acyclic() disagrees with find_cycle()"
    pairs = set(t.pairs())
    if set(t.transitive_closure().pairs()) != pairs:
        return "transitive closure is not idempotent on ⇒"
    reduction = t.transitive_reduction()
    if set(reduction.transitive_closure().pairs()) != pairs:
        return "transitive reduction does not round-trip through closure"
    order = t.topological_order()
    position = {n: i for i, n in enumerate(order)}
    if any(position[a] >= position[b] for a, b in pairs):
        return "topological_order() violates ⇒"
    ids = [ev.eid for ev in comp.events]
    generators = list(comp.enable_relation.pairs())
    for element in comp.elements():
        seq = comp.events_at(element)
        generators.extend(
            (prev.eid, nxt.eid) for prev, nxt in zip(seq, seq[1:]))
    if Relation.from_pairs(ids, t.pairs()).topological_order() != order:
        return "⇒'s topological order differs from Kahn on a fresh ⇒"
    generated = Relation.from_pairs(ids, generators)
    if generated.topological_order() != order:
        return "⇒'s topological order differs from Kahn on ⊳ ∪ ⇒ₑ"
    if t.closure_table() != t.succ_table():
        return "closed ⇒'s closure_table() differs from its succ_table()"
    closure = set(generated.transitive_closure().pairs())
    if closure - pairs:
        a, b = min(closure - pairs)
        return f"closure pair {a} ⇒ {b} of ⊳ ∪ ⇒ₑ missing from ⇒"
    if pairs - closure:
        a, b = min(pairs - closure)
        return f"⇒ pair {a} ⇒ {b} is not in the closure of ⊳ ∪ ⇒ₑ"
    for a in ids:
        if comp.concurrent(a, a):
            return f"concurrent({a}, {a}) should be false"
        down = t.down_set([a])
        if not t.is_down_closed(down):
            return f"down_set({a}) is not downward closed"
        for b in ids:
            if comp.concurrent(a, b) != comp.concurrent(b, a):
                return f"concurrency is not symmetric on ({a}, {b})"
            expected = a != b and not t.holds(a, b) and not t.holds(b, a)
            if comp.concurrent(a, b) != expected:
                return f"concurrent({a}, {b}) disagrees with ⇒"
    for n in t.minimal_nodes():
        if any(t.holds(m, n) for m in ids):
            return f"minimal node {n} has a predecessor"
    for n in t.maximal_nodes():
        if any(t.holds(n, m) for m in ids):
            return f"maximal node {n} has a successor"
    return None


def check_history_laws(
    comp: Computation,
    histories: Optional[Sequence[History]] = None,
    sequences: Optional[Sequence] = None,
    history_cap: int = 5000,
    vhs_cap: int = 2000,
) -> Optional[str]:
    """History-lattice laws (Section 7).

    Histories are exactly the downward-closed sets; they form a lattice
    (closed under union and intersection, with ⊥ = ∅ and ⊤ = all
    events); frontiers are maximal inside their history; and in a valid
    history sequence every simultaneous step is an antichain of
    pairwise (potentially) concurrent events.

    ``histories``/``sequences`` are injectable so mutant tests can feed
    corrupted collections through the same laws.
    """
    t = comp.temporal_relation
    if histories is None:
        histories = all_histories(comp, cap=history_cap)
    masks = {h.mask for h in histories}
    for h in histories:
        if not t.is_down_closed(h.events):
            return f"history {sorted(map(str, h.events))} is not down-closed"
        for f in h.frontier():
            if any(t.holds(f, other) for other in h.events):
                return f"frontier event {f} has a successor inside its history"
        for e in h.addable():
            if e in h.events:
                return f"addable event {e} already occurred"
            if not (t.down_set([e]) - {e} <= h.events):
                return f"addable event {e} has an unmet predecessor"
    if 0 not in masks:
        return "empty history missing from the lattice"
    if (1 << len(comp)) - 1 not in masks:
        return "complete history missing from the lattice"
    for x in masks:
        for y in masks:
            if x | y not in masks:
                return "history lattice is not closed under union"
            if x & y not in masks:
                return "history lattice is not closed under intersection"
    if sequences is None:
        sequences = list(maximal_history_sequences(
            comp, cap=vhs_cap, max_step=None))
    full = frozenset(ev.eid for ev in comp.events)
    for seq in sequences:
        steps = list(seq)
        for prev, nxt in zip(steps, steps[1:]):
            if not prev.events <= nxt.events:
                return "history sequence is not monotone"
            added = sorted(nxt.events - prev.events)
            if not t.is_antichain(added):
                return "simultaneous step is not an antichain of ⇒"
            for i, a in enumerate(added):
                for b in added[i + 1:]:
                    if not comp.concurrent(a, b):
                        return (f"simultaneous events {a}, {b} are not "
                                "pairwise concurrent")
        if steps and steps[-1].events != full:
            return "maximal history sequence does not end at ⊤"
    return None


def _stable_fingerprint(comp: Computation) -> str:
    return comp.stable_fingerprint()


def check_fingerprint_laws(
    recipe: ComputationRecipe,
    shuffles: int = 4,
    fingerprint: Callable[[Computation], str] = _stable_fingerprint,
) -> Optional[str]:
    """Relabeling-invariance and sensitivity of computation fingerprints.

    Invariance: any insertion order that preserves each element's
    subsequence builds the *same* partial order, so the fingerprint must
    not change.  Sensitivity: deleting an enable edge or perturbing a
    parameter changes the partial order, so the fingerprint must change.
    A fingerprint failing the first law breaks dedupe soundness (runs
    wrongly counted distinct); one failing the second silently merges
    different computations -- both are exactly the bugs the engine's
    dedupe layer cannot survive.
    """
    base = fingerprint(recipe.build())
    rng = random.Random(0xF1A9)
    for _ in range(shuffles):
        order = recipe.element_preserving_shuffle(rng)
        got = fingerprint(recipe.build(order))
        if got != base:
            return (f"fingerprint not invariant under insertion order "
                    f"{order}")
    for k in range(len(recipe.edges)):
        if fingerprint(recipe.without_edge(k).build()) == base:
            return f"fingerprint insensitive to dropping edge {recipe.edges[k]}"
    for i, (element, event_class, params, threads) in enumerate(recipe.events):
        if not params:
            continue
        name, value = params[0]
        tweaked = ((name, value + 1),) + params[1:]
        mutated = replace(recipe, events=(
            recipe.events[:i]
            + ((element, event_class, tweaked, threads),)
            + recipe.events[i + 1:]))
        if fingerprint(mutated.build()) == base:
            return f"fingerprint insensitive to changing a parameter of event {i}"
        break  # one parameter perturbation suffices
    return None


def identity_correspondence(comp: Computation) -> Correspondence:
    """Every event significant, mapped to itself, parameters preserved."""
    pairs = sorted({(ev.element, ev.event_class) for ev in comp.events})
    return Correspondence(rules=tuple(
        SignificantEvents(
            name=f"id-{el}-{cls}", element=el, event_class=cls,
            target_element=el, target_class=cls,
            params=lambda ev: dict(ev.param_dict()))
        for el, cls in pairs
    ))


def check_compose_laws(
    a_recipe: ComputationRecipe,
    b_recipe: ComputationRecipe,
    compose_parallel: Callable[[Computation, Computation], Computation] = parallel_compose,
    compose_sequential: Callable[[Computation, Computation], Computation] = sequential_compose,
    projector: Callable[[Computation, Correspondence], Computation] = project,
) -> Optional[str]:
    """Composition and projection round-trips.

    * ``parallel_compose``: cross pairs are concurrent, and restricting
      back to either side reproduces it exactly (fingerprint equality).
    * ``sequential_compose``: every ``a`` event temporally precedes
      every ``b`` event (the barrier law).
    * ``project`` under the identity correspondence is the identity.

    The composition/projection implementations are injectable for
    mutant seeding.
    """
    a, b = a_recipe.build(), b_recipe.build()
    a_ids = [ev.eid for ev in a.events]
    b_ids = [ev.eid for ev in b.events]

    par = compose_parallel(a, b)
    for x in a_ids:
        for y in b_ids:
            if not par.concurrent(x, y):
                return f"parallel_compose ordered cross pair ({x}, {y})"
    if restrict_events(par, a_ids).stable_fingerprint() != a.stable_fingerprint():
        return "restrict_events(parallel_compose(a, b), a) != a"
    if restrict_events(par, b_ids).stable_fingerprint() != b.stable_fingerprint():
        return "restrict_events(parallel_compose(a, b), b) != b"

    if a_ids and b_ids:
        seq = compose_sequential(a, b)
        for x in a_ids:
            for y in b_ids:
                if not seq.temporally_precedes(x, y):
                    return (f"sequential_compose left {x} unordered before "
                            f"{y}")

    if a_ids:
        projected = projector(a, identity_correspondence(a))
        if projected.stable_fingerprint() != a.stable_fingerprint():
            return "identity projection changed the computation"
    return None


def check_routes_agree(
    comp: Computation,
    restriction: Restriction,
    vhs_cap: int = 50_000,
    auto_check=None,
) -> Optional[str]:
    """Differential oracle: every route the plan offers vs the interpreter.

    The reference interpreter (``temporal_mode="lattice"``) is the
    pivot, and three laws are checked against it:

    * the production ``auto`` outcome equals its *verdict and detail
      string*, whichever route decided it;
    * the bare :meth:`repro.core.slice.SliceChecker.analyze` verdict
      equals its verdict whenever the slice decides (regular and linear
      shapes; it declines the rest) -- the DFA leaf runs ahead of the
      slice in the ``auto`` chain, so this reaches restrictions the
      chain never offers the slice;
    * its verdict equals exhaustive vhs enumeration
      (``temporal_mode="exact"``).  For ``□p`` with an immediate ``p``
      the two are provably equivalent (every reachable history lies on
      some maximal sequence); outside the monotone fragment they may
      differ, and this law is what notices.

    ``auto_check`` is injectable for mutant seeding: it replaces the
    ``auto`` check, and a deliberately broken evaluator there must be
    caught by this oracle.
    """
    from ..core.slice import SliceChecker

    impl = auto_check or check_restriction
    lattice = check_restriction(comp, restriction, temporal_mode="lattice")
    routed = impl(comp, restriction)
    if (lattice.holds, lattice.detail) != (routed.holds, routed.detail):
        return (f"auto route disagrees with interpreter on "
                f"{restriction.name!r}: auto=({routed.holds}, "
                f"{routed.detail!r}) lattice=({lattice.holds}, "
                f"{lattice.detail!r}) ({restriction.formula.describe()})")
    sliced = (SliceChecker(comp).analyze(restriction).verdict
              if restriction.formula.is_temporal() else None)
    if sliced is not None and sliced != lattice.holds:
        return (f"slice checker disagrees with interpreter on "
                f"{restriction.name!r}: slice={sliced} "
                f"lattice={lattice.holds} "
                f"({restriction.formula.describe()})")
    exact = check_restriction(comp, restriction, temporal_mode="exact",
                              vhs_cap=vhs_cap)
    if lattice.holds != exact.holds:
        return (f"interpreter disagrees with exact enumeration on "
                f"{restriction.name!r}: lattice={lattice.holds} "
                f"exact={exact.holds} ({restriction.formula.describe()})")
    return None


def check_dfa_agrees(
    spec: FuzzProgramSpec,
    max_steps: int = 64,
    max_runs: int = 100_000,
    monitor_factory=None,
) -> Optional[str]:
    """The restriction-automata soundness contract.

    The :class:`~repro.core.automata.AutomatonMonitor` threads through
    exploration as a pure observer, so three laws must hold on every
    program: (1) the monitored exploration's run census -- choices,
    fingerprints, deadlock/truncation flags -- is byte-identical to the
    unmonitored one's; (2) every verdict the monitor decides on a
    *prefix* equals the ground-truth lattice verdict on the completed
    computation (box-reject prefixes stay violating in every
    completion, dia-accept prefixes stay satisfied); and (3) the
    ``auto`` checker fed the recorded early verdicts reproduces those
    same lattice verdicts per restriction exactly.

    Runs over :func:`dfa_problem_spec` -- the fuzz spec extended with a
    box-reject budget restriction and a dia-accept liveness one, so
    both automaton sinks actually fire across seeds.
    ``monitor_factory`` is injectable for mutant seeding (a monitor
    that mis-decides or perturbs exploration must be caught here).
    """
    from ..core.automata import AutomatonMonitor, automata_plan_for
    from ..core.checker import check_computation

    program = FuzzProgram(spec)
    problem_spec = dfa_problem_spec(spec)
    plan = automata_plan_for(problem_spec)
    make = monitor_factory or (
        lambda: AutomatonMonitor(plan, problem_spec))

    plain = list(explore(program, max_steps=max_steps, max_runs=max_runs))
    monitored = list(explore(program, max_steps=max_steps,
                             max_runs=max_runs, dfa=make()))

    def census(runs):
        return [(r.choices, r.computation.stable_fingerprint(),
                 r.deadlocked, r.truncated) for r in runs]

    if census(plain) != census(monitored):
        return (f"the monitor perturbed exploration: {len(plain)} plain "
                f"run(s) vs {len(monitored)} monitored")

    verdicts_by_fp: Dict[str, Dict[str, bool]] = {}
    for run in monitored:
        if run.truncated:
            continue
        comp = run.computation
        fp = comp.stable_fingerprint()
        truth = verdicts_by_fp.get(fp)
        if truth is None:
            truth = verdicts_by_fp[fp] = {
                o.name: o.holds for o in check_computation(
                    comp, problem_spec, temporal_mode="lattice").outcomes}
        for name, holds in run.decided:
            if truth.get(name) != holds:
                return (f"monitor decided {name!r}={holds} on a prefix of "
                        f"run {run.choices} but the completed computation "
                        f"says {truth.get(name)}")
        routed = {o.name: o.holds for o in check_computation(
            comp, problem_spec, decided=dict(run.decided)).outcomes}
        if routed != truth:
            return (f"dfa-routed checker disagrees on run {run.choices}: "
                    f"{routed} on the auto route vs {truth} on the "
                    f"interpreter")
    return None


#: Explored runs per reduction mode that :func:`check_replay_determinism`
#: replays -- enough to cover several branch points of a fuzz program.
REPLAY_EXPLORE_RUNS = 32


def check_replay_determinism(
    program,
    seed: int,
    max_steps: int = 400,
    explore_impl: Optional[Callable] = None,
) -> Optional[str]:
    """Replay contract of the scheduler and interpreters.

    The same seed must reproduce the same choices and the same
    computation; replaying the recorded choices through
    ``replay_prefix`` must land on the same computation.  Programs
    violating this (enabled-order depending on ambient state) break
    every downstream guarantee -- sampling provenance, engine sharding,
    and cache keying alike.

    Replay is also the exhaustive explorer's oracle: the explorer steps
    live states forward instead of replaying every node, so for the
    first :data:`REPLAY_EXPLORE_RUNS` runs it yields (POR off and on),
    replaying ``run.choices`` must give the run's computation.  ``explore_impl``
    injects the explorer under test (default:
    :func:`repro.sim.scheduler.explore`); the killed-mutant tests pass
    one that reuses a stepped state across sibling branches.
    """
    first = run_random(program, seed, max_steps=max_steps)
    second = run_random(program, seed, max_steps=max_steps)
    if first.choices != second.choices:
        return (f"run_random(seed={seed}) is not reproducible: "
                f"{first.choices} vs {second.choices}")
    fp1 = first.computation.stable_fingerprint()
    if fp1 != second.computation.stable_fingerprint():
        return f"same choices, different computations (seed={seed})"
    replayed = replay_prefix(program, first.choices)
    if replayed.computation().stable_fingerprint() != fp1:
        return f"replay_prefix diverged from the recorded run (seed={seed})"
    explore_fn = explore_impl or explore
    for label, por in (("full", None), ("por", AmpleSelector())):
        walk = explore_fn(program, max_steps=max_steps, por=por)
        for run in itertools.islice(walk, REPLAY_EXPLORE_RUNS):
            try:
                replayed = replay_prefix(program, run.choices)
            except Exception as exc:
                return (f"explore ({label}) yielded run {run.choices}, "
                        f"which does not replay: {exc!r}")
            if (replayed.computation().stable_fingerprint()
                    != run.computation.stable_fingerprint()):
                return (f"explore ({label}) run {run.choices} differs "
                        "from replay_prefix of its choices")
    return None


def _diff_signatures(name_a: str, sig_a: Tuple, name_b: str, sig_b: Tuple) -> str:
    fields = ("problem", "exhaustive", "runs", "deadlocks", "truncated",
              "distinct", "verdicts", "program-spec-failures",
              "legality-failures")
    for field_name, x, y in zip(fields, sig_a, sig_b):
        if x != y:
            return (f"{name_a} != {name_b}: first difference in "
                    f"{field_name}: {x!r} vs {y!r}")
    return f"{name_a} != {name_b}"


def check_engine_agreement(
    spec: FuzzProgramSpec,
    jobs: int = 2,
    max_steps: int = 64,
    max_runs: int = 4096,
) -> Optional[str]:
    """The engine determinism contract: serial == parallel == cached.

    Verifies the same program through all three pipelines and compares
    :meth:`VerificationReport.signature` pairwise.  Any divergence --
    different run census, different verdicts, different failing-run
    lists -- is a real engine bug (or, for seeded mutants, a program
    whose computations depend on which process built them).

    Runs with ``por=False``: partial-order reduction can collapse a
    tiny program's exploration to a single branch-free shard, in which
    case the pool never forks and fork-dependent nondeterminism would
    be invisible.  POR-vs-full agreement has its own oracle,
    :func:`check_por_agrees`.
    """
    program = FuzzProgram(spec)
    problem_spec = fuzz_problem_spec(spec)
    correspondence = fuzz_correspondence(spec)

    def signature(**overrides) -> Tuple:
        config = EngineConfig(max_steps=max_steps, max_runs=max_runs,
                              sample=50, por=False, **overrides)
        report, _stats = run_verification(
            program, problem_spec, correspondence, config=config)
        return report.signature()

    serial = signature(jobs=1)
    parallel = signature(jobs=jobs)
    if serial != parallel:
        return _diff_signatures("serial", serial,
                                f"parallel(jobs={jobs})", parallel)
    with tempfile.TemporaryDirectory(prefix="gem-fuzz-cache-") as cache_dir:
        cold = signature(jobs=1, cache_dir=cache_dir)
        warm = signature(jobs=1, cache_dir=cache_dir)
    if serial != cold:
        return _diff_signatures("serial", serial, "cold-cache", cold)
    if cold != warm:
        return _diff_signatures("cold-cache", cold, "warm-cache", warm)
    return None


def _run_signature(run) -> Tuple:
    return (run.computation.stable_fingerprint(), run.deadlocked,
            run.truncated)


def check_por_program_agrees(
    program,
    max_steps: int = 64,
    max_runs: int = 100_000,
    selector_factory: Optional[Callable[[], object]] = None,
) -> Optional[str]:
    """Exploration-level POR laws, for *any* scheduler program.

    The reduced exploration must produce exactly the full exploration's
    set of computation classes (stable fingerprint + deadlock +
    truncation outcome), never more runs than the full walk, and every
    reduced run's choice sequence must be a run of the full DFS.
    ``selector_factory`` builds the selector under test (default:
    :class:`repro.engine.por.AmpleSelector`); injecting an unsound one
    is how the killed-mutant tests prove these laws have teeth.
    """
    make = selector_factory or AmpleSelector
    full = list(explore(program, max_steps=max_steps, max_runs=max_runs))
    reduced = list(explore(program, max_steps=max_steps, max_runs=max_runs,
                           por=make()))
    if len(reduced) > len(full):
        return (f"por produced more runs ({len(reduced)}) than full "
                f"exploration ({len(full)})")
    full_sigs = {_run_signature(r) for r in full}
    red_sigs = {_run_signature(r) for r in reduced}
    missing = full_sigs - red_sigs
    if missing:
        fp = sorted(missing)[0][0]
        return (f"por dropped {len(missing)} of {len(full_sigs)} computation "
                f"classes (e.g. fingerprint {fp[:16]})")
    extra = red_sigs - full_sigs
    if extra:
        return (f"por produced {len(extra)} computation classes the full "
                "exploration lacks")
    full_choices = {r.choices for r in full}
    for r in reduced:
        if r.choices not in full_choices:
            return f"por run {r.choices} is not a run of the full exploration"
    return None


def check_por_agrees(
    spec: FuzzProgramSpec,
    max_steps: int = 64,
    max_runs: int = 100_000,
    selector_factory: Optional[Callable[[], object]] = None,
) -> Optional[str]:
    """The POR soundness contract: reduced == full, up to commutation.

    Ample-set partial-order reduction (:mod:`repro.engine.por`) prunes
    interleavings whose computations it proves equal to one it keeps.
    Verdicts are pure functions of the computation partial order, so
    the contract is: the reduced exploration must produce *exactly* the
    full exploration's set of computation classes -- same stable
    fingerprints, same deadlock/truncation outcomes -- with every
    reduced run also being a run of the full DFS.  On top of that, the
    engine's reports with and without reduction must agree on the
    overall verdict, every per-restriction verdict, the distinct
    computation census, and deadlock detection; and every failure
    witness recorded under reduction must replay to a computation the
    full exploration also reaches.

    ``selector_factory`` is the injectable implementation: the
    killed-mutant tests pass a deliberately unsound selector (one that
    drops a dependent action from the ample set) to prove this oracle
    can actually fail.
    """
    program = FuzzProgram(spec)
    message = check_por_program_agrees(
        program, max_steps=max_steps, max_runs=max_runs,
        selector_factory=selector_factory)
    if message is not None or selector_factory is not None:
        # with a factory injected only the exploration-level laws run:
        # the engine builds its own selectors internally
        return message
    full = list(explore(program, max_steps=max_steps, max_runs=max_runs))
    full_sigs = {_run_signature(r) for r in full}

    problem_spec = fuzz_problem_spec(spec)
    correspondence = fuzz_correspondence(spec)

    def report(por: bool):
        config = EngineConfig(max_steps=max_steps, max_runs=max_runs,
                              sample=50, por=por)
        rep, _stats = run_verification(
            program, problem_spec, correspondence, config=config)
        return rep

    on, off = report(True), report(False)
    if on.ok != off.ok:
        return f"verdict parity broken: ok={on.ok} with por, {off.ok} without"
    if on.distinct_computations != off.distinct_computations:
        return (f"distinct computations differ: {on.distinct_computations} "
                f"with por, {off.distinct_computations} without")
    verdicts_on = sorted((n, v.holds) for n, v in on.verdicts.items())
    verdicts_off = sorted((n, v.holds) for n, v in off.verdicts.items())
    if verdicts_on != verdicts_off:
        return (f"per-restriction verdicts differ: {verdicts_on} with por, "
                f"{verdicts_off} without")
    if (on.deadlocks > 0) != (off.deadlocks > 0):
        return (f"deadlock detection differs: {on.deadlocks} with por, "
                f"{off.deadlocks} without")
    known = {s[0] for s in full_sigs}
    for idx, choices in on.failing_run_choices.items():
        comp = replay_prefix(program, choices).computation()
        if comp.stable_fingerprint() not in known:
            return (f"por witness for run {idx} replays to a computation the "
                    "full exploration never reaches")
    return None


def check_objects_agree(
    artifact: "ObjectsArtifact",
    linearizable_impl: Optional[Callable] = None,
    sc_impl: Optional[Callable] = None,
) -> Optional[str]:
    """The consistency-checker contract on one object history.

    For a seeded random history (built by replaying random scripts
    through the correct concurrent object semantics, optionally with
    corrupted response values): the memoised witness search and the
    brute-force permutation search must agree on linearizability and
    on sequential consistency, and linearizable must imply SC.  For a
    planted-mutant artifact, the history is a real execution of the
    mutant workload program (stale read, dropped dequeue, double
    acquire) and *both* deciders must additionally reject it as
    non-linearizable -- the oracle kills the planted mutants, not just
    compares implementations.

    ``linearizable_impl`` / ``sc_impl`` inject the implementation under
    test (defaults: the production checkers in
    :mod:`repro.verify.consistency`); the killed-mutant tests pass
    deliberately lying ones.
    """
    from ..problems.objects import planted_mutant_history
    from ..verify.consistency import (
        brute_force_linearizable,
        linearizable,
    )

    if artifact.planted is not None:
        history = planted_mutant_history(artifact.planted)
    else:
        rng = random.Random(artifact.seed)
        history = random_object_history(
            rng, artifact.object_type, n_procs=artifact.n_procs,
            ops_per_proc=artifact.ops_per_proc, corrupt=artifact.corrupt)
    message = check_history_agreement(
        history, linearizable_impl=linearizable_impl, sc_impl=sc_impl)
    if message is not None:
        return message
    if artifact.planted is not None:
        lin_fn = linearizable_impl or linearizable
        if lin_fn(history):
            return (f"planted mutant {artifact.planted!r} judged "
                    "linearizable by the witness search")
        if brute_force_linearizable(history):
            return (f"planted mutant {artifact.planted!r} judged "
                    "linearizable by the brute-force oracle")
    return None


# ---------------------------------------------------------------------------
# Composite artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectsArtifact:
    """A seeded object-history spec for the objects-differential oracle.

    Pure data (strings, ints, bools), so ``repr`` round-trips into the
    shrinker's pytest repro snippets.  ``planted`` selects one of the
    planted non-linearizable mutants instead of a random history.
    """

    object_type: str
    seed: int
    n_procs: int = 2
    ops_per_proc: int = 3
    corrupt: bool = False
    planted: Optional[str] = None

    def shrink_candidates(self) -> Iterator["ObjectsArtifact"]:
        if self.planted is not None:
            return
        if self.ops_per_proc > 1:
            yield replace(self, ops_per_proc=self.ops_per_proc - 1)
        if self.n_procs > 2:
            yield replace(self, n_procs=self.n_procs - 1)
        if self.corrupt:
            yield replace(self, corrupt=False)

    def __len__(self) -> int:
        return self.n_procs * self.ops_per_proc


@dataclass(frozen=True)
class ComposeArtifact:
    """Two element-disjoint recipes for the composition laws."""

    a: ComputationRecipe
    b: ComputationRecipe

    def shrink_candidates(self) -> Iterator["ComposeArtifact"]:
        for cand in self.a.shrink_candidates():
            yield replace(self, a=cand)
        for cand in self.b.shrink_candidates():
            yield replace(self, b=cand)

    def __len__(self) -> int:
        return len(self.a) + len(self.b)


@dataclass(frozen=True)
class CheckerArtifact:
    """A recipe plus the seed regenerating its random restriction.

    Storing the formula *seed* rather than the formula keeps the
    artifact ``repr``-round-trippable (formulas print as math, not as
    constructors) while staying a pure function of the artifact: the
    checker rebuilds the formula from the seed and the built
    computation's vocabulary.
    """

    recipe: ComputationRecipe
    formula_seed: int
    max_depth: int = 3

    def restriction(self, comp: Computation) -> Restriction:
        body = random_formula(
            random.Random(self.formula_seed), comp, max_depth=self.max_depth)
        return Restriction("fuzz-always", Henceforth(body))

    def shrink_candidates(self) -> Iterator["CheckerArtifact"]:
        for cand in self.recipe.shrink_candidates():
            yield replace(self, recipe=cand)

    def __len__(self) -> int:
        return len(self.recipe)


@dataclass(frozen=True)
class ReplayArtifact:
    """A (program case, seed) pair for the replay-determinism oracle."""

    case: str
    seed: int
    spec: Optional[FuzzProgramSpec] = None

    def program(self):
        if self.case == "fuzz":
            assert self.spec is not None
            return FuzzProgram(self.spec)
        if self.case == "monitor":
            from ..langs.monitor import MonitorProgram, one_slot_buffer_system
            return MonitorProgram(one_slot_buffer_system(items=(1, 2)))
        if self.case == "csp":
            from ..langs.csp import CspProgram, one_slot_buffer_csp_system
            return CspProgram(one_slot_buffer_csp_system(items=(1, 2)))
        if self.case == "ada":
            from ..langs.ada import AdaProgram, one_slot_buffer_ada_system
            return AdaProgram(one_slot_buffer_ada_system(items=(1, 2)))
        raise ValueError(f"unknown replay case {self.case!r}")


# ---------------------------------------------------------------------------
# The oracle registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Oracle:
    """One named fuzz oracle: generator + deterministic checker."""

    name: str
    summary: str
    generate: Callable[[random.Random], object]
    check: Callable[[object], Optional[str]]
    shrink: Optional[Callable[[object], Iterator[object]]] = None


def make_oracles(jobs: int = 2) -> Dict[str, Oracle]:
    """All oracles, keyed by name, in their canonical order.

    ``jobs`` parameterises the engine-differential oracle's parallel
    pipeline.
    """

    def gen_order(rng: random.Random) -> ComputationRecipe:
        return random_computation(rng, max_elements=4, max_events=10)

    def gen_history(rng: random.Random) -> ComputationRecipe:
        return random_computation(rng, max_elements=3, max_events=6)

    def gen_compose(rng: random.Random) -> ComposeArtifact:
        return ComposeArtifact(
            a=random_computation(rng, max_elements=2, max_events=5,
                                 with_groups=False, element_prefix="L"),
            b=random_computation(rng, max_elements=2, max_events=5,
                                 with_groups=False, element_prefix="R"),
        )

    def gen_checker(rng: random.Random) -> CheckerArtifact:
        return CheckerArtifact(
            recipe=random_computation(rng, max_elements=3, max_events=6,
                                      with_groups=False),
            formula_seed=rng.randrange(2 ** 31),
        )

    _REPLAY_CASES = ("monitor", "csp", "ada", "fuzz")

    def gen_replay(rng: random.Random) -> ReplayArtifact:
        case = rng.choice(_REPLAY_CASES)
        spec = random_program_spec(rng) if case == "fuzz" else None
        return ReplayArtifact(case=case, seed=rng.randrange(2 ** 31),
                              spec=spec)

    def gen_engine(rng: random.Random) -> FuzzProgramSpec:
        return random_program_spec(rng, max_procs=3, max_steps_per_proc=2,
                                   dep_density=0.5)

    _PLANTED = (("stale-read", "register"), ("dropped-dequeue", "queue"),
                ("double-acquire", "lock"))

    def gen_objects(rng: random.Random) -> ObjectsArtifact:
        if rng.random() < 0.2:
            kind, object_type = _PLANTED[rng.randrange(len(_PLANTED))]
            return ObjectsArtifact(object_type=object_type, seed=0,
                                   planted=kind)
        # sizes keep every history within the brute-force oracle's cap
        # (lock scripts round odd lengths up to a trailing release)
        n_procs, ops_per_proc = rng.choice(((2, 2), (2, 3), (2, 3), (3, 2)))
        return ObjectsArtifact(
            object_type=OBJECT_TYPES[rng.randrange(len(OBJECT_TYPES))],
            seed=rng.randrange(2 ** 31),
            n_procs=n_procs,
            ops_per_proc=ops_per_proc,
            corrupt=rng.random() < 0.5,
        )

    oracles = [
        Oracle(
            "order-laws",
            "⇒ is a strict partial order; Relation algebra round-trips",
            gen_order,
            lambda recipe: check_order_laws(recipe.build()),
            lambda recipe: recipe.shrink_candidates(),
        ),
        Oracle(
            "history-lattice",
            "histories are a lattice of down-closed sets; vhs steps are "
            "concurrent antichains",
            gen_history,
            lambda recipe: check_history_laws(recipe.build()),
            lambda recipe: recipe.shrink_candidates(),
        ),
        Oracle(
            "fingerprint",
            "stable fingerprints: insertion-order invariant, "
            "mutation sensitive",
            gen_order,
            check_fingerprint_laws,
            lambda recipe: recipe.shrink_candidates(),
        ),
        Oracle(
            "compose-project",
            "parallel/sequential composition laws; identity projection "
            "round-trip",
            gen_compose,
            lambda art: check_compose_laws(art.a, art.b),
            lambda art: art.shrink_candidates(),
        ),
        Oracle(
            "route-differential",
            "auto route and bare slice == lattice interpreter == exact "
            "enumeration",
            gen_checker,
            lambda art: check_routes_agree(
                (comp := art.recipe.build()), art.restriction(comp)),
            lambda art: art.shrink_candidates(),
        ),
        Oracle(
            "dfa-differential",
            "automaton monitor: exploration unperturbed, early verdicts "
            "== completed-computation verdicts, auto routing == "
            "interpreter",
            gen_engine,
            check_dfa_agrees,
            lambda spec: spec.shrink_candidates(),
        ),
        Oracle(
            "replay-determinism",
            "seeded runs, explored runs and prefix replay reproduce "
            "byte-identical computations",
            gen_replay,
            lambda art: check_replay_determinism(art.program(), art.seed),
        ),
        Oracle(
            "engine-differential",
            "serial == parallel == cached over report signatures",
            gen_engine,
            lambda spec: check_engine_agreement(spec, jobs=jobs),
            lambda spec: spec.shrink_candidates(),
        ),
        Oracle(
            "por-differential",
            "ample-set reduction preserves computation classes, verdicts "
            "and witnesses",
            gen_engine,
            check_por_agrees,
            lambda spec: spec.shrink_candidates(),
        ),
        Oracle(
            "objects-differential",
            "object-history consistency: witness search == brute-force "
            "permutation oracle for linearizability and SC; planted "
            "non-linearizable mutants rejected",
            gen_objects,
            check_objects_agree,
            lambda art: art.shrink_candidates(),
        ),
    ]
    return {o.name: o for o in oracles}


def oracle_names() -> Tuple[str, ...]:
    return tuple(make_oracles())
