"""Checker/engine/POR benchmarks behind ``repro bench`` (docs/PERF.md).

Measures the compiled restriction checker (:mod:`repro.core.compile`)
against the reference lattice interpreter on the S1
chains-with-cross-talk workload (the same shape as
``benchmarks/bench_checker_scaling.py``), the computation slice
(:mod:`repro.core.slice`, S9 -- slice-routed vs walked lattice
checking on a regular implication that holds everywhere, so the walk
cannot short-circuit), one end-to-end engine
verification, the serve daemon's warm-resubmission win over the
per-invocation engine path (:mod:`repro.serve`, S8 -- a real daemon on
an ephemeral port, signatures asserted identical to one-shot), and the
partial-order reduction's schedule savings (:mod:`repro.engine.por`,
S7 -- reduced vs full exploration on the unreduced readers/writers and
bounded-buffer monitors), and writes the results as JSON.  The JSON file doubles as the committed regression
baseline (``BENCH_checker.json``): when the output file already
exists, the run first *gates* against it -- a gated workload whose
ratio (compiled-vs-interpreted speedup, or full-vs-reduced schedule
count for the ``por:*`` rows) drops by more than ``GATE_TOLERANCE``
fails the run and leaves the baseline untouched.  Comparing *ratios*
rather than wall-clock seconds keeps the gate meaningful across
machines of different speeds -- the POR rows' ratios are run counts,
deterministic on any machine.

Every measurement is a correctness check before it is a timer: the
compiled verdict is asserted equal to the interpreted one, the engine
reports signature-equal, and the reduced exploration's computation
fingerprint set equal to the full one's, before any number is
reported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Gated workloads may lose at most this fraction of their baseline
#: compiled-vs-interpreted speedup ratio (CI ``bench-gate``).
GATE_TOLERANCE = 0.25

#: (name, chains, length, gated).  Small sizes are reported for the
#: scaling picture but not gated: there the one-off compile/bind cost
#: is comparable to the walk itself, so the ratio is noise-dominated.
CHECKER_WORKLOADS: Tuple[Tuple[str, int, int, bool], ...] = (
    ("checker:2x10", 2, 10, False),
    ("checker:2x20", 2, 20, True),
    ("checker:3x10", 3, 10, True),
)
QUICK_CHECKER_WORKLOADS = CHECKER_WORKLOADS[:2]


def build_chain_workload(chains: int, length: int, cross_every: int = 2):
    """P chains of L ``Step`` events with every k-th event
    cross-enabling its neighbour chain (the S1 bench shape)."""
    from .core import ComputationBuilder

    b = ComputationBuilder()
    rows: List[list] = []
    for c in range(chains):
        row = []
        prev = None
        for i in range(length):
            ev = b.add_event(f"chain{c}", "Step", {"i": i})
            if prev is not None:
                b.add_enable(prev, ev)
            prev = ev
            row.append(ev)
        rows.append(row)
    for c in range(chains - 1):
        for i in range(0, length, cross_every):
            b.add_enable(rows[c][i], rows[c + 1][i])
    return b.freeze()


def safety_restriction():
    """The S1 safety formula: □ ∀x:chain0.Step (occurred(x) ⊃
    ∃y:chain0.Step occurred(y)) -- non-monotone body, so both modes
    genuinely walk the lattice."""
    from .core import (Exists, ForAll, Henceforth, Implies, Occurred,
                       Restriction)

    return Restriction("s1-safety", Henceforth(ForAll(
        "x", "chain0.Step",
        Implies(Occurred("x"), Exists("y", "chain0.Step", Occurred("y"))))))


def _best_of(repeats: int, fn: Callable[[], object]) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_checker_bench(quick: bool = False, repeats: int = 3,
                      history_cap: int = 5_000_000) -> Dict[str, dict]:
    """Compiled vs interpreted lattice checking per S1 workload."""
    from .core.checker import check_restriction

    restriction = safety_restriction()
    workloads = QUICK_CHECKER_WORKLOADS if quick else CHECKER_WORKLOADS
    results: Dict[str, dict] = {}
    for name, chains, length, gated in workloads:
        comp = build_chain_workload(chains, length)
        lattice_s, lat = _best_of(repeats, lambda: check_restriction(
            comp, restriction, temporal_mode="lattice",
            history_cap=history_cap))

        def compiled_once():
            # a fresh computation per repeat so the timing includes the
            # full compile + bind + walk (no warm bitmask tables)
            fresh = build_chain_workload(chains, length)
            return check_restriction(fresh, restriction,
                                     temporal_mode="compiled",
                                     history_cap=history_cap)

        compiled_s, com = _best_of(repeats, compiled_once)
        assert (lat.holds, lat.detail) == (com.holds, com.detail), (
            f"{name}: compiled verdict {com} != interpreted {lat}")
        results[name] = {
            "chains": chains,
            "length": length,
            "gate": gated,
            "lattice_s": round(lattice_s, 6),
            "compiled_s": round(compiled_s, 6),
            "speedup": round(lattice_s / compiled_s, 2),
        }
    return results


#: (name, chains, length, gated) for the ``slice:`` rows; same sizes
#: and gating policy as the checker rows.
SLICE_WORKLOADS: Tuple[Tuple[str, int, int, bool], ...] = (
    ("slice:2x10", 2, 10, False),
    ("slice:2x20", 2, 20, True),
    ("slice:3x10", 3, 10, True),
)
QUICK_SLICE_WORKLOADS = SLICE_WORKLOADS[:2]


def slice_restriction():
    """The S9 implication formula: □ (∃y:chain1.Step occurred(y) ⊃
    ∃x:chain0.Step occurred(x)).  It holds on every chain workload
    (chain1 is rooted in a chain0 cross-enable), so the lattice walk
    must visit the whole history lattice while the slice certifies the
    same verdict from a linear union of cubes."""
    from .core import Exists, Henceforth, Implies, Occurred, Restriction

    return Restriction("s9-implication", Henceforth(Implies(
        Exists("y", "chain1.Step", Occurred("y")),
        Exists("x", "chain0.Step", Occurred("x")))))


def run_slice_bench(quick: bool = False, repeats: int = 3,
                    history_cap: int = 5_000_000) -> Dict[str, dict]:
    """Slice-routed vs walked lattice checking per S9 workload.

    Correctness before timing: the sliced outcome must carry slice
    provenance (a silent walk fallback would time the wrong thing) and
    equal the walked verdict and detail.
    """
    from .core.checker import check_restriction
    from .core.slice import classify_restriction

    restriction = slice_restriction()
    workloads = QUICK_SLICE_WORKLOADS if quick else SLICE_WORKLOADS
    results: Dict[str, dict] = {}
    for name, chains, length, gated in workloads:
        comp = build_chain_workload(chains, length)
        kind = classify_restriction(comp, restriction)
        assert kind == "linear", f"{name}: expected a linear slice, {kind}"
        walk_s, walk = _best_of(repeats, lambda: check_restriction(
            comp, restriction, temporal_mode="lattice",
            history_cap=history_cap))

        def slice_once():
            # a fresh computation per repeat so the timing includes the
            # classification and cube construction (no warm slicer)
            fresh = build_chain_workload(chains, length)
            return check_restriction(fresh, restriction,
                                     temporal_mode="lattice",
                                     use_slice=True,
                                     history_cap=history_cap)

        sliced_s, sliced = _best_of(repeats, slice_once)
        assert sliced.provenance == "slice", (
            f"{name}: slice fell back to the walk")
        assert (walk.holds, walk.detail) == (sliced.holds, sliced.detail), (
            f"{name}: sliced verdict {sliced} != walked {walk}")
        results[name] = {
            "chains": chains,
            "length": length,
            "gate": gated,
            "lattice_s": round(walk_s, 6),
            "sliced_s": round(sliced_s, 6),
            "speedup": round(walk_s / sliced_s, 2),
        }
    return results


def run_engine_bench(repeats: int = 1) -> Dict[str, dict]:
    """End-to-end ``verify_program`` compiled vs interpreted on the
    monitor bounded-buffer case (report signatures must match)."""
    from .langs.monitor import (MonitorProgram, bounded_buffer_system,
                                monitor_program_spec)
    from .problems import bounded_buffer
    from .verify import verify_program

    system = bounded_buffer_system(capacity=2, items=(1, 2, 3))
    args = (MonitorProgram(system),
            bounded_buffer.bounded_buffer_spec(2),
            bounded_buffer.monitor_correspondence("bb"))
    kwargs = {"program_spec": monitor_program_spec(system)}

    lattice_s, lat = _best_of(repeats, lambda: verify_program(
        *args, temporal_mode="lattice", **kwargs))
    compiled_s, com = _best_of(repeats, lambda: verify_program(
        *args, temporal_mode="compiled", **kwargs))
    assert lat.signature() == com.signature(), (
        "engine: compiled report signature differs from interpreted")
    return {
        "engine:monitor-bb": {
            "gate": False,
            "lattice_s": round(lattice_s, 6),
            "compiled_s": round(compiled_s, 6),
            "speedup": round(lattice_s / compiled_s, 2),
        }
    }


#: Minimum one-shot-vs-warm-daemon ratio for the ``serve:warm`` row --
#: an absolute floor asserted on every run.  A resident daemon whose
#: warm resubmission is not at least this much faster than re-running
#: the engine from scratch is not earning its memory footprint.
SERVE_GATE_MIN = 3.0


def run_serve_bench(repeats: int = 3) -> Dict[str, dict]:
    """Warm-daemon resubmission vs the per-invocation engine path.

    Boots a real daemon (background thread, ephemeral port), submits
    the monitor bounded-buffer case cold, then resubmits it warm
    (``repeats`` times, best-of): the warm run answers from the hot
    resident state and the shared result cache, so its wall time is
    exploration plus cache replay -- no spec-plan compilation, no
    restriction checks.  The daemon's report signature is asserted
    byte-identical to the one-shot engine's before any number is
    reported, and ``serve:warm`` must beat the one-shot time by
    :data:`SERVE_GATE_MIN` on every run.

    Neither ratio is baseline-gated: dividing the one-shot time by a
    warm time that does not move, ``serve:warm`` would fall with every
    one-shot speedup.  The daemon is gated on work counters instead --
    the cold job checks every distinct computation, the warm job
    re-checks nothing and answers every run from resident outcomes
    (worker memo or shared cache) -- with the times as context.
    """
    from .serve.daemon import start_in_thread
    from .serve.client import ServeClient
    from .serve.protocol import signature_json
    from .langs.monitor import (MonitorProgram, bounded_buffer_system,
                                monitor_program_spec)
    from .problems import bounded_buffer
    from .verify import verify_program

    system = bounded_buffer_system(capacity=2, items=(1, 2, 3))
    oneshot_s, report = _best_of(repeats, lambda: verify_program(
        MonitorProgram(system),
        bounded_buffer.bounded_buffer_spec(2),
        bounded_buffer.monitor_correspondence("bb"),
        program_spec=monitor_program_spec(system)))

    handle = start_in_thread(jobs=1, job_workers=1)
    try:
        client = ServeClient(port=handle.port)
        spec = {"case": "monitor-bounded-buffer"}

        t0 = time.perf_counter()
        cold = client.verify(spec, timeout=300)
        cold_s = time.perf_counter() - t0
        assert cold["state"] == "done", f"cold job ended {cold['state']}"

        def warm_once():
            snap = client.verify(spec, timeout=300)
            assert snap["state"] == "done", f"warm job ended {snap['state']}"
            return snap

        warm_s, warm = _best_of(repeats, warm_once)
    finally:
        handle.stop()

    expected = signature_json(report.signature())
    for label, snap in (("cold", cold), ("warm", warm)):
        assert snap["result"]["signature"] == expected, (
            f"serve: {label} daemon signature differs from the one-shot "
            f"engine's")
    cold_stats = cold["result"]["stats"]
    warm_stats = warm["result"]["stats"]
    assert cold_stats["checks_performed"] == cold_stats[
        "distinct_computations"], (
        "serve: the cold job did not check every distinct computation")
    assert warm_stats["checks_performed"] == 0, (
        "serve: warm resubmission recomputed outcomes instead of "
        "replaying the shared cache")
    # the resident worker's memo answers before the shared cache does,
    # so warm hits may be attributed to either counter
    reused = warm_stats["cache_hits"] + warm_stats["dedupe_hits"]
    assert reused == warm_stats["runs"], (
        f"serve: warm resubmission answered {reused} of "
        f"{warm_stats['runs']} run(s) from resident outcomes")
    warm_speedup = oneshot_s / warm_s
    assert warm_speedup >= SERVE_GATE_MIN, (
        f"serve:warm: {warm_speedup:.1f}x over the per-invocation path "
        f"is below the {SERVE_GATE_MIN:.0f}x floor")
    return {
        "serve:cold": {
            "gate": False,
            "oneshot_s": round(oneshot_s, 6),
            "serve_s": round(cold_s, 6),
            "speedup": round(oneshot_s / cold_s, 2),
        },
        "serve:warm": {
            "gate": False,
            "oneshot_s": round(oneshot_s, 6),
            "serve_s": round(warm_s, 6),
            "speedup": round(warm_speedup, 2),
        },
    }


#: Minimum full-vs-reduced schedule ratio for gated ``por:*`` rows --
#: an absolute floor asserted on every run, independent of the
#: baseline-relative gate.
POR_GATE_MIN = 3.0

#: (name, builder args, gated).  The ablation (``eager_reductions=
#: False``) configurations: with eager reductions on, the monitor
#: explorations are already canonical (runs == distinct computations)
#: and a sound POR has nothing to prune -- the reduction's value shows
#: on the raw interleaving explosion.  Sizes are the largest whose
#: *full* exploration stays in seconds (the S3 bb depth itself runs to
#: millions of schedules unreduced).
POR_WORKLOADS: Tuple[Tuple[str, str, bool], ...] = (
    ("por:readers-writers", "rw", True),
    ("por:bounded-buffer", "bb", True),
)
QUICK_POR_WORKLOADS = POR_WORKLOADS[:1]


def _por_program(kind: str):
    from .langs.monitor import (MonitorProgram, bounded_buffer_system,
                                readers_writers_system)

    if kind == "rw":
        return MonitorProgram(readers_writers_system(1, 1),
                              eager_reductions=False)
    return MonitorProgram(bounded_buffer_system(capacity=2, items=(1, 2)),
                          eager_reductions=False)


def run_por_bench(quick: bool = False,
                  max_runs: int = 200_000) -> Dict[str, dict]:
    """Full vs POR-reduced exploration: schedule counts and wall time.

    Asserts the soundness contract before reporting: identical
    computation-fingerprint sets, and at least :data:`POR_GATE_MIN`
    times fewer schedules on every gated workload.
    """
    from .engine.por import AmpleSelector
    from .sim.scheduler import explore

    workloads = QUICK_POR_WORKLOADS if quick else POR_WORKLOADS
    results: Dict[str, dict] = {}
    for name, kind, gated in workloads:
        t0 = time.perf_counter()
        full = list(explore(_por_program(kind), max_runs=max_runs))
        full_s = time.perf_counter() - t0
        selector = AmpleSelector()
        t0 = time.perf_counter()
        reduced = list(explore(_por_program(kind), max_runs=max_runs,
                               por=selector))
        por_s = time.perf_counter() - t0
        full_fps = {r.computation.stable_fingerprint() for r in full}
        por_fps = {r.computation.stable_fingerprint() for r in reduced}
        assert full_fps == por_fps, (
            f"{name}: reduced fingerprint set differs from full")
        ratio = len(full) / len(reduced)
        assert not gated or ratio >= POR_GATE_MIN, (
            f"{name}: reduction {ratio:.1f}x is below the "
            f"{POR_GATE_MIN:.0f}x floor")
        results[name] = {
            "gate": gated,
            "full_runs": len(full),
            "por_runs": len(reduced),
            "pruned_branches": selector.pruned,
            "full_s": round(full_s, 6),
            "por_s": round(por_s, 6),
            "speedup": round(ratio, 2),
        }
    return results


#: Minimum no-monitor-vs-monitored explore+check ratio for the gated
#: ``dfa:early-violation`` row -- an absolute floor asserted on every
#: run, independent of the baseline-relative gate.
DFA_GATE_MIN = 5.0

#: Minimum end-to-end ``verify_program`` ratio (dfa off vs on) for the
#: gated ``dfa:noeager`` row.  Smaller than the synthetic row's floor
#: because a full verification also pays exploration, projection and
#: legality checking on both sides.
DFA_NOEAGER_GATE_MIN = 1.2


def run_dfa_bench(quick: bool = False) -> Dict[str, dict]:
    """Restriction-automata rows (:mod:`repro.core.automata`, S11).

    ``dfa:early-violation`` -- the ring mark-budget workload
    (:mod:`repro.problems.ring`): every branch violates the cubic □
    within a handful of steps, so the monitor decides whole subtrees
    from tiny prefixes and the per-computation check skips the walk.
    Explore + check-every-distinct-computation, with and without the
    monitor; fingerprint sets and verdicts are asserted equal before
    the ratio is reported, and the ratio must clear
    :data:`DFA_GATE_MIN` on every run.

    ``dfa:noeager`` (full mode only) -- the same restriction end to
    end: ``verify_program`` on the mutant ``monitor-tally-mesa``
    catalog case with the automata disabled vs enabled.  Report
    signatures are asserted byte-identical and the speedup must clear
    :data:`DFA_NOEAGER_GATE_MIN`.
    """
    from .core.automata import AutomatonMonitor, automata_plan_for
    from .core.checker import check_computation
    from .problems.ring import RingProgram, ring_spec
    from .sim.scheduler import explore

    results: Dict[str, dict] = {}
    spec = ring_spec()
    program = RingProgram(workers=2, rounds=4)

    def census(with_monitor: bool):
        monitor = (AutomatonMonitor(automata_plan_for(spec), spec)
                   if with_monitor else None)
        t0 = time.perf_counter()
        verdicts = {}
        for run in explore(program, dfa=monitor):
            fp = run.computation.stable_fingerprint()
            if fp in verdicts:
                continue
            verdicts[fp] = check_computation(
                run.computation, spec, use_slice=True,
                use_dfa=with_monitor,
                decided=dict(run.decided) if with_monitor else None).ok
        return time.perf_counter() - t0, verdicts, monitor

    plain_s, plain, _ = census(False)
    dfa_s, decided, monitor = census(True)
    assert set(plain) == set(decided), (
        "dfa:early-violation: monitored fingerprint set differs from "
        "unmonitored")
    assert plain == decided, (
        "dfa:early-violation: monitored verdicts differ from unmonitored")
    assert monitor.cuts > 0, (
        "dfa:early-violation: the monitor cut no branches")
    ratio = plain_s / dfa_s
    assert ratio >= DFA_GATE_MIN, (
        f"dfa:early-violation: {ratio:.1f}x is below the "
        f"{DFA_GATE_MIN:.0f}x floor")
    results["dfa:early-violation"] = {
        "gate": True,
        "distinct": len(plain),
        "cuts": monitor.cuts,
        "nodfa_s": round(plain_s, 6),
        "dfa_s": round(dfa_s, 6),
        "speedup": round(ratio, 2),
    }
    if quick:
        return results

    from .langs.monitor import MonitorProgram, tally_system
    from .problems.ring import mark_correspondence, tally_spec
    from .verify import verify_program

    def end_to_end(dfa: bool):
        return verify_program(
            MonitorProgram(tally_system(2, 3, mutant=True),
                           eager_reductions=False, semantics="mesa"),
            tally_spec(2), mark_correspondence(), dfa=dfa)

    t0 = time.perf_counter()
    off = end_to_end(False)
    nodfa_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    on = end_to_end(True)
    with_s = time.perf_counter() - t0
    assert off.signature() == on.signature(), (
        "dfa:noeager: report signature differs with the monitor on")
    assert not on.ok, "dfa:noeager: the mutant must be caught"
    assert on.engine_stats.dfa_cuts > 0, (
        "dfa:noeager: the monitor cut no branches")
    e2e_ratio = nodfa_s / with_s
    assert e2e_ratio >= DFA_NOEAGER_GATE_MIN, (
        f"dfa:noeager: {e2e_ratio:.2f}x end-to-end is below the "
        f"{DFA_NOEAGER_GATE_MIN:.1f}x floor")
    results["dfa:noeager"] = {
        "gate": True,
        "cuts": on.engine_stats.dfa_cuts,
        "nodfa_s": round(nodfa_s, 6),
        "dfa_s": round(with_s, 6),
        "speedup": round(e2e_ratio, 2),
    }
    return results


#: Minimum memoised-search-vs-brute-force *work* ratio (permutations
#: examined by the oracle / states expanded by the search) for the
#: gated ``objects:witness-*`` rows -- an absolute floor asserted on
#: every run.  The memoised witness search is exponential in
#: operations where the permutation oracle is factorial, so on the
#: 8-operation bench histories the gap is two to three orders of
#: magnitude; the floor only guards against the search degenerating
#: into the oracle it is supposed to dominate.  Like the POR rows'
#: run-count ratios, the work ratio is deterministic on any machine,
#: which is what makes the baseline gate meaningful; wall times ride
#: along as context.
OBJECTS_GATE_MIN = 25.0

#: (row name, object type, history seed).  The seeds are pinned to
#: corrupted histories that are neither linearizable nor sequentially
#: consistent, so both searches must exhaust -- the brute-force side
#: cannot exit early on a lucky witness.
OBJECTS_WORKLOADS: Tuple[Tuple[str, str, int], ...] = (
    ("objects:witness-register", "register", 0),
    ("objects:witness-queue", "queue", 1),
)
QUICK_OBJECTS_WORKLOADS = OBJECTS_WORKLOADS[:1]


def run_objects_bench(quick: bool = False,
                      repeats: int = 3) -> Dict[str, dict]:
    """Consistency-checking benchmarks (S12, ``docs/OBJECTS.md``).

    ``objects:witness-*`` (gated): the production memoised witness
    search (:func:`repro.verify.consistency.linearizable`) against the
    brute-force permutation oracle on a pinned seeded 8-operation
    history.  Verdict equality is asserted before any measurement, and
    the gated ``speedup`` is the *work* ratio -- permutations examined
    by the oracle over states expanded by the search -- which is
    deterministic for the pinned history, so the baseline comparison
    cannot flake on timer noise.  It must clear
    :data:`OBJECTS_GATE_MIN` on every run.  Wall times for both sides
    are reported as context (the search is timed over a batch; single
    calls are microseconds).

    ``objects:verify-catalog`` (informational): end-to-end
    ``verify_program`` wall time over the four correct object workloads
    -- the cost of a full consistency verdict per distinct computation
    through the standard engine pipeline.
    """
    import random as _random

    from .verify.consistency import (
        brute_force_linearizable,
        decider_work,
        linearizable,
        random_object_history,
    )

    results: Dict[str, dict] = {}
    workloads = QUICK_OBJECTS_WORKLOADS if quick else OBJECTS_WORKLOADS
    for name, object_type, seed in workloads:
        history = random_object_history(
            _random.Random(seed), object_type, n_procs=2, ops_per_proc=4,
            corrupt=True)
        fast, slow = linearizable(history), brute_force_linearizable(history)
        assert fast == slow, (
            f"{name}: witness search says {fast}, brute force says {slow}")
        assert not slow, (
            f"{name}: pinned history became linearizable; the brute-force "
            f"side would exit early and the ratio would be meaningless")
        mark = decider_work()
        linearizable(history)
        brute_force_linearizable(history)
        work = decider_work()
        search_nodes = work["search_nodes"] - mark["search_nodes"]
        brute_perms = work["brute_perms"] - mark["brute_perms"]
        ratio = brute_perms / search_nodes
        assert ratio >= OBJECTS_GATE_MIN, (
            f"{name}: {ratio:.1f}x over the permutation oracle is below "
            f"the {OBJECTS_GATE_MIN:.0f}x floor")
        batch = 200
        search_s, _ = _best_of(repeats, lambda: [
            linearizable(history) for _ in range(batch)])
        search_s /= batch
        brute_s, _ = _best_of(repeats,
                              lambda: brute_force_linearizable(history))
        results[name] = {
            "gate": True,
            "ops": len(history.ops),
            "search_nodes": search_nodes,
            "brute_perms": brute_perms,
            "brute_s": round(brute_s, 6),
            "search_s": round(search_s, 6),
            "speedup": round(ratio, 2),
        }

    if not quick:
        from .problems.objects import object_case
        from .verify import verify_program

        def verify_all():
            for object_type in ("register", "queue", "lock", "counter"):
                program, spec, corr, _pspec = object_case(object_type)
                report = verify_program(program, spec, corr)
                assert report.ok, (
                    f"objects:verify-catalog: correct {object_type} "
                    f"workload failed verification")

        verify_s, _ = _best_of(1, verify_all)
        results["objects:verify-catalog"] = {
            "gate": False,
            "cases": 4,
            "verify_s": round(verify_s, 6),
        }
    return results


def compare_to_baseline(results: Dict[str, dict], baseline: dict,
                        tolerance: float = GATE_TOLERANCE) -> List[str]:
    """Regression messages for gated workloads present in both runs."""
    regressions: List[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, row in results.items():
        if not row.get("gate"):
            continue
        base = base_workloads.get(name)
        if base is None or "speedup" not in base:
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if row["speedup"] < floor:
            regressions.append(
                f"{name}: speedup {row['speedup']}x is more than "
                f"{tolerance:.0%} below the baseline {base['speedup']}x "
                f"(floor {floor:.2f}x)")
    return regressions


def _suite_selected(only: Optional[str], prefix: str) -> bool:
    """Whether a row-name filter can match rows from this suite."""
    return only is None or prefix.startswith(only) or only.startswith(prefix)


def run_bench(quick: bool = False, json_path: Optional[str] = None,
              baseline_path: Optional[str] = None, repeats: int = 3,
              only: Optional[str] = None, out=sys.stdout) -> int:
    """The ``repro bench`` entry point (also used by CI bench-gate).

    ``only`` restricts the run to rows whose name starts with that
    prefix (``--only por``, ``--only dfa:noeager``); suites that cannot
    produce a matching row are skipped entirely, and the gated/info
    summary counts the subset actually run.
    """
    results: Dict[str, dict] = {}
    if _suite_selected(only, "checker:"):
        results.update(run_checker_bench(quick=quick, repeats=repeats))
    if _suite_selected(only, "slice:"):
        results.update(run_slice_bench(quick=quick, repeats=repeats))
    if not quick:
        if _suite_selected(only, "engine:"):
            results.update(run_engine_bench())
        if _suite_selected(only, "serve:"):
            results.update(run_serve_bench(repeats=repeats))
    if _suite_selected(only, "por:"):
        results.update(run_por_bench(quick=quick))
    if _suite_selected(only, "dfa:"):
        results.update(run_dfa_bench(quick=quick))
    if _suite_selected(only, "objects:"):
        results.update(run_objects_bench(quick=quick, repeats=repeats))
    if only is not None:
        results = {name: row for name, row in results.items()
                   if name.startswith(only)}
        if not results:
            print(f"no bench rows match --only {only!r}", file=out)
            return 2
    for name, row in results.items():
        # every row says whether its ratio participates in the baseline
        # gate -- an [info] row that regresses is reported, never fatal
        gated = "   [gated]" if row.get("gate") else "   [info]"
        if "full_runs" in row:
            print(f"{name:18s} full {row['full_runs']} runs "
                  f"({row['full_s']:.4f}s)   por {row['por_runs']} runs "
                  f"({row['por_s']:.4f}s)   reduction {row['speedup']}x"
                  f"{gated}", file=out)
        elif "sliced_s" in row:
            print(f"{name:18s} walked {row['lattice_s']:.4f}s   "
                  f"sliced {row['sliced_s']:.4f}s   "
                  f"speedup {row['speedup']}x{gated}", file=out)
        elif "serve_s" in row:
            print(f"{name:18s} one-shot {row['oneshot_s']:.4f}s   "
                  f"daemon {row['serve_s']:.4f}s   "
                  f"speedup {row['speedup']}x{gated}", file=out)
        elif "nodfa_s" in row:
            print(f"{name:18s} no-dfa {row['nodfa_s']:.4f}s   "
                  f"dfa {row['dfa_s']:.4f}s ({row['cuts']} cut(s))   "
                  f"speedup {row['speedup']}x{gated}", file=out)
        elif "brute_s" in row:
            print(f"{name:18s} brute-force {row['brute_perms']} perms "
                  f"({row['brute_s']:.4f}s)   "
                  f"search {row['search_nodes']} nodes "
                  f"({row['search_s']:.6f}s, {row['ops']} op(s))   "
                  f"work ratio {row['speedup']}x{gated}", file=out)
        elif "verify_s" in row:
            print(f"{name:18s} verified {row['cases']} case(s) in "
                  f"{row['verify_s']:.4f}s{gated}", file=out)
        else:
            print(f"{name:18s} interpreted {row['lattice_s']:.4f}s   "
                  f"compiled {row['compiled_s']:.4f}s   "
                  f"speedup {row['speedup']}x{gated}", file=out)
    n_gated = sum(1 for row in results.values() if row.get("gate"))
    print(f"{n_gated} gated workload(s), "
          f"{len(results) - n_gated} informational", file=out)

    # gate before (over)writing, so a regressing run never replaces the
    # baseline it failed against
    baseline_file = baseline_path or json_path
    baseline = None
    if baseline_file is not None:
        try:
            with open(baseline_file) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            baseline = None
    if baseline is not None:
        regressions = compare_to_baseline(results, baseline)
        for message in regressions:
            print(f"REGRESSION: {message}", file=out)
        if regressions:
            return 1
        print(f"gate: no regression vs {baseline_file} "
              f"(tolerance {GATE_TOLERANCE:.0%})", file=out)

    if json_path is not None:
        payload = {
            "schema": 1,
            "bench": "repro bench",
            "quick": quick,
            "gate_tolerance": GATE_TOLERANCE,
            "workloads": results,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {json_path}", file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="compiled-checker benchmarks with a regression gate")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads only, skip the engine bench "
                             "and the serve bench")
    parser.add_argument("--json", nargs="?", const="BENCH_checker.json",
                        default=None, metavar="FILE",
                        help="write results as JSON (default file: "
                             "BENCH_checker.json); if the file exists it "
                             "is used as the regression baseline first")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="gate against this baseline instead of the "
                             "--json target")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timing repeats per measurement, best-of "
                             "(default 3)")
    parser.add_argument("--only", default=None, metavar="PREFIX",
                        help="run only rows whose name starts with this "
                             "prefix (e.g. 'por', 'dfa:noeager')")
    args = parser.parse_args(argv)
    return run_bench(quick=args.quick, json_path=args.json,
                     baseline_path=args.baseline, repeats=args.repeats,
                     only=args.only)


if __name__ == "__main__":
    sys.exit(main())
