"""Slice/serve/POR/DFA/objects benchmarks behind ``repro bench`` (docs/PERF.md).

Measures the computation slice (:mod:`repro.core.slice`, S9 -- the
bare slice analysis vs the walked lattice on a regular implication
that holds everywhere, so the walk cannot short-circuit, on the S1
chains-with-cross-talk computations), the serve daemon's
warm-resubmission win over the per-invocation engine path
(:mod:`repro.serve`, S8 -- a real daemon on an ephemeral port,
signatures asserted identical to one-shot), the partial-order
reduction's schedule savings (:mod:`repro.engine.por`, S7 -- reduced
vs full exploration on the unreduced readers/writers and
bounded-buffer monitors), the restriction-automata monitor and the
consistency deciders, and writes the results as JSON.  The JSON file
doubles as the committed regression baseline (``BENCH_checker.json``):
when the output file already exists, the run first *gates* against it
-- a gated workload whose ratio (full-vs-reduced schedule count for
the ``por:*`` rows, interpreter visits over slice steps for the
``slice:*`` rows) drops by more than ``GATE_TOLERANCE`` fails the run
and leaves the baseline untouched.  Comparing *ratios* rather than
wall-clock seconds keeps the gate meaningful across machines of
different speeds -- the POR, slice and objects rows' ratios are work
counts, deterministic on any machine.  The ``serve:warm`` in-run floor
(:data:`SERVE_GATE_MIN`) fails the run the same way, after every suite
has run and printed.

Every measurement is a correctness check before it is a timer: the
sliced verdict is asserted equal to the walked one, the daemon
reports signature-equal to the one-shot engine, and the reduced
exploration's computation fingerprint set equal to the full one's,
before any number is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Gated workloads may lose at most this fraction of their baseline
#: ratio (CI ``bench-gate``).
GATE_TOLERANCE = 0.25


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


def _best_of(repeats: int, fn: Callable[[], object]) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


#: (name, chains, length, gated) for the ``slice:`` rows.  Small sizes
#: are reported for the scaling picture but not gated.
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
    """The bare slice analysis vs the walked lattice per S9 workload.

    Runs :meth:`repro.core.slice.SliceChecker.analyze` on a fresh
    checker -- the slice route of the ``auto`` chain, without the DFA
    leaf ahead of it.  Correctness before measuring: the slice must
    decide (a silent decline would measure nothing) and equal the
    walked verdict.  The gated ``speedup`` is the *work* ratio --
    (formula, history) pairs the interpreter visits over the slice's
    evaluation steps -- which is deterministic, so the baseline gate
    cannot flake on timer noise or move with the interpreter's speed.
    Wall times ride along as context.
    """
    from .core.checker import LatticeChecker, check_restriction
    from .core.slice import SliceChecker

    restriction = slice_restriction()
    workloads = QUICK_SLICE_WORKLOADS if quick else SLICE_WORKLOADS
    results: Dict[str, dict] = {}
    for name, chains, length, gated in workloads:
        comp = build_chain_workload(chains, length)
        slicer = SliceChecker(comp)
        analysis = slicer.analyze(restriction)
        assert analysis.kind == "linear", (
            f"{name}: expected a linear slice, {analysis.kind}")
        lattice = LatticeChecker(comp, history_cap)
        walked = lattice.holds(restriction.formula)
        assert analysis.verdict == walked, (
            f"{name}: sliced verdict {analysis.verdict} != walked {walked}")
        walk_s, _ = _best_of(repeats, lambda: check_restriction(
            comp, restriction, temporal_mode="lattice",
            history_cap=history_cap))

        def slice_once():
            # a fresh computation per repeat so the timing includes the
            # classification and cube construction (no warm slicer)
            fresh = build_chain_workload(chains, length)
            return SliceChecker(fresh).analyze(restriction).verdict

        sliced_s, _ = _best_of(repeats, slice_once)
        results[name] = {
            "chains": chains,
            "length": length,
            "gate": gated,
            "lattice_visits": lattice.visited,
            "slice_visits": slicer.visited,
            "lattice_s": round(walk_s, 6),
            "sliced_s": round(sliced_s, 6),
            "speedup": round(lattice.visited / slicer.visited, 2),
        }
    return results


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
    reported.  ``serve:warm`` must beat the one-shot time by
    :data:`SERVE_GATE_MIN` on every run; :func:`run_bench` reports a
    miss as a regression after every other suite has run.

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
    catalog case with the exploration monitor off vs on.  Report
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
                run.computation, spec,
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


def floor_misses(results: Dict[str, dict]) -> List[str]:
    """Regression messages for rows below their in-run floor, baseline
    or not: today only ``serve:warm`` against :data:`SERVE_GATE_MIN`."""
    row = results.get("serve:warm")
    if row is None or row["speedup"] >= SERVE_GATE_MIN:
        return []
    return [f"serve:warm: {row['speedup']:.1f}x over the per-invocation "
            f"path is below the {SERVE_GATE_MIN:.0f}x floor"]


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
    summary counts the subset actually run.  With ``json_path`` the
    rows run are merged into the file's existing ``workloads``; the
    file's other rows keep their recorded values and gates.
    """
    results: Dict[str, dict] = {}
    if _suite_selected(only, "slice:"):
        results.update(run_slice_bench(quick=quick, repeats=repeats))
    if not quick and _suite_selected(only, "serve:"):
        results.update(run_serve_bench(repeats=repeats))
    if _suite_selected(only, "por:"):
        results.update(run_por_bench(quick=quick))
    if _suite_selected(only, "dfa:"):
        results.update(run_dfa_bench(quick=quick))
    if _suite_selected(only, "objects:"):
        results.update(run_objects_bench(quick=quick, repeats=repeats))
    # a floor binds whenever its suite ran, even if --only hides the row
    regressions = floor_misses(results)
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
            print(f"{name:18s} walked {row['lattice_visits']} visits "
                  f"({row['lattice_s']:.4f}s)   "
                  f"sliced {row['slice_visits']} steps "
                  f"({row['sliced_s']:.4f}s)   "
                  f"work ratio {row['speedup']}x{gated}", file=out)
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
        else:
            print(f"{name:18s} verified {row['cases']} case(s) in "
                  f"{row['verify_s']:.4f}s{gated}", file=out)
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
        regressions += compare_to_baseline(results, baseline)
    for message in regressions:
        print(f"REGRESSION: {message}", file=out)
    if regressions:
        return 1
    if baseline is not None:
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
        if only is not None and os.path.exists(json_path):
            # a filtered run replaces only the rows it ran: every other
            # row of the file, and its header, is kept verbatim
            with open(json_path) as fh:
                existing = json.load(fh)
            payload = {**existing, "workloads": {
                **existing.get("workloads", {}), **results}}
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {json_path}", file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="slice/serve/POR/DFA/objects benchmarks with a "
                    "regression gate")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads only, skip the serve "
                             "bench")
    parser.add_argument("--json", nargs="?", const="BENCH_checker.json",
                        default=None, metavar="FILE",
                        help="write results as JSON (default file: "
                             "BENCH_checker.json); if the file exists it "
                             "is used as the regression baseline first, "
                             "and --only replaces just the rows it ran")
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
