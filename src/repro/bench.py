"""Slice/serve/POR/DFA/objects benchmarks behind ``repro bench`` (docs/PERF.md).

Each suite measures one fast path against the slower route it
replaces, and each gated row gates on a deterministic *work* ratio,
so the gate reads the same on any machine and cannot flake on timer
noise.  Wall times ride along as ungated context, measured once.

* ``slice:*`` -- the computation slice (:mod:`repro.core.slice`, S9)
  against the walked lattice on a regular implication that holds
  everywhere, on the S1 chains-with-cross-talk computations:
  interpreter visits over slice steps.
* ``serve:*`` -- the serve daemon (:mod:`repro.serve`, S8) against the
  per-invocation engine: a real daemon on an ephemeral port, checked
  on work -- the cold job checks every distinct computation once, the
  warm job re-checks nothing and answers every run from resident
  outcomes.
* ``por:*`` -- the partial-order reduction (:mod:`repro.engine.por`,
  S7): full over reduced schedule counts on the unreduced monitor and
  db-update explorations.
* ``dfa:*`` -- the exploration monitor (:mod:`repro.core.automata`,
  S11): backend restriction decisions without it over monitor probes
  plus backend decisions with it, end to end through
  ``verify_program``.
* ``objects:*`` -- the consistency deciders (S12): permutations the
  brute-force oracle examines over states the memoised search expands.

Every measurement is a correctness check before it is a number: the
sliced verdict equals the walked one, the daemon's and the monitored
report signatures equal the one-shot unmonitored engine's, the reduced
exploration's fingerprint set equals the full one's, and the search's
verdict equals the oracle's.  Only those checks are asserts.

Every gate miss is a ``REGRESSION:`` line that :func:`gate_misses`
collects after every suite has run and printed, and any miss exits 1:
a row that fails its in-run work checks (:func:`in_run_misses`), a
gated row that lost more than :data:`GATE_TOLERANCE` of its baseline
ratio, and, on a full unfiltered run, a gated baseline row the run did
not produce.  The JSON the run writes doubles as the committed baseline
(``BENCH_checker.json``); a run that misses never rewrites it.
"""

from __future__ import annotations

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


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """``fn()``'s wall time (context only, never gated) and result."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


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


def run_slice_bench(quick: bool = False,
                    history_cap: int = 5_000_000) -> Dict[str, dict]:
    """The bare slice analysis vs the walked lattice per S9 workload.

    Runs :meth:`repro.core.slice.SliceChecker.analyze` on a fresh
    checker -- the slice route of the ``auto`` chain, without the DFA
    leaf ahead of it -- and the lattice interpreter on the same
    computation.  A decided slice verdict must equal the walked one.
    The gated ``speedup`` is (formula, history) pairs the interpreter
    visits over the steps the route chain takes with the slice: its
    evaluation steps, plus the interpreter's visits when it declines
    and the chain walks after it.
    """
    from .core.checker import LatticeChecker
    from .core.slice import SliceChecker

    restriction = slice_restriction()
    workloads = QUICK_SLICE_WORKLOADS if quick else SLICE_WORKLOADS
    results: Dict[str, dict] = {}
    for name, chains, length, gated in workloads:
        comp = build_chain_workload(chains, length)
        slicer = SliceChecker(comp)
        sliced_s, analysis = _timed(lambda: slicer.analyze(restriction))
        lattice = LatticeChecker(comp, history_cap)
        walk_s, walked = _timed(lambda: lattice.holds(restriction.formula))
        assert not analysis.exact or analysis.verdict == walked, (
            f"{name}: sliced verdict {analysis.verdict} != walked {walked}")
        sliced_work = slicer.visited + (
            0 if analysis.exact else lattice.visited)
        results[name] = {
            "chains": chains,
            "length": length,
            "gate": gated,
            "lattice_visits": lattice.visited,
            "slice_visits": sliced_work,
            "lattice_s": round(walk_s, 6),
            "sliced_s": round(sliced_s, 6),
            "speedup": round(lattice.visited / sliced_work, 2),
        }
    return results


def run_serve_bench() -> Dict[str, dict]:
    """Warm-daemon resubmission vs the per-invocation engine path.

    Boots a real daemon (background thread, ephemeral port), submits
    the monitor bounded-buffer case cold, then resubmits it warm: the
    warm run answers from the hot resident state and the shared result
    cache -- no spec-plan compilation, no restriction checks.  The
    daemon's report signatures are asserted byte-identical to the
    one-shot engine's.  The rows gate on the daemon's work counters
    (:func:`in_run_misses`): the cold job checks each distinct
    computation once, and the warm job re-checks nothing and answers
    every run from resident outcomes (worker memo or shared cache).
    The wall-time ratios are context: dividing the one-shot time by a
    warm time that does not move, ``serve:warm`` falls with every
    one-shot speedup.
    """
    from .serve.daemon import start_in_thread
    from .serve.client import ServeClient
    from .serve.protocol import signature_json
    from .langs.monitor import (MonitorProgram, bounded_buffer_system,
                                monitor_program_spec)
    from .problems import bounded_buffer
    from .verify import verify_program

    system = bounded_buffer_system(capacity=2, items=(1, 2, 3))
    oneshot_s, report = _timed(lambda: verify_program(
        MonitorProgram(system),
        bounded_buffer.bounded_buffer_spec(2),
        bounded_buffer.monitor_correspondence("bb"),
        program_spec=monitor_program_spec(system)))

    handle = start_in_thread(jobs=1, job_workers=1)
    try:
        client = ServeClient(port=handle.port)
        spec = {"case": "monitor-bounded-buffer"}
        cold_s, cold = _timed(lambda: client.verify(spec, timeout=300))
        warm_s, warm = _timed(lambda: client.verify(spec, timeout=300))
    finally:
        handle.stop()

    expected = signature_json(report.signature())
    for label, snap in (("cold", cold), ("warm", warm)):
        assert snap["state"] == "done", f"{label} job ended {snap['state']}"
        assert snap["result"]["signature"] == expected, (
            f"serve: {label} daemon signature differs from the one-shot "
            f"engine's")
    cold_stats = cold["result"]["stats"]
    warm_stats = warm["result"]["stats"]
    return {
        "serve:cold": {
            "gate": False,
            "checks": cold_stats["checks_performed"],
            "distinct": cold_stats["distinct_computations"],
            "oneshot_s": round(oneshot_s, 6),
            "serve_s": round(cold_s, 6),
            "speedup": round(oneshot_s / cold_s, 2),
        },
        "serve:warm": {
            "gate": False,
            "checks": warm_stats["checks_performed"],
            # the resident worker's memo answers before the shared cache
            # does, so warm hits may be attributed to either counter
            "reused": warm_stats["cache_hits"] + warm_stats["dedupe_hits"],
            "runs": warm_stats["runs"],
            "oneshot_s": round(oneshot_s, 6),
            "serve_s": round(warm_s, 6),
            "speedup": round(oneshot_s / warm_s, 2),
        },
    }


#: Minimum full-vs-reduced schedule ratio for gated ``por:*`` rows.
POR_GATE_MIN = 3.0

#: (name, builder kind, gated).  The monitor rows run the ablation
#: (``eager_reductions=False``) configurations: with eager reductions
#: on, the monitor explorations are already canonical (runs == distinct
#: computations) and a sound POR has nothing to prune -- the
#: reduction's value shows on the raw interleaving explosion.  Sizes are
#: the largest whose *full* exploration stays in seconds.  db-update has
#: no eager reductions; its reduction is real but modest (delivers
#: commute only in the endgame), so it is reported, not gated.
POR_WORKLOADS: Tuple[Tuple[str, str, bool], ...] = (
    ("por:readers-writers", "rw", True),
    ("por:db-update", "db", False),
    ("por:one-slot-buffer", "osb", True),
    ("por:bounded-buffer", "bb", True),
)
QUICK_POR_WORKLOADS = POR_WORKLOADS[:2]


def _por_program(kind: str):
    from .langs.monitor import (MonitorProgram, bounded_buffer_system,
                                one_slot_buffer_system,
                                readers_writers_system)
    from .problems.db_update import DbUpdateProgram, standard_requests

    if kind == "db":
        return DbUpdateProgram(3, standard_requests(n_clients=2, n_sites=3))
    system = {
        "rw": lambda: readers_writers_system(1, 1),
        "osb": lambda: one_slot_buffer_system(items=(1, 2)),
        "bb": lambda: bounded_buffer_system(capacity=2, items=(1, 2)),
    }[kind]()
    return MonitorProgram(system, eager_reductions=False)


def run_por_bench(quick: bool = False,
                  max_runs: int = 200_000) -> Dict[str, dict]:
    """Full vs POR-reduced exploration: schedule counts and wall time.

    Asserts the soundness contract before reporting: the reduced
    exploration's computation-fingerprint set equals the full one's.
    A gated row's ratio must clear :data:`POR_GATE_MIN`.
    """
    from .engine.por import AmpleSelector
    from .sim.scheduler import explore

    workloads = QUICK_POR_WORKLOADS if quick else POR_WORKLOADS
    results: Dict[str, dict] = {}
    for name, kind, gated in workloads:
        full_s, full = _timed(lambda: list(
            explore(_por_program(kind), max_runs=max_runs)))
        selector = AmpleSelector()
        por_s, reduced = _timed(lambda: list(
            explore(_por_program(kind), max_runs=max_runs, por=selector)))
        full_fps = {r.computation.stable_fingerprint() for r in full}
        por_fps = {r.computation.stable_fingerprint() for r in reduced}
        assert full_fps == por_fps, (
            f"{name}: reduced fingerprint set differs from full")
        results[name] = {
            "gate": gated,
            "full_runs": len(full),
            "por_runs": len(reduced),
            "pruned_branches": selector.pruned,
            "full_s": round(full_s, 6),
            "por_s": round(por_s, 6),
            "speedup": round(len(full) / len(reduced), 2),
        }
    return results


def _dfa_row(program: Callable[[], object], spec, correspondence) -> dict:
    """``verify_program`` with the exploration monitor off, then on.

    The signatures must be equal and the verdict a failure (both
    workloads violate their □).  The gated ``speedup`` is the backend
    restriction decisions (slice hits and fallbacks) without the
    monitor over the monitor's probes plus the backend decisions left
    with it: what the monitor's early verdicts save, net of what they
    cost.
    """
    from .verify import verify_program

    nodfa_s, off = _timed(lambda: verify_program(
        program(), spec, correspondence, dfa=False))
    dfa_s, on = _timed(lambda: verify_program(
        program(), spec, correspondence, dfa=True))
    assert off.signature() == on.signature(), (
        "report signature differs with the monitor on")
    assert not on.ok, "the violating workload verified"
    nodfa, dfa = off.engine_stats, on.engine_stats
    nodfa_decisions = nodfa.slice_hits + nodfa.slice_fallbacks
    dfa_decisions = dfa.slice_hits + dfa.slice_fallbacks
    return {
        "gate": True,
        "cuts": dfa.dfa_cuts,
        "probes": dfa.dfa_probes,
        "nodfa_decisions": nodfa_decisions,
        "dfa_decisions": dfa_decisions,
        "nodfa_s": round(nodfa_s, 6),
        "dfa_s": round(dfa_s, 6),
        "speedup": round(
            nodfa_decisions / (dfa.dfa_probes + dfa_decisions), 2),
    }


def run_dfa_bench(quick: bool = False) -> Dict[str, dict]:
    """Restriction-automata rows (:mod:`repro.core.automata`, S11).

    ``dfa:early-violation`` -- the ring mark-budget workload
    (:mod:`repro.problems.ring`): every branch violates the cubic □
    within a handful of steps, so the monitor decides whole subtrees
    from tiny prefixes and the per-computation check skips the walk.

    ``dfa:noeager`` (full mode only) -- the same restriction on the
    mutant ``monitor-tally-mesa`` catalog case without eager
    reductions.  Both rows are :func:`_dfa_row`; the monitor must cut a
    branch (:func:`in_run_misses`).
    """
    from .problems.ring import (RingProgram, mark_correspondence, ring_spec,
                                tally_spec)

    results = {"dfa:early-violation": _dfa_row(
        lambda: RingProgram(workers=2, rounds=4), ring_spec(),
        mark_correspondence())}
    if not quick:
        from .langs.monitor import MonitorProgram, tally_system

        results["dfa:noeager"] = _dfa_row(
            lambda: MonitorProgram(tally_system(2, 3, mutant=True),
                                   eager_reductions=False,
                                   semantics="mesa"),
            tally_spec(2), mark_correspondence())
    return results


#: Minimum memoised-search-vs-brute-force *work* ratio (permutations
#: examined by the oracle / states expanded by the search) for the
#: gated ``objects:witness-*`` rows.  The memoised witness search is
#: exponential in operations where the permutation oracle is factorial,
#: so on the 8-operation bench histories the gap is two to three orders
#: of magnitude; the floor only guards against the search degenerating
#: into the oracle it is supposed to dominate.
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


def run_objects_bench(quick: bool = False) -> Dict[str, dict]:
    """Consistency-checking benchmarks (S12, ``docs/OBJECTS.md``).

    ``objects:witness-*`` (gated): the production memoised witness
    search (:func:`repro.verify.consistency.linearizable`) against the
    brute-force permutation oracle on a pinned seeded 8-operation
    history.  Verdict equality is asserted, and the gated ``speedup``
    is the work ratio -- permutations examined by the oracle over
    states expanded by the search -- which must clear
    :data:`OBJECTS_GATE_MIN`.

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
        mark = decider_work()
        search_s, fast = _timed(lambda: linearizable(history))
        brute_s, slow = _timed(lambda: brute_force_linearizable(history))
        work = decider_work()
        assert fast == slow, (
            f"{name}: witness search says {fast}, brute force says {slow}")
        assert not slow, (
            f"{name}: pinned history became linearizable; the brute-force "
            f"side would exit early and the ratio would be meaningless")
        search_nodes = work["search_nodes"] - mark["search_nodes"]
        brute_perms = work["brute_perms"] - mark["brute_perms"]
        results[name] = {
            "gate": True,
            "ops": len(history.ops),
            "search_nodes": search_nodes,
            "brute_perms": brute_perms,
            "brute_s": round(brute_s, 6),
            "search_s": round(search_s, 6),
            "speedup": round(brute_perms / search_nodes, 2),
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

        verify_s, _ = _timed(verify_all)
        results["objects:verify-catalog"] = {
            "gate": False,
            "cases": 4,
            "verify_s": round(verify_s, 6),
        }
    return results


#: In-run floors on gated work ratios, by row-name prefix.
WORK_FLOORS = {"por:": POR_GATE_MIN, "objects:witness-": OBJECTS_GATE_MIN}


def in_run_misses(name: str, row: dict) -> List[str]:
    """A row's in-run work checks, bound on every run whatever the
    baseline says: one message per miss, read off the work counts the
    row records."""
    misses: List[str] = []
    for prefix, minimum in WORK_FLOORS.items():
        if name.startswith(prefix) and row["gate"] and (
                row["speedup"] < minimum):
            misses.append(f"work ratio {row['speedup']}x is below the "
                          f"{minimum:g}x floor")
    if name.startswith("dfa:") and not row["cuts"]:
        misses.append("the monitor cut no branches")
    if name == "serve:cold" and row["checks"] != row["distinct"]:
        misses.append(f"checked {row['checks']} time(s) for "
                      f"{row['distinct']} distinct computation(s)")
    if name == "serve:warm":
        if row["checks"]:
            misses.append(f"re-checked {row['checks']} computation(s)")
        if row["reused"] != row["runs"]:
            misses.append(f"answered {row['reused']} of {row['runs']} "
                          f"run(s) from resident outcomes")
    return misses


def gate_misses(results: Dict[str, dict], baseline: Optional[dict],
                complete: bool,
                tolerance: float = GATE_TOLERANCE) -> List[str]:
    """Every gate miss of a run, as ``REGRESSION:`` message bodies.

    Each row's in-run work checks; each gated row whose ratio lost more
    than ``tolerance`` of its baseline ratio; and, when the run is
    ``complete`` (full, unfiltered), each gated baseline row the run
    did not produce.
    """
    misses: List[str] = []
    base_rows = (baseline or {}).get("workloads", {})
    for name, row in results.items():
        misses += [f"{name}: {miss}" for miss in in_run_misses(name, row)]
        base = base_rows.get(name)
        if not row["gate"] or base is None or "speedup" not in base:
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if row["speedup"] < floor:
            misses.append(
                f"{name}: speedup {row['speedup']}x is more than "
                f"{tolerance:.0%} below the baseline {base['speedup']}x "
                f"(floor {floor:.2f}x)")
    if complete:
        misses += [f"{name}: gated in the baseline but not produced"
                   for name, base in base_rows.items()
                   if base.get("gate") and name not in results]
    return misses


def _suite_selected(only: Optional[str], prefix: str) -> bool:
    """Whether a row-name filter can match rows from this suite."""
    return only is None or prefix.startswith(only) or only.startswith(prefix)


def _row_line(name: str, row: dict) -> str:
    """One printed row: its work, its wall-time context, its ratio."""
    if "full_runs" in row:
        body = (f"full {row['full_runs']} runs ({row['full_s']:.4f}s)   "
                f"por {row['por_runs']} runs ({row['por_s']:.4f}s)   "
                f"reduction {row['speedup']}x")
    elif "sliced_s" in row:
        body = (f"walked {row['lattice_visits']} visits "
                f"({row['lattice_s']:.4f}s)   sliced {row['slice_visits']} "
                f"steps ({row['sliced_s']:.4f}s)   "
                f"work ratio {row['speedup']}x")
    elif "serve_s" in row:
        work = (f"{row['checks']} check(s), {row['reused']}/{row['runs']} "
                f"run(s) reused" if "runs" in row else
                f"{row['checks']} check(s) for {row['distinct']} distinct")
        body = (f"one-shot {row['oneshot_s']:.4f}s   daemon "
                f"{row['serve_s']:.4f}s ({work})   "
                f"speedup {row['speedup']}x")
    elif "nodfa_s" in row:
        body = (f"no-dfa {row['nodfa_decisions']} decisions "
                f"({row['nodfa_s']:.4f}s)   dfa {row['probes']} probes + "
                f"{row['dfa_decisions']} decisions ({row['dfa_s']:.4f}s, "
                f"{row['cuts']} cut(s))   work ratio {row['speedup']}x")
    elif "brute_s" in row:
        body = (f"brute-force {row['brute_perms']} perms "
                f"({row['brute_s']:.4f}s)   search {row['search_nodes']} "
                f"nodes ({row['search_s']:.6f}s, {row['ops']} op(s))   "
                f"work ratio {row['speedup']}x")
    else:
        body = f"verified {row['cases']} case(s) in {row['verify_s']:.4f}s"
    # every row says whether its ratio participates in the baseline gate
    return f"{name:18s} {body}   {'[gated]' if row['gate'] else '[info]'}"


def run_bench(quick: bool = False, json_path: Optional[str] = None,
              baseline_path: Optional[str] = None,
              only: Optional[str] = None, out=sys.stdout) -> int:
    """The ``repro bench`` entry point (also used by CI bench-gate).

    ``only`` restricts the run to rows whose name starts with that
    prefix (``--only por``, ``--only dfa:noeager``); suites that cannot
    produce a matching row are skipped entirely, and rows the filter
    hides are neither printed nor gated.  Every row is printed before
    any ``REGRESSION:`` line.  With ``json_path`` a full unfiltered run
    replaces the file; a ``--quick`` or ``--only`` run merges the rows
    it ran into the file's existing ``workloads``, and the file's other
    rows and its header keep their recorded values.
    """
    results: Dict[str, dict] = {}
    if _suite_selected(only, "slice:"):
        results.update(run_slice_bench(quick=quick))
    if not quick and _suite_selected(only, "serve:"):
        results.update(run_serve_bench())
    if _suite_selected(only, "por:"):
        results.update(run_por_bench(quick=quick))
    if _suite_selected(only, "dfa:"):
        results.update(run_dfa_bench(quick=quick))
    if _suite_selected(only, "objects:"):
        results.update(run_objects_bench(quick=quick))
    if only is not None:
        results = {name: row for name, row in results.items()
                   if name.startswith(only)}
        if not results:
            print(f"no bench rows match --only {only!r}", file=out)
            return 2
    for name, row in results.items():
        print(_row_line(name, row), file=out)
    n_gated = sum(1 for row in results.values() if row["gate"])
    print(f"{n_gated} gated workload(s), "
          f"{len(results) - n_gated} informational", file=out)

    # gate before (over)writing, so a regressing run never replaces the
    # baseline it failed against
    baseline_file = baseline_path or json_path
    baseline = None
    if baseline_file is not None and os.path.exists(baseline_file):
        with open(baseline_file) as fh:
            baseline = json.load(fh)
    partial = quick or only is not None
    misses = gate_misses(results, baseline, complete=not partial)
    for message in misses:
        print(f"REGRESSION: {message}", file=out)
    if misses:
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
        if partial and os.path.exists(json_path):
            # a partial run replaces only the rows it ran: every other
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
