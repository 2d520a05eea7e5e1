"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``verify <case>`` -- run one of the paper's verification cases
  (language × problem, plus the distributed ``db_update`` application)
  over all bounded executions and print the report; ``--mutant`` runs
  the negative control; ``--jobs N`` fans the engine out across N
  worker processes, ``--cache DIR`` makes repeat verifications
  incremental, ``--stats`` prints engine observability, ``--trace
  FILE`` writes the whole verification as a JSONL span trace
  (:mod:`repro.obs`; identical span structure for every ``--jobs``),
  ``--no-por`` disables the ample-set partial-order reduction and
  expands every interleaving (same verdicts either way;
  docs/ENGINE.md), ``--no-dfa`` disables the exploration-time
  restriction-automata monitor and never cuts doomed branches early
  (same verdicts either way; docs/PERF.md).  Every check takes the
  checker's one ``auto`` route chain -- DFA leaf, slice,
  interpreter -- so no flag selects a checking route;
* ``list`` -- list the available cases (``--json`` adds language and
  mutant-availability metadata, the same body the serve daemon's
  ``GET /cases`` returns);
* ``dot <case>`` -- print one execution of a case as Graphviz DOT;
* ``lattice`` -- print the Section 7 diamond's history lattice as DOT;
* ``examples`` -- print the paper's two inline worked examples
  (the §4 access table and the §7 history/vhs counts);
* ``fuzz`` -- run the generative differential tester
  (:mod:`repro.fuzz`): seeded random computations, formulas, and
  programs against the metamorphic oracle suite, shrinking any failure
  to a runnable pytest repro (see docs/FUZZING.md); also ``--trace``;
* ``profile <trace.jsonl>`` -- validate a written trace and print
  per-phase/per-span timings, top restrictions by evaluation cost, and
  worker utilisation (see docs/OBSERVABILITY.md);
* ``bench`` -- slice, serve, POR, DFA-monitor and consistency
  benchmarks with a JSON baseline and a ratio regression gate (``--json``
  writes/gates against ``BENCH_checker.json``; see docs/PERF.md);
* ``serve`` -- run the resident verification daemon (:mod:`repro.serve`:
  fork-once worker pool, shared result cache, JSON-over-HTTP API,
  Prometheus ``/metrics`` + ``/healthz`` + ``/readyz``, and -- unless
  ``--no-history`` -- a run-history row per completed job;
  see docs/SERVICE.md and docs/TELEMETRY.md);
* ``submit`` -- send one case to a running daemon and print its report
  summary (exit codes mirror ``verify``);
* ``history`` -- analyse the persistent run history
  (:mod:`repro.obs.runhistory`): ``list``/``show`` browse recorded
  runs, ``trends`` summarises per-(case, flags) timing, and
  ``regressions`` exits non-zero when the latest run of any series is
  slower (or prunes worse) than its median-of-last-N baseline beyond
  ``--tolerance`` -- CI consumes it directly;
* ``top`` -- live text dashboard over a running daemon's ``/metrics``,
  ``/stats`` and ``/jobs`` (``--once`` prints a single frame).

The CLI is a thin veneer over the library; every command's work is one
or two public API calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class CaseEntry:
    """One catalog case: metadata plus the workload factory.

    ``has_mutant`` records whether ``--mutant`` actually changes the
    workload (some CSP/Ada factories accept the flag but have no
    negative control); ``repro list --json`` and the daemon's ``GET
    /cases`` both report it so clients do not submit no-op mutants.
    """

    name: str
    language: str
    has_mutant: bool
    factory: Callable


def _case_language(name: str) -> str:
    for prefix in ("monitor", "csp", "ada", "objects"):
        if name.startswith(prefix + "-"):
            return prefix
    return "distributed"


#: Cases whose factory ignores the mutant flag (no negative control).
_NO_MUTANT = frozenset({
    "csp-one-slot-buffer", "ada-one-slot-buffer",
    "csp-bounded-buffer", "ada-bounded-buffer",
    "objects-counter",
})


def case_catalog() -> Dict[str, CaseEntry]:
    """The verification-case catalog with metadata, in stable order.

    This is the single source the CLI, the serve daemon's ``/cases``
    endpoint, and resident workers (rebuilding workloads from
    :class:`repro.engine.CaseRef` names) all resolve cases through.
    """
    return {
        name: CaseEntry(name=name, language=_case_language(name),
                        has_mutant=name not in _NO_MUTANT, factory=factory)
        for name, factory in _build_cases().items()
    }


def _build_cases() -> Dict[str, Callable]:
    """case name -> factory() returning (program, problem_spec,
    correspondence, program_spec)."""
    from .langs.ada import (
        AdaProgram,
        ada_program_spec,
        bounded_buffer_ada_system,
        one_slot_buffer_ada_system,
        rw_ada_system,
    )
    from .langs.csp import (
        CspProgram,
        bounded_buffer_csp_system,
        csp_program_spec,
        one_slot_buffer_csp_system,
        rw_csp_system,
    )
    from .langs.monitor import (
        MonitorProgram,
        bounded_buffer_system,
        monitor_program_spec,
        one_slot_buffer_monitor_unguarded,
        one_slot_buffer_system,
        readers_writers_monitor_writers_first,
        readers_writers_system,
        tally_system,
    )
    from .problems import bounded_buffer, one_slot_buffer, readers_writers, ring
    from .problems.objects import object_case
    from .problems.db_update import (
        DbUpdateProgram,
        db_update_spec,
        identity_correspondence,
        standard_requests,
    )

    def monitor_rw(mutant: bool):
        monitor = readers_writers_monitor_writers_first() if mutant else None
        system = readers_writers_system(1, 2, monitor=monitor)
        users = [c.name for c in system.callers]
        return (MonitorProgram(system),
                readers_writers.rw_problem_spec(users,
                                                variant="readers-priority"),
                readers_writers.monitor_correspondence("rw"),
                None if mutant else monitor_program_spec(system))

    def csp_rw(mutant: bool):
        system = rw_csp_system(1, 2, writers_first=mutant)
        readers, writers = ["reader1"], ["writer1", "writer2"]
        return (CspProgram(system),
                readers_writers.rw_problem_spec(readers + writers,
                                                variant="readers-priority"),
                readers_writers.csp_correspondence(readers, writers),
                None if mutant else csp_program_spec(system))

    def ada_rw(mutant: bool):
        system = rw_ada_system(1, 2, writers_first=mutant)
        users = ["reader1", "writer1", "writer2"]
        return (AdaProgram(system),
                readers_writers.rw_problem_spec(users,
                                                variant="readers-priority"),
                readers_writers.ada_correspondence(),
                None if mutant else ada_program_spec(system))

    def monitor_osb(mutant: bool):
        monitor = one_slot_buffer_monitor_unguarded() if mutant else None
        system = one_slot_buffer_system(items=(1, 2, 3), monitor=monitor)
        return (MonitorProgram(system),
                one_slot_buffer.one_slot_buffer_spec(),
                one_slot_buffer.monitor_correspondence("osb"),
                None if mutant else monitor_program_spec(system))

    def csp_osb(mutant: bool):
        system = one_slot_buffer_csp_system(items=(1, 2, 3))
        return (CspProgram(system),
                one_slot_buffer.one_slot_buffer_spec(temporal_safety=False),
                one_slot_buffer.csp_correspondence(),
                csp_program_spec(system))

    def ada_osb(mutant: bool):
        system = one_slot_buffer_ada_system(items=(1, 2, 3))
        return (AdaProgram(system),
                one_slot_buffer.one_slot_buffer_spec(),
                one_slot_buffer.ada_correspondence(),
                ada_program_spec(system))

    def monitor_bb(mutant: bool):
        system = bounded_buffer_system(capacity=2, items=(1, 2, 3))
        claimed = 1 if mutant else 2
        return (MonitorProgram(system),
                bounded_buffer.bounded_buffer_spec(claimed),
                bounded_buffer.monitor_correspondence("bb"),
                None if mutant else monitor_program_spec(system))

    def csp_bb(mutant: bool):
        system = bounded_buffer_csp_system(capacity=2, items=(1, 2, 3))
        return (CspProgram(system),
                bounded_buffer.bounded_buffer_spec(2, temporal_safety=False),
                bounded_buffer.csp_correspondence(),
                csp_program_spec(system))

    def ada_bb(mutant: bool):
        system = bounded_buffer_ada_system(capacity=2, items=(1, 2, 3))
        return (AdaProgram(system),
                bounded_buffer.bounded_buffer_spec(2),
                bounded_buffer.ada_correspondence(),
                ada_program_spec(system))

    def monitor_tally(mutant: bool):
        # Mesa semantics without eager reductions: the monitor-lock
        # interleavings stay in the tree, and the mutant's duplicate
        # mark stamps break the mark budget in every branch within a
        # few steps -- the automaton monitor's (--dfa) showcase
        system = tally_system(2, 3, mutant=mutant)
        return (MonitorProgram(system, eager_reductions=False,
                               semantics="mesa"),
                ring.tally_spec(2),
                ring.mark_correspondence(),
                None if mutant else monitor_program_spec(system))

    def db_update(mutant: bool):
        # the paper's distributed-database application; the mutant loses
        # broadcasts, so full-propagation (and convergence) fail
        requests = standard_requests(n_clients=2, updates_per_client=2,
                                     n_sites=2)
        return (DbUpdateProgram(2, requests, lossy=mutant),
                db_update_spec(2, requests),
                identity_correspondence(2, requests),
                None)

    def objects_factory(object_type: str):
        # distributed-object workloads: linearizability / sequential
        # consistency decided as projection properties; the mutants are
        # the planted non-linearizable faults (stale read, dropped
        # dequeue, double acquire).  The counter has no negative
        # control, so per the _NO_MUTANT contract its factory ignores
        # the flag (object_program itself rejects unknown mutants).
        from .problems.objects import MUTANTS

        def factory(mutant: bool):
            return object_case(object_type,
                               mutant=mutant and object_type in MUTANTS)
        return factory

    return {
        "monitor-readers-writers": monitor_rw,
        "csp-readers-writers": csp_rw,
        "ada-readers-writers": ada_rw,
        "monitor-one-slot-buffer": monitor_osb,
        "csp-one-slot-buffer": csp_osb,
        "ada-one-slot-buffer": ada_osb,
        "monitor-bounded-buffer": monitor_bb,
        "monitor-tally-mesa": monitor_tally,
        "csp-bounded-buffer": csp_bb,
        "ada-bounded-buffer": ada_bb,
        "db_update": db_update,
        "objects-register": objects_factory("register"),
        "objects-queue": objects_factory("queue"),
        "objects-lock": objects_factory("lock"),
        "objects-counter": objects_factory("counter"),
    }


def cmd_list(args) -> int:
    catalog = case_catalog()
    if getattr(args, "json", False):
        from .serve.protocol import catalog_entries

        print(json.dumps({"cases": catalog_entries()}, indent=2,
                         sort_keys=True))
        return 0
    for name in sorted(catalog):
        print(name)
    return 0


def cmd_verify(args) -> int:
    import time

    from .verify import verify_program

    cases = _build_cases()
    if args.case not in cases:
        print(f"unknown case {args.case!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    program, spec, correspondence, program_spec = cases[args.case](args.mutant)
    started = time.perf_counter()
    report = verify_program(program, spec, correspondence,
                            program_spec=program_spec,
                            jobs=args.jobs, cache_dir=args.cache,
                            tracer=tracer, por=args.por, dfa=args.dfa)
    wall_s = time.perf_counter() - started
    print(report.summary())
    if args.history:
        from .obs import RunHistory, record_report

        run_id = record_report(
            RunHistory(args.history), source="cli", case=args.case,
            flags={"jobs": args.jobs, "por": args.por, "dfa": args.dfa,
                   "mutant": args.mutant},
            report=report, wall_s=wall_s)
        print(f"history: run #{run_id} recorded in {args.history}")
    if args.stats and report.engine_stats is not None:
        print(report.engine_stats.describe())
    if (args.witness or args.witness_dot) and not report.ok:
        _print_witness(program, spec, correspondence, report, tracer,
                       dot_file=args.witness_dot)
    if args.trace:
        from .obs import write_trace

        metrics = (report.engine_stats.metrics
                   if report.engine_stats is not None else None)
        n = write_trace(args.trace, tracer, metrics)
        print(f"trace: {n} record(s) written to {args.trace}")
    if args.mutant:
        return 0 if not report.ok else 1
    return 0 if report.ok else 1


def _print_witness(program, spec, correspondence, report, tracer=None,
                   dot_file=None) -> int:
    """Extract and print a counterexample for the first failed verdict.

    The failing run is *replayed* from the engine's recorded choice
    sequence (``report.failing_run_choices``) rather than re-exploring
    every run to reach its index; re-exploration remains as the
    fallback for reports without provenance.  With a tracer the replay
    is recorded as a ``witness-replay`` span and the checker attaches a
    subformula explanation trace; ``dot_file`` additionally writes the
    explanation's Graphviz rendering.
    """
    from .core.witness import descend
    from .obs import NULL_TRACER, ExplanationTrace
    from .sim import explore
    from .sim.scheduler import replay_prefix
    from .verify import project

    tracer = tracer or NULL_TRACER
    failing = [v for v in report.verdicts.values() if not v.holds]
    if not failing:
        return 0
    verdict = failing[0]
    run_index = verdict.failing_runs[0]
    restriction = spec.restriction(verdict.name)
    with tracer.span("witness-replay",
                     attrs={"restriction": verdict.name}) as span:
        choices = report.failing_run_choices.get(run_index)
        if choices is not None:
            computation = replay_prefix(program, choices).computation()
            span.set_meta(replayed=True, choices=len(choices))
        else:
            computation = None
            for i, run in enumerate(explore(program)):
                if i == run_index:
                    computation = run.computation
                    break
            span.set_meta(replayed=False)
            if computation is None:
                return 0
        projected = spec.label_threads(
            project(computation, correspondence))
        found = descend(projected, restriction)
        witness = explanation = None
        if found is not None:
            witness = found[1]
            if tracer.enabled or dot_file:
                explanation = ExplanationTrace.of(restriction, found)
                tracer.add_explanation(explanation.to_record())
    print(f"\ncounterexample for {verdict.name!r} (run {run_index}):")
    if witness is None:
        print("  (witness search did not localise the failure)")
    else:
        for line in witness.describe().splitlines():
            print("  " + line)
    if explanation is not None:
        print()
        print(explanation.render_text())
        if dot_file:
            with open(dot_file, "w", encoding="utf-8") as fh:
                fh.write(explanation.to_dot() + "\n")
            print(f"explanation DOT written to {dot_file}")
    return 0


def cmd_dot(args) -> int:
    from .core.dot import computation_to_dot
    from .sim import run_random

    cases = _build_cases()
    if args.case not in cases:
        print(f"unknown case {args.case!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    program, _spec, _corr, _pspec = cases[args.case](False)
    run = run_random(program, seed=args.seed)
    print(computation_to_dot(run.computation, title=args.case,
                             show_params=args.params))
    return 0


def cmd_lattice(_args) -> int:
    from .core import ComputationBuilder
    from .core.dot import history_lattice_to_dot

    b = ComputationBuilder()
    e1 = b.add_event("E1", "A")
    e2 = b.add_event("E2", "A")
    e3 = b.add_event("E3", "A")
    e4 = b.add_event("E4", "A")
    b.add_enable(e1, e2)
    b.add_enable(e1, e3)
    b.add_enable(e2, e4)
    b.add_enable(e3, e4)
    print(history_lattice_to_dot(b.freeze(), title="section-7"))
    return 0


def cmd_examples(_args) -> int:
    from .core import (
        ComputationBuilder,
        GroupDecl,
        GroupStructure,
        all_histories,
        count_maximal_history_sequences,
    )

    structure = GroupStructure(
        [f"EL{i}" for i in range(1, 7)],
        [
            GroupDecl.make("G1", ["EL2", "EL3"]),
            GroupDecl.make("G2", ["EL4", "EL5"]),
            GroupDecl.make("G3", ["EL3", "EL4"]),
            GroupDecl.make("G4", ["EL1"]),
        ],
    )
    print("Section 4 allowed communications:")
    for src, dsts in structure.access_table().items():
        print(f"  {src}: {', '.join(sorted(dsts))}")

    b = ComputationBuilder()
    e1 = b.add_event("E1", "A")
    e2 = b.add_event("E2", "A")
    e3 = b.add_event("E3", "A")
    e4 = b.add_event("E4", "A")
    b.add_enable(e1, e2)
    b.add_enable(e1, e3)
    b.add_enable(e2, e4)
    b.add_enable(e3, e4)
    comp = b.freeze()
    print("\nSection 7 diamond:")
    print(f"  non-empty histories: "
          f"{len(all_histories(comp, include_empty=False))} (paper: 5)")
    print(f"  valid history sequences: "
          f"{count_maximal_history_sequences(comp, max_step=None)} "
          "(paper: 3)")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, oracle_names, run_fuzz

    known = oracle_names()
    selected = tuple(args.oracle) if args.oracle else None
    if selected:
        unknown = [n for n in selected if n not in known]
        if unknown:
            print(f"unknown oracle(s) {unknown}; known: {list(known)}",
                  file=sys.stderr)
            return 2
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        oracles=selected,
        jobs=args.jobs,
        shrink=not args.no_shrink,
    )
    tracer = metrics = None
    if args.trace:
        from .obs import MetricsRegistry, Tracer

        tracer, metrics = Tracer(), MetricsRegistry()
    failures, stats = run_fuzz(config, tracer=tracer, metrics=metrics)
    if args.trace:
        from .obs import write_trace

        n = write_trace(args.trace, tracer, metrics)
        print(f"trace: {n} record(s) written to {args.trace}")
    print(stats.describe())
    for failure in failures:
        print()
        print(failure.describe())
        print("--- repro snippet " + "-" * 50)
        print(failure.snippet, end="")
        print("-" * 68)
    return 1 if failures else 0


def cmd_profile(args) -> int:
    from .obs import load_trace, render_profile

    data = load_trace(args.trace, strict=args.strict)
    print(render_profile(data, top=args.top))
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench

    return run_bench(quick=args.quick, json_path=args.json,
                     baseline_path=args.baseline, only=args.only)


def cmd_serve(args) -> int:
    from .obs.runhistory import DEFAULT_HISTORY_DB
    from .serve import run_daemon

    history_db = (None if args.no_history
                  else (args.history_db or DEFAULT_HISTORY_DB))
    return run_daemon(host=args.host, port=args.port, jobs=args.jobs,
                      cache_dir=args.cache_dir,
                      cache_bytes=args.cache_mb << 20,
                      job_workers=args.job_workers,
                      history_db=history_db)


def cmd_submit(args) -> int:
    from .serve import ServeClient
    from .serve.client import ServeError

    spec: Dict[str, object] = {"case": args.case}
    if args.mutant:
        spec["mutant"] = True
    if args.jobs != 1:
        spec["jobs"] = args.jobs
    if not args.por:
        spec["por"] = False
    if not args.dfa:
        spec["dfa"] = False
    if args.history_cap is not None:
        spec["history_cap"] = args.history_cap

    client = ServeClient(args.host, args.port)
    try:
        (job_id,) = client.submit(spec)
        if args.no_wait:
            print(job_id)
            return 0
        snap = client.wait(job_id, timeout=args.timeout)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot reach daemon at "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    if snap["state"] != "done":
        print(f"job {job_id}: {snap['state']}"
              + (f" ({snap['error']})" if snap.get("error") else ""),
              file=sys.stderr)
        return 2
    result = snap["result"]
    print(result["summary"])
    if args.signature:
        print(json.dumps(result["signature"]))
    if args.stats:
        print(json.dumps(result["stats"], indent=2, sort_keys=True))
    ok = result["ok"]
    if args.mutant:
        return 0 if not ok else 1
    return 0 if ok else 1


def cmd_history(args) -> int:
    import os

    from .obs import RunHistory, parse_tolerance
    from .obs.runhistory import render_list, render_show, render_trends

    if not os.path.exists(args.db):
        print(f"error: history db {args.db!r} does not exist "
              "(run with --history, or point --db at the daemon's)",
              file=sys.stderr)
        return 2
    history = RunHistory(args.db)
    if args.history_command == "list":
        print(render_list(history.runs(case=args.case, limit=args.limit)))
        return 0
    if args.history_command == "show":
        row = history.run(args.run_id)
        if row is None:
            print(f"error: no run #{args.run_id} in {args.db}",
                  file=sys.stderr)
            return 2
        print(render_show(row))
        return 0
    if args.history_command == "trends":
        print(render_trends(history.trends(case=args.case,
                                           window=args.window)))
        return 0
    # regressions: the CI gate -- non-zero exit when anything regressed
    found = history.regressions(case=args.case,
                                baseline_runs=args.window,
                                tolerance=parse_tolerance(args.tolerance))
    for regression in found:
        print(f"REGRESSION: {regression.describe()}")
    series = len(history.trends(case=args.case))
    if found:
        print(f"{len(found)} regression(s) across {series} series")
        return 1
    print(f"no regressions across {series} series")
    return 0


def cmd_top(args) -> int:
    from .obs import run_top

    return run_top(host=args.host, port=args.port,
                   interval=args.interval, once=args.once)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GEM (Lansky & Owicki 1983) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list verification cases")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable catalog (name, language, "
                             "mutant availability; same body as the serve "
                             "daemon's GET /cases)")

    p_verify = sub.add_parser("verify", help="run a verification case")
    p_verify.add_argument("case")
    p_verify.add_argument("--mutant", action="store_true",
                          help="run the case's negative control")
    p_verify.add_argument("--witness", action="store_true",
                          help="on failure, print a counterexample")
    p_verify.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for the verification "
                               "engine (default 1 = serial)")
    p_verify.add_argument("--cache", default=None, metavar="DIR",
                          help="persistent result-cache directory "
                               "(re-verification becomes incremental)")
    p_verify.add_argument("--stats", action="store_true",
                          help="print engine statistics (shards, dedupe "
                               "ratio, cache hits, phase times)")
    p_verify.add_argument("--trace", default=None, metavar="FILE",
                          help="write a JSONL span trace of the whole "
                               "verification (schema-versioned; analyse "
                               "with 'repro profile FILE')")
    p_verify.add_argument("--witness-dot", default=None, metavar="FILE",
                          help="on failure, write the failure-explanation "
                               "trace as Graphviz DOT (implies the witness "
                               "replay)")
    p_verify.add_argument("--por", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="ample-set partial-order reduction of the "
                               "exploration (default on; --no-por explores "
                               "every interleaving -- same verdicts and "
                               "witnesses, larger run census)")
    p_verify.add_argument("--dfa", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="restriction-automata monitor: cut doomed "
                               "branches early during exploration "
                               "(default on; --no-dfa checks every "
                               "computation in full -- same verdicts "
                               "and witnesses either way; docs/PERF.md)")
    p_verify.add_argument("--history", nargs="?", metavar="DB",
                          const="repro_history.sqlite", default=None,
                          help="record this run in the persistent run "
                               "history (default file: "
                               "repro_history.sqlite; analyse with "
                               "'repro history'; docs/TELEMETRY.md)")

    p_dot = sub.add_parser("dot", help="print one execution as DOT")
    p_dot.add_argument("case")
    p_dot.add_argument("--seed", type=int, default=0)
    p_dot.add_argument("--params", action="store_true",
                       help="show event parameters in labels")

    sub.add_parser("lattice", help="print the §7 history lattice as DOT")
    sub.add_parser("examples", help="print the paper's inline examples")

    p_fuzz = sub.add_parser(
        "fuzz", help="run the generative differential tester")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; every artifact's seed token is "
                             "derived from it (default 0)")
    p_fuzz.add_argument("--iterations", type=int, default=200, metavar="N",
                        help="total iterations, round-robin over the "
                             "selected oracles (default 200)")
    p_fuzz.add_argument("--oracle", action="append", metavar="NAME",
                        help="run only this oracle (repeatable; "
                             "default: all)")
    p_fuzz.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="worker processes for the engine-differential "
                             "oracle's parallel pipeline (default 2)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimising them")
    p_fuzz.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL span trace of the fuzz run")

    p_profile = sub.add_parser(
        "profile", help="analyse a JSONL trace written by --trace")
    p_profile.add_argument("trace", metavar="TRACE.jsonl")
    p_profile.add_argument("--top", type=int, default=10, metavar="N",
                           help="rows per ranking table (default 10)")
    p_profile.add_argument("--strict", action="store_true",
                           help="reject a truncated or corrupt stream "
                                "outright instead of profiling its valid "
                                "prefix with a warning (a stream with no "
                                "valid header is always rejected)")

    p_bench = sub.add_parser(
        "bench", help="slice/serve/POR/DFA/objects benchmarks with a "
                      "regression gate (docs/PERF.md)")
    p_bench.add_argument("--quick", action="store_true",
                         help="small workloads only, skip the serve "
                              "bench")
    p_bench.add_argument("--json", nargs="?", const="BENCH_checker.json",
                         default=None, metavar="FILE",
                         help="write results as JSON (default file: "
                              "BENCH_checker.json); an existing file is "
                              "the regression baseline first, and a --quick "
                              "or --only run replaces just the rows it ran")
    p_bench.add_argument("--baseline", default=None, metavar="FILE",
                         help="gate against this baseline instead of the "
                              "--json target")
    p_bench.add_argument("--only", default=None, metavar="PREFIX",
                         help="run only rows whose name starts with this "
                              "prefix (e.g. 'por', 'dfa:noeager')")

    p_serve = sub.add_parser(
        "serve", help="run the verification daemon (docs/SERVICE.md)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="resident worker processes, forked once at "
                              "startup (default 2)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persist the shared result cache here "
                              "(default: memory only)")
    p_serve.add_argument("--cache-mb", type=int, default=32, metavar="MB",
                         help="shared result-cache LRU byte budget "
                              "(default 32)")
    p_serve.add_argument("--job-workers", type=int, default=2, metavar="N",
                         help="verifications run concurrently (default 2)")
    p_serve.add_argument("--history-db", default=None, metavar="DB",
                         help="record one run-history row per completed "
                              "job here (default: repro_history.sqlite)")
    p_serve.add_argument("--no-history", action="store_true",
                         help="do not record run history")

    p_submit = sub.add_parser(
        "submit", help="submit a case to a running serve daemon")
    p_submit.add_argument("case")
    p_submit.add_argument("--mutant", action="store_true",
                          help="run the case's negative control")
    p_submit.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="shard fan-out for this job (default 1)")
    p_submit.add_argument("--por", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="partial-order reduction (default on)")
    p_submit.add_argument("--dfa", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="restriction-automata monitor (default "
                               "on)")
    p_submit.add_argument("--history-cap", type=int, default=None,
                          metavar="N", help="history-lattice size cap")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8642)
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the job id and exit (poll with "
                               "GET /jobs/<id>)")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          metavar="SECONDS",
                          help="--wait deadline (default 300)")
    p_submit.add_argument("--signature", action="store_true",
                          help="also print the report signature as JSON")
    p_submit.add_argument("--stats", action="store_true",
                          help="also print engine counters as JSON")

    p_history = sub.add_parser(
        "history", help="analyse the persistent run history "
                        "(docs/TELEMETRY.md)")
    hsub = p_history.add_subparsers(dest="history_command", required=True)

    def _history_common(p, with_case=True):
        p.add_argument("--db", default="repro_history.sqlite", metavar="DB",
                       help="history database (default: "
                            "repro_history.sqlite)")
        if with_case:
            p.add_argument("--case", default=None,
                           help="restrict to one case")

    h_list = hsub.add_parser("list", help="latest recorded runs")
    _history_common(h_list)
    h_list.add_argument("--limit", type=int, default=20, metavar="N",
                        help="rows to show (default 20)")

    h_show = hsub.add_parser("show", help="one run in full, as JSON")
    _history_common(h_show, with_case=False)
    h_show.add_argument("run_id", type=int, metavar="RUN_ID")

    h_trends = hsub.add_parser(
        "trends", help="per-(case, flags) timing summary")
    _history_common(h_trends)
    h_trends.add_argument("--window", type=int, default=5, metavar="N",
                          help="runs in the median window (default 5)")

    h_reg = hsub.add_parser(
        "regressions",
        help="gate: non-zero exit when the latest run of any series "
             "regressed against its median-of-last-N baseline")
    _history_common(h_reg)
    h_reg.add_argument("--window", type=int, default=5, metavar="N",
                       help="baseline runs per series (default 5)")
    h_reg.add_argument("--tolerance", default="1.5", metavar="RATIO",
                       help="allowed slowdown/prune-loss factor, e.g. "
                            "1.5 or 10x (default 1.5)")

    p_top = sub.add_parser(
        "top", help="live dashboard over a running serve daemon")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=8642)
    p_top.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="poll/redraw interval (default 1.0)")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit (no ANSI "
                            "clear; scripting/tests)")

    args = parser.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "verify": cmd_verify,
        "dot": cmd_dot,
        "lattice": cmd_lattice,
        "examples": cmd_examples,
        "fuzz": cmd_fuzz,
        "profile": cmd_profile,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "history": cmd_history,
        "top": cmd_top,
    }
    from .core.errors import VerificationError

    try:
        return handlers[args.command](args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
