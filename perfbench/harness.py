"""Drive the public entry points over one workload and measure them.

One-shot workloads call ``repro.verify.verify_program`` serially in
this process, with ``jobs=1``, no cache directory and default flags
(compile, POR, slicing and DFA on).  The serve workload is a closed
loop: one client submits one job at a time to a daemon started with
``repro.serve.daemon.start_in_thread``, holding two resident workers
and one job worker, a temporary cache directory and no run history.

Every job is checked against ``expected.json``: the verdict, the
failing restrictions, the run census, and a digest of the canonical
report signature.  Daemon and one-shot reports are held to the same
digest, so their signatures agree byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ledger import Ledger, install, stray_wrappers
from workloads import WORKLOADS, build_objects, pass_orders, split_key

HERE = Path(__file__).resolve().parent

#: set-up is timed at least this many times per run; the median is
#: reported
SETUP_SAMPLES = 7
#: warm passes a run makes at least, whatever ``--seconds`` says
MIN_WARM_PASSES = 2
#: a daemon job slower than this counts as failed
JOB_TIMEOUT_S = 60.0
#: how often the client polls a running job: a quarter of the client's
#: default, so the poll interval does not swamp the smallest jobs
POLL_S = 0.005
#: the daemon's resident workers and concurrent jobs: all load comes
#: from one client, and at most two worker processes are ever busy
SERVE_WORKERS = 2
SERVE_JOB_WORKERS = 1

#: (name, unit, better) of every end-to-end metric, as in BENCHMARK.json
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("verdict_s.geomean", "s", "lower"),
    ("job_s.p50", "s", "lower"),
    ("job_s.p90", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better, the end-to-end metric and workload it should
#: move) of every per-layer metric; BENCHMARK.json holds the first three
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.replay.calls", "count", "lower",
     "pass_s on explore-bound most, then reject-mutants; job_s.p50 on "
     "serve-resubmit; pass_s on check-bound slightly"),
    ("sim.replay.self_s", "s", "lower",
     "pass_s on explore-bound most, then reject-mutants; job_s.p50 on "
     "serve-resubmit; pass_s on check-bound slightly"),
    ("sim.steps", "count", "lower",
     "pass_s on explore-bound most; job_s.p50 on serve-resubmit"),
    ("sim.freeze.calls", "count", "lower",
     "pass_s on explore-bound; job_s.p50 on serve-resubmit"),
    ("sim.freeze.self_s", "s", "lower",
     "pass_s on explore-bound; job_s.p50 on serve-resubmit"),
    ("por.ample.self_s", "s", "lower",
     "pass_s on explore-bound and reject-mutants"),
    ("por.reduced_share", "ratio", "higher",
     "pass_s on explore-bound and reject-mutants"),
    ("dfa.advance.calls", "count", "lower",
     "pass_s on explore-bound and reject-mutants"),
    ("dfa.advance.self_s", "s", "lower",
     "pass_s on explore-bound and reject-mutants"),
    ("dfa.cuts", "count", "higher", "pass_s on reject-mutants"),
    ("dedupe.fingerprint.self_s", "s", "lower", "pass_s on explore-bound"),
    ("dedupe.ratio", "ratio", "higher", "pass_s on explore-bound"),
    ("projection.calls", "count", "lower",
     "pass_s on reject-mutants and explore-bound"),
    ("projection.self_s", "s", "lower",
     "pass_s on reject-mutants and explore-bound"),
    ("legality.calls", "count", "lower",
     "pass_s and verdict_s.geomean on check-bound; not explore-bound"),
    ("legality.self_s", "s", "lower",
     "pass_s and verdict_s.geomean on check-bound; not explore-bound"),
    ("legality.relation_holds", "count", "lower",
     "pass_s and verdict_s.geomean on check-bound; not explore-bound"),
    ("compile.bind.calls", "count", "lower",
     "pass_s on check-bound; serve.cold_pass_s"),
    ("compile.bind.self_s", "s", "lower",
     "pass_s on check-bound; serve.cold_pass_s"),
    ("evalcore.builds", "count", "lower",
     "pass_s on check-bound; serve.cold_pass_s"),
    ("slice.analyze.calls", "count", "lower", "pass_s on check-bound"),
    ("slice.analyze.self_s", "s", "lower", "pass_s on check-bound"),
    ("slice.hits", "count", "higher", "pass_s on check-bound"),
    ("slice.fallbacks", "count", "lower", "pass_s on check-bound"),
    ("checker.computations", "count", "lower",
     "pass_s on check-bound and reject-mutants"),
    ("checker.self_s", "s", "lower",
     "pass_s on check-bound and reject-mutants"),
    ("checker.lattice.calls", "count", "lower",
     "pass_s on check-bound and reject-mutants"),
    ("checker.lattice.self_s", "s", "lower",
     "pass_s on check-bound and reject-mutants"),
    ("consistency.search.calls", "count", "lower",
     "pass_s on check-bound (objects cases)"),
    ("consistency.search.self_s", "s", "lower",
     "pass_s on check-bound (objects cases)"),
    ("engine.checks", "count", "lower",
     "pass_s on check-bound and reject-mutants"),
    ("engine.explore_check_s", "s", "lower", "pass_s on every workload"),
    ("engine.merge_s", "s", "lower", "pass_s on every workload"),
    ("cache.hits", "count", "higher",
     "job_s.p50 and job_s.p90 on serve-resubmit"),
    ("serve.cold_pass_s", "s", "lower",
     "none: the daemon's first pass, against an empty cache"),
    ("serve.cold_checks", "count", "lower", "serve.cold_pass_s"),
    ("serve.job_wall_s", "s", "lower",
     "job_s.p50 and job_s.p90 on serve-resubmit"),
    ("serve.overhead_s", "s", "lower",
     "job_s.p50 and job_s.p90 on serve-resubmit"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: the tracing cost itself"),
)

#: counters that must read the same on both traced passes of a run
DETERMINISTIC = ("sim.steps", "sim.replay.calls", "legality.relation_holds",
                 "evalcore.builds", "slice.analyze.calls", "dfa.cuts",
                 "engine.checks")


# -- expected verdicts --------------------------------------------------------


def load_expected() -> Dict[str, dict]:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def canonical(signature) -> str:
    """The byte form two signatures are compared in."""
    return json.dumps(signature, separators=(",", ":"))


def verdict_problems(expected: Optional[dict], ok: bool,
                     signature) -> List[str]:
    """How one report differs from its expectation (empty: it agrees).

    ``signature`` is ``signature_json(report.signature())`` -- what the
    daemon returns as ``result["signature"]``.
    """
    if expected is None:
        return ["no expected verdict"]
    _name, _exh, runs, deadlocks, _trunc, distinct, verdicts = signature[:7]
    got = {
        "verdict": "VERIFIED" if ok else "FAILED",
        "failing": sorted(name for name, holds, _ in verdicts if not holds),
        "runs": runs,
        "distinct": distinct,
        "deadlocks": deadlocks,
        "signature_sha256": hashlib.sha256(
            canonical(signature).encode("utf-8")).hexdigest(),
    }
    want = dict(expected, failing=sorted(expected["failing"]))
    return [f"{field} is {got[field]!r}, expected {want.get(field)!r}"
            for field in got if got[field] != want.get(field)]


class Tally:
    """Jobs attempted and failed, checked against the expectations.

    A job fails on a wrong verdict, failing set, census or signature, on
    an exception or timeout, and on a daemon job that does not end
    ``done``.
    """

    def __init__(self, expected: Dict[str, dict]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, key: str, ok: bool = False, signature=None,
               error: str = "") -> None:
        self.attempted += 1
        problems = ([error] if error else
                    verdict_problems(self.expected.get(key), ok, signature))
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]


# -- passes -------------------------------------------------------------------


class Pass:
    """One pass over a workload's case list."""

    def __init__(self, order: List[str]) -> None:
        self.order = order
        self.wall = 0.0
        #: case key -> seconds to verdict (client latency for the daemon)
        self.times: Dict[str, float] = {}
        #: case key -> canonical signature
        self.sigs: Dict[str, str] = {}
        #: one-shot: each report's EngineStats
        self.stats: List[object] = []
        #: daemon: per-job latency, daemon wall time and engine counters
        self.jobs: List[dict] = []


def oneshot_pass(objects: Dict[str, Tuple], order: List[str],
                 tally: Tally) -> Pass:
    from repro.serve.protocol import signature_json
    from repro.verify import verify_program

    p = Pass(order)
    started = time.perf_counter()
    for key in order:
        program, spec, corr, program_spec = objects[key]
        t0 = time.perf_counter()
        try:
            report = verify_program(program, spec, corr,
                                    program_spec=program_spec, jobs=1)
        except Exception as exc:  # a raising job is a failed job
            p.times[key] = time.perf_counter() - t0
            tally.record(key, error=f"raised {exc!r}")
            continue
        p.times[key] = time.perf_counter() - t0
        signature = signature_json(report.signature())
        tally.record(key, report.ok, signature)
        p.sigs[key] = canonical(signature)
        p.stats.append(report.engine_stats)
    p.wall = time.perf_counter() - started
    return p


def serve_pass(client, order: List[str], tally: Tally) -> Pass:
    """Closed loop: the next job is submitted when the last one ended.
    The pass time is the sum of the client round trips."""
    p = Pass(order)
    for key in order:
        name, mutant = split_key(key)
        t0 = time.perf_counter()
        try:
            (job_id,) = client.submit({"case": name, "mutant": mutant})
            snap = client.wait(job_id, timeout=JOB_TIMEOUT_S, poll=POLL_S)
        except Exception as exc:  # HTTP error or timeout: a failed job
            p.times[key] = time.perf_counter() - t0
            tally.record(key, error=f"client raised {exc!r}")
            continue
        latency = time.perf_counter() - t0
        p.times[key] = latency
        if snap["state"] != "done":
            tally.record(key, error=f"daemon job ended {snap['state']}: "
                                    f"{snap.get('error')}")
            continue
        result = snap["result"]
        tally.record(key, result["ok"], result["signature"])
        p.sigs[key] = canonical(result["signature"])
        p.jobs.append({"key": key, "latency_s": latency,
                       "wall_s": result["wall_s"],
                       "checks": result["stats"]["checks_performed"],
                       "cache_hits": result["stats"]["cache_hits"]})
    p.wall = sum(p.times.values())
    return p


def timed_passes(run_pass: Callable[[List[str]], Pass],
                 orders: Iterator[List[str]], seconds: float,
                 between: Callable[[], None] = lambda: None) -> List[Pass]:
    """A cold pass, then warm passes until ``seconds`` have gone by;
    ``between`` runs before each pass."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while (len(passes) < 1 + MIN_WARM_PASSES
           or time.perf_counter() - started < seconds):
        between()
        passes.append(run_pass(next(orders)))
    return passes


@contextlib.contextmanager
def daemon(scratch: Path):
    """A fresh daemon: yields ``(client, setup_s)`` and always stops it.

    ``setup_s`` runs from constructing the daemon until ``readyz()``
    first answers true.
    """
    from repro.serve import ServeClient
    from repro.serve.daemon import start_in_thread

    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=scratch)
    try:
        started = time.perf_counter()
        handle = start_in_thread(jobs=SERVE_WORKERS,
                                 job_workers=SERVE_JOB_WORKERS,
                                 cache_dir=cache_dir, history_db=None)
        try:
            client = ServeClient(port=handle.port, timeout=JOB_TIMEOUT_S)
            while not client.readyz():
                if time.perf_counter() - started > 60:
                    raise RuntimeError("daemon not ready within 60 s")
                time.sleep(0.001)
            yield client, time.perf_counter() - started
        finally:
            handle.stop()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def probe_setup(workload: str) -> float:
    """Seconds for a fresh interpreter to import ``repro``, build the
    workload's cases and prime their plans (``probe.py``), launch to
    exit."""
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                              workload], stdout=subprocess.DEVNULL)
    # a blocking wait returns the moment the child exits (a wait with a
    # timeout polls, in steps of up to 50 ms); the timer bounds a hang
    killer = threading.Timer(120, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


def _hwm_mib(pid="self") -> float:
    """A process's peak resident set (VmHWM), in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mib(with_workers: bool) -> float:
    """This process's peak RSS, plus each live worker process's."""
    total = _hwm_mib()
    if with_workers:
        total += sum(_hwm_mib(p.pid) for p in multiprocessing.active_children())
    return total


# -- metrics ------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def e2e_metrics(setup: List[float], passes: List[Pass],
                rss: float) -> Dict[str, float]:
    """End-to-end figures of one run.

    The first pass warms the process (and, for the daemon, its cache)
    and is left out.  Each warm figure is the fastest of its warm
    repetitions: the work is deterministic, and a shared host's speed
    drifts by tens of percent over tens of seconds, which only ever
    adds time, so the minimum is the statistic that drift moves least.
    Latencies are taken per case first, so a quantile always reads the
    same cases.  Set-up is the median of its samples.
    """
    cold, warm = passes[0], passes[1:]
    per_case = [min(p.times[key] for p in warm) for key in cold.order]
    return {
        "setup_s": _median(setup),
        "pass_s": min(p.wall for p in warm),
        "verdict_s.geomean": math.exp(statistics.fmean(
            math.log(t) for t in per_case)),
        "job_s.p50": _median(per_case),
        "job_s.p90": statistics.quantiles(per_case, n=10,
                                          method="inclusive")[8],
        "peak_rss_mb": rss,
    }


def engine_totals(p: Pass) -> Counter:
    """Engine counters and phase seconds summed over a one-shot pass."""
    t: Counter = Counter()
    for st in p.stats:
        t["checks"] += st.checks_performed
        t["runs"] += st.runs
        t["distinct"] += st.distinct_computations
        t["por_nodes"] += st.por_nodes
        t["por_reduced_nodes"] += st.por_reduced_nodes
        t["dfa_cuts"] += st.dfa_cuts
        t["slice_hits"] += st.slice_hits
        t["slice_fallbacks"] += st.slice_fallbacks
        phases = st.phase_seconds
        t["explore_check_s"] += phases.get("explore+check", 0.0)
        t["merge_s"] += phases.get("merge", 0.0)
    return t


def ledger_metrics(book: Ledger, engine: Counter) -> Dict[str, float]:
    """Per-layer numbers of one traced one-shot pass."""
    calls, secs, counts = book.calls, book.seconds, book.counts
    nodes = engine["por_nodes"]
    return {
        "sim.replay.calls": calls["sim.replay"],
        "sim.replay.self_s": secs("sim.replay"),
        "sim.steps": counts["sim.steps"],
        "sim.freeze.calls": calls["sim.freeze"],
        "sim.freeze.self_s": secs("sim.freeze"),
        "por.ample.self_s": secs("por.ample"),
        "por.reduced_share": (engine["por_reduced_nodes"] / nodes
                              if nodes else 0.0),
        "dfa.advance.calls": calls["dfa.advance"],
        "dfa.advance.self_s": secs("dfa.advance"),
        "dfa.cuts": engine["dfa_cuts"],
        "dedupe.fingerprint.self_s": secs("dedupe.fingerprint"),
        "dedupe.ratio": (engine["runs"] / engine["distinct"]
                         if engine["distinct"] else 0.0),
        "projection.calls": calls["projection"],
        "projection.self_s": secs("projection"),
        "legality.calls": calls["legality"],
        "legality.self_s": secs("legality"),
        "legality.relation_holds": counts["legality.relation_holds"],
        "compile.bind.calls": calls["compile.bind"],
        "compile.bind.self_s": secs("compile.bind"),
        "evalcore.builds": counts["evalcore.builds"],
        "slice.analyze.calls": calls["slice.analyze"],
        "slice.analyze.self_s": secs("slice.analyze"),
        "slice.hits": engine["slice_hits"],
        "slice.fallbacks": engine["slice_fallbacks"],
        "checker.computations": calls["checker"],
        "checker.self_s": secs("checker"),
        "checker.lattice.calls": calls["checker.lattice"],
        "checker.lattice.self_s": secs("checker.lattice"),
        "consistency.search.calls": calls["consistency.search"],
        "consistency.search.self_s": secs("consistency.search"),
        "engine.checks": engine["checks"],
    }


# -- runs ---------------------------------------------------------------------


def run_e2e(workload: str, seed: int, seconds: float, tally: Tally,
            scratch: Path) -> Tuple[Dict[str, float], dict]:
    """The untraced run: end-to-end metrics."""
    kind, cases = WORKLOADS[workload]
    orders = pass_orders(cases, seed)
    setup: List[float] = []
    if kind == "oneshot":
        # the host's speed drifts over tens of seconds, so the set-up
        # probes are spread across the run, one before each pass
        objects = build_objects(cases)
        passes = timed_passes(
            lambda order: oneshot_pass(objects, order, tally),
            orders, seconds,
            between=lambda: setup.append(probe_setup(workload)))
        while len(setup) < SETUP_SAMPLES:
            setup.append(probe_setup(workload))
        rss = peak_rss_mib(with_workers=False)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            with daemon(scratch) as (_client, setup_s):
                setup.append(setup_s)
        with daemon(scratch) as (client, setup_s):
            setup.append(setup_s)
            passes = timed_passes(
                lambda order: serve_pass(client, order, tally),
                orders, seconds)
            rss = peak_rss_mib(with_workers=True)
    detail = {"setup_samples_s": setup,
              "passes": [{"order": p.order, "wall_s": p.wall,
                          "times_s": p.times} for p in passes]}
    return e2e_metrics(setup, passes, rss), detail


def run_traced(workload: str, seed: int, tally: Tally,
               scratch: Path) -> Tuple[Dict[str, float], dict, List[str]]:
    """The traced run: per-layer metrics.

    The daemon leg comes first, so its workers fork before this process
    has built or primed anything.  Then the in-process leg: a warm-up
    pass, then two untraced passes alternating with two traced passes
    under the ledger.
    Returns the metrics, a detail record, and the harness's own
    problems (non-deterministic counters, wrappers left behind,
    daemon/one-shot signature mismatches).
    """
    _kind, cases = WORKLOADS[workload]
    orders = pass_orders(cases, seed)
    problems: List[str] = []

    with daemon(scratch) as (client, _setup_s):
        cold = serve_pass(client, next(orders), tally)
        warm = serve_pass(client, next(orders), tally)

    objects = build_objects(cases)
    untraced = [oneshot_pass(objects, next(orders), tally)]  # warm-up
    traced = []
    for _ in range(2):
        # untraced and traced passes alternate, so a drift in the host's
        # speed weighs on both sides of the overhead ratio alike
        untraced.append(oneshot_pass(objects, next(orders), tally))
        book = Ledger()
        inst = install(book)
        try:
            p = oneshot_pass(objects, next(orders), tally)
        finally:
            inst.restore()
        problems += [f"not restored: {w}" for w in inst.leftovers()]
        traced.append((p, ledger_metrics(book, engine_totals(p))))
    problems += [f"stray wrapper: {w}" for w in stray_wrappers()]

    first, second = traced[0][1], traced[1][1]
    for name in DETERMINISTIC:
        if first[name] != second[name]:
            problems.append(f"counter {name} differs across traced passes: "
                            f"{first[name]} != {second[name]}")
    for daemon_pass in (cold, warm):
        for key, sig in daemon_pass.sigs.items():
            if untraced[0].sigs.get(key) != sig:
                problems.append(f"{key}: daemon signature differs from "
                                "one-shot")

    units = {name: unit for name, unit, _b, _m in PER_LAYER}
    metrics = {name: (first[name] + second[name]) / 2
               if units[name] == "s" else first[name] for name in first}
    engine = [engine_totals(p) for p in untraced[1:]]
    for name in ("explore_check_s", "merge_s"):
        metrics[f"engine.{name}"] = statistics.fmean(e[name] for e in engine)
    metrics["serve.cold_pass_s"] = cold.wall
    metrics["cache.hits"] = sum(j["cache_hits"] for j in warm.jobs)
    metrics["serve.cold_checks"] = sum(j["checks"] for j in cold.jobs)
    metrics["serve.job_wall_s"] = _median(j["wall_s"] for j in warm.jobs)
    metrics["serve.overhead_s"] = _median(
        j["latency_s"] - j["wall_s"] for j in warm.jobs)
    metrics["trace.overhead_ratio"] = (
        sum(p.wall for p, _m in traced) / sum(p.wall for p in untraced[1:]))
    detail = {"traced_passes": [m for _p, m in traced],
              "untraced_wall_s": [p.wall for p in untraced],
              "traced_wall_s": [p.wall for p, _m in traced],
              "daemon_passes": [{"order": p.order, "jobs": p.jobs}
                                for p in (cold, warm)]}
    return metrics, detail, problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path) -> dict:
    """One benchmark run; the result ``run.py`` prints and records."""
    tally = Tally(load_expected())
    if trace:
        values, detail, problems = run_traced(workload, seed, tally, scratch)
        table = PER_LAYER
    else:
        values, detail = run_e2e(workload, seed, seconds, tally, scratch)
        problems = []
        table = END_TO_END
    return {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed_share,
        "metrics": {row[0]: {"value": values[row[0]], "unit": row[1]}
                    for row in table},
        "problems": tally.problems + problems,
        "detail": detail,
    }
