"""CI telemetry-smoke: the daemon's production-telemetry surface.

Boots a real daemon (background thread, ephemeral port, history
database enabled), then asserts the acceptance criteria of the
telemetry stack end to end:

* ``GET /healthz`` answers and ``GET /readyz`` reports the pool
  primed;
* ``GET /metrics`` parses as Prometheus text and -- after a job --
  carries every counter of the ``EngineStats`` table (engine, POR,
  slice and DFA families) plus the cache gauges;
* every completed job leaves exactly one row in the run-history
  database, and an identical rerun leaves a second one;
* ``repro history regressions --tolerance 10x`` exits zero over those
  identical reruns (the CI gate must not cry wolf), and the seeded
  slowdown fixture makes it exit non-zero (the gate must actually
  fire);
* ``repro top --once`` renders a frame against the live daemon.

Run directly (CI) or locally::

    PYTHONPATH=src python benchmarks/telemetry_smoke.py
"""

from __future__ import annotations

import io
import os
import sys
import tempfile

sys.path.insert(0, "src")

from repro.cli import main as repro_main  # noqa: E402
from repro.engine.stats import COUNTERS  # noqa: E402
from repro.obs import (  # noqa: E402
    RunHistory,
    metric_name,
    parse_prometheus,
    run_top,
)
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.daemon import start_in_thread  # noqa: E402

CASE = "monitor-one-slot-buffer"


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="telemetry_smoke_")
    db = os.path.join(workdir, "history.sqlite")

    handle = start_in_thread(jobs=2, job_workers=2, history_db=db,
                             telemetry_interval=0.1)
    try:
        client = ServeClient(port=handle.port)
        assert client.ping(), "daemon did not come up"
        assert client.healthz(), "GET /healthz failed"
        assert client.readyz(), "GET /readyz says the pool is not primed"
        print(f"telemetry-smoke: daemon healthy on port {handle.port}")

        # a pre-job scrape must already parse (service gauges only)
        scrape = parse_prometheus(client.metrics_text())
        assert scrape.value("repro_serve_uptime_seconds") > 0

        # the same catalog job twice: two history rows, identical sigs
        signatures = []
        for i in (1, 2):
            snap = client.verify({"case": CASE, "jobs": 2})
            assert snap["state"] == "done", f"run {i}: {snap}"
            signatures.append(snap["result"]["signature"])
            rows = RunHistory(db).runs()
            assert len(rows) == i, (
                f"run {i}: expected {i} history row(s), found {len(rows)}")
            assert rows[0].case == CASE and rows[0].ok
            assert rows[0].wall_s > 0 and rows[0].stats["runs"] > 0
        assert signatures[0] == signatures[1], "reruns changed the signature"
        print(f"telemetry-smoke: 2 runs recorded in {db}, "
              "signatures identical")

        scrape = parse_prometheus(client.metrics_text())
        for family in ("repro_engine_runs", "repro_por_nodes",
                       "repro_serve_jobs_done"):
            assert scrape.value(family) > 0, f"{family} missing or zero"
        # gauge semantics: engine gauges describe the *latest* job, and
        # the warm rerun replayed everything from cache -- so fresh
        # checks are (correctly) zero while cache hits are not
        assert ("repro_engine_checks_performed", ()) in scrape.samples
        assert scrape.value("repro_engine_cache_hits") \
            + scrape.value("repro_engine_dedupe_hits") > 0, (
            "warm rerun reported no cache/dedupe hits")
        missing = [metric_name(c.metric) for c in COUNTERS
                   if (metric_name(c.metric), ()) not in scrape.samples]
        assert not missing, f"engine counters missing from /metrics: {missing}"
        assert ("repro_serve_cache_entries", ()) in scrape.samples, (
            "cache gauges missing from /metrics")
        print(f"telemetry-smoke: /metrics parses "
              f"({len(scrape)} sample(s), {len(COUNTERS)} engine "
              f"counter(s), "
              f"{int(scrape.value('repro_engine_runs'))} engine run(s))")

        assert run_top(port=handle.port, once=True, out=io.StringIO()) == 0
        print("telemetry-smoke: repro top --once OK")
    finally:
        handle.stop()

    # identical reruns: the regression gate must pass
    code = repro_main(["history", "regressions", "--db", db,
                       "--tolerance", "10x"])
    assert code == 0, f"regression gate fired on identical reruns ({code})"
    print("telemetry-smoke: regression gate silent on identical reruns")

    # seeded slowdown: the gate must fire
    fixture = os.path.join(workdir, "slowdown.sqlite")
    history = RunHistory(fixture)
    for wall in (1.0, 1.0, 1.0, 1.0, 9.0):
        history.record(source="cli", case=CASE,
                       flags={"jobs": 1}, ok=True, mode="exhaustive",
                       signature=[], wall_s=wall, stats={"runs": 10})
    code = repro_main(["history", "regressions", "--db", fixture])
    assert code == 1, f"gate missed a 9x injected slowdown (exit {code})"
    print("telemetry-smoke: regression gate fires on injected slowdown")

    print("telemetry-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
