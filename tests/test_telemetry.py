"""Tests for the telemetry stack (PR 8's tentpole + satellites).

Covers, in layer order:

* the Prometheus text exposition: render/parse round-trip, label
  escaping, family typing (counter/gauge/summary/untyped);
* registry kind discipline: sticky kind per key, mismatching writes
  raise, gauges survive the records/merge transport;
* the label-cardinality guard: warn once per name, fold the overflow
  into one ``{overflow="true"}`` series;
* :class:`TelemetryHub`: background sampling, the warn-once-and-
  disable contract for raising samplers;
* :class:`RunHistory`: sqlite round-trip, schema versioning, trends,
  and the median-of-last-N regression gate (wall time and POR prune
  ratio), including the tolerance parser;
* the ``repro history`` CLI: list/show/trends, non-zero exit on an
  injected slowdown, zero exit on identical reruns, ``--tolerance
  10x``;
* the serve daemon: ``/metrics`` parses and carries engine/cache/POR/
  slice counters after a job, ``/healthz``/``/readyz``, the ``GET
  /jobs`` listing, one history row per completed job, and -- the
  determinism criterion -- report signatures byte-identical with
  telemetry/history on vs off across ``--jobs 1/4``;
* ``repro top``: the pure renderer and the ``--once`` loop against a
  live daemon.
"""

import io
import json
import os
import sqlite3
import sys
import threading
import time
import warnings

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from repro.cli import _build_cases, main
from repro.core.errors import VerificationError
from repro.obs import (
    MetricKindError,
    MetricsRegistry,
    PrometheusParseError,
    RunHistory,
    TelemetryHub,
    metric_name,
    parse_prometheus,
    parse_tolerance,
    record_report,
    render_prometheus,
    render_top,
    run_top,
)
from repro.obs.runhistory import HistorySchemaError, flags_key
from repro.serve.client import ServeClient
from repro.serve.daemon import start_in_thread
from repro.serve.protocol import signature_json
from repro.verify import verify_program

CASE = "monitor-one-slot-buffer"

FLAGS = {"jobs": 1, "por": True, "dfa": True, "mutant": False}


def oneshot_report(jobs=1):
    program, spec, corr, pspec = _build_cases()[CASE](False)
    return verify_program(program, spec, corr, program_spec=pspec,
                          jobs=jobs)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One daemon (with history) shared by the serve-side tests."""
    db = str(tmp_path_factory.mktemp("hist") / "history.sqlite")
    handle = start_in_thread(jobs=2, job_workers=2, history_db=db,
                             telemetry_interval=0.05)
    client = ServeClient(port=handle.port)
    assert client.ping()
    yield handle, client, db
    handle.stop()


# -- Prometheus exposition ---------------------------------------------------


class TestPrometheusFormat:
    def test_metric_name_mangling(self):
        assert metric_name("engine.runs") == "repro_engine_runs"
        assert metric_name("serve.queue.depth") == "repro_serve_queue_depth"

    def test_render_parse_round_trip(self):
        r = MetricsRegistry()
        r.inc("checker.evals", 42, restriction="mutex-rw")
        r.inc("checker.evals", 7, restriction="other")
        r.set("serve.queue.depth", 3)
        r.observe("checker.seconds", 0.25, restriction="mutex-rw")
        r.observe("checker.seconds", 0.75, restriction="mutex-rw")
        scrape = parse_prometheus(render_prometheus(r))
        assert scrape.value("repro_checker_evals",
                            restriction="mutex-rw") == 42
        assert scrape.value("repro_checker_evals", restriction="other") == 7
        assert scrape.value("repro_serve_queue_depth") == 3
        assert scrape.value("repro_checker_seconds_count",
                            restriction="mutex-rw") == 2
        assert scrape.value("repro_checker_seconds_sum",
                            restriction="mutex-rw") == 1.0
        assert scrape.value("repro_checker_seconds_max",
                            restriction="mutex-rw") == 0.75
        assert scrape.types["repro_checker_evals"] == "counter"
        assert scrape.types["repro_serve_queue_depth"] == "gauge"
        assert scrape.types["repro_checker_seconds"] == "summary"

    def test_label_values_escape_and_unescape(self):
        r = MetricsRegistry()
        r.inc("m", 1, label='quote " backslash \\ newline \n end')
        text = render_prometheus(r)
        scrape = parse_prometheus(text)
        (labels,) = scrape.family("repro_m").keys()
        assert labels == (
            ("label", 'quote " backslash \\ newline \n end'),)

    def test_mixed_kind_family_is_untyped(self):
        r = MetricsRegistry()
        r.inc("x", 1, side="a")
        r.set("x", 5, side="b")
        scrape = parse_prometheus(render_prometheus(r))
        assert scrape.types["repro_x"] == "untyped"
        assert scrape.value("repro_x", side="a") == 1
        assert scrape.value("repro_x", side="b") == 5

    def test_parser_rejects_junk(self):
        with pytest.raises(PrometheusParseError):
            parse_prometheus("this is { not a sample\n")
        with pytest.raises(PrometheusParseError):
            parse_prometheus("ok_name not_a_number\n")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert len(parse_prometheus("")) == 0


# -- metric kind discipline --------------------------------------------------


class TestMetricKinds:
    def test_kind_is_sticky_per_key(self):
        r = MetricsRegistry()
        r.inc("engine.runs", 5)
        with pytest.raises(MetricKindError):
            r.set("engine.runs", 1)
        with pytest.raises(MetricKindError):
            r.observe("engine.runs", 1.0)
        assert r.kind("engine.runs") == "counter"

    def test_same_name_different_labels_may_differ(self):
        # the real case: checker.slice_hits is a labelled counter in
        # workers and an unlabelled gauge on the EngineStats view
        r = MetricsRegistry()
        r.inc("checker.slice_hits", 3, restriction="r")
        r.set("checker.slice_hits", 3)
        assert r.kind("checker.slice_hits", restriction="r") == "counter"
        assert r.kind("checker.slice_hits") == "gauge"

    def test_gauge_survives_transport_with_set_semantics(self):
        src = MetricsRegistry()
        src.set("serve.queue.depth", 4)
        src.inc("engine.phase_seconds", 1.5, phase="explore")
        dst = MetricsRegistry()
        dst.set("serve.queue.depth", 99)
        dst.merge_records(src.records())
        dst.merge_records(src.records())
        # gauge: incoming value wins (not 99, not summed to 8)
        assert dst.get("serve.queue.depth") == 4
        assert dst.kind("serve.queue.depth") == "gauge"
        # counter: merged twice accumulates
        assert dst.get("engine.phase_seconds", phase="explore") == 3.0

    def test_cardinality_guard_warns_once_and_folds(self):
        r = MetricsRegistry(label_set_limit=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(10):
                r.inc("checker.evals", 1, run=i)
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "checker.evals" in str(runtime[0].message)
        # first 3 label sets admitted, the other 7 folded together
        assert r.get("checker.evals", run=0) == 1
        assert r.get("checker.evals", overflow="true") == 7

    def test_overflow_series_renders_and_parses(self):
        r = MetricsRegistry(label_set_limit=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(4):
                r.inc("m", 1, k=i)
        scrape = parse_prometheus(render_prometheus(r))
        assert scrape.value("repro_m", overflow="true") == 3


# -- the background sampler --------------------------------------------------


class TestTelemetryHub:
    def test_sample_now_runs_sampler(self):
        r = MetricsRegistry()
        hub = TelemetryHub(r, lambda reg: reg.set("g", 7), interval=10)
        assert hub.sample_now() is True
        assert r.get("g") == 7
        assert hub.samples == 1

    def test_background_thread_samples(self):
        r = MetricsRegistry()
        hub = TelemetryHub(r, lambda reg: reg.set("g", 1), interval=0.05)
        hub.start()
        try:
            deadline = time.monotonic() + 5
            while hub.samples < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert hub.samples >= 3
        finally:
            hub.stop()

    def test_raising_sampler_warns_once_and_disables(self):
        r = MetricsRegistry()

        def bad(_reg):
            raise RuntimeError("boom")

        hub = TelemetryHub(r, bad, interval=10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert hub.sample_now() is False
            assert hub.sample_now() is False  # already disabled: no call
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "sampling disabled" in str(runtime[0].message)
        assert hub.samples == 0


# -- the run-history store ---------------------------------------------------


def seed_history(db, walls, case="c1", flags=FLAGS, prunes=None):
    history = RunHistory(db)
    for i, wall in enumerate(walls):
        stats = {"runs": 10}
        if prunes is not None:
            stats["por_pruned"] = prunes[i]
        history.record(source="cli", case=case, flags=flags, ok=True,
                       mode="exhaustive", signature=[["r", "holds"]],
                       wall_s=wall, stats=stats, ts=1000.0 + i)
    return history


class TestRunHistory:
    def test_record_and_read_back(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        history = seed_history(db, [0.5, 0.6])
        rows = history.runs()
        assert [r.id for r in rows] == [2, 1]  # latest first
        assert rows[0].case == "c1" and rows[0].flags == FLAGS
        assert rows[0].wall_s == 0.6 and rows[0].ok
        assert len(history) == 2
        one = history.run(1)
        assert one is not None and one.wall_s == 0.5
        assert history.run(99) is None
        # a second open sees the same rows (it is a file, not a process)
        assert len(RunHistory(db)) == 2

    def test_schema_version_mismatch_raises(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        seed_history(db, [0.5])
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(HistorySchemaError):
            RunHistory(db)

    def test_series_split_by_case_and_flags(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        history = seed_history(db, [0.5])
        history.record(source="cli", case="c1",
                       flags={**FLAGS, "jobs": 4}, ok=True,
                       mode="exhaustive", signature=[], wall_s=0.2,
                       ts=2000.0)
        series = history.series()
        assert set(series) == {("c1", flags_key(FLAGS)),
                               ("c1", flags_key({**FLAGS, "jobs": 4}))}

    def test_trends_report_median_and_latest(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        history = seed_history(db, [1.0, 2.0, 3.0])
        (trend,) = history.trends()
        assert trend["latest_s"] == 3.0
        assert trend["median_s"] == 2.0
        assert trend["runs"] == 3

    def test_wall_time_regression_detected(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        history = seed_history(db, [1.0, 1.1, 0.9, 1.0, 5.0])
        (reg,) = history.regressions(tolerance=1.5)
        assert reg.kind == "wall_s" and reg.run_id == 5
        assert reg.ratio == pytest.approx(5.0)
        assert "median" in reg.describe()

    def test_identical_reruns_do_not_regress(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        history = seed_history(db, [1.0, 1.0, 1.0])
        assert history.regressions(tolerance=1.5) == []

    def test_single_run_has_no_baseline(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        history = seed_history(db, [1.0])
        assert history.regressions(tolerance=1.0) == []

    def test_prune_ratio_regression_detected(self, tmp_path):
        db = str(tmp_path / "h.sqlite")
        # prune ratio collapses from 90/(90+10)=0.9 to 10/(10+10)=0.5
        history = seed_history(db, [1.0, 1.0, 1.0],
                               prunes=[90, 90, 10])
        regs = history.regressions(tolerance=1.5)
        assert [r.kind for r in regs] == ["prune_ratio"]

    def test_parse_tolerance(self):
        assert parse_tolerance("1.5") == 1.5
        assert parse_tolerance("10x") == 10.0
        assert parse_tolerance(" 2X ") == 2.0
        with pytest.raises(VerificationError):
            parse_tolerance("fast")
        with pytest.raises(VerificationError):
            parse_tolerance("0.5")


# -- the ``repro history`` CLI -----------------------------------------------


class TestHistoryCli:
    def test_list_show_trends(self, tmp_path, capsys):
        db = str(tmp_path / "h.sqlite")
        seed_history(db, [0.5, 0.6])
        assert main(["history", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "c1" in out and flags_key(FLAGS) in out
        assert main(["history", "show", "1", "--db", db]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["case"] == "c1" and shown["wall_s"] == 0.5
        assert main(["history", "trends", "--db", db]) == 0
        assert "c1" in capsys.readouterr().out

    def test_missing_db_is_an_error(self, tmp_path, capsys):
        db = str(tmp_path / "absent.sqlite")
        assert main(["history", "list", "--db", db]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_regressions_gate_fails_on_injected_slowdown(self, tmp_path,
                                                         capsys):
        db = str(tmp_path / "h.sqlite")
        seed_history(db, [1.0, 1.0, 1.0, 1.0, 8.0])
        assert main(["history", "regressions", "--db", db]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "1 regression(s)" in out

    def test_regressions_gate_passes_on_identical_reruns(self, tmp_path,
                                                         capsys):
        db = str(tmp_path / "h.sqlite")
        seed_history(db, [1.0, 1.0, 1.0])
        assert main(["history", "regressions", "--db", db]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_tolerance_10x_forgives_a_3x_slowdown(self, tmp_path, capsys):
        db = str(tmp_path / "h.sqlite")
        seed_history(db, [1.0, 1.0, 3.0])
        assert main(["history", "regressions", "--db", db,
                     "--tolerance", "10x"]) == 0
        capsys.readouterr()
        assert main(["history", "regressions", "--db", db,
                     "--tolerance", "1.5"]) == 1
        capsys.readouterr()

    def test_verify_history_flag_records_a_row(self, tmp_path, capsys):
        db = str(tmp_path / "h.sqlite")
        assert main(["verify", CASE, "--history", db]) == 0
        out = capsys.readouterr().out
        assert "history: run #1 recorded" in out
        (row,) = RunHistory(db).runs()
        assert row.source == "cli" and row.case == CASE
        assert row.flags == FLAGS
        assert row.ok and row.wall_s > 0
        assert row.stats["runs"] > 0


# -- the serve daemon's telemetry surface ------------------------------------


class TestServeTelemetry:
    def test_health_and_readiness(self, daemon):
        _handle, client, _db = daemon
        assert client.healthz() is True
        assert client.readyz() is True

    def test_metrics_parse_and_cover_the_engine(self, daemon):
        _handle, client, db = daemon
        before = len(RunHistory(db))
        snap = client.verify({"case": CASE, "jobs": 2})
        assert snap["state"] == "done"
        scrape = parse_prometheus(client.metrics_text())
        # engine, cache, POR and slice counters all exposed
        assert scrape.value("repro_engine_runs") > 0
        assert scrape.value("repro_por_nodes") > 0
        assert ("repro_checker_slice_hits", ()) in scrape.samples
        assert ("repro_serve_cache_entries", ()) in scrape.samples
        assert scrape.value("repro_serve_jobs_done") >= 1
        assert scrape.value("repro_serve_uptime_seconds") > 0
        assert scrape.types["repro_serve_jobs_done"] == "counter"
        assert scrape.types["repro_serve_queue_depth"] == "gauge"
        # one history row was written for the completed job
        assert len(RunHistory(db)) == before + 1
        (row,) = RunHistory(db).runs(limit=1)
        assert row.source == "serve" and row.case == CASE
        assert row.flags["jobs"] == 2 and row.wall_s > 0

    def test_job_stats_are_the_history_snapshot(self, daemon):
        from repro.engine.stats import COUNTERS

        _handle, client, db = daemon
        snap = client.verify({"case": CASE})
        assert snap["state"] == "done"
        stats = snap["result"]["stats"]
        (row,) = RunHistory(db).runs(limit=1)
        assert row.stats == stats
        assert set(stats) == ({c.attr for c in COUNTERS}
                              | {"mode", "dedupe_ratio"})

    def test_jobs_listing_has_wall_times(self, daemon):
        _handle, client, _db = daemon
        client.verify({"case": CASE})
        jobs = client.jobs_list()
        assert jobs, "listing should show submitted jobs"
        done = [j for j in jobs if j["state"] == "done"]
        assert done and all(j["wall_s"] > 0 for j in done)
        assert all(set(j) <= {"id", "state", "label", "wall_s"}
                   for j in jobs)

    def test_signatures_identical_with_telemetry_and_history_on_or_off(
            self, daemon, tmp_path):
        _handle, client, _db = daemon
        for jobs in (1, 4):
            plain = signature_json(oneshot_report(jobs=jobs).signature())
            # one-shot with history recording on
            report = oneshot_report(jobs=jobs)
            record_report(
                RunHistory(str(tmp_path / f"j{jobs}.sqlite")),
                source="cli", case=CASE, flags={**FLAGS, "jobs": jobs},
                report=report, wall_s=0.1)
            with_history = signature_json(report.signature())
            # daemon job (telemetry + history both active)
            snap = client.verify({"case": CASE, "jobs": jobs})
            served = snap["result"]["signature"]
            dumps = lambda s: json.dumps(s, sort_keys=True)  # noqa: E731
            assert dumps(plain) == dumps(with_history) == dumps(served)

    def test_top_renderer_and_once_loop(self, daemon):
        handle, client, _db = daemon
        frame = render_top(parse_prometheus(client.metrics_text()),
                           client.stats(), client.jobs_list(),
                           endpoint="test")
        assert "repro top -- test" in frame
        assert "engine : runs" in frame
        assert CASE in frame
        out = io.StringIO()
        assert run_top(port=handle.port, once=True, out=out) == 0
        assert "uptime" in out.getvalue()

    def test_top_unreachable_daemon_exits_nonzero(self):
        assert run_top(port=1, once=True, out=io.StringIO()) == 1
