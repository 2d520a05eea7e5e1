"""Tests for ``repro.obs``: tracing, metrics, explanations, profiling.

The ISSUE's required cases, in order of appearance:

* the no-op tracer adds no spans and costs near-zero overhead;
* the JSONL schema round-trips (write -> parse -> same span tree);
* the fork-pool trace merge is byte-stable across ``--jobs 1/4``;
* the subformula trace pinpoints the planted fork-bug's failing
  restriction;

plus coverage of the satellites: guarded progress hooks, provenance
witness replay, ``EngineStats`` as a metrics view, and the profile
renderer.
"""

import io
import multiprocessing
import os
import sys
import time
import warnings

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from repro.engine.stats import EngineStats, GuardedProgress, guard_progress
from repro.fuzz.programs import (
    FORK_DROPS_ENABLES,
    FuzzProgram,
    FuzzProgramSpec,
    fuzz_correspondence,
    fuzz_problem_spec,
)
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    TraceSchemaError,
    Tracer,
    explain_restriction,
    iter_spans,
    read_trace,
    render_profile,
    structure_dump,
    validate_record,
    write_trace,
)
from repro.sim.scheduler import replay_prefix
from repro.verify import verify_program
from repro.verify.projection import project

SPEC = FuzzProgramSpec(procs=(2, 2), deps=((1, 1, 0, 0),))


def verify_fuzz_spec(spec, **kwargs):
    return verify_program(FuzzProgram(spec), fuzz_problem_spec(spec),
                          fuzz_correspondence(spec), **kwargs)


# -- the no-op tracer -----------------------------------------------------


class TestNullTracer:
    def test_records_nothing(self):
        with NULL_TRACER.span("verify", attrs={"problem": "x"}) as span:
            span.set(extra=1)
            span.set_meta(worker="w")
        assert NULL_TRACER.to_records() == []
        assert not NULL_TRACER.enabled

    def test_span_is_shared_no_allocation(self):
        # one reusable context object -- disabled tracing allocates nothing
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_verify_without_tracer_matches_traced_report(self):
        plain = verify_fuzz_spec(SPEC)
        traced = verify_fuzz_spec(SPEC, tracer=Tracer())
        assert plain.signature() == traced.signature()

    def test_near_zero_overhead(self):
        # generous bound: 100k no-op spans must be far under a second
        start = time.perf_counter()
        for _ in range(100_000):
            with NULL_TRACER.span("s"):
                pass
        assert time.perf_counter() - start < 1.0


# -- JSONL round-trip -----------------------------------------------------


def build_sample_tracer():
    tracer = Tracer()
    with tracer.span("verify", attrs={"problem": "p"},
                     meta={"jobs": 2}) as root:
        with tracer.span("phase:explore") as child:
            child.set_meta(runs=3)
            with tracer.span("check", attrs={"fp": "abc123"}):
                pass
        root.set_meta(mode="exhaustive")
    return tracer


class TestRoundTrip:
    def test_write_then_read_same_tree(self):
        tracer = build_sample_tracer()
        metrics = MetricsRegistry()
        metrics.inc("checker.evals", 7, restriction="r1")
        metrics.observe("checker.seconds", 0.5, restriction="r1")
        tracer.add_explanation(
            {"type": "explanation", "restriction": "r1",
             "text": "why", "steps": []})
        buf = io.StringIO()
        count = write_trace(buf, tracer, metrics)
        lines = buf.getvalue().splitlines()
        assert count == len(lines) == 1 + 3 + 2 + 1  # meta+spans+metrics+expl

        buf.seek(0)
        data = read_trace(buf)
        assert data.meta["schema"] == 1
        assert structure_dump(data.spans) == structure_dump(tracer.roots)
        # meta survives too (it is just excluded from *structure*)
        names = {s.name: s for s in iter_spans(data.spans)}
        assert names["phase:explore"].meta == {"runs": 3}
        assert [r["name"] for r in data.metric_records] \
            == ["checker.evals", "checker.seconds"]
        assert data.explanations[0]["restriction"] == "r1"

    def test_times_normalised_to_origin(self):
        tracer = build_sample_tracer()
        buf = io.StringIO()
        write_trace(buf, tracer)
        buf.seek(0)
        spans = list(iter_spans(read_trace(buf).spans))
        assert min(s.t_start for s in spans) == 0.0
        assert all(s.t_end >= s.t_start for s in spans)

    def test_graft_preserves_structure(self):
        worker = build_sample_tracer()
        parent = Tracer()
        with parent.span("verify") as root:
            parent.graft(worker.to_records(), root)
        assert parent.roots[0].children[0].structure() \
            == worker.roots[0].structure()


class TestSchemaValidation:
    def test_rejects_unknown_type(self):
        with pytest.raises(TraceSchemaError, match="unknown record type"):
            validate_record({"type": "bogus"})

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(TraceSchemaError, match="schema version"):
            validate_record({"type": "meta", "schema": 99})

    def test_rejects_missing_span_fields(self):
        with pytest.raises(TraceSchemaError, match="missing"):
            validate_record({"type": "span", "sid": 0})

    def test_read_rejects_headerless_trace(self):
        buf = io.StringIO('{"type": "metric", "kind": "counter", '
                          '"name": "x", "labels": {}, "value": 1}\n')
        with pytest.raises(TraceSchemaError, match="meta header"):
            read_trace(buf)

    def test_read_reports_line_numbers(self):
        buf = io.StringIO('{"type": "meta", "schema": 1}\nnot json\n')
        with pytest.raises(TraceSchemaError, match="line 2"):
            read_trace(buf)

    def test_read_rejects_orphan_span(self):
        buf = io.StringIO(
            '{"type": "meta", "schema": 1}\n'
            '{"type": "span", "sid": 1, "parent": 99, "name": "s", '
            '"attrs": {}, "meta": {}, "t_start": 0.0, "t_end": 0.0}\n')
        with pytest.raises(TraceSchemaError, match="unknown.*parent"):
            read_trace(buf)


# -- tolerant reads of damaged streams ------------------------------------


def sample_trace_text():
    """A valid multi-record stream (meta + 3 spans + 2 metrics)."""
    metrics = MetricsRegistry()
    metrics.inc("checker.evals", 7, restriction="r1")
    metrics.inc("engine.phase_seconds", 0.5, phase="explore")
    buf = io.StringIO()
    write_trace(buf, build_sample_tracer(), metrics)
    return buf.getvalue()


class TestTolerantReader:
    def test_valid_stream_is_not_truncated(self):
        data = read_trace(io.StringIO(sample_trace_text()), strict=False)
        assert not data.truncated and data.error is None
        assert data.records_read == 6

    def test_salvages_prefix_of_json_cut_mid_line(self):
        # a daemon killed mid-write leaves a half-serialised last line
        text = sample_trace_text()
        lines = text.splitlines()
        damaged = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        data = read_trace(io.StringIO(damaged), strict=False)
        assert data.truncated
        assert "invalid JSON" in data.error
        assert data.records_read == len(lines) - 1
        # the valid prefix parsed completely: the span tree and the
        # first metric survive
        assert structure_dump(data.spans) \
            == structure_dump(build_sample_tracer().roots)
        assert [r["name"] for r in data.metric_records] == ["checker.evals"]

    def test_strict_still_raises_on_the_same_stream(self):
        text = sample_trace_text()[:-20]
        with pytest.raises(TraceSchemaError):
            read_trace(io.StringIO(text), strict=True)
        with pytest.raises(TraceSchemaError):
            read_trace(io.StringIO(text))  # strict is the default

    def test_salvages_prefix_before_corrupt_record(self):
        text = sample_trace_text() + '{"type": "nonsense"}\n'
        data = read_trace(io.StringIO(text), strict=False)
        assert data.truncated
        assert "unknown record type" in data.error
        assert data.records_read == 6

    def test_salvages_prefix_before_orphan_span(self):
        text = (sample_trace_text()
                + '{"type": "span", "sid": 99, "parent": 42, "name": "s", '
                  '"attrs": {}, "meta": {}, "t_start": 0.0, "t_end": 0.0}\n')
        data = read_trace(io.StringIO(text), strict=False)
        assert data.truncated
        assert "unknown parent 42" in data.error
        assert structure_dump(data.spans) \
            == structure_dump(build_sample_tracer().roots)

    def test_garbage_header_raises_even_tolerantly(self):
        # no valid meta header -> no prefix worth salvaging
        with pytest.raises(TraceSchemaError, match="unknown record type"):
            read_trace(io.StringIO('{"type": "nonsense"}\n'), strict=False)
        with pytest.raises(TraceSchemaError, match="invalid JSON"):
            read_trace(io.StringIO("not json at all\n"), strict=False)
        with pytest.raises(TraceSchemaError, match="meta header"):
            read_trace(io.StringIO(""), strict=False)

    def test_truncated_stream_still_profiles(self):
        text = sample_trace_text()
        damaged = text[: text.rindex("{") ] + '{"half'
        data = read_trace(io.StringIO(damaged), strict=False)
        report = render_profile(data)
        assert "WARNING: stream truncated" in report
        assert "phase" in report


# -- fork-pool merge determinism ------------------------------------------


class TestMergeStability:
    def test_structure_byte_stable_across_jobs(self):
        t1, t4 = Tracer(), Tracer()
        r1 = verify_fuzz_spec(SPEC, tracer=t1, jobs=1)
        r4 = verify_fuzz_spec(SPEC, tracer=t4, jobs=4)
        assert r1.signature() == r4.signature()
        assert structure_dump(t1.roots) == structure_dump(t4.roots)

    def test_structure_byte_stable_across_jobs_without_por(self):
        # ample selection is a pure function of (state, path), so the
        # jobs-invariance guarantee must hold per por setting -- the
        # reduced tree with --por (above), the full tree without (here)
        t1, t4 = Tracer(), Tracer()
        r1 = verify_fuzz_spec(SPEC, tracer=t1, jobs=1, por=False)
        r4 = verify_fuzz_spec(SPEC, tracer=t4, jobs=4, por=False)
        assert r1.signature() == r4.signature()
        assert structure_dump(t1.roots) == structure_dump(t4.roots)

    def test_por_prunes_are_traced_in_span_meta(self):
        from repro.engine.por import AmpleSelector
        from repro.sim.scheduler import explore_or_sample

        tracer = Tracer()
        explore_or_sample(FuzzProgram(SPEC), tracer=tracer,
                          por=AmpleSelector())
        explores = [s for s in iter_spans(tracer.roots)
                    if s.name == "explore"]
        assert explores
        assert explores[0].meta.get("por_pruned", 0) > 0

    def test_parallel_trace_has_worker_meta(self):
        tracer = Tracer()
        verify_fuzz_spec(SPEC, tracer=tracer, jobs=2)
        tasks = [s for s in iter_spans(tracer.roots) if s.name == "task"]
        assert tasks and all("worker" in s.meta for s in tasks)

    def test_metrics_merge_across_jobs(self):
        # absolute eval counts are honest about actual work, which IS
        # jobs-dependent (each worker dedupes privately); the *set* of
        # metered restrictions must match, and every count be positive
        reports = [verify_fuzz_spec(SPEC, tracer=Tracer(), jobs=j)
                   for j in (1, 4)]
        evals = [r.engine_stats.metrics.by_label("checker.evals",
                                                 "restriction")
                 for r in reports]
        assert set(evals[0]) == set(evals[1]) == {"dep-edges-present"}
        assert all(v > 0 for e in evals for v in e.values())


# -- the planted fork bug, explained --------------------------------------


def renamed_process(name="ForkPoolWorker-sim"):
    """The planted bug triggers off the process name; fake being forked."""
    proc = multiprocessing.current_process()
    original = proc.name
    proc.name = name

    class _Restore:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            proc.name = original

    return _Restore()


class TestForkBugExplanation:
    def test_explanation_pinpoints_failing_restriction(self):
        spec = FuzzProgramSpec(procs=(2, 2), deps=((1, 1, 0, 0),),
                               bug=FORK_DROPS_ENABLES)
        with renamed_process():
            report = verify_fuzz_spec(spec, jobs=1)
        assert not report.ok
        assert report.failed_restrictions() == ["dep-edges-present"]

        # replay the failing run (provenance, not re-exploration) and ask
        # the explainer *why* -- it must name the broken restriction
        run_index, choices = sorted(report.failing_run_choices.items())[0]
        with renamed_process():
            computation = replay_prefix(
                FuzzProgram(spec), choices).computation()
        projected = project(computation, fuzz_correspondence(spec))
        problem = fuzz_problem_spec(spec)
        restriction = problem.all_restrictions()[0]
        explanation = explain_restriction(projected, restriction)
        assert explanation is not None
        assert explanation.restriction == "dep-edges-present"
        rec = explanation.to_record()
        validate_record(rec)
        assert "dep-edges-present" in explanation.render_text()
        assert explanation.to_dot().startswith("digraph")

    def test_checker_attaches_explanation_to_tracer(self):
        spec = FuzzProgramSpec(procs=(2, 2), deps=((1, 1, 0, 0),),
                               bug=FORK_DROPS_ENABLES)
        program = FuzzProgram(spec)
        with renamed_process():
            from repro.sim.scheduler import explore
            failing = None
            for candidate in explore(program):
                projected = project(candidate.computation,
                                    fuzz_correspondence(spec))
                tracer = Tracer()
                with tracer.span("witness-replay"):
                    result = fuzz_problem_spec(spec).check(
                        projected, tracer=tracer)
                if not result.ok:
                    failing = (result, tracer)
                    break
        assert failing is not None
        result, tracer = failing
        assert tracer.explanations
        assert tracer.explanations[0]["restriction"] == "dep-edges-present"


# -- one failure descent ---------------------------------------------------


@pytest.fixture
def lattice_searches(monkeypatch):
    """Names of the witness module's □/◇ lattice searches, one entry per
    call: a failure descent makes one per □/◇ it descends through."""
    import repro.core.witness as witness_module

    calls = []
    for name in ("_first_failing_history", "_path_avoiding"):
        search = getattr(witness_module, name)

        def counted(*args, _search=search, _name=name):
            calls.append(_name)
            return _search(*args)

        monkeypatch.setattr(witness_module, name, counted)
    return calls


class TestOneDescent:
    """The witness and the explanation of a failure share one descent."""

    @pytest.mark.parametrize("case, searches", [
        ("monitor-one-slot-buffer", ["_first_failing_history"]),
        ("ada-readers-writers", ["_first_failing_history"] * 2),
        ("db_update", ["_path_avoiding"]),
    ])
    def test_traced_cli_witness_descends_once(self, case, searches,
                                              lattice_searches, tmp_path,
                                              capsys):
        from repro.cli import main

        assert main(["verify", case, "--mutant", "--witness", "--trace",
                     str(tmp_path / "t.jsonl"), "--jobs", "1"]) == 0
        assert "counterexample for" in capsys.readouterr().out
        assert lattice_searches == searches

    def test_checker_descends_once_for_witness_and_trace(
            self, lattice_searches):
        from repro.core import (ComputationBuilder, ForAll, Henceforth, Not,
                                Occurred, Restriction, check_restriction)

        b = ComputationBuilder()
        work = b.add_event("W", "Work")
        b.add_enable(work, b.add_event("J", "Join"))
        never_join = Restriction(
            "never-join", Henceforth(ForAll("j", "Join", Not(Occurred("j")))))
        tracer = Tracer()
        outcome = check_restriction(b.freeze(), never_join,
                                    with_witness=True, tracer=tracer)
        assert not outcome.holds
        assert "witness: at history {J^1, W^1}" in outcome.detail
        assert [e["restriction"] for e in tracer.explanations] == [
            "never-join"]
        assert lattice_searches == ["_first_failing_history"]


# -- guarded progress hooks -----------------------------------------------


class TestGuardedProgress:
    def test_raising_hook_warns_once_and_disables(self):
        calls = []

        def bad_hook(event, info):
            calls.append(event)
            raise RuntimeError("boom")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = verify_fuzz_spec(SPEC, progress=bad_hook)
        assert report.ok  # the verification survived the hook
        assert len(calls) == 1  # disabled after the first raise
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "hook disabled" in str(runtime[0].message)

    def test_guard_progress_is_idempotent(self):
        guarded = guard_progress(lambda e, i: None)
        assert isinstance(guarded, GuardedProgress)
        assert guard_progress(guarded) is guarded
        assert guard_progress(None) is None

    def test_healthy_hook_keeps_firing(self):
        events = []
        verify_fuzz_spec(SPEC, progress=lambda e, i: events.append(e))
        assert "phase:start" in events and "phase:end" in events


# -- provenance witness replay --------------------------------------------


class TestWitnessReplay:
    def test_failing_run_choices_replay_the_failure(self):
        spec = FuzzProgramSpec(procs=(2, 2), deps=((1, 1, 0, 0),),
                               bug=FORK_DROPS_ENABLES)
        with renamed_process():
            report = verify_fuzz_spec(spec, jobs=1)
        assert report.failing_run_choices  # provenance was recorded
        run_index, choices = sorted(report.failing_run_choices.items())[0]
        assert run_index in report.verdict("dep-edges-present").failing_runs
        with renamed_process():
            computation = replay_prefix(
                FuzzProgram(spec), choices).computation()
        projected = project(computation, fuzz_correspondence(spec))
        assert not fuzz_problem_spec(spec).check(projected).ok

    def test_passing_report_records_no_choices(self):
        report = verify_fuzz_spec(SPEC)
        assert report.ok
        assert report.failing_run_choices == {}


# -- EngineStats as a metrics view ----------------------------------------


class TestEngineStatsView:
    def test_counters_route_to_registry(self):
        stats = EngineStats()
        stats.runs = 10
        stats.checks_performed += 3
        assert stats.metrics.get("engine.runs") == 10
        assert stats.metrics.get("engine.checks_performed") == 3
        assert stats.runs == 10

    def test_phase_seconds_view(self):
        stats = EngineStats()
        stats.add_phase_seconds("explore+check", 1.5)
        stats.add_phase_seconds("explore+check", 0.5)
        assert stats.phase_seconds == {"explore+check": 2.0}
        assert stats.total_seconds == 2.0

    def test_worker_records_fold_in(self):
        worker = MetricsRegistry()
        worker.inc("checker.evals", 5, restriction="r")
        stats = EngineStats()
        stats.metrics.merge_records(worker.records())
        stats.metrics.merge_records(worker.records())
        assert stats.metrics.get("checker.evals", restriction="r") == 10

    def test_describe_still_renders(self):
        # por off: reduction collapses SPEC to one shard (hence one worker)
        report = verify_fuzz_spec(SPEC, jobs=2, por=False)
        text = report.engine_stats.describe()
        assert "engine: exhaustive, 2 worker(s)" in text
        assert "dedupe ratio" in text
        assert "por: disabled" in text

    def test_describe_renders_por_line(self):
        report = verify_fuzz_spec(SPEC, jobs=2)
        text = report.engine_stats.describe()
        assert "pruned at" in text
        assert "proviso expansion(s)" in text

    def test_trace_and_stats_cannot_disagree(self):
        tracer = Tracer()
        report = verify_fuzz_spec(SPEC, tracer=tracer)
        buf = io.StringIO()
        write_trace(buf, tracer, report.engine_stats.metrics)
        buf.seek(0)
        data = read_trace(buf)
        runs = [r for r in data.metric_records
                if r["name"] == "engine.runs"]
        assert runs and runs[0]["value"] == report.runs_checked


# -- the profile renderer -------------------------------------------------


class TestProfile:
    def test_profile_reports_phases_restrictions_workers(self, tmp_path):
        tracer = Tracer()
        report = verify_fuzz_spec(SPEC, tracer=tracer, jobs=2)
        path = str(tmp_path / "t.jsonl")
        write_trace(path, tracer, report.engine_stats.metrics)
        data = read_trace(path)
        text = render_profile(data)
        assert "schema v1" in text
        assert "phase" in text.lower()
        assert "dep-edges-present" in text
        assert "worker" in text.lower()

    def test_profile_of_minimal_trace(self):
        buf = io.StringIO()
        write_trace(buf, build_sample_tracer())
        buf.seek(0)
        text = render_profile(read_trace(buf))
        assert "verify" in text
