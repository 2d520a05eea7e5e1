"""Tests for ``repro.serve`` -- the verification daemon.

The acceptance bar for the daemon is *byte-identity*: for every
catalog case, the report signature a daemon job produces must equal
the one-shot engine's, rendered through the same canonical JSON.  One
real daemon (background thread, ephemeral port, resident pool) serves
the whole module; protocol validation is tested without any daemon at
all.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import case_catalog, main
from repro.engine import EngineConfig, run_verification
from repro.obs import iter_spans, read_trace, validate_record
from repro.serve import JobSpec, ProtocolError, parse_job_spec
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import start_in_thread
from repro.serve.protocol import (
    catalog_entries,
    parse_submission,
    signature_json,
)

# -- protocol (no daemon) ----------------------------------------------------


class TestProtocol:
    def test_defaults(self):
        spec = parse_job_spec({"case": "monitor-bounded-buffer"})
        assert spec.case == "monitor-bounded-buffer"
        assert not spec.mutant
        assert spec.jobs == 1 and spec.por and spec.dfa

    def test_flags_mirror_verify_cli(self):
        spec = parse_job_spec({"case": "db_update", "mutant": True,
                               "jobs": 4, "por": False, "dfa": False,
                               "history_cap": 1000})
        assert spec.mutant and spec.jobs == 4
        assert not spec.por
        assert not spec.dfa
        assert spec.history_cap == 1000

    def test_case_ref_always_traces(self):
        ref = parse_job_spec({"case": "db_update"}).case_ref()
        assert ref.trace  # one hot worker state per workload

    @pytest.mark.parametrize("payload, message", [
        ({}, "exactly one of"),
        ({"case": "x", "inline": {"procs": [1]}}, "exactly one of"),
        ({"case": "monitor-bounded-buffer", "speed": 11}, "unknown job key"),
        ({"case": "no-such-case"}, "unknown case"),
        ({"case": "db_update", "jobs": 0}, "'jobs' must be"),
        ({"case": "db_update", "jobs": True}, "'jobs' must be"),
        ({"case": "db_update", "por": 1}, "'por' must be"),
        # the deleted checking-route switches are unknown keys now
        ({"case": "db_update", "slice": False, "compile": False},
         "unknown job key"),
        ({"inline": {"procs": []}}, "inline.procs"),
        ({"inline": {"procs": [2], "deps": [[1, 2]]}}, "inline.deps"),
        ({"inline": {"procs": [2], "bug": 7}}, "inline.bug"),
    ])
    def test_rejects(self, payload, message):
        with pytest.raises(ProtocolError, match=message):
            parse_job_spec(payload, case_catalog())

    def test_submission_single_vs_batch(self):
        one = parse_submission({"case": "db_update"})
        many = parse_submission([{"case": "db_update"}] * 3)
        assert len(one) == 1 and len(many) == 3
        with pytest.raises(ProtocolError, match="not be empty"):
            parse_submission([])
        with pytest.raises(ProtocolError, match="batch limit"):
            parse_submission([{"case": "db_update"}] * 3, limit=2)

    def test_signature_json_is_canonical(self):
        sig = ("name", True, 3, (("r", True, (1, 2)),))
        as_json = signature_json(sig)
        assert as_json == ["name", True, 3, [["r", True, [1, 2]]]]
        # round-trips stably: the byte-identity comparisons rely on it
        assert signature_json(sig) == json.loads(json.dumps(as_json))

    def test_spec_json_round_trip(self):
        spec = JobSpec(case="db_update", mutant=True, jobs=2, por=False)
        assert parse_job_spec(spec.to_json()) == spec

    def test_dfa_flag_round_trips_and_labels(self):
        spec = parse_job_spec({"case": "db_update", "dfa": False})
        assert not spec.dfa
        assert parse_job_spec(spec.to_json()) == spec
        assert "no-dfa" in spec.describe()
        assert not spec.case_ref().dfa  # reaches the worker recipe
        assert parse_job_spec({"case": "db_update"}).describe() == "db_update"


class TestCatalogMetadata:
    def test_entries_cover_every_case(self):
        entries = {e["name"]: e for e in catalog_entries()}
        assert set(entries) == set(case_catalog())

    def test_languages(self):
        catalog = case_catalog()
        assert catalog["monitor-bounded-buffer"].language == "monitor"
        assert catalog["csp-readers-writers"].language == "csp"
        assert catalog["ada-one-slot-buffer"].language == "ada"
        assert catalog["db_update"].language == "distributed"

    def test_mutant_availability_is_honest(self):
        """has_mutant=False exactly when the factory ignores the flag:
        the mutant workload's report signature equals the normal one."""
        catalog = case_catalog()
        assert not catalog["csp-bounded-buffer"].has_mutant
        assert catalog["monitor-bounded-buffer"].has_mutant

    def test_list_json_cli(self, capsys):
        assert main(["list", "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"cases": catalog_entries()}


# -- the daemon --------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    handle = start_in_thread(jobs=2, job_workers=2)
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(daemon):
    c = ServeClient(port=daemon.port)
    assert c.ping()
    return c


def oneshot_signature(case: str, mutant: bool = False, **cfg) -> list:
    entry = case_catalog()[case]
    program, spec, corr, pspec = entry.factory(mutant)
    report, _ = run_verification(program, spec, corr, pspec,
                                 EngineConfig(**cfg))
    return signature_json(report.signature())


class TestDaemon:
    def test_cases_endpoint_is_the_cli_catalog(self, client):
        assert client.cases() == catalog_entries()

    def test_whole_catalog_signatures_match_oneshot(self, client):
        """The acceptance criterion: every case, byte-identical."""
        names = list(case_catalog())
        ids = client.submit([{"case": name, "jobs": 2} for name in names])
        for name, job_id in zip(names, ids):
            snap = client.wait(job_id, timeout=300)
            assert snap["state"] == "done", f"{name}: {snap}"
            assert snap["result"]["signature"] == oneshot_signature(name), (
                f"{name}: daemon signature differs from one-shot")

    def test_jobs_setting_does_not_change_signature(self, client):
        sigs = set()
        for jobs in (1, 2):
            snap = client.verify({"case": "csp-one-slot-buffer",
                                  "jobs": jobs})
            assert snap["state"] == "done"
            sigs.add(json.dumps(snap["result"]["signature"]))
        assert len(sigs) == 1
        assert json.loads(sigs.pop()) == oneshot_signature(
            "csp-one-slot-buffer", jobs=2)

    def test_warm_resubmission_replays_the_shared_cache(self, client):
        cold = client.verify({"case": "csp-bounded-buffer"})
        warm = client.verify({"case": "csp-bounded-buffer"})
        assert warm["result"]["signature"] == cold["result"]["signature"]
        assert warm["result"]["stats"]["checks_performed"] == 0
        assert (warm["result"]["stats"]["cache_hits"]
                + warm["result"]["stats"]["dedupe_hits"]) > 0

    def test_dfa_inert_is_a_plan_fact(self, client, tmp_path):
        """The count comes from the specifications' plans, so a cold
        one-shot run, a warm one-shot run and a resubmitted daemon job
        all report it."""
        program, spec, corr, pspec = case_catalog()[
            "monitor-bounded-buffer"].factory(False)
        config = EngineConfig(cache_dir=str(tmp_path))
        _report, cold = run_verification(program, spec, corr, pspec, config)
        _report, warm = run_verification(program, spec, corr, pspec, config)
        assert cold.checks_performed > 0 and warm.checks_performed == 0
        counts = [cold.dfa_inert, warm.dfa_inert]
        for _ in range(2):
            snap = client.verify({"case": "monitor-bounded-buffer"})
            counts.append(snap["result"]["stats"]["dfa_inert"])
        assert counts == [2] * 4

    def test_mutant_fails_and_says_so(self, client):
        snap = client.verify({"case": "monitor-one-slot-buffer",
                              "mutant": True})
        assert snap["state"] == "done"
        assert snap["result"]["ok"] is False
        assert snap["result"]["signature"] == oneshot_signature(
            "monitor-one-slot-buffer", mutant=True)

    def test_inline_program_payload(self, client):
        from repro.fuzz.programs import (FuzzProgram, FuzzProgramSpec,
                                         fuzz_correspondence,
                                         fuzz_problem_spec)

        inline = {"procs": [2, 2], "deps": [[0, 1, 1, 0]], "bug": None}
        snap = client.verify({"inline": inline})
        assert snap["state"] == "done"
        fspec = FuzzProgramSpec((2, 2), ((0, 1, 1, 0),), None)
        report, _ = run_verification(
            FuzzProgram(fspec), fuzz_problem_spec(fspec),
            fuzz_correspondence(fspec), None, EngineConfig())
        assert snap["result"]["signature"] == signature_json(
            report.signature())

    def test_history_cap_flag_reaches_the_checker(self, client):
        # an absurdly small cap must abort the lattice checker, proving
        # the flag crosses the HTTP + pool + fork boundaries; the
        # failure is reported on the job, never raised in the daemon
        capped = client.verify({"case": "monitor-one-slot-buffer",
                                "history_cap": 1})
        assert capped["state"] == "failed"
        assert "history_cap" in capped["error"]

    def test_events_stream_is_a_valid_trace(self, client, tmp_path):
        snap = client.verify({"case": "csp-one-slot-buffer"})
        records = list(client.events(snap["id"]))
        assert records[0]["type"] == "meta"
        for rec in records:
            validate_record(rec)  # raises on any schema violation
        # ... and `repro profile` can read the stream like a --trace file
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
        data = read_trace(str(path))
        assert data.spans, "stream carries the job's span tree"
        names = {s.name for s in iter_spans(data.spans)}
        assert "verify" in names and "task" in names

    def test_job_status_snapshot_shape(self, client):
        snap = client.verify({"case": "csp-one-slot-buffer", "jobs": 2})
        assert snap["label"] == "csp-one-slot-buffer [jobs=2]"
        assert snap["spec"]["case"] == "csp-one-slot-buffer"
        assert snap["result"]["stats"]["mode"] == "exhaustive"
        assert "summary" in snap["result"]

    def test_sampled_census_is_byte_stable_and_slice_exact(self, client):
        """A run-capped (sampled) job reports exact slice-backed
        verdicts, byte-stable across resubmission and across the job's
        ``jobs`` setting (the resident pool owns the shard layout, so a
        spec's worker cap must not perturb the sampled census).  Run
        totals differ from a serial one-shot by design -- shard-level
        sampling draws per shard -- so the one-shot comparison is over
        verdicts, and the slice guarantees they are exact either way.
        Counters cover fresh checks only (a warm shared-cache replay
        legitimately reports zero hits), so hit counts are asserted on
        the one-shot side in tests/test_slice.py."""
        first = client.verify({"case": "ada-readers-writers",
                               "max_runs": 16})
        assert first["state"] == "done"
        stats = first["result"]["stats"]
        assert stats["mode"] in ("sampled", "reused")
        assert "slice_hits" in stats and "slice_fallbacks" in stats
        assert stats["slice_fallbacks"] == 0
        for spec in ({"case": "ada-readers-writers", "max_runs": 16},
                     {"case": "ada-readers-writers", "max_runs": 16,
                      "jobs": 2}):
            again = client.verify(spec)
            assert again["result"]["signature"] == first["result"]["signature"]
            assert again["result"]["stats"]["slice_fallbacks"] == 0
        oneshot = oneshot_signature("ada-readers-writers", max_runs=16)
        daemon_sig = first["result"]["signature"]
        assert daemon_sig[6] == oneshot[6]  # restriction verdicts
        assert daemon_sig[1] == oneshot[1] is False  # both sampled

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.job("j999999")
        assert exc.value.status == 404

    def test_bad_submissions_are_400(self, client):
        for payload in ({"case": "no-such-case"},
                        {"case": "db_update", "bogus": 1},
                        {"case": "db_update", "slice": False},
                        {"case": "db_update", "compile": False},
                        ["not a spec"]):
            with pytest.raises(ServeError) as exc:
                client.submit(payload)
            assert exc.value.status == 400

    def test_cancel_finished_job_conflicts(self, client):
        snap = client.verify({"case": "csp-one-slot-buffer"})
        with pytest.raises(ServeError) as exc:
            client.cancel(snap["id"])
        assert exc.value.status == 409

    def test_cancel_running_job(self, client):
        (job_id,) = client.submit({"case": "monitor-readers-writers"})
        client.cancel(job_id)
        snap = client.wait(job_id, timeout=120)
        assert snap["state"] == "cancelled"

    def test_stats_endpoint(self, client):
        stats = client.stats()
        assert stats["pool"]["resident"] is True
        assert stats["jobs"]["done"] >= 1
        assert stats["cache"]["entries"] >= 1
        assert stats["cache"]["hits"] >= 1  # the warm resubmission test

    def test_submit_cli_exit_codes(self, daemon, capsys):
        port = str(daemon.port)
        assert main(["submit", "csp-one-slot-buffer", "--port", port]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert main(["submit", "monitor-one-slot-buffer", "--mutant",
                     "--port", port]) == 0
        assert "FAILED" in capsys.readouterr().out

    def test_submit_cli_no_wait_prints_id(self, daemon, capsys):
        assert main(["submit", "csp-one-slot-buffer", "--no-wait",
                     "--port", str(daemon.port)]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("j")
        snap = ServeClient(port=daemon.port).wait(job_id, timeout=120)
        assert snap["state"] == "done"
