"""Tests for the ``python -m repro`` command-line interface.

Each test drives :func:`repro.cli.main` with an argv list and asserts
on the exit code and captured output -- the same surface a shell user
sees.  ``monitor-one-slot-buffer`` is the workhorse case because it is
the cheapest exhaustive verification in the catalogue.
"""

import os

import pytest

from repro.cli import main

CASE = "monitor-one-slot-buffer"


class TestList:
    def test_lists_all_cases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 15
        assert out == sorted(out)
        assert CASE in out
        assert {line.split("-")[0] for line in out} == {"monitor", "csp",
                                                        "ada", "db_update",
                                                        "objects"}


class TestVerify:
    def test_verifies_a_case(self, capsys):
        assert main(["verify", CASE]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "distinct computations" in out

    def test_unknown_case_is_an_error(self, capsys):
        assert main(["verify", "no-such-case"]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_parallel_jobs_flag(self, capsys):
        assert main(["verify", CASE]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", CASE, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial  # byte-identical report

    def test_stats_flag(self, capsys):
        assert main(["verify", CASE, "--jobs", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine:" in out
        assert "dedupe ratio" in out

    def test_cache_flag_creates_and_reuses_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["verify", CASE, "--cache", cache]) == 0
        cold = capsys.readouterr().out
        files = os.listdir(cache)
        assert any(f.startswith("gem-cache-") for f in files)
        assert main(["verify", CASE, "--cache", cache, "--stats"]) == 0
        warm = capsys.readouterr().out
        assert cold.splitlines()[0] in warm  # identical summary line
        assert "from cache" in warm

    def test_cache_path_that_is_a_file_errors_cleanly(self, tmp_path,
                                                      capsys):
        not_a_dir = tmp_path / "cachefile"
        not_a_dir.write_text("")
        assert main(["verify", CASE, "--cache", str(not_a_dir)]) == 2
        err = capsys.readouterr().err
        assert "not a directory" in err

    def test_mutant_fails_and_exits_zero(self, capsys):
        # --mutant inverts the exit code: the negative control is
        # *expected* to fail verification
        assert main(["verify", CASE, "--mutant"]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_mutant_witness(self, capsys):
        assert main(["verify", CASE, "--mutant", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "counterexample for" in out

    def test_mutant_through_parallel_engine(self, capsys):
        assert main(["verify", CASE, "--mutant", "--jobs", "2"]) == 0
        assert "FAILED" in capsys.readouterr().out


class TestPorFlag:
    def test_flag_matrix_is_byte_identical(self, capsys):
        # CASE's eager exploration is already canonical (runs ==
        # distinct computations), so a sound POR prunes nothing there:
        # every combination of --por/--no-por, --dfa/--no-dfa and --jobs
        # must print the exact same report
        outputs = set()
        for por in (["--por"], ["--no-por"]):
            for dfa in (["--dfa"], ["--no-dfa"]):
                for jobs in (["--jobs", "1"], ["--jobs", "4"]):
                    argv = ["verify", CASE, *por, *dfa, *jobs]
                    assert main(argv) == 0
                    outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_no_por_counts_all_interleavings(self, capsys):
        # db_update has genuinely redundant interleavings; --no-por
        # counts them all, --por (the default) prunes them -- both
        # verify, over the same distinct computations
        assert main(["verify", "db_update"]) == 0
        reduced = capsys.readouterr().out
        assert main(["verify", "db_update", "--no-por"]) == 0
        full = capsys.readouterr().out
        assert "VERIFIED" in reduced and "VERIFIED" in full
        distinct = [line.split("runs, ")[1]
                    for line in (reduced, full)]
        assert distinct[0] == distinct[1]
        runs = [int(out.split("(all ")[1].split(" runs")[0])
                for out in (reduced, full)]
        assert runs[0] < runs[1]

    def test_no_por_jobs_invariant(self, capsys):
        assert main(["verify", "db_update", "--no-por"]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", "db_update", "--no-por", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_stats_name_the_reduction(self, capsys):
        assert main(["verify", "db_update", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pruned at" in out
        assert main(["verify", "db_update", "--no-por", "--stats"]) == 0
        assert "por: disabled" in capsys.readouterr().out


class TestTrace:
    def test_trace_writes_schema_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import iter_spans, read_trace

        path = str(tmp_path / "t.jsonl")
        assert main(["verify", CASE, "--trace", path]) == 0
        out = capsys.readouterr().out
        assert f"record(s) written to {path}" in out
        data = read_trace(path)  # raises TraceSchemaError if malformed
        names = {s.name for s in iter_spans(data.spans)}
        assert {"verify", "task", "check"} <= names
        assert any(r["name"] == "engine.runs" for r in data.metric_records)

    def test_trace_structure_identical_across_jobs(self, tmp_path, capsys):
        from repro.obs import read_trace, structure_dump

        p1, p4 = str(tmp_path / "t1.jsonl"), str(tmp_path / "t4.jsonl")
        assert main(["verify", "db_update", "--trace", p1]) == 0
        assert main(["verify", "db_update", "--trace", p4,
                     "--jobs", "4"]) == 0
        capsys.readouterr()
        assert structure_dump(read_trace(p1).spans) \
            == structure_dump(read_trace(p4).spans)

    def test_mutant_trace_carries_explanation(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = str(tmp_path / "t.jsonl")
        assert main(["verify", CASE, "--mutant", "--witness",
                     "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "counterexample for" in out
        assert "explanation for restriction" in out
        data = read_trace(path)
        assert data.explanations  # the why-trace rode along in the file

    def test_witness_dot_file(self, tmp_path, capsys):
        dot = tmp_path / "w.dot"
        assert main(["verify", CASE, "--mutant", "--witness-dot",
                     str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text().startswith("digraph")

    def test_profile_renders_report(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main(["verify", CASE, "--trace", path, "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["profile", path]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out
        assert "workers:" in out

    def test_profile_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "nonsense"}\n')
        assert main(["profile", str(bad)]) == 2
        assert "unknown record type" in capsys.readouterr().err

    def test_profile_salvages_truncated_trace(self, tmp_path, capsys):
        # default is tolerant: a stream the daemon died mid-write on
        # still profiles, with a truncation warning up front
        path = tmp_path / "t.jsonl"
        assert main(["verify", CASE, "--trace", str(path)]) == 0
        capsys.readouterr()
        # a proper prefix of a JSON line is never valid JSON, so this
        # always leaves a torn final record
        path.write_text(path.read_text()[:-10])
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "WARNING: stream truncated" in out
        assert "phases:" in out

    def test_profile_strict_rejects_truncated_trace(self, tmp_path,
                                                    capsys):
        path = tmp_path / "t.jsonl"
        assert main(["verify", CASE, "--trace", str(path)]) == 0
        capsys.readouterr()
        # a proper prefix of a JSON line is never valid JSON, so this
        # always leaves a torn final record
        path.write_text(path.read_text()[:-10])
        assert main(["profile", str(path), "--strict"]) == 2
        assert capsys.readouterr().err

    def test_fuzz_trace(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = str(tmp_path / "f.jsonl")
        assert main(["fuzz", "--iterations", "4",
                     "--oracle", "order-laws",
                     "--trace", path]) == 0
        capsys.readouterr()
        data = read_trace(path)
        assert any(s.name == "fuzz-iteration" for s in data.spans)
        assert any(r["name"] == "fuzz.iterations"
                   for r in data.metric_records)


class TestDrawing:
    def test_dot_prints_digraph(self, capsys):
        assert main(["dot", CASE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_dot_unknown_case(self, capsys):
        assert main(["dot", "nope"]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_lattice(self, capsys):
        assert main(["lattice"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_examples(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "(paper: 5)" in out
        assert "(paper: 3)" in out


class TestArgparseErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
