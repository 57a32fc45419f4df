"""Tests for the repro.corpus batch engine and its CLI surface."""

import json
import os
import shutil

import pytest

from repro import obs
from repro.cli import main
from repro.corpus import (
    CorpusError,
    JobResult,
    ResultCache,
    analyze_pair,
    discover_jobs,
    job_cache_key,
    job_fails,
    job_signature,
    open_cache,
    parse_manifest,
    render,
    run_corpus,
)
from repro.corpus.manifest import JobSpec
from repro.corpus.runner import FAULT_DELAY_ENV
from repro.obs.journal import read_journal

RECIPES_SCHEMA = """
# the Example 2.3 DTD, abridged
start recipes
recipes -> recipe*
recipe -> description . comments
description -> text
comments -> comment*
comment -> text
"""

SELECT_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel)
rule qsel description -> description(q)
text q
"""

COPYING_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel qsel)
rule qsel description -> description(q)
text q
"""

BROKEN_TDX = """
initial q0
rlue q0 recipes -> recipes(q0)
"""

MANIFEST = """
# TRANSDUCER SCHEMA [PROTECTED_LABEL ...]
select.tdx recipes.schema
copying.tdx recipes.schema
select.tdx recipes.schema comment   # protected deletion
broken.tdx recipes.schema
"""


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "recipes.schema").write_text(RECIPES_SCHEMA)
    (root / "select.tdx").write_text(SELECT_TDX)
    (root / "copying.tdx").write_text(COPYING_TDX)
    (root / "broken.tdx").write_text(BROKEN_TDX)
    (root / "manifest.txt").write_text(MANIFEST)
    return root


@pytest.fixture
def convention_corpus(tmp_path):
    root = tmp_path / "plain"
    root.mkdir()
    (root / "recipes.schema").write_text(RECIPES_SCHEMA)
    (root / "select.tdx").write_text(SELECT_TDX)
    (root / "copying.tdx").write_text(COPYING_TDX)
    return root


class TestManifest:
    def test_parse(self, corpus):
        jobs = discover_jobs(str(corpus))
        assert [job.job_id for job in jobs] == [
            "select.tdx x recipes.schema",
            "copying.tdx x recipes.schema",
            "select.tdx x recipes.schema [protect comment]",
            "broken.tdx x recipes.schema",
        ]
        assert jobs[2].protect == ("comment",)
        assert os.path.isfile(jobs[0].transducer_path)

    def test_convention_cross_product(self, convention_corpus):
        jobs = discover_jobs(str(convention_corpus))
        assert [(job.transducer_name, job.schema_name) for job in jobs] == [
            ("copying.tdx", "recipes.schema"),
            ("select.tdx", "recipes.schema"),
        ]
        assert all(job.protect == () for job in jobs)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusError):
            discover_jobs(str(tmp_path / "nope"))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(CorpusError):
            discover_jobs(str(tmp_path))

    def test_malformed_line(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("only-one-token\n")
        with pytest.raises(CorpusError) as err:
            parse_manifest(str(manifest), str(tmp_path))
        assert "manifest.txt:1" in str(err.value)

    def test_duplicate_job(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.tdx s.schema\na.tdx s.schema\n")
        with pytest.raises(CorpusError) as err:
            parse_manifest(str(manifest), str(tmp_path))
        assert "duplicate" in str(err.value)


class TestCacheKey:
    def _spec(self, corpus, transducer="select.tdx", protect=()):
        return JobSpec(
            transducer_path=str(corpus / transducer),
            schema_path=str(corpus / "recipes.schema"),
            protect=tuple(protect),
        )

    def test_bytes_path_and_spec_make_the_key(self, corpus):
        # The job object cites the file's lines and names its paths, so
        # a comment, a reorder or another path must not reuse a result.
        key = job_cache_key(self._spec(corpus))
        assert job_cache_key(self._spec(corpus)) == key
        (corpus / "select.tdx").write_text("# cosmetic change\n" + SELECT_TDX)
        assert job_cache_key(self._spec(corpus)) != key
        reordered = "\n".join(reversed(SELECT_TDX.strip().splitlines()))
        (corpus / "select.tdx").write_text(reordered + "\n")
        assert job_cache_key(self._spec(corpus)) != key
        (corpus / "select.tdx").write_text(SELECT_TDX)
        assert job_cache_key(self._spec(corpus)) == key
        (corpus / "twin.tdx").write_text(SELECT_TDX)
        assert job_cache_key(self._spec(corpus, transducer="twin.tdx")) != key

    def test_semantic_edit_invalidates(self, corpus):
        key = job_cache_key(self._spec(corpus))
        (corpus / "select.tdx").write_text(
            SELECT_TDX + "rule qsel comments -> comments(q)\nrule q comment -> comment(q)\n"
        )
        assert job_cache_key(self._spec(corpus)) != key

    def test_protect_set_is_part_of_the_key(self, corpus):
        assert job_cache_key(self._spec(corpus)) != job_cache_key(
            self._spec(corpus, protect=("comment",))
        )

    def test_engine_version_is_part_of_the_key(self, corpus):
        spec = self._spec(corpus)
        assert job_cache_key(spec, "engine-a") != job_cache_key(spec, "engine-b")

    def test_malformed_file_keys_on_raw_bytes(self, corpus):
        spec = self._spec(corpus, transducer="broken.tdx")
        key = job_cache_key(spec)
        assert key is not None
        (corpus / "broken.tdx").write_text(BROKEN_TDX + "# still broken\n")
        assert job_cache_key(spec) != key

    def test_missing_file_is_uncacheable(self, corpus):
        assert job_cache_key(self._spec(corpus, transducer="ghost.tdx")) is None


class TestResultCache:
    def test_roundtrip_and_corruption(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("ab" + "0" * 62) is None
        key = "ab" + "0" * 62
        cache.put(key, {"job_id": "x", "verdict": "safe"})
        assert cache.get(key)["verdict"] == "safe"
        assert cache.entry_count() == 1
        with open(cache.path_for(key), "w") as handle:
            handle.write("{truncated")
        assert cache.get(key) is None


class TestAnalyzePair:
    def test_matches_single_pair_deciders(self, corpus):
        from repro.cli import load_schema, load_transducer
        from repro import is_copying, is_rearranging

        dtd = load_schema(str(corpus / "recipes.schema"))
        for name, expected_verdict in (("select.tdx", "safe"), ("copying.tdx", "unsafe")):
            result = analyze_pair(str(corpus / name), str(corpus / "recipes.schema"))
            transducer = load_transducer(str(corpus / name))
            assert result.verdict == expected_verdict
            assert result.copying == is_copying(transducer, dtd)
            assert result.rearranging == is_rearranging(transducer, dtd)

    def test_protected_deletion(self, corpus):
        result = analyze_pair(
            str(corpus / "select.tdx"), str(corpus / "recipes.schema"), ("comment",)
        )
        assert result.verdict == "unsafe"
        assert result.protected_deletions == ("comment",)
        assert any(d["code"].startswith("TP4") for d in result.diagnostics)

    def test_error_isolation(self, corpus):
        result = analyze_pair(str(corpus / "broken.tdx"), str(corpus / "recipes.schema"))
        assert result.verdict == "error"
        assert "rlue" in result.error

    def test_counter_example_and_observations(self, corpus):
        result = analyze_pair(str(corpus / "copying.tdx"), str(corpus / "recipes.schema"))
        assert result.counter_example_xml.startswith("<?xml")
        assert result.observations["counters"]  # the decision pipeline counted work
        payload = json.loads(json.dumps(result.to_dict()))
        assert JobResult.from_dict(payload).verdict == "unsafe"


class TestRunCorpus:
    def test_full_run_and_cache(self, corpus):
        jobs = discover_jobs(str(corpus))
        cache = ResultCache(str(corpus / ".repro-cache"))
        summary = run_corpus(jobs, max_workers=2, cache=cache)
        verdicts = {result.job_id: result.verdict for result in summary.results}
        assert verdicts == {
            "select.tdx x recipes.schema": "safe",
            "copying.tdx x recipes.schema": "unsafe",
            "select.tdx x recipes.schema [protect comment]": "unsafe",
            "broken.tdx x recipes.schema": "error",
        }
        # Worst verdicts first.
        assert [result.verdict for result in summary.results] == [
            "error", "unsafe", "unsafe", "safe",
        ]
        assert summary.cache_hits == 0 and summary.cache_misses == 4
        assert cache.entry_count() == 4  # deterministic errors are cached too

        # The second run is pure lookups: no recomputation at all.
        second = run_corpus(jobs, max_workers=2, cache=cache)
        assert second.cache_hits == 4 and second.cache_misses == 0
        assert all(result.cache_hit for result in second.results)
        assert {r.job_id: r.verdict for r in second.results} == verdicts

    def test_editing_one_file_invalidates_exactly_that_pair(self, corpus):
        jobs = discover_jobs(str(corpus))
        cache = ResultCache(str(corpus / ".repro-cache"))
        run_corpus(jobs, max_workers=2, cache=cache)
        # Fix the bug.  The content stays distinct from select.tdx's,
        # though the key would not collide anyway: it holds the path.
        (corpus / "copying.tdx").write_text(
            SELECT_TDX + "rule qsel comments -> comments(q)\nrule q comment -> comment(q)\n"
        )
        summary = run_corpus(jobs, max_workers=2, cache=cache)
        assert summary.cache_hits == 3 and summary.cache_misses == 1
        fresh = [result for result in summary.results if not result.cache_hit]
        assert [result.job_id for result in fresh] == ["copying.tdx x recipes.schema"]
        assert fresh[0].verdict == "safe"

    def test_no_cache(self, corpus):
        jobs = discover_jobs(str(corpus))
        first = run_corpus(jobs, max_workers=2, cache=None)
        second = run_corpus(jobs, max_workers=2, cache=None)
        assert first.cache_hits == second.cache_hits == 0
        assert not (corpus / ".repro-cache").exists()

    def test_parent_recorder_aggregates_job_counters(self, corpus):
        jobs = discover_jobs(str(corpus))
        with obs.recording() as recorder:
            run_corpus(jobs, max_workers=2, cache=None)
        assert recorder.counters["corpus.jobs.total"] == 4
        assert recorder.counters["corpus.cache.misses"] == 4
        assert recorder.counters["corpus.verdict.unsafe"] == 2
        # Worker-side decision counters crossed the process boundary.
        assert any(name.startswith("ptime.") or name.startswith("nta.")
                   for name in recorder.counters)

    def test_timeout_isolates_the_slow_job(self, corpus, monkeypatch):
        monkeypatch.setenv(FAULT_DELAY_ENV, "copying.tdx:30")
        jobs = discover_jobs(str(corpus))
        cache = ResultCache(str(corpus / ".repro-cache"))
        summary = run_corpus(jobs, max_workers=2, timeout=1.0, cache=cache)
        verdicts = {result.job_id: result.verdict for result in summary.results}
        assert verdicts["copying.tdx x recipes.schema"] == "timeout"
        assert verdicts["select.tdx x recipes.schema"] == "safe"
        assert verdicts["broken.tdx x recipes.schema"] == "error"
        timed_out = next(r for r in summary.results if r.verdict == "timeout")
        assert "timeout" in timed_out.error
        # Transient timeouts are not cached: the entry count excludes it.
        assert cache.entry_count() == 3

    def test_job_fails_thresholds(self):
        safe_with_warning = JobResult(
            job_id="x", transducer="t", schema="s", verdict="safe",
            diagnostics=[{"code": "TP101", "severity": "warning", "message": "m"}],
        )
        assert not job_fails(safe_with_warning, "error")
        assert job_fails(safe_with_warning, "warning")
        assert job_fails(JobResult(job_id="x", transducer="t", schema="s",
                                   verdict="timeout"), "error")


class TestReports:
    @pytest.fixture
    def summary(self, corpus):
        jobs = discover_jobs(str(corpus))
        cache = ResultCache(str(corpus / ".repro-cache"))
        run_corpus(jobs, max_workers=2, cache=cache)
        return run_corpus(jobs, max_workers=2, cache=cache)  # all hits

    def test_text_footer(self, summary):
        text = render(summary, "text")
        assert "cache: 4 hits, 0 misses (100.0% hit rate)" in text
        assert text.index("ERROR") < text.index("UNSAFE") < text.index("safe ")

    def test_markdown(self, summary):
        markdown = render(summary, "markdown")
        assert "| verdict | job |" in markdown
        assert "**cache:** 4 hits, 0 misses (100.0% hit rate)" in markdown

    def test_jsonl(self, summary):
        lines = render(summary, "json").strip().splitlines()
        assert len(lines) == 5  # 4 jobs + summary trailer
        jobs = [json.loads(line) for line in lines[:-1]]
        assert all(job["cache_hit"] for job in jobs)
        trailer = json.loads(lines[-1])
        assert trailer["summary"]["cache"] == {"hits": 4, "misses": 0, "hit_rate": 1.0}

    def test_unknown_format(self, summary):
        with pytest.raises(ValueError):
            render(summary, "yaml")


class TestBatchCli:
    def test_exit_1_on_findings_and_footer(self, corpus, capsys):
        assert main(["batch", str(corpus), "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "cache: 0 hits, 4 misses" in out
        # Second run: 100% cache hits, asserted via the report footer
        # and the cache directory contents.
        assert main(["batch", str(corpus), "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "cache: 4 hits, 0 misses (100.0% hit rate)" in out
        cache_files = [
            name
            for _root, _dirs, files in os.walk(corpus / ".repro-cache")
            for name in files
            if name.endswith(".json")
        ]
        assert len(cache_files) == 4

    def test_exit_0_on_clean_corpus(self, convention_corpus, capsys):
        os.remove(str(convention_corpus / "copying.tdx"))
        assert main(["batch", str(convention_corpus)]) == 0
        assert "1 safe" in capsys.readouterr().out

    def test_no_prefilter_lasts_for_the_run_only(self, convention_corpus, capsys):
        from repro.lint.dataflow import prefilter_enabled

        os.remove(str(convention_corpus / "copying.tdx"))
        argv = ["batch", str(convention_corpus), "--no-cache", "--stats"]
        assert main(argv) == 0
        assert "dataflow.prefilter.skips" in capsys.readouterr().err
        assert main(argv + ["--no-prefilter"]) == 0
        assert "dataflow.prefilter.skips" not in capsys.readouterr().err
        assert prefilter_enabled()

    def test_exit_2_on_malformed_corpus(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "missing")]) == 2
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.txt").write_text("tooshort\n")
        assert main(["batch", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_timeout_flag(self, corpus, capsys, monkeypatch):
        monkeypatch.setenv(FAULT_DELAY_ENV, "copying.tdx:30")
        assert main(["batch", str(corpus), "--no-cache", "--timeout", "1",
                     "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "TIMEOUT" in out and "safe" in out

    def test_output_file_and_json(self, corpus, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        assert main(["batch", str(corpus), "--jobs", "2", "--format", "json",
                     "--output", str(report)]) == 1
        capsys.readouterr()
        lines = report.read_text().strip().splitlines()
        assert json.loads(lines[-1])["summary"]["jobs"] == 4

    def test_bad_flags(self, corpus, capsys):
        assert main(["batch", str(corpus), "--jobs", "0"]) == 2
        assert main(["batch", str(corpus), "--timeout", "-1"]) == 2
        capsys.readouterr()


class TestExampleCorpus:
    """The shipped corpus under examples/files/corpus is live documentation."""

    CORPUS = os.path.join(os.path.dirname(__file__), "..", "examples", "files", "corpus")

    def test_discovery(self):
        jobs = discover_jobs(self.CORPUS)
        assert len(jobs) == 6
        names = {job.transducer_name for job in jobs}
        assert names == {"select.tdx", "identity.tdx", "duplicate.tdx",
                         "swap_comments.tdx", "broken.tdx"}

    def test_expected_verdicts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        summary = run_corpus(discover_jobs(self.CORPUS), max_workers=4, cache=cache)
        verdicts = {result.job_id: result.verdict for result in summary.results}
        assert verdicts == {
            "select.tdx x recipes.schema": "safe",
            "identity.tdx x recipes.schema": "safe",
            "duplicate.tdx x recipes.schema": "unsafe",
            "swap_comments.tdx x recipes.schema": "unsafe",
            "select.tdx x recipes.schema [protect comment]": "unsafe",
            "broken.tdx x recipes.schema": "error",
        }


class TestRunRecords:
    """``run_corpus``'s one sink: the journal's own records."""

    CORPUS = TestExampleCorpus.CORPUS

    def test_batch_journal_record_order(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        shutil.copytree(
            self.CORPUS, corpus, ignore=shutil.ignore_patterns(".repro-*")
        )
        run_corpus(discover_jobs(corpus)[:2], cache=open_cache(corpus))
        journal = str(tmp_path / "journal")
        # --timeout sends every miss to the pool, which ticks progress.
        assert main([
            "batch", corpus, "--journal", journal, "--timeout", "30",
            "--no-progress", "--format", "json",
        ]) == 1
        records = read_journal(journal)
        assert all(record.type != "progress" for record in records)
        run = [record for record in records if record.type in ("run", "job")]
        assert [record.type for record in run] == ["run"] + ["job"] * 4 + ["run"]
        begin, jobs, finish = run[0].data, run[1:-1], run[-1].data
        assert begin["phase"] == "begin"
        assert (begin["total"], begin["cache_hits"], begin["to_run"]) == (6, 2, 4)
        assert [record.data["done"] for record in jobs] == [1, 2, 3, 4]
        for record in jobs:
            assert record.data["job"]["observations"] == {}
            assert record.data["job"]["cache_hit"] is False
            assert record.data["verdict"] == record.data["job"]["verdict"]
        assert finish["phase"] == "finish"
        assert finish["summary"]["jobs"] == 6

    def test_jobs_withdrawn_before_submission_are_announced(self):
        records = []
        summary = run_corpus(
            discover_jobs(self.CORPUS), timeout=30, cancel=lambda: True,
            on_event=lambda type, data: records.append((type, data)),
        )
        jobs = [data for type, data in records if type == "job"]
        assert len(jobs) == 6
        assert {data["verdict"] for data in jobs} == {"cancelled"}
        assert [data["done"] for data in jobs] == [1, 2, 3, 4, 5, 6]
        assert summary.verdict_counts()["cancelled"] == 6


class TestWarmEqualsFresh:
    """A cache hit is the job object a fresh run computes: the key holds
    every job field the object carries and the bytes of both files."""

    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "recipes.schema").write_text(RECIPES_SCHEMA)
        (root / "copying.tdx").write_text(COPYING_TDX)
        return root

    @staticmethod
    def signatures(root, cache):
        summary = run_corpus(discover_jobs(str(root)), max_workers=1, cache=cache)
        return sorted(job_signature(result.to_dict()) for result in summary.results)

    def assert_warm_equals_fresh(self, root, cache):
        assert self.signatures(root, cache) == self.signatures(root, None)

    def test_byte_identical_twin(self, root, tmp_path):
        (root / "twin.tdx").write_text(COPYING_TDX)
        cache = ResultCache(str(tmp_path / "cache"))
        self.signatures(root, cache)
        self.assert_warm_equals_fresh(root, cache)
        assert cache.entry_count() == 2

    def test_renamed_file(self, root, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self.signatures(root, cache)
        os.rename(str(root / "copying.tdx"), str(root / "renamed.tdx"))
        self.assert_warm_equals_fresh(root, cache)

    def test_comment_lines_move_the_cited_lines(self, root, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self.signatures(root, cache)
        (root / "copying.tdx").write_text("# one\n# two\n" + COPYING_TDX)
        self.assert_warm_equals_fresh(root, cache)

    def test_second_corpus_on_a_shared_cache(self, root, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self.signatures(root, cache)
        second = tmp_path / "second"
        shutil.copytree(str(root), str(second))
        self.assert_warm_equals_fresh(second, cache)

    def test_protect_order(self, root, tmp_path):
        (root / "select.tdx").write_text(SELECT_TDX)
        (root / "manifest.txt").write_text(
            "select.tdx recipes.schema comment description\n"
            "select.tdx recipes.schema description comment\n"
        )
        cache = ResultCache(str(tmp_path / "cache"))
        self.signatures(root, cache)
        self.assert_warm_equals_fresh(root, cache)
        assert cache.entry_count() == 2
