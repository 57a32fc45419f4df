"""Tests for work attribution (labeled counters, `explain`) and run
diffing (`trace-diff`, the report sections)."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.cli import main
from repro.obs import (
    Snapshot,
    attribution_tables,
    diff_profiles,
    group_by_label,
    label_key,
    labeled_from_jsonable,
    labeled_to_jsonable,
    profile_from_recorder,
    profile_from_snapshot,
    read_run,
    render_attribution,
    render_diff,
)
from repro.obs.attr import format_label_key

RECIPES_SCHEMA = """
start recipes
recipes -> recipe*
recipe -> description . comments
description -> text
comments -> comment*
comment -> text
"""

COPYING_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel qsel)
rule qsel description -> description(q)
text q
"""

SELECT_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel)
rule qsel description -> description(q)
text q
"""


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "recipes.schema"
    schema.write_text(RECIPES_SCHEMA)
    copying = tmp_path / "copying.tdx"
    copying.write_text(COPYING_TDX)
    select = tmp_path / "select.tdx"
    select.write_text(SELECT_TDX)
    return {
        "schema": str(schema),
        "copying": str(copying),
        "select": str(select),
        "dir": tmp_path,
    }


class TestLabeledCounters:
    def test_labels_update_both_registries(self):
        with obs.recording() as recorder:
            obs.add("work.units", 3, rule="q0/a", site="s1")
            obs.add("work.units", 2, rule="q1/b", site="s1")
            obs.add("work.units", 1)  # flat only
        assert recorder.counters["work.units"] == 6
        by_key = recorder.labeled["work.units"]
        assert by_key[label_key({"rule": "q0/a", "site": "s1"})] == 3
        assert by_key[label_key({"rule": "q1/b", "site": "s1"})] == 2
        assert sum(by_key.values()) == 5  # unlabeled unit not in registry

    def test_label_key_is_order_insensitive_and_stringified(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
        assert label_key({"a": "x", "b": 2}) == label_key({"b": 2, "a": "x"})

    def test_same_name_different_labels_accumulate_separately(self):
        with obs.recording() as recorder:
            for _ in range(3):
                obs.add("n", 1, k="a")
            obs.add("n", 1, k="b")
        assert recorder.labeled["n"][label_key({"k": "a"})] == 3
        assert recorder.labeled["n"][label_key({"k": "b"})] == 1

    def test_disabled_mode_is_a_noop(self):
        # No recorder installed: neither registry exists to write to,
        # and the call must not raise.
        obs.add("nothing", 5, rule="r")

    def test_jsonable_round_trip_is_sorted_and_stable(self):
        labeled = {
            "n": {
                label_key({"rule": "z"}): 1.0,
                label_key({"rule": "a"}): 2.0,
            }
        }
        payload = labeled_to_jsonable(labeled)
        assert [row["labels"]["rule"] for row in payload["n"]] == ["a", "z"]
        assert labeled_from_jsonable(payload) == labeled


class TestSnapshotV3:
    def _snapshot(self, pid, value):
        with obs.recording(log_level=obs.LEVELS["info"]) as recorder:
            with obs.span("job"):
                obs.add("ptime.product_states", value, rule="q0/r", site="nfa")
                obs.info("corpus.job", "ran", job=pid)
        snapshot = Snapshot.from_recorder(recorder)
        for event in snapshot.events:
            event["pid"] = pid  # simulate distinct worker processes
        return snapshot

    def test_to_dict_is_version_4_with_labeled(self):
        snapshot = self._snapshot(pid=1, value=4)
        payload = snapshot.to_dict()
        assert payload["version"] == 4
        assert payload["labeled"]["ptime.product_states"][0]["value"] == 4
        assert Snapshot.from_dict(payload).labeled == snapshot.labeled

    def test_merge_adds_labeled_across_worker_pids(self):
        a, b = self._snapshot(pid=101, value=4), self._snapshot(pid=202, value=6)
        merged = a.merge(b)
        key = label_key({"rule": "q0/r", "site": "nfa"})
        assert merged.labeled["ptime.product_states"][key] == 10
        assert merged.counters["ptime.product_states"] == 10
        # Both workers' events survive, in order, with their pids.
        assert [event["pid"] for event in merged.events] == [101, 202]

    def test_merge_into_recorder_does_not_double_count(self):
        snapshot = self._snapshot(pid=1, value=4)
        with obs.recording() as recorder:
            snapshot.merge_into(recorder)
            snapshot.merge_into(recorder)
        key = label_key({"rule": "q0/r", "site": "nfa"})
        assert recorder.counters["ptime.product_states"] == 8
        assert recorder.labeled["ptime.product_states"][key] == 8

    def test_legacy_payload_without_labeled_loads(self):
        snapshot = Snapshot.from_dict({"version": 2, "counters": {"n": 1}})
        assert snapshot.labeled == {}

    def test_cache_form_keeps_the_labeled_registry(self):
        snapshot = self._snapshot(pid=1, value=4)
        cached = snapshot.without_replayable_state()
        assert cached.labeled == snapshot.labeled
        assert cached.events == [] and cached.spans == []

    def test_real_worker_processes_ship_labeled(self):
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            payloads = pool.map(_worker_snapshot, [3, 5])
        merged = Snapshot.from_dict(payloads[0]).merge(
            Snapshot.from_dict(payloads[1])
        )
        key = label_key({"rule": "q0/r", "site": "worker"})
        assert merged.labeled["work.states"][key] == 8


def _worker_snapshot(value):
    """Module-level so spawn-based pools can pickle it."""
    with obs.recording() as recorder:
        obs.add("work.states", value, rule="q0/r", site="worker")
    return Snapshot.from_recorder(recorder).to_dict()


class TestChromeTraceExport:
    def test_empty_recorder_exports_a_valid_trace(self, tmp_path):
        recorder = obs.Recorder()
        trace = obs.to_chrome_trace(recorder)
        # Only metadata events — no spans, counters, or instants.
        assert all(event["ph"] == "M" for event in trace["traceEvents"])
        path = tmp_path / "empty.json"
        obs.write_chrome_trace(recorder, str(path))
        loaded = json.loads(path.read_text())
        assert all(event["ph"] == "M" for event in loaded["traceEvents"])

    def test_log_only_run_exports(self):
        with obs.recording(log_level=obs.LEVELS["info"]) as recorder:
            obs.info("only.log", "no spans, no counters")
        trace = obs.to_chrome_trace(recorder)
        # Instant event for the log line; no X spans, no C counters.
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert "X" not in phases and "C" not in phases
        assert any(event.get("ph") == "i" for event in trace["traceEvents"])

    def test_labeled_registry_rides_the_trace(self, tmp_path):
        with obs.recording() as recorder:
            with obs.span("root"):
                obs.add("n", 2, rule="r1")
        trace = obs.to_chrome_trace(recorder)
        metadata = [
            event for event in trace["traceEvents"]
            if event.get("name") == "repro_labeled"
        ]
        assert len(metadata) == 1
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(recorder, str(path))
        profile = profile_from_snapshot(read_run(str(path)), label="t")
        assert profile.labeled["n"][label_key({"rule": "r1"})] == 2

    def test_write_chrome_trace_is_byte_stable(self, tmp_path):
        with obs.recording() as recorder:
            with obs.span("root"):
                obs.add("b", 1)
                obs.add("a", 1, k="v")
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        obs.write_chrome_trace(recorder, str(path_a))
        obs.write_chrome_trace(recorder, str(path_b))
        assert path_a.read_text() == path_b.read_text()


class TestAttributionTables:
    def _tables(self, top=10):
        counters = {"p.states": 10.0}
        labeled = {
            "p.states": {
                label_key({"rule": "a", "site": "s"}): 6.0,
                label_key({"rule": "b", "site": "s"}): 3.0,
            }
        }
        return attribution_tables(counters, labeled, top=top)

    def test_totals_coverage_and_order(self):
        (table,) = self._tables()
        assert table.total == 10 and table.attributed == 9
        assert table.coverage == pytest.approx(0.9)
        assert [row.value for row in table.rows] == [6.0, 3.0]
        assert table.rows[0].share == pytest.approx(0.6)
        assert table.procedure == "p"

    def test_top_k_folds_but_keeps_mass(self):
        (table,) = self._tables(top=1)
        assert len(table.rows) == 1 and table.hidden == 1
        assert table.attributed == 9  # hidden mass still counted

    def test_total_falls_back_to_labeled_sum(self):
        labeled = {"n": {label_key({"k": "v"}): 4.0}}
        (table,) = attribution_tables({}, labeled)
        assert table.total == 4 and table.coverage == 1.0

    def test_group_by_label(self):
        by_key = {
            label_key({"rule": "a", "site": "x"}): 1.0,
            label_key({"rule": "a", "site": "y"}): 2.0,
            label_key({"site": "y"}): 5.0,
        }
        assert group_by_label(by_key, "rule") == {"a": 3.0, "(unlabeled)": 5.0}

    def test_renders(self):
        tables = self._tables()
        text = render_attribution(tables, "text")
        assert "rule=a site=s" in text and "60.0%" in text
        markdown = render_attribution(tables, "markdown")
        assert "| `rule=a site=s` | 6 | 60.0% |" in markdown
        payload = json.loads(render_attribution(tables, "json"))
        assert payload[0]["counter"] == "p.states"
        assert format_label_key(label_key({"b": 1, "a": 2})) == "a=2 b=1"


class TestProfileDiff:
    def _recorder_profile(self, extra=0):
        with obs.recording() as recorder:
            with obs.span("root"):
                with obs.span("child"):
                    obs.add("n", 5 + extra, rule="r")
                obs.gauge_max("g", 2.0 + extra)
        return profile_from_recorder(recorder, label="run%d" % extra)

    def test_identical_runs_do_not_diverge(self):
        profile = self._recorder_profile()
        diff = diff_profiles(profile, profile)
        assert diff.diverging == []

    def test_counter_and_attribution_deltas_sorted_worst_first(self):
        diff = diff_profiles(self._recorder_profile(0), self._recorder_profile(3))
        counter = [d for d in diff.counters if d.key == "n"][0]
        assert counter.delta == 3 and counter.status == "changed"
        attribution = [d for d in diff.attribution if d.key.startswith("n{")][0]
        assert "rule=r" in attribution.key and attribution.delta == 3

    def test_only_a_only_b_statuses(self):
        a, b = self._recorder_profile(), self._recorder_profile()
        a.counters["only.a"] = 1
        b.counters["only.b"] = 1
        diff = diff_profiles(a, b)
        statuses = {d.key: d.status for d in diff.counters}
        assert statuses["only.a"] == "only-a"
        assert statuses["only.b"] == "only-b"

    def test_span_paths_aggregate_by_name_path(self):
        profile = self._recorder_profile()
        assert "root" in profile.spans and "root/child" in profile.spans

    def test_render_formats(self):
        diff = diff_profiles(self._recorder_profile(0), self._recorder_profile(3))
        text = render_diff(diff, "text")
        assert "trace-diff:" in text and "counters" in text
        markdown = render_diff(diff, "markdown")
        assert markdown.startswith("# Trace diff")
        payload = json.loads(render_diff(diff, "json"))
        assert payload["a"] == "run0" and payload["b"] == "run3"


class TestRunProfileSniffing:
    def test_chrome_trace_file(self, tmp_path):
        with obs.recording() as recorder:
            with obs.span("root"):
                obs.add("n", 1, k="v")
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(recorder, str(path))
        profile = profile_from_snapshot(read_run(str(path)))
        assert profile.counters["n"] == 1
        assert profile.labeled["n"][label_key({"k": "v"})] == 1

    def test_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            read_run(str(path))


class TestHotPathAttribution:
    def test_product_states_fully_attributed(self, files):
        from repro.cli import load_schema, load_transducer
        from repro.core.topdown_analysis import copying_nfa
        from repro.schema.dtd import dtd_to_nta

        transducer = load_transducer(files["copying"])
        nta = dtd_to_nta(load_schema(files["schema"]))
        with obs.recording() as recorder:
            copying_nfa(transducer, nta)
        by_key = recorder.labeled["ptime.product_states"]
        assert sum(by_key.values()) == recorder.counters["ptime.product_states"]
        rules = {dict(key).get("rule") for key in by_key}
        assert any("/" in rule for rule in rules)  # real rules named
        assert "(seed)" in rules and "(accept)" in rules

    def test_typecheck_vectors_attributed_per_label(self):
        from repro.core.typecheck import typechecks
        from repro.paper import example42_transducer
        from tests.test_core_typecheck import RECIPES, figure2_dtd

        with obs.recording() as recorder:
            assert typechecks(example42_transducer(), RECIPES, figure2_dtd())
        by_key = recorder.labeled["typecheck.vectors"]
        # Every vector, the seed text vector included, is credited to
        # the least input label among the transitions entering it.
        assert recorder.counters["typecheck.vectors"] == 19
        assert sum(by_key.values()) == recorder.counters["typecheck.vectors"]
        labels = {dict(key)["label"] for key in by_key}
        assert labels and labels <= set(RECIPES.alphabet) | {"text"}


#: Prints the labeled counters of analyze_pair on the four example
#: corpus pairs and of the Example 4.2 typecheck against Figure 2, one
#: JSON line per decision.
_SEEDED_ATTRIBUTION = """
import json, sys
from repro import obs
from repro.corpus import analyze_pair
from repro.core.typecheck import typechecks
from repro.paper import example42_transducer
from tests.test_core_typecheck import RECIPES, figure2_dtd
corpus = sys.argv[1]
for name in ("select", "identity", "duplicate", "swap_comments"):
    result = analyze_pair("%s/%s.tdx" % (corpus, name), corpus + "/recipes.schema")
    print(json.dumps(result.observations["labeled"], sort_keys=True))
with obs.recording() as recorder:
    typechecks(example42_transducer(), RECIPES, figure2_dtd())
print(json.dumps(obs.labeled_to_jsonable(recorder.labeled), sort_keys=True))
"""


class TestAttributionIsReproducible:
    def test_labeled_counters_do_not_depend_on_the_hash_seed(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        root = os.path.dirname(src)
        corpus = os.path.join(root, "examples", "files", "corpus")
        path = os.pathsep.join(filter(None, [src, root, os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _SEEDED_ATTRIBUTION, corpus],
                env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in range(4)
        ]
        try:
            outputs = [run.communicate(timeout=600)[0] for run in runs]
        finally:
            for run in runs:
                run.kill()
        assert [run.returncode for run in runs] == [0, 0, 0, 0]
        lines = outputs[0].splitlines()
        assert len(lines) == 5
        # select and identity are proved safe by the pre-filter.
        assert all("ptime.product_states" in line for line in lines[2:4])
        assert "typecheck.vectors" in lines[4]
        assert outputs[1:] == [outputs[0]] * 3


class TestExplainCli:
    def test_explain_meets_attribution_floor(self, files, capsys):
        # Acceptance: >= 90% of ptime.product_states lands in named
        # attribution rows on the copying example, with real transducer
        # rules present among them.
        status = main([
            "explain", files["copying"], files["schema"], "--format", "json",
        ])
        assert status == 0
        tables = json.loads(capsys.readouterr().out)
        (table,) = [t for t in tables if t["counter"] == "ptime.product_states"]
        assert table["coverage"] >= 0.9
        rules = [
            row["labels"]["rule"]
            for row in table["rows"]
            if "/" in row["labels"].get("rule", "")
        ]
        assert rules, table

    def test_explain_text_and_top(self, files, capsys):
        assert main(["explain", files["copying"], files["schema"],
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "procedure ptime" in out
        assert "more label combinations" in out

    def test_explain_bad_input_exits_2(self, files, capsys):
        missing = str(files["dir"] / "nope.tdx")
        assert main(["explain", missing, files["schema"]]) == 2

    def test_explain_output_file(self, files, tmp_path, capsys):
        out_path = tmp_path / "explain.md"
        assert main(["explain", files["copying"], files["schema"],
                     "--format", "markdown", "--output", str(out_path)]) == 0
        assert "## Procedure" in out_path.read_text()


class TestTraceDiffCli:
    def _write_trace(self, files, transducer, path):
        status = main([
            "check", files[transducer], files["schema"],
            "--trace", str(path),
        ])
        assert status in (0, 1)

    def test_diff_two_traces(self, files, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trace(files, "select", a)
        self._write_trace(files, "copying", b)
        capsys.readouterr()
        assert main(["trace-diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "trace-diff:" in out and "diverging" in out

    def test_diff_same_trace_reports_identity(self, files, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._write_trace(files, "select", a)
        capsys.readouterr()
        assert main(["trace-diff", str(a), str(a)]) == 0
        assert "0 diverging metrics" in capsys.readouterr().out

    def test_missing_file_exits_2(self, files, tmp_path, capsys):
        assert main(["trace-diff", str(tmp_path / "no.json"),
                     str(tmp_path / "pe.json")]) == 2

    def test_markdown_output_file(self, files, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._write_trace(files, "select", a)
        out_path = tmp_path / "diff.md"
        assert main(["trace-diff", str(a), str(a), "--format", "markdown",
                     "--output", str(out_path)]) == 0
        assert out_path.read_text().startswith("# Trace diff")


class TestLintStatsSorted:
    def test_lint_json_stats_keys_are_sorted(self, files, capsys):
        status = main(["lint", files["select"], files["schema"],
                       "--format", "json"])
        assert status in (0, 1)
        document = json.loads(capsys.readouterr().out)
        keys = list(document["stats"])
        assert keys == sorted(keys)
        assert "memo_hits" in keys


class TestHtmlSections:
    def test_attribution_and_diff_sections(self, files, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["check", files["copying"], files["schema"],
                     "--trace", str(trace)]) in (0, 1)
        out_path = tmp_path / "obs.html"
        assert main(["report", "--trace", str(trace),
                     "--baseline-trace", str(trace),
                     "--output", str(out_path)]) == 0
        html = out_path.read_text()
        assert "Work attribution" in html
        assert "Trace diff vs baseline" in html
        assert "0 diverging metrics" in html
        assert "rule=" in html

    def test_baseline_trace_without_trace_exits_2(self, tmp_path, capsys):
        assert main(["report", "--baseline-trace", str(tmp_path / "a.json"),
                     "--output", str(tmp_path / "obs.html")]) == 2

    def test_placeholders_without_inputs(self, tmp_path, capsys):
        out_path = tmp_path / "obs.html"
        assert main(["report", "--output", str(out_path)]) == 0
        html = out_path.read_text()
        assert "No labeled counters" in html
        assert "No baseline supplied" in html
