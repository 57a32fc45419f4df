"""Tests for the histogram registry, Snapshot v4 transport, and the
OpenMetrics exposition format."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.obs import Snapshot
from repro.obs.metrics import (
    MAX_BUCKET,
    Histogram,
    bucket_index,
    bucket_upper_bound,
    merge_registry,
    render_openmetrics,
    validate_openmetrics,
)


class TestBuckets:
    def test_powers_of_two_boundaries(self):
        # Bucket i covers (2^(i-1), 2^i]: the value 2^i sits in bucket
        # i, 2^i + epsilon in bucket i+1.
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 2
        assert bucket_index(4) == 2
        assert bucket_index(5) == 3
        assert bucket_index(1024) == 10
        assert bucket_index(1025) == 11

    def test_sub_one_and_non_positive_values_land_in_bucket_zero(self):
        assert bucket_index(0.25) == 0
        assert bucket_index(0.0) == 0
        assert bucket_index(-3.0) == 0

    def test_huge_values_clamp_to_max_bucket(self):
        assert bucket_index(2.0 ** 200) == MAX_BUCKET
        assert bucket_upper_bound(MAX_BUCKET) == 2.0 ** MAX_BUCKET


class TestHistogram:
    def test_summary_quantiles_track_the_sample_spread(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        # log2 buckets are coarse: the quantiles only need to be in the
        # right region, and never outside the observed range.
        assert 30.0 <= summary["p50"] <= 80.0
        assert summary["p90"] <= 100.0
        assert summary["p99"] <= 100.0
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_summary_keys_are_sorted(self):
        histogram = Histogram()
        histogram.observe(5)
        assert list(histogram.summary()) == sorted(histogram.summary())

    def test_merge_adds_counts_and_widens_extremes(self):
        a, b = Histogram(), Histogram()
        a.observe(2)
        a.observe(1000)
        b.observe(0.5)
        b.observe(7)
        a.merge(b)
        assert a.count == 4
        assert a.minimum == 0.5
        assert a.maximum == 1000
        assert sum(a.buckets.values()) == 4

    def test_jsonable_round_trip_preserves_buckets(self):
        histogram = Histogram()
        for value in (0.2, 3, 3, 900, 2.0 ** 70):
            histogram.observe(value)
        clone = Histogram.from_jsonable(
            json.loads(json.dumps(histogram.to_jsonable()))
        )
        assert clone.buckets == histogram.buckets
        assert clone.count == histogram.count
        assert clone.summary() == histogram.summary()


class TestRecorderIntegration:
    def test_observe_mark_sample_record_into_registries(self):
        with obs.recording() as recorder:
            obs.observe("x.ms", 3.5)
            obs.observe("x.ms", 9.0)
        assert recorder.histograms["x.ms"].count == 2

    def test_disabled_mode_is_a_noop(self):
        # No recorder: nothing is created, nothing raises.
        obs.observe("x.ms", 1.0)


def _spawn_worker(index):
    with obs.recording() as recorder:
        obs.observe("worker.ms", float(index + 1))
    return Snapshot.from_recorder(recorder).to_dict()


class TestSnapshotV4:
    def test_to_dict_version_4_round_trip(self):
        with obs.recording() as recorder:
            obs.observe("h", 3)
        payload = Snapshot.from_recorder(recorder).to_dict()
        assert payload["version"] == 4
        clone = Snapshot.from_dict(json.loads(json.dumps(payload)))
        assert clone.histograms["h"].count == 1

    def test_v3_payload_without_registries_still_loads(self):
        with obs.recording() as recorder:
            obs.add("n", 1)
        payload = Snapshot.from_recorder(recorder).to_dict()
        payload["version"] = 3
        payload.pop("histograms", None)
        clone = Snapshot.from_dict(payload)
        assert clone.counters["n"] == 1
        assert clone.histograms == {}

    def test_merge_adds_histograms_across_snapshots(self):
        def snap(value):
            with obs.recording() as recorder:
                obs.observe("h", value)
            return Snapshot.from_recorder(recorder)

        merged = snap(2).merge(snap(700))
        assert merged.histograms["h"].count == 2
        assert merged.histograms["h"].maximum == 700

    def test_without_replayable_state_keeps_registries_drops_samples(self):
        with obs.recording() as recorder:
            obs.observe("h", 1)
        stripped = Snapshot.from_recorder(recorder).without_replayable_state()
        assert stripped.histograms["h"].count == 1

    def test_spawn_pool_merge(self):
        # The real worker transport: snapshots produced in spawn-mode
        # processes (nothing shared, everything pickled) merge into the
        # parent recorder with counts summed.
        context = multiprocessing.get_context("spawn")
        with context.Pool(2) as pool:
            payloads = pool.map(_spawn_worker, range(4))
        with obs.recording() as recorder:
            for payload in payloads:
                Snapshot.from_dict(payload).merge_into(recorder)
        assert recorder.histograms["worker.ms"].count == 4
        assert recorder.histograms["worker.ms"].maximum == 4.0


class TestOpenMetrics:
    def _registries(self):
        histogram = Histogram()
        for value in (1, 5, 5, 300):
            histogram.observe(value)
        return (
            {"ptime.product_states": 12.0},
            {"mem.peak_kb": 2048.0},
            {"corpus.job.ms": histogram},
        )

    def test_render_passes_own_validator(self):
        text = render_openmetrics(*self._registries())
        families = validate_openmetrics(text)
        assert "repro_corpus_job_ms" in families
        assert families["repro_corpus_job_ms"]["type"] == "histogram"
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_openmetrics({}, {}, self._registries()[2])
        counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_corpus_job_ms_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4.0  # +Inf equals _count

    def test_rendering_is_insertion_order_independent(self):
        counters, gauges, histograms = self._registries()
        forward = render_openmetrics(counters, gauges, histograms)
        shuffled = render_openmetrics(
            dict(reversed(list(counters.items()))),
            dict(reversed(list(gauges.items()))),
            histograms,
        )
        assert forward == shuffled

    def test_rendering_is_hashseed_independent(self):
        script = (
            "from repro.obs.metrics import render_openmetrics, Histogram\n"
            "h = Histogram()\n"
            "for v in (1, 9, 70): h.observe(v)\n"
            "import sys\n"
            "sys.stdout.write(render_openmetrics("
            "{'b.n': 1.0, 'a.n': 2.0}, {'g': 3.0}, {'h.ms': h}))\n"
        )
        outputs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True, text=True, env=env, check=True,
                ).stdout
            )
        assert outputs[0] == outputs[1]
        validate_openmetrics(outputs[0])

    def test_validator_rejects_missing_eof(self):
        text = render_openmetrics(*self._registries())
        with pytest.raises(ValueError, match="EOF"):
            validate_openmetrics(text.replace("# EOF\n", ""))


class TestMergeRegistry:
    def test_merges_disjoint_and_overlapping_keys(self):
        a_hist, b_hist = Histogram(), Histogram()
        a_hist.observe(1)
        b_hist.observe(2)
        only_b = Histogram()
        only_b.observe(9)
        target = {"shared": a_hist}
        merge_registry(target, {"shared": b_hist, "other": only_b})
        assert target["shared"].count == 2
        assert target["other"].count == 1
        # The source histogram must not be aliased into the target.
        assert target["other"] is not only_b
