"""Metrics registry: counters, gauges, histograms, exposition."""

from __future__ import annotations

import pytest

from repro.core.result import METRIC_FIELDS, Metrics, make_result
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_cover_result,
)


class TestCounter:
    def test_inc_and_value_with_labels(self):
        counter = Counter("c", "help")
        counter.inc(algorithm="cwsc")
        counter.inc(2.0, algorithm="cwsc")
        counter.inc(algorithm="cmc")
        assert counter.value(algorithm="cwsc") == 3.0
        assert counter.value(algorithm="cmc") == 1.0
        assert counter.value(algorithm="missing") == 0.0

    def test_rejects_negative_increment(self):
        counter = Counter("c", "")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_samples_format(self):
        counter = Counter("scwsc_solves_total", "")
        counter.inc(algorithm="cwsc")
        counter.inc(5, kind="x", algorithm="cmc")
        assert list(counter.samples()) == [
            'scwsc_solves_total{algorithm="cmc",kind="x"} 5',
            'scwsc_solves_total{algorithm="cwsc"} 1',
        ]


class TestGauge:
    def test_goes_up_and_down(self):
        gauge = Gauge("g", "")
        gauge.inc(3)
        gauge.dec(1)
        assert gauge.value() == 2.0
        gauge.set(10)
        assert gauge.value() == 10.0


class TestHistogram:
    def test_observe_buckets_and_sum(self):
        histogram = Histogram("h", "", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(5.55)
        samples = list(histogram.samples())
        assert 'h_bucket{le="0.1"} 1' in samples
        assert 'h_bucket{le="1"} 2' in samples
        assert 'h_bucket{le="+Inf"} 3' in samples
        assert "h_count 3" in samples

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", "", buckets=(1.0, 0.1))

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestRegistry:
    def test_create_or_get_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("c")
        b = registry.counter("c")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")
        with pytest.raises(ValueError):
            registry.histogram("m")

    def test_gauge_counter_conflict_both_directions(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        with pytest.raises(ValueError):
            registry.counter("g")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "help me").inc(2, algorithm="cwsc")
        snapshot = registry.snapshot()
        assert snapshot["c"]["kind"] == "counter"
        assert snapshot["c"]["values"] == [
            {"labels": {"algorithm": "cwsc"}, "value": 2.0}
        ]

    def test_exposition_has_type_and_help(self):
        registry = MetricsRegistry()
        registry.counter("c", "the help").inc()
        registry.histogram("h").observe(0.2)
        text = registry.exposition()
        assert "# HELP c the help" in text
        assert "# TYPE c counter" in text
        assert "# TYPE h histogram" in text
        assert text.endswith("\n")

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestRecordCoverResult:
    def _result(self):
        return make_result(
            algorithm="cwsc",
            chosen=[0],
            labels=[None],
            total_cost=1.0,
            covered=2,
            n_elements=4,
            feasible=True,
            params={},
            metrics=Metrics(
                sets_considered=5,
                marginal_updates=9,
                selections=1,
                runtime_seconds=0.02,
            ),
        )

    def test_publishes_every_metric_field(self):
        registry = MetricsRegistry()
        record_cover_result(self._result(), registry)
        record_cover_result(self._result(), registry)
        assert registry.counter("scwsc_solves_total").value(
            algorithm="cwsc"
        ) == 2
        for name, _, _ in METRIC_FIELDS:
            if name == "runtime_seconds":
                continue
            counter = registry.counter(f"scwsc_{name}_total")
            assert counter.value(algorithm="cwsc") >= 0
        assert registry.counter("scwsc_sets_considered_total").value(
            algorithm="cwsc"
        ) == 10
        histogram = registry.histogram("scwsc_solve_runtime_seconds")
        assert histogram.count(algorithm="cwsc") == 2
        assert histogram.sum(algorithm="cwsc") == pytest.approx(0.04)


class TestBuildInfo:
    def _labels(self) -> dict:
        import platform

        from repro import __version__

        return {
            "version": __version__,
            "python": platform.python_version(),
            "backend": "packed",
        }

    def test_publishes_identity_gauge(self):
        from repro.obs.metrics import publish_build_info

        registry = MetricsRegistry()
        publish_build_info(registry)
        assert registry.gauge("scwsc_build_info").value(**self._labels()) == 1

    def test_backend_label_names_production_kernel(self):
        from repro.core.marginal import PRODUCTION_BACKEND, resolve_backend
        from repro.obs.metrics import publish_build_info
        from repro.obs.postmortem import build_info

        registry = MetricsRegistry()
        publish_build_info(registry)
        (sample,) = registry.gauge("scwsc_build_info").samples()
        assert 'backend="packed"' in sample
        assert build_info()["backend"] == PRODUCTION_BACKEND == "packed"
        assert resolve_backend(None) == PRODUCTION_BACKEND

    def test_idempotent_single_sample(self):
        from repro.obs.metrics import publish_build_info

        registry = MetricsRegistry()
        publish_build_info(registry)
        publish_build_info(registry)
        samples = list(registry.gauge("scwsc_build_info").samples())
        assert len(samples) == 1
        assert samples[0].endswith(" 1")


class TestExpositionEscaping:
    def test_label_values_escape_backslash_quote_newline(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "h").inc(
            1, path='a\\b', name='say "hi"', multi="one\ntwo"
        )
        text = registry.exposition()
        line = next(l for l in text.splitlines() if l.startswith("t_total{"))
        assert '\\\\b' in line          # backslash doubled
        assert '\\"hi\\"' in line       # quotes escaped
        assert "\\ntwo" in line         # newline escaped, not literal
        assert "\n" not in line          # the sample stays on one line

    def test_backslash_escaped_before_other_sequences(self):
        # A literal backslash-n must not collapse into an escaped
        # newline (escape ordering: backslashes first).
        registry = MetricsRegistry()
        registry.counter("t_total", "h").inc(1, v="\\n")
        line = next(
            l
            for l in registry.exposition().splitlines()
            if l.startswith("t_total{")
        )
        assert 'v="\\\\n"' in line

    def test_help_text_escapes_newline_and_backslash(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "line one\nline two \\ slash")
        help_line = next(
            l
            for l in registry.exposition().splitlines()
            if l.startswith("# HELP t_total")
        )
        assert "\\n" in help_line and "\\\\" in help_line


class TestHistogramExpositionConsistency:
    def test_inf_bucket_always_emitted_and_equals_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h")
        histogram.observe(0.02, endpoint="/solve")
        histogram.observe(5000.0, endpoint="/solve")  # beyond top bucket
        lines = registry.exposition().splitlines()
        inf = next(l for l in lines if 'le="+Inf"' in l)
        count = next(l for l in lines if l.startswith("h_seconds_count"))
        assert inf.rsplit(" ", 1)[1] == count.rsplit(" ", 1)[1] == "2"

    def test_count_consistent_with_top_bucket_under_concurrency(self):
        import threading

        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                histogram.observe(0.01, endpoint="/solve")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                lines = registry.exposition().splitlines()
                inf = next(
                    (l for l in lines if 'le="+Inf"' in l), None
                )
                if inf is None:
                    continue
                count = next(
                    l for l in lines if l.startswith("h_seconds_count")
                )
                # Snapshot is taken under the lock: the +Inf bucket and
                # _count must agree even while writers hammer away.
                assert (
                    inf.rsplit(" ", 1)[1] == count.rsplit(" ", 1)[1]
                ), (inf, count)
        finally:
            stop.set()
            for t in threads:
                t.join()
