"""Metrics registry: counters, gauges, histograms; Prometheus exposition.

The solver-local :class:`repro.core.result.Metrics` dataclass stays the
per-run record (cheap attribute increments on the hot path, shipped in
results and IPC frames); this registry is the *process-level* aggregate
built on the same field schema (:data:`repro.core.result.METRIC_FIELDS`).
:func:`record_cover_result` publishes a finished run's counters into the
registry, so a long-lived process (the pool supervisor, a batch run)
accumulates totals across all solves, exportable as a Prometheus text
page (:meth:`MetricsRegistry.exposition`) or a JSON snapshot
(:meth:`MetricsRegistry.snapshot`, also written as the closing
``metrics`` record of a trace file).

No third-party client library: the exposition format is a few lines of
text (`# HELP` / `# TYPE` / samples), and writing it directly keeps the
package dependency-free per the repo rule.
"""

from __future__ import annotations

import platform
import threading
from typing import Any, Iterable, Mapping

from repro.core.result import METRIC_FIELDS, CoverResult

#: Seconds-oriented histogram buckets spanning sub-millisecond selections
#: to minute-scale full-dataset solves. Fixed (not configurable per call)
#: so snapshots from different runs are always mergeable bucket-by-bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)

LabelValues = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any] | None) -> LabelValues:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline.

    Order matters — backslashes first, or the escapes themselves would
    be re-escaped.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """``# HELP`` line escaping: backslash and newline only (no quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: LabelValues) -> str:
    if not key:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._values: dict[LabelValues, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            items = sorted(self._values.items())
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in items
            ],
        }

    def samples(self) -> Iterable[str]:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield f"{self.name}{_format_labels(key)} {value:g}"


class Gauge(Counter):
    """A value that can go up and down (pool depth, live workers)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)


class Histogram:
    """Fixed-boundary cumulative histogram, per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if tuple(sorted(buckets)) != tuple(buckets) or not buckets:
            raise ValueError(f"histogram {name}: buckets must be sorted, non-empty")
        self.name = name
        self.help = help_text
        self.buckets = tuple(float(b) for b in buckets)
        # per label set: (bucket counts incl. +Inf, sum, count)
        self._values: dict[LabelValues, tuple[list[int], float, int]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            counts, total, n = self._values.get(
                key, ([0] * (len(self.buckets) + 1), 0.0, 0)
            )
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._values[key] = (counts, total + value, n + 1)

    def count(self, **labels: Any) -> int:
        entry = self._values.get(_label_key(labels))
        return entry[2] if entry else 0

    def sum(self, **labels: Any) -> float:
        entry = self._values.get(_label_key(labels))
        return entry[1] if entry else 0.0

    def _consistent_items(self) -> list[tuple[LabelValues, tuple[list[int], float, int]]]:
        """Copy every label set's (counts, sum, count) under the lock.

        ``observe`` mutates the bucket-count list in place, so reading
        it lock-free could see a bucket increment without its matching
        ``count`` increment (or vice versa) and emit an exposition where
        ``_count`` disagrees with the cumulative ``+Inf`` bucket. The
        copy pins one consistent view per scrape.
        """
        with self._lock:
            return [
                (key, (list(counts), total, n))
                for key, (counts, total, n) in sorted(self._values.items())
            ]

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": [
                {
                    "labels": dict(key),
                    "counts": counts,
                    "sum": total,
                    "count": n,
                }
                for key, (counts, total, n) in self._consistent_items()
            ],
        }

    def samples(self) -> Iterable[str]:
        for key, (counts, total, n) in self._consistent_items():
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                le_key = key + (("le", f"{bound:g}"),)
                yield f"{self.name}_bucket{_format_labels(le_key)} {cumulative}"
            cumulative += counts[-1]
            # The +Inf bucket is emitted unconditionally (even when every
            # observation landed in a finite bucket): Prometheus clients
            # require it and it must equal _count.
            inf_key = key + (("le", "+Inf"),)
            yield f"{self.name}_bucket{_format_labels(inf_key)} {cumulative}"
            yield f"{self.name}_sum{_format_labels(key)} {total:g}"
            yield f"{self.name}_count{_format_labels(key)} {n}"


class MetricsRegistry:
    """Named counters/gauges/histograms; create-or-get by name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls: type, name: str, help_text: str, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, **kwargs)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump of every metric, for trace files and
        ``scwsc trace summarize``."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.snapshot() for name, metric in sorted(metrics.items())}

    def exposition(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            metrics = dict(self._metrics)
        for name, metric in sorted(metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (tests may :meth:`~MetricsRegistry.reset`)."""
    return _REGISTRY


def publish_build_info(registry: MetricsRegistry | None = None) -> None:
    """Publish the ``scwsc_build_info`` identity gauge.

    The Prometheus build-info idiom: a gauge whose value is always 1 and
    whose labels identify the scraped instance — package version, python
    runtime, and the production marginal-tracker kernel — so a fleet
    operator can tell which build served which metrics. Called at CLI
    startup and by ``scwsc serve``; idempotent.
    """
    from repro import __version__
    from repro.core.marginal import PRODUCTION_BACKEND

    registry = registry or _REGISTRY
    registry.gauge(
        "scwsc_build_info",
        "Build/runtime identity of this process (value is always 1)",
    ).set(
        1,
        version=__version__,
        python=platform.python_version(),
        backend=PRODUCTION_BACKEND,
    )


def record_cover_result(
    result: CoverResult,
    registry: MetricsRegistry | None = None,
    lp_bound: float | None = None,
) -> None:
    """Publish one finished solve into the registry.

    Increments ``scwsc_solves_total{algorithm=...}``, a per-field counter
    for every :data:`METRIC_FIELDS` work counter, and observes the run
    time in ``scwsc_solve_runtime_seconds``. Also records the solve's
    quality telemetry (:mod:`repro.obs.quality`): coverage slack and
    solution size always, the approximation-ratio histogram when the
    caller supplies an ``lp_bound``.

    Callers publish a result exactly once, on the accepted answer — pool
    retries ship their trace records per attempt, but only the attempt
    the supervisor accepted reaches this function (asserted by
    ``tests/resilience/test_metrics_once.py``).
    """
    registry = registry or _REGISTRY
    algorithm = result.algorithm
    registry.counter(
        "scwsc_solves_total", "Completed solver runs"
    ).inc(algorithm=algorithm)
    for name, _, _ in METRIC_FIELDS:
        if name == "runtime_seconds":
            continue
        registry.counter(
            f"scwsc_{name}_total",
            f"Sum of Metrics.{name} across runs",
        ).inc(getattr(result.metrics, name), algorithm=algorithm)
    registry.histogram(
        "scwsc_solve_runtime_seconds", "Per-run wall time"
    ).observe(result.metrics.runtime_seconds, algorithm=algorithm)
    # Imported here: repro.obs.quality builds on this module's registry.
    from repro.obs.quality import record_quality

    record_quality(result, lp_bound=lp_bound, registry=registry)
