"""Postmortem bundles: triggered dumps of the flight recorder to disk.

A bundle (schema ``scwsc-postmortem/1``) is one self-contained JSON file
— everything an engineer needs to diagnose an incident after the process
is gone:

========================  =================================================
section                   contents
========================  =================================================
``schema``                always ``scwsc-postmortem/1``
``created_unix``          wall-clock seconds when the bundle was built
``trigger``               what fired (``worker_death``, ``hard_timeout``,
                          ``breaker_open``, ``slo_fast_burn``,
                          ``server_5xx``, ``manual``)
``reason``                one human-readable sentence
``context``               trigger-specific details (event attrs, burn
                          rates, status code, ...)
``build``                 version / python / backend (the same triple
                          ``scwsc_build_info`` exposes)
``config``                the live :class:`~repro.serve.config.ServeConfig`
                          as a dict, or None for manual CLI bundles
``rings``                 the flight recorder's span/event/access/metrics
                          rings (records + capacity/total/dropped)
``workers``               last ring shipped by each pool worker
``stacks``                a stack-sample burst plus collapsed-stack lines
``metrics``               a registry snapshot taken at build time
``triggers``              trigger-engine counters (fired / rate-limited /
                          deduped per kind)
========================  =================================================

The :class:`TriggerEngine` is the policy layer between the recorder and
the disk: per-trigger-kind rate limiting (an incident is one bundle, not
one per crash-looping worker restart), dedup on a caller-supplied key,
and a :class:`BundleSpool` that enforces byte and count caps by deleting
oldest-first — a crash loop can never fill the disk.

Bundle *builds* run on a short-lived daemon thread (a stack burst blocks
for ~100ms; the pool dispatcher that fires most triggers must not), but
rate-limit/dedup bookkeeping happens inline under the engine lock, so
"exactly one bundle per incident window" holds even when triggers race.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Callable

from repro.errors import ValidationError
from repro.obs import stacks as obs_stacks
from repro.obs.flightrec import FlightRecorder
from repro.obs.schema import validate_record

__all__ = [
    "POSTMORTEM_SCHEMA",
    "TRIGGER_KINDS",
    "build_bundle",
    "build_info",
    "validate_bundle",
    "validate_bundle_file",
    "redact_bundle",
    "BundleSpool",
    "TriggerEngine",
]

POSTMORTEM_SCHEMA = "scwsc-postmortem/1"

TRIGGER_KINDS = (
    "worker_death",
    "hard_timeout",
    "breaker_open",
    "slo_fast_burn",
    "server_5xx",
    "manual",
)

_REQUIRED_SECTIONS = (
    "schema",
    "created_unix",
    "trigger",
    "reason",
    "context",
    "build",
    "rings",
    "workers",
    "stacks",
    "metrics",
)

#: Header/config/context keys whose values are scrubbed by
#: :func:`redact_bundle` — substring match, case-insensitive.
_SENSITIVE_MARKERS = ("authorization", "cookie", "token", "secret", "password")


def build_info() -> dict[str, str]:
    import platform

    from repro import __version__
    from repro.core.marginal import PRODUCTION_BACKEND

    return {
        "version": __version__,
        "python": platform.python_version(),
        "backend": PRODUCTION_BACKEND,
    }


def build_bundle(
    recorder: FlightRecorder,
    *,
    trigger: str,
    reason: str,
    context: dict[str, Any] | None = None,
    config: Any = None,
    metrics_snapshot: dict[str, Any] | None = None,
    trigger_stats: dict[str, Any] | None = None,
    stack_samples: int = 5,
    stack_interval: float = 0.02,
) -> dict[str, Any]:
    """Assemble one ``scwsc-postmortem/1`` bundle from live state.

    Takes a short stack-sample burst (blocking ~``stack_samples *
    stack_interval`` seconds — call off the hot path) and snapshots the
    recorder's rings, the worker rings, and the metrics registry.
    """
    if metrics_snapshot is None:
        from repro.obs.metrics import get_registry

        metrics_snapshot = get_registry().snapshot()
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    samples = obs_stacks.burst(stack_samples, stack_interval)
    return {
        "schema": POSTMORTEM_SCHEMA,
        "created_unix": round(time.time(), 3),
        "trigger": trigger,
        "reason": reason,
        "context": context or {},
        "build": build_info(),
        "config": config,
        "rings": recorder.snapshot(),
        "workers": {
            str(index): ring
            for index, ring in sorted(recorder.worker_rings().items())
        },
        "stacks": {
            "samples": samples,
            "collapsed": obs_stacks.collapse_samples(samples),
        },
        "metrics": metrics_snapshot,
        "triggers": trigger_stats or {},
    }


def validate_bundle(bundle: Any) -> list[str]:
    """Problems with one bundle; empty list when valid.

    Ring records are re-validated against their own schemas
    (``scwsc-trace/1`` for spans/events, ``scwsc-access/1`` for access
    records) so a bundle that validates is trustworthy all the way down.
    """
    # Imported here, not at module top: accesslog lives under
    # repro.serve, whose __init__ pulls in the server, which imports
    # this module — a top-level import would be circular.
    from repro.serve.accesslog import validate_access_record

    if not isinstance(bundle, dict):
        return [f"bundle must be an object, got {type(bundle).__name__}"]
    problems: list[str] = []
    if bundle.get("schema") != POSTMORTEM_SCHEMA:
        problems.append(
            f"schema must be {POSTMORTEM_SCHEMA!r}, got {bundle.get('schema')!r}"
        )
    for section in _REQUIRED_SECTIONS:
        if section not in bundle:
            problems.append(f"missing section {section!r}")
    if problems:
        return problems
    if bundle["trigger"] not in TRIGGER_KINDS:
        problems.append(
            f"trigger must be one of {TRIGGER_KINDS}, got {bundle['trigger']!r}"
        )
    if not isinstance(bundle["created_unix"], (int, float)) or isinstance(
        bundle["created_unix"], bool
    ):
        problems.append("created_unix must be a number")
    if not isinstance(bundle["reason"], str) or not bundle["reason"]:
        problems.append("reason must be a non-empty string")
    build = bundle["build"]
    if not isinstance(build, dict) or not all(
        isinstance(build.get(key), str) for key in ("version", "python", "backend")
    ):
        problems.append("build must carry string version/python/backend")

    rings = bundle["rings"]
    if not isinstance(rings, dict):
        problems.append("rings must be an object")
        return problems
    for name in ("spans", "events", "access", "metrics"):
        ring = rings.get(name)
        if not isinstance(ring, dict) or not isinstance(
            ring.get("records"), list
        ):
            problems.append(f"rings.{name} must carry a records list")
            continue
        for counter in ("capacity", "total", "dropped"):
            value = ring.get(counter)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"rings.{name}.{counter} must be an int")
    if problems:
        return problems

    for index, record in enumerate(rings["spans"]["records"]):
        if record.get("type") != "span":
            problems.append(f"rings.spans[{index}] is not a span record")
        else:
            problems.extend(
                f"rings.spans[{index}]: {problem}"
                for problem in validate_record(record)
            )
    for index, record in enumerate(rings["events"]["records"]):
        record_problems = validate_record(record)
        if record_problems:
            problems.extend(
                f"rings.events[{index}]: {problem}"
                for problem in record_problems
            )
    for index, record in enumerate(rings["access"]["records"]):
        problems.extend(
            f"rings.access[{index}]: {problem}"
            for problem in validate_access_record(record)
        )

    stacks = bundle["stacks"]
    if not isinstance(stacks, dict) or not isinstance(
        stacks.get("samples"), list
    ) or not isinstance(stacks.get("collapsed"), list):
        problems.append("stacks must carry samples and collapsed lists")
    else:
        for index, sample in enumerate(stacks["samples"]):
            if not isinstance(sample, dict) or not isinstance(
                sample.get("threads"), list
            ):
                problems.append(f"stacks.samples[{index}] malformed")

    if not isinstance(bundle["metrics"], dict):
        problems.append("metrics must be a registry snapshot object")
    if not isinstance(bundle["workers"], dict):
        problems.append("workers must be an object")
    return problems


def validate_bundle_file(path: str) -> dict[str, Any]:
    """Load and validate a bundle file; returns the bundle or raises
    :class:`ValidationError` with every problem found."""
    with open(path, encoding="utf-8") as handle:
        try:
            bundle = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValidationError(f"{path}: not valid JSON: {error}") from error
    problems = validate_bundle(bundle)
    if problems:
        raise ValidationError(
            f"{path}: {len(problems)} problem(s): " + "; ".join(problems[:10])
        )
    return bundle


def redact_bundle(bundle: dict[str, Any]) -> dict[str, Any]:
    """A deep copy with credential-shaped values scrubbed.

    Any string value under a key containing an obvious secret marker
    (``token``, ``authorization``, ...) anywhere in the bundle becomes
    ``"[redacted]"``. Bundles are built from telemetry the daemon
    already considers shareable, but CLI assembly redacts by default so
    attaching a bundle to a ticket is safe by construction.
    """

    def _scrub(value: Any, key_hint: str = "") -> Any:
        if isinstance(value, dict):
            return {key: _scrub(item, str(key).lower()) for key, item in value.items()}
        if isinstance(value, list):
            return [_scrub(item, key_hint) for item in value]
        if isinstance(value, str) and any(
            marker in key_hint for marker in _SENSITIVE_MARKERS
        ):
            return "[redacted]"
        return value

    return _scrub(bundle)


class BundleSpool:
    """Bounded on-disk bundle directory: byte cap + count cap.

    Bundles are single JSON files named
    ``postmortem-<unix_ms>-<trigger>.json``. :meth:`write` enforces both
    caps *after* adding the new bundle by deleting oldest-first, so the
    newest evidence always survives and the spool can never exceed
    ``max_bytes`` by more than one bundle transiently.
    """

    def __init__(
        self,
        directory: str,
        *,
        max_bytes: int = 16 * 1024 * 1024,
        max_bundles: int = 20,
    ) -> None:
        self.directory = directory
        self.max_bytes = max_bytes
        self.max_bundles = max_bundles
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)

    def _entries(self) -> list[tuple[str, int]]:
        """(path, size) for every bundle, oldest first (by filename —
        the embedded ms timestamp makes lexicographic == chronological)."""
        entries = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        for name in names:
            if not (name.startswith("postmortem-") and name.endswith(".json")):
                continue
            path = os.path.join(self.directory, name)
            try:
                entries.append((path, os.path.getsize(path)))
            except OSError:
                continue
        return entries

    def paths(self) -> list[str]:
        return [path for path, _ in self._entries()]

    def total_bytes(self) -> int:
        return sum(size for _, size in self._entries())

    def write(self, bundle: dict[str, Any]) -> str:
        """Persist one bundle and enforce the caps; returns its path."""
        stamp = int(bundle.get("created_unix", time.time()) * 1000)
        trigger = bundle.get("trigger", "unknown")
        with self._lock:
            path = os.path.join(
                self.directory, f"postmortem-{stamp}-{trigger}.json"
            )
            suffix = 0
            while os.path.exists(path):
                suffix += 1
                path = os.path.join(
                    self.directory,
                    f"postmortem-{stamp}-{trigger}.{suffix}.json",
                )
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, separators=(",", ":"), default=str)
            os.replace(tmp, path)
            self._enforce_caps()
        return path

    def _enforce_caps(self) -> None:
        entries = self._entries()
        total = sum(size for _, size in entries)
        # Delete oldest-first until both caps hold (but always keep the
        # newest bundle, even if it alone exceeds the byte cap).
        while entries and (
            len(entries) > self.max_bundles
            or (total > self.max_bytes and len(entries) > 1)
        ):
            path, size = entries.pop(0)
            try:
                os.remove(path)
            except OSError:
                pass
            total -= size


class TriggerEngine:
    """Decides when the recorder's contents become a bundle on disk.

    ``fire(trigger, reason, ...)`` applies, inline and under one lock:

    1. a per-trigger-kind **rate limit** (``min_interval`` seconds
       between bundles of the same kind — a crash-looping worker is one
       incident, not one bundle per restart);
    2. **dedup** on an optional ``key`` (e.g. ``("breaker_open",
       "pool")`` fires once until the breaker closes again and
       :meth:`reset_dedup` clears it).

    Accepted firings build the bundle on a one-shot daemon thread (the
    stack burst blocks ~100ms; pool-dispatcher and HTTP threads must
    not), unless ``sync=True`` (tests, CLI).
    """

    def __init__(
        self,
        recorder: FlightRecorder,
        spool: BundleSpool,
        *,
        min_interval: float = 60.0,
        config: Any = None,
        stack_samples: int = 5,
        stack_interval: float = 0.02,
        settle_seconds: float = 0.5,
    ) -> None:
        self.recorder = recorder
        self.spool = spool
        self.min_interval = min_interval
        self.config = config
        self.stack_samples = stack_samples
        self.stack_interval = stack_interval
        self.settle_seconds = settle_seconds
        self._lock = threading.Lock()
        self._last_fired: dict[str, float] = {}
        self._seen_keys: set[tuple[str, str]] = set()
        self._counts = {
            kind: {"fired": 0, "rate_limited": 0, "deduped": 0}
            for kind in TRIGGER_KINDS
        }
        self._pending = 0
        #: paths written so far (newest last) — for tests and /debug.
        self.written: list[str] = []

    # -- policy ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "min_interval": self.min_interval,
                "counts": {
                    kind: dict(counters)
                    for kind, counters in self._counts.items()
                },
                "pending": self._pending,
                "written": len(self.written),
            }

    def reset_dedup(self, trigger: str, key: str) -> None:
        """Forget a dedup key (e.g. when a breaker closes again)."""
        with self._lock:
            self._seen_keys.discard((trigger, key))

    def fire(
        self,
        trigger: str,
        reason: str,
        *,
        context: dict[str, Any] | None = None,
        key: str | None = None,
        sync: bool = False,
    ) -> bool:
        """Request a bundle; True when one will be (or was) written."""
        if trigger not in TRIGGER_KINDS:
            raise ValueError(f"unknown trigger kind {trigger!r}")
        now = time.monotonic()
        with self._lock:
            counters = self._counts[trigger]
            if key is not None and (trigger, key) in self._seen_keys:
                counters["deduped"] += 1
                return False
            last = self._last_fired.get(trigger)
            if last is not None and now - last < self.min_interval:
                counters["rate_limited"] += 1
                return False
            # Mark inside the lock, before the (possibly async) build —
            # racing triggers of the same kind collapse to one bundle.
            self._last_fired[trigger] = now
            if key is not None:
                self._seen_keys.add((trigger, key))
            counters["fired"] += 1
            self._pending += 1

        if sync:
            self._build(trigger, reason, context)
        else:
            threading.Thread(
                target=self._build,
                args=(trigger, reason, context, self.settle_seconds),
                name=f"scwsc-postmortem-{trigger}",
                daemon=True,
            ).start()
        return True

    # -- mechanism ------------------------------------------------------

    def _build(
        self,
        trigger: str,
        reason: str,
        context: dict[str, Any] | None,
        settle: float = 0.0,
    ) -> None:
        try:
            # Let the incident's aftermath land in the rings first: a
            # worker_death fires mid-request, before the request's span
            # closes or its access record is written. A short settle
            # captures the requeue/fallback/completion too.
            if settle > 0:
                time.sleep(settle)
            bundle = build_bundle(
                self.recorder,
                trigger=trigger,
                reason=reason,
                context=context,
                config=self.config,
                trigger_stats=self.stats(),
                stack_samples=self.stack_samples,
                stack_interval=self.stack_interval,
            )
            path = self.spool.write(bundle)
            with self._lock:
                self.written.append(path)
        except Exception:  # noqa: BLE001 - a failed bundle must not cascade
            pass
        finally:
            with self._lock:
                self._pending -= 1

    def drain(self, timeout: float = 10.0) -> None:
        """Block until no builds are pending (tests, shutdown)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._pending == 0:
                    return
            time.sleep(0.01)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin
    """``python -m repro.obs.postmortem BUNDLE.json [...]`` — validate."""
    import sys

    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(
            "usage: python -m repro.obs.postmortem BUNDLE.json [...]",
            file=sys.stderr,
        )
        return 2
    status = 0
    for path in args:
        try:
            bundle = validate_bundle_file(path)
        except (OSError, ValidationError) as error:
            print(f"{path}: {error}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}: ok (trigger={bundle['trigger']})")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
