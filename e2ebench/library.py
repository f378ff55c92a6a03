"""Library workloads: ``table-cold`` and ``table-sweep``.

Both are closed loops on one thread that call the program only through
``build_set_system``, ``cwsc``, ``cmc`` and ``verify_result`` on
LBL-schema tables with the paper's ``max`` cost.

* ``table-cold`` -- every op takes a never-seen table, builds its set
  system and runs the first ``cwsc`` and the first ``cmc`` on it (every
  per-system cache cold), then verifies both answers. Time goes to
  pattern enumeration and the per-system cache builds.
* ``table-sweep`` -- a fixed set of systems is built and warmed during
  set-up; every op is one Fig. 8/9 ``(k, s)`` point solved by ``cwsc``
  and ``cmc`` on a warm system. Time goes to the selection kernels.

With ``--trace 1`` every second op is traced: spans wrap each call into
the program, the cold solves are split by calling the cache builders
first, and ``repro.obs`` span capture is switched on, so the traced and
untraced ops of one run give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from common import (
    Calibrator, NoSpans, Outcome, Spans, mean, min_samples, optional,
    percentile, time_fresh_import, vm_hwm_mb,
)
from check import CMC_COVERAGE, check_table_answer
from inputs import ATTRIBUTES, TableIndex, lbl_rows, table_seed

#: The paper's LBL defaults (Fig. 8 fixes s, Fig. 9 fixes k).
K, S_HAT = 10, 0.3
#: table-cold rows per op: large enough that enumeration and cache
#: builds dominate, small enough for MIN_OPS ops in one run.
COLD_ROWS = 400
#: table-sweep rows per system; the ``auto`` backend rule picks the
#: bitset kernel at this size.
SWEEP_ROWS = 400
#: Enough systems that the mean answer cost over them varies little
#: between seeds.
SWEEP_SYSTEMS = 16
SWEEP_POINTS = (
    [(k, 0.3) for k in (2, 5, 10, 15, 20, 25)]
    + [(10, s) for s in (0.2, 0.4, 0.5, 0.6, 0.7)]
)
#: Set-up repeats per run; setup_s is their median.
COLD_SETUP_REPEATS = 5
SWEEP_SETUP_REPEATS = 3
MIN_OPS = min_samples(0.9)
#: Hard stop on the measuring loop, whatever MIN_OPS asks for.
MAX_MEASURE_S = 120.0


class LibraryWorkload:
    """State of one library-workload run."""

    def __init__(self, repro, name: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.repro = repro
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = Outcome()
        self.cal = Calibrator()
        self.spans = Spans()
        #: (start, raw seconds) of each completed op.
        self.plain_ops: list[tuple[float, float]] = []
        self.traced_ops: list[tuple[float, float]] = []
        self.selections: list[int] = []
        self.counters = {"marginal_updates": 0, "sets_considered": 0,
                         "selections": 0, "sets_built": 0, "packed": 0}
        self.answer_costs: dict = {}
        self.cmc_cold_extra: list[float] = []
        self.cmc_warm: list[float] = []
        self.import_raw: list[float] = []
        #: (start, raw seconds) of building and warming the fixed inputs.
        self.inputs_raw: list[tuple[float, float]] = []
        self.setup_spans = Spans()

    # -- program calls ---------------------------------------------------
    def make_table(self, rows_count: int, index: int):
        rows, measure = lbl_rows(rows_count, table_seed(self.seed, index))
        table = self.repro.PatternTable(
            ATTRIBUTES, rows, measure, measure_name="duration")
        return table, TableIndex(rows, measure)

    def prebuild(self, system, spans) -> None:
        """Build the per-system caches a cold solve would, one span each."""
        keys = optional("repro.core.greedy_common", "canonical_keys")
        if keys is not None:
            with spans.span("core.canonical_keys"):
                keys(system)
        resolve = optional("repro.core.marginal", "resolve_backend")
        backend = resolve(system) if resolve is not None else None
        if backend == "packed":
            builders = [optional("repro.core.packed", "packed_layout"),
                        optional("repro.core.packed", "canonical_ranks")]
            layer = "core.packed_layout"
        elif backend == "bitset":
            builders = [optional("repro.core.bitset", "mask_table"),
                        optional("repro.core.bitset", "owners_index")]
            layer = "core.mask_table"
        else:
            return
        with spans.span(layer):
            for build in builders:
                if build is not None:
                    build(system)

    def solve_pair(self, system, k: float, s_hat: float, spans):
        """cwsc then cmc on one system, each verified by the program."""
        repro = self.repro
        with spans.span("core.cwsc"):
            first = repro.cwsc(system, k, s_hat)
        with spans.span("core.cmc"):
            second = repro.cmc(system, k, s_hat)
        with spans.span("core.verify_result"):
            problems = repro.verify_result(system, first, k, s_hat)
            problems += repro.verify_result(
                system, second, 5 * k, CMC_COVERAGE * s_hat)
        return (first, second), problems

    def record_answers(self, key, answers, index, k, s_hat) -> bool:
        """Independent check plus counters of one op's two answers."""
        for result in answers:
            problems = check_table_answer(
                index, result, k, s_hat, self.repro.ALL)
            if problems:
                self.out.failed += 1
                for problem in problems:
                    self.out.fail(f"{self.name} {key}: {problem}")
                return False
        cwsc_result = answers[0]
        self.selections.append(cwsc_result.metrics.selections)
        if cwsc_result.params.get("tracker_backend") == "packed":
            self.counters["packed"] += 1
        for result in answers:
            metrics = result.metrics
            self.counters["marginal_updates"] += metrics.marginal_updates
            self.counters["sets_considered"] += metrics.sets_considered
            self.counters["selections"] += metrics.selections
        self.answer_costs[key] = mean(result.total_cost for result in answers)
        return True

    # -- measuring loop ----------------------------------------------------
    def traced_context(self, traced: bool):
        """``repro.obs`` span capture for traced ops, when it exists."""
        capture = optional("repro.obs.trace", "capture") if traced else None
        return capture() if capture is not None else contextlib.nullcontext()

    def measure(self, one_op, pass_ops: int = 1) -> None:
        """Run ``one_op(i, traced)`` until time and the sample floor are met.

        The run then goes on to the end of a whole pass of ``pass_ops``
        ops, so a fixed input cycle is covered evenly whatever the host's
        speed.
        """
        start = time.perf_counter()
        hard_stop = start + max(self.seconds, MAX_MEASURE_S)
        # Untraced runs report a p90; traced runs only the plain-op p50.
        needed = 2 * min_samples(0.5) if self.trace else MIN_OPS
        i = 0
        while True:
            now = time.perf_counter()
            if now >= hard_stop:
                break
            if (now - start >= self.seconds and i >= needed
                    and i % pass_ops == 0):
                break
            traced = self.trace and i % 2 == 1
            self.out.attempted += 1
            begun = time.perf_counter()
            try:
                with self.traced_context(traced):
                    elapsed = one_op(i, traced)
            except Exception as error:  # a failed op is counted, not fatal
                self.out.failed += 1
                self.out.detail.setdefault("errors", []).append(
                    f"op {i}: {type(error).__name__}: {error}"[:300])
                elapsed = None
            if elapsed is not None:
                (self.traced_ops if traced else self.plain_ops).append(
                    (begun, elapsed))
            self.cal.sample()
            i += 1

    # -- table-cold --------------------------------------------------------
    def setup_cold(self) -> None:
        for _ in range(COLD_SETUP_REPEATS):
            self.cal.spawn_sample()
            self.import_raw.append(time_fresh_import())
            self.inputs_raw.append((0.0, 0.0))
        self.cal.spawn_sample()

    def cold_op(self, i: int, traced: bool):
        table, index = self.make_table(COLD_ROWS, i)
        spans = self.spans if traced else NoSpans()
        covered_before = self.spans.covered
        cmc_before = self.spans.seconds["core.cmc"]
        start = time.perf_counter()
        with spans.span("patterns.build_set_system"):
            system = self.repro.build_set_system(table, "max")
        if traced:
            self.prebuild(system, spans)
        answers, problems = self.solve_pair(system, K, S_HAT, spans)
        elapsed = time.perf_counter() - start
        if traced:
            self.traced_covered += self.spans.covered - covered_before
            self.counters["sets_built"] += system.n_sets
            self.probe_warm_cmc(system, self.spans.seconds["core.cmc"]
                                - cmc_before)
        if problems:
            self.out.failed += 1
            self.out.fail(f"table-cold op {i}: verify_result: {problems}")
            return None
        if not self.record_answers(i, answers, index, K, S_HAT):
            return None
        return elapsed

    def probe_warm_cmc(self, system, cold_seconds: float) -> None:
        """A second, warm cmc outside any op: what cmc's own caches cost."""
        start = time.perf_counter()
        self.repro.cmc(system, K, S_HAT)
        warm = time.perf_counter() - start
        self.cmc_warm.append(warm)
        self.cmc_cold_extra.append(cold_seconds - warm)

    # -- table-sweep -------------------------------------------------------
    def setup_sweep(self) -> None:
        for repeat in range(SWEEP_SETUP_REPEATS):
            # Traced runs split the last repeat's builds by layer.
            traced = self.trace and repeat == SWEEP_SETUP_REPEATS - 1
            spans = self.setup_spans if traced else NoSpans()
            self.cal.spawn_sample()
            self.import_raw.append(time_fresh_import())
            self.cal.sample()
            start = time.perf_counter()
            systems = []
            for j in range(SWEEP_SYSTEMS):
                table, index = self.make_table(SWEEP_ROWS, j)
                with spans.span("patterns.build_set_system"):
                    system = self.repro.build_set_system(table, "max")
                if traced:
                    cmc_before = spans.seconds["core.cmc"]
                    self.prebuild(system, spans)
                _, problems = self.solve_pair(system, K, S_HAT, spans)
                if traced:
                    self.counters["sets_built"] += system.n_sets
                    self.probe_warm_cmc(system, spans.seconds["core.cmc"]
                                        - cmc_before)
                if problems:
                    self.out.fail(f"table-sweep set-up: {problems}")
                systems.append((system, index))
            self.inputs_raw.append((start, time.perf_counter() - start))
            self.cal.sample()
        self.cal.spawn_sample()
        self.systems = systems
        self.pairs = [(j, point) for j in range(SWEEP_SYSTEMS)
                      for point in SWEEP_POINTS]

    def sweep_op(self, i: int, traced: bool):
        j, (k, s_hat) = self.pairs[i % len(self.pairs)]
        system, index = self.systems[j]
        spans = self.spans if traced else NoSpans()
        covered_before = self.spans.covered
        start = time.perf_counter()
        answers, problems = self.solve_pair(system, k, s_hat, spans)
        elapsed = time.perf_counter() - start
        if traced:
            self.traced_covered += self.spans.covered - covered_before
        if problems:
            self.out.failed += 1
            self.out.fail(f"table-sweep op {i}: verify_result: {problems}")
            return None
        if not self.record_answers((j, k, s_hat), answers, index, k, s_hat):
            return None
        return elapsed

    # -- run ------------------------------------------------------------------
    def run(self) -> Outcome:
        self.traced_covered = 0.0
        if self.name == "table-cold":
            self.setup_cold()
            self.measure(self.cold_op)
        else:
            self.setup_sweep()
            self.measure(self.sweep_op, len(self.pairs))
        self.report()
        return self.out

    def report(self) -> None:
        out = self.out
        cal = self.cal
        factor = cal.factor
        if self.selections and statistics.median(self.selections) <= 1:
            out.fail(f"{self.name}: median CWSC selections "
                     f"{statistics.median(self.selections)} <= 1 (degenerate)")
        verified = len(self.selections)
        detail = out.detail
        detail.update({
            "workload": self.name, "seed": self.seed, "trace": self.trace,
            "ops_timed": len(self.plain_ops), "ops_traced": len(self.traced_ops),
            **cal.summary(),
        })
        if not self.plain_ops:
            out.fail(f"{self.name}: no op completed")
            return
        raw_ops = [raw for _, raw in self.plain_ops]
        ops = cal.reference(self.plain_ops)
        quantiles = (0.5,) if self.trace else (0.5, 0.9)
        # Input builds are converted with the calibration samples taken
        # around them, not with the run-wide median of the later ops.
        built_raw = [built for _, built in self.inputs_raw]
        built_ref = cal.reference(self.inputs_raw)
        raw = {"setup_s": statistics.median(
            imported + built
            for imported, built in zip(self.import_raw, built_raw))}
        ref = {"setup_s": statistics.median(
            imported * cal.spawn_factor + built
            for imported, built in zip(self.import_raw, built_ref))}
        for q in quantiles:
            name = f"op_p{round(q * 100)}_s"
            raw[name] = percentile(raw_ops, q)
            ref[name] = percentile(ops, q)
        detail["raw"] = raw
        detail["op_samples"] = len(ops)
        if self.trace:
            self.report_layers(raw, factor)
            return
        attempted = max(out.attempted, 1)
        limit = self.latency_limit()
        for name, value in ref.items():
            out.put(name, value, "s")
        out.put("ok_share", verified / attempted, "share")
        out.put("slo_share", sum(1 for op in ops if op <= limit) / attempted,
                "share")
        # cwsc and cmc are called directly: no answer is a fallback.
        out.put("solved_share", verified / attempted, "share")
        # Cold ops past the sample floor depend on host speed; the mean
        # over the first MIN_OPS does not. A sweep run ends on a whole
        # pass, so its keys are every (system, k, s) pair once.
        out.put("answer_cost_mean", mean(
            cost for key, cost in self.answer_costs.items()
            if not cold_key(key) or key < MIN_OPS), "cost")
        out.put("peak_rss_mb", vm_hwm_mb(), "MiB")
        detail["latency_limit_s"] = limit

    def latency_limit(self) -> float:
        """Fixed per-workload op latency limit, in reference seconds."""
        return 1.0 if self.name == "table-cold" else 0.25

    def report_layers(self, raw: dict, factor: float) -> None:
        out = self.out
        spans = self.spans
        traced = max(len(self.traced_ops), 1)

        def per_op(name: str) -> float:
            return spans.seconds.get(name, 0.0) * factor / traced

        cold = self.name == "table-cold"
        setup = self.setup_spans
        systems = SWEEP_SYSTEMS

        def setup_or_op(name: str) -> float:
            if cold:
                return per_op(name)
            return setup.seconds.get(name, 0.0) * factor / systems

        answers = max(len(self.selections), 1)
        out.put("patterns.build_set_system_s",
                setup_or_op("patterns.build_set_system"), "s")
        builds = len(self.traced_ops) if cold else SWEEP_SYSTEMS
        out.put("patterns.sets_built",
                self.counters["sets_built"] / max(builds, 1), "count")
        out.put("core.canonical_keys_s", setup_or_op("core.canonical_keys"), "s")
        out.put("core.packed_layout_s", setup_or_op("core.packed_layout"), "s")
        out.put("core.mask_table_s", setup_or_op("core.mask_table"), "s")
        out.put("core.cmc_cold_extra_s", mean(self.cmc_cold_extra) * factor, "s")
        out.put("core.packed_layout_builds", packed_layout_builds(), "count")
        out.put("core.cwsc_warm_s", per_op("core.cwsc"), "s")
        out.put("core.cmc_warm_s", (mean(self.cmc_warm) * factor if cold
                                    else per_op("core.cmc")), "s")
        out.put("core.selections", self.counters["selections"] / answers, "count")
        out.put("core.marginal_updates",
                self.counters["marginal_updates"] / answers, "count")
        out.put("core.sets_considered",
                self.counters["sets_considered"] / answers, "count")
        out.put("core.packed_share", self.counters["packed"] / answers, "share")
        out.put("core.verify_result_s", per_op("core.verify_result"), "s")
        out.put("setup.import_s",
                statistics.median(self.import_raw) * self.cal.spawn_factor, "s")
        out.put("setup.inputs_s", statistics.median(
            self.cal.reference(self.inputs_raw)), "s")
        traced_raw = [raw for _, raw in self.traced_ops]
        plain_raw = [raw for _, raw in self.plain_ops]
        traced_total = sum(traced_raw)
        out.put("trace.unaccounted_share",
                1.0 - self.traced_covered / traced_total if traced_total else 0.0,
                "share")
        out.put("obs.trace_overhead_share",
                statistics.median(traced_raw) / statistics.median(plain_raw)
                - 1.0 if traced_raw else 0.0, "share")
        out.put("bench.raw_op_p50_s", raw["op_p50_s"], "s")


def cold_key(key) -> bool:
    return isinstance(key, int)


def packed_layout_builds() -> float:
    """Packed layouts the program built in this process, by its counter."""
    registry = optional("repro.obs.metrics", "get_registry")
    if registry is None:
        return 0.0
    snapshot = registry().snapshot()
    counter = snapshot.get("scwsc_packed_layout_builds_total") or {}
    return float(sum(entry["value"] for entry in counter.get("values", [])))
