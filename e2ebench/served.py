"""Served workload: ``serve-fresh``.

An open loop from this process drives a default-config ``scwsc serve``
daemon over HTTP at a fixed rate in reference time that keeps it about
half busy on two cores (``capacity.py`` measures the daemon's sustained
rate; ``RATE`` is about half of it). Every request carries a never-seen
pattern set system of 100-200 LBL rows (0.3-0.6 MiB of JSON) and uses the
default ``resilient`` chain. Time goes to the serve path -- JSON decode,
request validation, pool frame encode and decode -- rather than to
pattern enumeration, which the client does before the clock starts.

Each request is timed from when it was due, so a stalled daemon charges
the wait to every request behind it; the sender's own lateness is
reported as ``client.sched_lag_p90_s``. The run is invalid when latency
grows from the first third of the schedule to the last (a backlog).

With ``--trace 1`` the daemon also writes its access log, and after the
load each of the first requests is replayed in this process through the
serve-path functions the daemon runs (decode, validate, frame, worker
decode, chain, parent re-verify, response), one span per layer and one
worker attempt per attempt the daemon reported.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

from common import (
    ROOT, Calibrator, NoSpans, Outcome, Spans, mean, min_samples, optional,
    percentile, program_env, tree_cpu_seconds, vm_hwm_mb,
)
from check import check_wire_answer
from inputs import ATTRIBUTES, lbl_rows, table_seed

#: Requests per reference second in the sending slots. After every
#: PAUSE_EVERY requests PAUSE_SLOTS slots stay empty, so the daemon falls
#: idle and the calibration kernel can run beside the load all through
#: it (host speed on a shared machine moves by a fifth within seconds).
#: The mean rate, 9.1 per reference second, is about half of the rate
#: ``capacity.py`` measures a default daemon to sustain on these
#: requests: 18.4-19.4 per reference second on a 2-vCPU host, with the
#: daemon then using 0.85-0.87 of both CPUs. The schedule is set in
#: reference time from the calibration taken just before the load, so a
#: slower host gets proportionally fewer requests per wall-clock second
#: and the daemon stays equally busy; a fixed wall-clock rate would turn
#: host slowness into queueing that calibration cannot undo.
RATE = 10.0
PAUSE_EVERY = 10
PAUSE_SLOTS = 1
MEAN_RATE = RATE * PAUSE_EVERY / (PAUSE_EVERY + PAUSE_SLOTS)
#: Request sizes and (k, s) cycle through fixed grids (11 and 9 entries,
#: coprime), so every seed sends the same mix and only the tables'
#: contents vary; a drawn mix would move latency and answer cost from
#: seed to seed.
ROWS = tuple(range(100, 201, 10))
K_CHOICES = (5, 8, 10)
S_CHOICES = (0.2, 0.3, 0.4)
POINTS = tuple((k, s) for k in K_CHOICES for s in S_CHOICES)
MIN_REQUESTS = min_samples(0.9)
BOOT_REPEATS = 3
REPLAY_MAX = 12
#: Per-request latency limit for ``slo_share``, in reference seconds.
LATENCY_LIMIT_S = 1.0
#: Invalid run when the last third's median latency exceeds the first
#: third's by this factor.
BACKLOG_FACTOR = 1.5
#: Calibration runs only while no request is in flight: in quiet phases
#: before and after the load, and during it when the last answer came
#: back at least CALIB_SETTLE_S ago and the next request is not due
#: until one sample plus CALIB_GAP_S has passed, so neither the daemon's
#: tail work nor the next send shares the CPU with the kernel. A sample
#: that a send still overlaps is dropped.
CALIB_QUIET_SAMPLES = 40
CALIB_SETTLE_S = 0.04
CALIB_GAP_S = 0.04
CHAIN_STAGES = ("exact", "lp_rounding", "cwsc", "cmc", "universal")


def slot(i: int) -> int:
    """Schedule slot of the ``i``-th request (pauses included)."""
    return i + PAUSE_SLOTS * (i // PAUSE_EVERY)


class Daemon:
    """One ``scwsc serve`` process on an ephemeral port."""

    def __init__(self, workdir: str, index: int, access_log: str | None):
        self.stdout_path = os.path.join(workdir, f"daemon{index}.out")
        self.stdout = open(self.stdout_path, "wb")
        self.stderr = open(os.path.join(workdir, f"daemon{index}.err"), "wb")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if access_log is not None:
            command += ["--access-log", access_log]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=self.stdout, stderr=self.stderr,
            env=program_env(), cwd=ROOT,
        )
        try:
            self.port = self._await_port(start + 120.0)
            self._await_ready(start + 120.0)
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - start

    def _await_port(self, give_up: float) -> int:
        while time.perf_counter() < give_up:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            with open(self.stdout_path, "rb") as boot:
                line = boot.readline()
            if line.endswith(b"\n"):
                return int(json.loads(line)["port"])
            time.sleep(0.005)
        raise RuntimeError("daemon printed no boot line")

    def _await_ready(self, give_up: float) -> None:
        while time.perf_counter() < give_up:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never became ready")

    def get(self, path: str) -> tuple[int, bytes]:
        return self.request("GET", path, None)

    def request(self, method: str, path: str, body: bytes | None,
                timeout: float = 120.0) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def worker_peak_rss_mb(self) -> float:
        """Largest ``scwsc_worker_peak_rss_bytes`` gauge, in MiB."""
        _, text = self.get("/metrics")
        peak = 0.0
        for line in text.decode().splitlines():
            if line.startswith("scwsc_worker_peak_rss_bytes"):
                peak = max(peak, float(line.rsplit(" ", 1)[1]))
        return peak / (1024.0 * 1024.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stdout.close()
        self.stderr.close()


class ServeWorkload:
    """State of one ``serve-fresh`` run."""

    def __init__(self, repro, seed: int, seconds: float, trace: bool):
        self.repro = repro
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = Outcome()
        # The daemon's processes use every CPU the benchmark may use.
        self.cal = Calibrator(cpus=sorted(os.sched_getaffinity(0)))
        self.n_requests = max(MIN_REQUESTS, round(RATE * seconds))

    # -- inputs ------------------------------------------------------------
    def make_requests(self) -> None:
        from repro.resilience.pool.protocol import system_to_payload

        self.requests = []
        for i in range(self.n_requests):
            n_rows = ROWS[i % len(ROWS)]
            k, s_hat = POINTS[i % len(POINTS)]
            rows, measure = lbl_rows(n_rows, table_seed(self.seed, i))
            table = self.repro.PatternTable(
                ATTRIBUTES, rows, measure, measure_name="duration")
            system = self.repro.build_set_system(table, "max")
            body = json.dumps({
                "system": system_to_payload(system), "k": k, "s": s_hat,
                "tag": f"r{i}",
            }).encode()
            self.requests.append((body, k, s_hat))

    # -- open loop -----------------------------------------------------------
    def drive(self, daemon: Daemon) -> list:
        """Send every request at its due time; calibrate while idle."""
        lock = threading.Lock()
        state = {"next": 0, "started": 0, "inflight": 0, "last_end": 0.0}
        records: list = [None] * self.n_requests
        interval = 1.0 / (RATE * self.cal.factor)
        self.out.detail["interval_s"] = interval
        t0 = time.perf_counter() + 0.1

        def sender() -> None:
            while True:
                with lock:
                    i = state["next"]
                    state["next"] += 1
                if i >= self.n_requests:
                    return
                due = t0 + slot(i) * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    state["started"] += 1
                    state["inflight"] += 1
                sent = time.perf_counter()
                try:
                    status, body = daemon.request(
                        "POST", "/solve", self.requests[i][0])
                except (OSError, http.client.HTTPException) as error:
                    status, body = None, repr(error).encode()
                end = time.perf_counter()
                with lock:
                    state["inflight"] -= 1
                    state["last_end"] = end
                records[i] = (due, sent, end, status, body)

        senders = [threading.Thread(target=sender, daemon=True)
                   for _ in range(os.cpu_count() or 1)]
        for thread in senders:
            thread.start()
        overlaps = 0
        while any(thread.is_alive() for thread in senders):
            now = time.perf_counter()
            with lock:
                started = state["started"]
                quiet = (state["inflight"] == 0
                         and now - state["last_end"] > CALIB_SETTLE_S
                         and t0 + slot(started) * interval - now
                         > self.cal.sample_seconds + CALIB_GAP_S)
            if not quiet:
                time.sleep(0.002)
                continue
            self.cal.sample()
            with lock:
                overlapped = state["started"] != started
            if overlapped:
                # A send began while the kernel ran: the sample shared the
                # CPU with the load, so it is dropped and counted.
                self.cal.discard_last()
                overlaps += 1
        for thread in senders:
            thread.join()
        self.out.detail["calib_overlaps"] = overlaps
        return records

    def quiet_calibration(self) -> None:
        time.sleep(CALIB_SETTLE_S)
        for _ in range(CALIB_QUIET_SAMPLES):
            self.cal.sample()

    # -- run ------------------------------------------------------------------
    def run(self) -> Outcome:
        os.makedirs(ROOT / ".e2ebench-out", exist_ok=True)
        workdir = tempfile.mkdtemp(dir=ROOT / ".e2ebench-out")
        try:
            return self._run(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run(self, workdir: str) -> Outcome:
        inputs_start = time.perf_counter()
        self.make_requests()
        self.inputs_seconds = time.perf_counter() - inputs_start
        access_log = os.path.join(workdir, "access.jsonl") if self.trace else None
        boots = []
        daemon = None
        for repeat in range(BOOT_REPEATS):
            self.cal.spawn_sample()
            daemon = Daemon(workdir, repeat, access_log)
            boots.append(daemon.boot_seconds)
            if repeat < BOOT_REPEATS - 1:
                daemon.stop()
        self.cal.spawn_sample()
        try:
            self.quiet_calibration()
            cpu_before = tree_cpu_seconds(daemon.proc.pid)
            load_start = time.perf_counter()
            records = self.drive(daemon)
            self.daemon_cpu_share = (
                (tree_cpu_seconds(daemon.proc.pid) - cpu_before)
                / ((time.perf_counter() - load_start) * (os.cpu_count() or 1)))
            self.quiet_calibration()
            parent_rss = vm_hwm_mb(daemon.proc.pid)
            worker_rss = daemon.worker_peak_rss_mb()
        finally:
            daemon.stop()
        self.report(boots, records, parent_rss, worker_rss, access_log)
        return self.out

    # -- results ----------------------------------------------------------------
    def judge(self, records) -> dict:
        """Check every answer; returns per-request facts for the report."""
        out = self.out
        facts = {"verified": [], "costs": [], "fallbacks": 0, "sheds": 0,
                 "attempts": [], "requeues": [], "trace_ids": {},
                 "pool": {}, "answered_by": defaultdict(int),
                 "errors": defaultdict(int)}
        for i, record in enumerate(records):
            out.attempted += 1
            due, sent, end, status, body = record
            if status != 200:
                out.failed += 1
                if status == 429:
                    facts["sheds"] += 1
                facts["errors"][f"http {status}"] += 1
                continue
            reply = json.loads(body)
            facts["trace_ids"][i] = reply.get("trace_id")
            answer = reply.get("result")
            request_body, k, s_hat = self.requests[i]
            if answer is None:
                out.failed += 1
                facts["errors"][f"status {reply.get('status')}"] += 1
                continue
            system = json.loads(request_body)["system"]
            problems = check_wire_answer(system, answer, k, s_hat)
            if problems:
                out.failed += 1
                for problem in problems:
                    out.fail(f"serve-fresh request {i}: {problem}")
                continue
            facts["verified"].append(i)
            if len(set(answer["set_ids"])) == 1 and (
                    answer["covered"] == system["n"]):
                facts["fallbacks"] += 1
            else:
                facts["costs"].append(answer["total_cost"])
            pool = reply.get("pool") or {}
            facts["pool"][i] = pool
            facts["attempts"].append(len(pool.get("attempts") or []))
            facts["requeues"].append(pool.get("requeues") or 0)
            answered = ("pool_fallback" if reply.get("status") == "fallback"
                        else answer["algorithm"])
            facts["answered_by"][answered] += 1
        return facts

    def report(self, boots, records, parent_rss, worker_rss,
               access_log) -> None:
        out = self.out
        factor = self.cal.factor
        facts = self.judge(records)
        latencies = [end - due for due, _, end, _, _ in records]
        lags = [sent - due for due, sent, _, _, _ in records]
        # Each latency is converted with the calibration samples nearest
        # to it (taken in the pauses around it), so a host that slows
        # down mid-run is neither reported as a slower program nor
        # mistaken by the backlog test for a growing queue.
        reference = self.cal.reference(
            [(due, end - due) for due, _, end, _, _ in records])
        third = len(records) // 3
        first = statistics.median(reference[:third])
        last = statistics.median(reference[-third:])
        attempted = max(out.attempted, 1)
        verified = set(facts["verified"])
        within = sum(1 for i in verified if reference[i] <= LATENCY_LIMIT_S)
        raw = {
            "setup_s": statistics.median(boots),
            "op_p50_s": percentile(latencies, 0.5),
            "op_p90_s": percentile(latencies, 0.9),

        }
        out.detail.update({
            "workload": "serve-fresh", "seed": self.seed, "trace": self.trace,
            "requests": len(records), "rate_per_ref_s": RATE,
            "mean_rate_per_ref_s": MEAN_RATE,
            **self.cal.summary(), "raw": raw, "latency_limit_s": LATENCY_LIMIT_S,
            "first_third_p50_ref_s": first, "last_third_p50_ref_s": last,
            "errors": dict(facts["errors"]),
            "inputs_s": self.inputs_seconds,
            "daemon_cpu_share": self.daemon_cpu_share,
        })
        if last > BACKLOG_FACTOR * first:
            out.fail(f"serve-fresh: invalid run, latency grew from "
                     f"{first:.3f}s (first third) to {last:.3f}s (last third)")
        if self.trace:
            self.report_layers(facts, lags, boots, parent_rss, worker_rss,
                               access_log, latencies, factor, raw)
            return
        out.put("setup_s", raw["setup_s"] * self.cal.spawn_factor, "s")
        out.put("op_p50_s", percentile(reference, 0.5), "s")
        out.put("op_p90_s", percentile(reference, 0.9), "s")
        out.put("ok_share", len(verified) / attempted, "share")
        out.put("slo_share", within / attempted, "share")
        # Universal-set answers count against solved_share and are left
        # out of the cost mean: their cost is the table's largest measure,
        # so heavy-tailed that one such answer per run would set the
        # mean's spread from seed to seed.
        out.put("solved_share",
                (len(verified) - facts["fallbacks"]) / attempted, "share")
        out.put("answer_cost_mean", mean(facts["costs"]), "cost")
        out.put("peak_rss_mb", parent_rss + worker_rss, "MiB")

    def report_layers(self, facts, lags, boots, parent_rss, worker_rss,
                      access_log, latencies, factor, raw) -> None:
        out = self.out
        verified = facts["verified"]
        n_verified = max(len(verified), 1)
        access = []
        with open(access_log) as log:
            for line in log:
                record = json.loads(line)
                if record.get("endpoint") == "/solve":
                    access.append(record)
        queue = [r.get("queue_seconds") or 0.0 for r in access]
        out.put("serve.request_bytes",
                mean(len(body) for body, _, _ in self.requests), "B")
        out.put("serve.queue_s", mean(queue) * factor, "s")
        out.put("serve.shed_share", facts["sheds"] / max(out.attempted, 1),
                "share")
        out.put("serve.parent_rss_mb", parent_rss, "MiB")
        out.put("serve.daemon_cpu_share", self.daemon_cpu_share, "share")
        out.put("pool.worker_peak_rss_mb", worker_rss, "MiB")
        out.put("pool.attempts_per_request", mean(facts["attempts"]), "count")
        out.put("pool.requeues_per_request", mean(facts["requeues"]), "count")
        out.put("fallback_share", facts["fallbacks"] / n_verified, "share")
        out.put("client.sched_lag_p90_s", percentile(lags, 0.9) * factor, "s")
        out.put("setup.daemon_boot_s", raw["setup_s"] * self.cal.spawn_factor,
                "s")
        out.put("setup.inputs_s", self.inputs_seconds * factor, "s")
        out.put("bench.raw_op_p50_s", raw["op_p50_s"], "s")
        for stage in CHAIN_STAGES + ("pool_fallback",):
            out.put(f"chain.answered_by.{stage}",
                    facts["answered_by"].get(stage, 0) / n_verified, "share")
        queue_by_trace = {r.get("trace_id"): r.get("queue_seconds") or 0.0
                          for r in access}
        queue_by_request = {i: queue_by_trace.get(trace_id, 0.0)
                            for i, trace_id in facts["trace_ids"].items()}
        chains = {i: attempt_chains(facts["pool"][i]) for i in verified}
        Replay(self, factor).report(verified[:REPLAY_MAX], chains,
                                    latencies, queue_by_request)


def attempt_chains(pool: dict) -> list:
    """The chain each pool attempt of a served request ran.

    The pool's circuit breakers route stages that keep crashing out of
    the chain; the reply names them. Failed attempts are replayed with
    the full default chain and the answering attempt without the
    routed-around stages.
    """
    from repro.resilience.chain import DEFAULT_CHAIN

    attempts = pool.get("attempts") or [{}]
    routed = set(pool.get("routed_around") or ())
    answered = "fallback" not in pool
    chains = [list(DEFAULT_CHAIN) for _ in attempts]
    if answered:
        chains[-1] = [stage for stage in DEFAULT_CHAIN if stage not in routed]
    return chains


class Replay:
    """In-process replay of served requests through the serve path."""

    def __init__(self, workload: ServeWorkload, factor: float) -> None:
        from repro.serve.config import ServeConfig

        self.workload = workload
        self.factor = factor
        self.config = ServeConfig()
        self.spans = Spans()
        self.stage_seconds: dict = defaultdict(float)
        self.stage_errors: dict = defaultdict(int)
        self.error_classes: dict = defaultdict(int)
        self.wasted = 0.0
        self.frame_bytes: list[int] = []
        self.replays = 0
        self.plain: list[float] = []
        self.traced: list[float] = []

    def run_chain(self, request, spans):
        """One worker attempt of the chain; its result, or None if it raised."""
        from repro.resilience.pool.worker import run_request

        marks: list = []
        outcome: dict = {}

        def attempt() -> None:
            try:
                outcome["result"] = run_request(
                    request,
                    on_stage=lambda name: marks.append((name, time.perf_counter())),
                )
            except Exception as caught:  # the worker maps these to retries
                outcome["error"] = caught

        # A fresh thread gives the chain about the shallow Python stack a
        # pool worker has, so recursion-limited stages behave as served.
        with spans.span("chain"):
            thread = threading.Thread(target=attempt)
            thread.start()
            thread.join()
            done = time.perf_counter()
        result, error = outcome.get("result"), outcome.get("error")
        if spans is not self.spans:
            return result
        answered = None
        if result is not None:
            answered = (result.params.get("resilience") or {}).get("stage")
        for position, (name, start) in enumerate(marks):
            end = marks[position + 1][1] if position + 1 < len(marks) else done
            self.stage_seconds[name] += end - start
            if name != answered:
                self.wasted += end - start
        if error is not None:
            stage = marks[-1][0] if marks else "request"
            self.stage_errors[stage] += 1
            self.error_classes[f"{stage}:{type(error).__name__}"] += 1
        elif result is not None:
            for stage in (result.params.get("resilience") or {}).get("stages", []):
                if stage["status"] not in ("ok", "skipped"):
                    self.stage_errors[stage["stage"]] += 1
                    self.error_classes[f"{stage['stage']}:{stage['status']}"] += 1
        return result

    def replay(self, body: bytes, k: int, s_hat: float, chains: list,
               request_id: int, traced: bool) -> float:
        """All layers of one served request; returns the op seconds.

        Traced replays record a span per layer with ``repro.obs`` span
        capture on; plain replays run the same calls bare.
        """
        from repro.core.result import result_from_dict
        from repro.resilience import resilient_solve
        from repro.resilience.pool.protocol import (
            encode_frame, encode_request, read_frame, request_from_payload,
        )
        from repro.serve.server import build_solve_request

        spans = self.spans if traced else NoSpans()
        span = spans.span
        start = time.perf_counter()
        with span("serve.json_decode"):
            payload = json.loads(body)
        with span("serve.build_solve_request"):
            request = build_solve_request(payload, self.config)
        with span("pool.encode_request"):
            frame = encode_request(request, request_id)
        with span("pool.encode_frame"):
            data = encode_frame(frame)
        if traced:
            self.frame_bytes.append(len(data))
        result = None
        for chain in chains:
            with span("pool.frame_decode"):
                decoded = read_frame(io.BytesIO(data))
            decoded["chain"] = chain
            # Each served request reached a worker that had never seen
            # its system; a unique fingerprint keeps the worker-side
            # system cache from hitting on the second replay.
            self.replays += 1
            decoded["system_fp"] = f"{decoded.get('system_fp')}/{self.replays}"
            with span("pool.request_from_payload"):
                _, worker_request = request_from_payload(decoded)
            result = self.run_chain(worker_request, spans)
            if result is not None:
                with span("pool.result_frame"):
                    reply = read_frame(io.BytesIO(encode_frame(
                        {"kind": "result", "result": result.to_dict()})))
                    result = result_from_dict(reply["result"])
                break
        if result is None:
            with span("chain.pool_fallback"):
                result = resilient_solve(request.system, k, s_hat,
                                         chain=("universal",))
        with span("core.verify_result"):
            problems = self.workload.repro.verify_result(
                request.system, result)
        with span("serve.response"):
            json.dumps({"status": "ok", "result": result.to_dict()})
        if problems:
            self.workload.out.fail(f"replay {request_id}: {problems}")
        return time.perf_counter() - start

    def report(self, indices, chains, latencies, queue) -> None:
        out = self.workload.out
        factor = self.factor
        capture = optional("repro.obs.trace", "capture")
        served = queued = 0.0
        for position, index in enumerate(indices):
            body, k, s_hat = self.workload.requests[index]
            # Alternate which pass goes first so neither always runs warm.
            for traced in (False, True) if position % 2 else (True, False):
                context = (capture() if capture and traced
                           else contextlib.nullcontext())
                with context:
                    elapsed = self.replay(body, k, s_hat, chains[index],
                                          index, traced)
                (self.traced if traced else self.plain).append(elapsed)
            served += latencies[index]
            queued += queue.get(index, 0.0)
        replayed = max(len(indices), 1)
        seconds = self.spans.seconds

        def per_request(name: str) -> float:
            return seconds.get(name, 0.0) * factor / replayed

        for name in ("serve.json_decode", "serve.build_solve_request",
                     "pool.encode_request", "pool.encode_frame",
                     "pool.frame_decode", "pool.request_from_payload",
                     "core.verify_result"):
            out.put(f"{name}_s", per_request(name), "s")
        out.put("pool.frame_bytes", mean(self.frame_bytes), "B")
        for stage in CHAIN_STAGES:
            out.put(f"chain.stage_s.{stage}",
                    self.stage_seconds.get(stage, 0.0) * factor / replayed, "s")
            out.put(f"chain.stage_errors.{stage}",
                    self.stage_errors.get(stage, 0) / replayed, "count")
        out.put("chain.wasted_s", self.wasted * factor / replayed, "s")
        # The served latency of the replayed requests, less the queue wait
        # the daemon logged, is what the replayed layer spans must explain.
        out.put("trace.unaccounted_share",
                1.0 - (self.spans.covered + queued) / served if served else 0.0,
                "share")
        out.put("obs.trace_overhead_share",
                statistics.median(self.traced) / statistics.median(self.plain)
                - 1.0 if self.plain else 0.0, "share")
        out.detail["stage_errors"] = dict(self.error_classes)
