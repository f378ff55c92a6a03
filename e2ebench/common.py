"""Shared machinery: program import, calibration, spans, statistics, output.

Reference seconds
-----------------
Raw wall-clock times on a shared host drift by a fifth between runs,
while the ratio of an op to a fixed CPU-bound kernel timed beside it
stays within a few percent. Every timing the benchmark reports is
therefore converted to *reference seconds*::

    reference = raw * C_REF / calib

``calib`` is the median time of :func:`calibration_kernel`, timed
interleaved with the ops in the process that does the timing, and
``C_REF`` is a constant fixed once. Set-up is dominated by starting
interpreters and importing modules, so set-up times are converted the
same way with ``C_SPAWN_REF`` and the median time of a fresh interpreter
that imports numpy and runs the kernel. Neither calibration imports
anything from ``repro``, so no change to the program can move it; the
raw figures and both calibrations are printed beside the results.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Median seconds of one :func:`calibration_kernel` call, and of one
#: :data:`SPAWN_SNIPPET` interpreter, on the 2-vCPU host (Python 3.11)
#: the bounds were set on. Never change them: doing so rescales every
#: reported time.
C_REF = 0.004
C_SPAWN_REF = 0.3

#: Least samples a reported percentile must have strictly beyond it.
MIN_BEYOND = 10


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Exits with status 2 when the checkout holds no program, so the
    benchmark never measures an installed copy by accident.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"e2ebench: imported repro from {repro.__file__}")
    return repro


def program_env() -> dict:
    """Environment for program subprocesses: this checkout's source, and
    no inherited ``REPRO_*`` overrides (backend choice, fault injection)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
_GATHER: list = []


def _gather_inputs():
    """A 16 MiB table and fixed random indices into it, made once."""
    if not _GATHER:
        import numpy as np

        rng = np.random.default_rng(20150413)
        table = rng.integers(0, 1 << 40, size=2 << 20, dtype=np.int64)
        _GATHER.extend([table, rng.integers(0, table.size, size=500_000)])
    return _GATHER


def calibration_kernel() -> int:
    """Fixed CPU-bound work in the program's instruction mixes:
    interpreter-bound string and dict updates (pattern enumeration),
    wide-integer bit operations (the bitset kernel), JSON encoding and
    decoding (the serve path) and cache-missing loads from a table larger
    than the caches (walks over big set systems). It allocates almost no
    container the cyclic garbage collector tracks, so the size of the
    program's heap cannot change its running time."""
    table, indices = _gather_inputs()
    counts: dict = {}
    acc = 0
    for i in range(4_000):
        key = "k" + str(i % 509)
        counts[key] = counts.get(key, 0) + (i & 7)
        acc = (acc * 1_103_515_245 + i) % 2_147_483_648
    for key in sorted(counts):
        acc ^= counts[key]
    mask = (1 << 640) - 1
    word = 0x9E3779B97F4A7C15
    for i in range(3_000):
        word = (word * 6_364_136_223_846_793_005 + i) & mask
        acc += (word & (mask >> (i % 64))).bit_count()
    text = json.dumps(["v%d" % i for i in range(1_500)]
                      + [i * 0.25 for i in range(1_500)])
    acc += len(json.loads(text))
    acc ^= int(table[indices].sum())
    return acc


SPAWN_SNIPPET = (
    "import sys\n"
    f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
    "import numpy\n"
    "from common import calibration_kernel\n"
    "calibration_kernel()\n"
)


def on_cpu(cpu: int, run) -> float:
    """Seconds ``run()`` takes with the calling thread (and any process it
    starts) pinned to ``cpu``; the thread's CPUs are restored after."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, previous)


class Calibrator:
    """Timed calibration samples; converts raw seconds to reference.

    Host speed drifts within a run, so :meth:`reference` converts each op
    with the median of the :data:`WINDOW` samples taken nearest to it.
    Set-up times are converted with the spawn samples.

    On a shared host the CPUs' speeds differ from moment to moment, by up
    to half. Work done in the timing thread is calibrated on whatever CPU
    that thread runs on. Work spread over other processes on every CPU (a
    daemon) is calibrated with ``cpus``: each sample, and each spawn
    sample, then runs once pinned to each of those CPUs and records the
    mean.
    """

    WINDOW = 31

    def __init__(self, cpus: list[int] | None = None) -> None:
        self.cpus = cpus
        self.at: list[float] = []
        self.samples: list[float] = []
        self.spawns: list[float] = []
        _gather_inputs()

    def _timed(self, run) -> float:
        """Seconds of ``run()``, or their mean over :attr:`cpus`."""
        if not self.cpus:
            start = time.perf_counter()
            run()
            return time.perf_counter() - start
        return mean(on_cpu(cpu, run) for cpu in self.cpus)

    @property
    def sample_seconds(self) -> float:
        """Expected duration of one :meth:`sample`."""
        return self.calib * (len(self.cpus) if self.cpus else 1)

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.samples.append(self._timed(calibration_kernel))

    def discard_last(self) -> None:
        """Drop the latest sample (it overlapped load it must not see)."""
        self.at.pop()
        self.samples.pop()

    def spawn_sample(self) -> None:
        self.spawns.append(self._timed(lambda: subprocess.run(
            [sys.executable, "-c", SPAWN_SNIPPET], check=True,
            cwd=ROOT, env=program_env(), timeout=120)))

    @property
    def calib(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Run-wide factor: multiply raw seconds by it for reference."""
        return C_REF / self.calib

    @property
    def spawn_factor(self) -> float:
        """Factor for set-up times (interpreter start and imports)."""
        return C_SPAWN_REF / statistics.median(self.spawns)

    def reference(self, timed: list[tuple[float, float]]) -> list[float]:
        """Reference seconds of ``(start, raw seconds)`` pairs."""
        converted = []
        for when, raw in timed:
            middle = bisect.bisect_left(self.at, when)
            low = max(0, min(middle - self.WINDOW // 2,
                             len(self.at) - self.WINDOW))
            window = self.samples[low:low + self.WINDOW]
            converted.append(raw * C_REF / statistics.median(window))
        return converted

    def summary(self) -> dict:
        """Calibration facts for the run's detail line."""
        return {
            "calib_s": self.calib,
            "calib_samples": len(self.samples),
            "calib_quartiles_s": statistics.quantiles(self.samples, n=4),
            "spawn_calib_s": statistics.median(self.spawns),
            "spawn_samples": len(self.spawns),
            "speed_factor": self.factor,
        }



# ----------------------------------------------------------------------
# Spans recorded around calls into the program
# ----------------------------------------------------------------------
class Spans:
    """Accumulated span durations per layer name.

    Spans never nest: each wraps one call into the program, so the sum
    of an op's spans is the part of its time the layers explain.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.covered = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] += elapsed
            self.calls[name] += 1
            self.covered += elapsed


class NoSpans:
    """Stand-in for :class:`Spans` on untraced ops."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def optional(module: str, name: str):
    """``module.name`` when the program still has it, else ``None``.

    The traced run splits cold solves into cache builds by calling the
    builders first. Later versions of the program may merge or drop a
    builder; its time then stays inside the solve span instead of
    breaking the benchmark.
    """
    import importlib

    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; requires :data:`MIN_BEYOND` samples above."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has only "
            f"{beyond} beyond it (need {MIN_BEYOND})"
        )
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Samples needed so the ``q`` percentile has MIN_BEYOND beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - q))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Processes and memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def tree_cpu_seconds(pid: int) -> float:
    """CPU seconds used by a process, its live descendants and the
    children it has already reaped, read from ``/proc``."""
    parents: dict[int, list[int]] = defaultdict(list)
    times: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the table was read
            continue
        parents[int(fields[1])].append(int(entry))
        # utime, stime, cutime, cstime
        times[int(entry)] = sum(int(value) for value in fields[11:15])
    ticks, stack = 0, [pid]
    while stack:
        current = stack.pop()
        ticks += times.get(current, 0)
        stack.extend(parents.get(current, ()))
    return ticks / os.sysconf("SC_CLK_TCK")


IMPORT_SNIPPET = (
    "import repro\n"
    "from repro import build_set_system, cwsc, cmc, verify_result\n"
)


def time_fresh_import() -> float:
    """Seconds for a fresh interpreter to import the library entry points."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=program_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
class Outcome:
    """Counts and metrics of one run, printed as the final JSON line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.detail: dict = {}

    def fail(self, message: str) -> None:
        """A wrong answer or an invalid run: reported, exits non-zero."""
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self) -> int:
        for problem in self.problems:
            print(f"e2ebench: {problem}", file=sys.stderr)
        print(json.dumps({"detail": self.detail}, sort_keys=True))
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }))
        sys.stdout.flush()
        return 0 if self.correct else 1
