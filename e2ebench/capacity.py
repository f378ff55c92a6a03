"""Sustained request rate of a default ``scwsc serve`` on serve-fresh traffic.

``serve-fresh`` sends at a fixed mean rate meant to keep the daemon about
half busy; this probe measures the rate that is half of. A closed loop of
``--clients`` senders, each sending its next never-seen request as soon
as its last reply is back, keeps the daemon saturated. Completed requests
per reference second, counted after the first ``--warm`` replies, is the
daemon's sustained rate. The daemon's share of the host's CPU during the
loop is printed beside it.

Usage (from the repository root)::

    python3 e2ebench/capacity.py [--seed 1] [--requests 80] [--clients 4]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
import time

from common import ROOT, import_program, tree_cpu_seconds
from served import MEAN_RATE, Daemon, ServeWorkload


def closed_loop(daemon: Daemon, bodies: list[bytes], clients: int):
    """Send every body from ``clients`` closed-loop senders.

    Returns the reply times, the statuses and the daemon's CPU share.
    """
    lock = threading.Lock()
    state = {"next": 0}
    ends: list[float] = []
    statuses: list = []

    def sender() -> None:
        while True:
            with lock:
                i = state["next"]
                state["next"] += 1
            if i >= len(bodies):
                return
            status, _ = daemon.request("POST", "/solve", bodies[i])
            with lock:
                ends.append(time.perf_counter())
                statuses.append(status)

    cpu_before = tree_cpu_seconds(daemon.proc.pid)
    start = time.perf_counter()
    threads = [threading.Thread(target=sender) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    share = ((tree_cpu_seconds(daemon.proc.pid) - cpu_before)
             / ((time.perf_counter() - start) * (os.cpu_count() or 1)))
    return sorted(ends), statuses, share


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=80)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--warm", type=int, default=10)
    args = parser.parse_args()
    if args.requests < args.warm + 10:
        parser.error("--requests must exceed --warm by at least 10")

    workload = ServeWorkload(import_program(), args.seed, 1.0, trace=False)
    workload.n_requests = args.requests
    workload.make_requests()
    os.makedirs(ROOT / ".e2ebench-out", exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".e2ebench-out")
    try:
        daemon = Daemon(workdir, 0, None)
        try:
            workload.quiet_calibration()
            ends, statuses, cpu_share = closed_loop(
                daemon, [body for body, _, _ in workload.requests],
                args.clients)
            workload.quiet_calibration()
        finally:
            daemon.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counted = len(ends) - args.warm
    raw_rate = counted / (ends[-1] - ends[args.warm - 1])
    # Reference seconds are raw seconds times the speed factor.
    rate = raw_rate / workload.cal.factor
    failed = sum(1 for status in statuses if status != 200)
    print(f"requests {len(ends)} (first {args.warm} not counted), "
          f"clients {args.clients}, non-200 {failed}")
    print(f"calib_s {workload.cal.calib:.5f}, "
          f"speed_factor {workload.cal.factor:.4f}")
    print(f"sustained rate: {raw_rate:.3f} per raw s, "
          f"{rate:.2f} per reference s")
    print(f"daemon CPU share at saturation: {cpu_share:.3f}")
    print(f"serve-fresh mean rate {MEAN_RATE:.2f} is {MEAN_RATE / rate:.2f} "
          f"of the sustained rate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
