"""End-to-end benchmark of the size-constrained weighted set cover solvers.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload table-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``library.py`` and ``served.py``):

* ``table-cold``  -- closed loop, a never-seen table per op, cold solves;
* ``table-sweep`` -- closed loop, Fig. 8/9 ``(k, s)`` points on warm systems;
* ``serve-fresh`` -- open loop against a default ``scwsc serve`` daemon,
  a never-seen system per request.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it holds the raw (uncalibrated) figures and run diagnostics. Timings are
in reference seconds (see ``common.py``). Exit status is non-zero when an
answer fails its check or the run is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys

WORKLOADS = ("table-cold", "table-sweep", "serve-fresh")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from common import ROOT, import_program

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    repro = import_program()
    if args.workload == "serve-fresh":
        from served import ServeWorkload

        out = ServeWorkload(repro, args.seed, args.seconds,
                            bool(args.trace)).run()
    else:
        from library import LibraryWorkload

        out = LibraryWorkload(repro, args.workload, args.seed, args.seconds,
                              bool(args.trace)).run()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        out.put("bench.calib_s", out.detail["calib_s"], "s")
        out.put("bench.speed_factor", out.detail["speed_factor"], "ratio")
        # Layers a workload never enters read zero.
        for metric in declared:
            out.metrics.setdefault(
                metric["name"], {"value": 0.0, "unit": metric["unit"]})
    names = {metric["name"] for metric in declared}
    if out.correct and set(out.metrics) != names:
        out.fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(names - set(out.metrics))}, undeclared "
                 f"{sorted(set(out.metrics) - names)}")
    return out.emit()


if __name__ == "__main__":
    sys.exit(main())
