"""Run-to-run steadiness report for the benchmark.

Runs ``run.py --trace 0`` once per seed on each workload and prints, per
end-to-end metric, the median of the runs and the spread between them
(interquartile range over median, from ``statistics.quantiles(n=4)``),
next to each metric's bound from ``BENCHMARK.json`` and the ratio of the
two; the headline is the largest ratio over every metric, ``setup_s``
included. Timing metrics show the spread of the raw seconds beside that
of the reference seconds, so the effect of calibration is visible.

Usage (from the repository root)::

    python3 e2ebench/steadiness.py --runs 10 [--first-seed 1] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, dict] | None:
    """One run's result and detail lines; ``None`` (reported) if it failed."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"  {workload} seed {seed}: FAILED, exit {done.returncode}\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    worst = (0.0, "")
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raws: dict[str, list[float]] = {}
        calibs = []
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            outcome = run_once(spec, workload, seed)
            if outcome is None:
                failed += 1
                continue
            result, detail = outcome
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in detail.get("raw", {}).items():
                raws.setdefault(name, []).append(value)
            calibs.append(detail["calib_s"])
            print(f"  {workload} seed {seed}: calib_s={detail['calib_s']:.5g}, "
                  + ", ".join(f"{name}={result['metrics'][name]['value']:.5g}"
                              for name in bounds), file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs, {failed} failed, calib_s median "
              f"{statistics.median(calibs):.6f} spread {spread(calibs):.3f}")
        print(f"  {'metric':<18} {'median':>12} {'spread':>8} {'raw':>8} "
              f"{'bound':>6} {'ratio':>6}")
        for name, bound in bounds.items():
            ref = spread(values[name])
            raw = f"{spread(raws[name]):8.3f}" if name in raws else " " * 8
            if ref / bound > worst[0]:
                worst = (ref / bound, f"{workload} {name}")
            print(f"  {name:<18} {statistics.median(values[name]):12.6g} "
                  f"{ref:8.3f} {raw} {bound:6.3f} {ref / bound:6.3f}")
    print(f"\nlargest spread/bound: {worst[0]:.3f} ({worst[1]}); "
          f"the aim is below 1/3")
    return 0


if __name__ == "__main__":
    sys.exit(main())
