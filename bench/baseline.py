"""Record a baseline: repeated untraced runs per workload plus one traced run.

    python3 bench/baseline.py

Each untraced run uses its own seed of ``SEEDS`` and lasts ``run_seconds``
of BENCHMARK.json; the traced run uses ``TRACE_SEED``.  The result, written to
``bench/baseline.json``, holds per workload and end-to-end metric the median
and the quartile spread (``statistics.quantiles(values, n=4)``, distance
between the first and third quartile over the median), the per-layer table
of the traced run with its tracing overhead, the exit code and stdout digest
of every case under the trace seed, the machine, and the map from each layer
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEED = 1

# Which end-to-end metric a layer metric should move, and on which workload.
LAYER_MAP = {
    "problem.load.busy_s": "setup_s and case_p50_s on every workload",
    "poly.mul.*, poly.substitute_linear.busy_s, poly.multiply_monomial.calls":
        "wall_s on hk-invariants (multiplication, in the invariant cases)",
    "poly.add.*": "wall_s on hk-invariants (addition in reduction, in the hk cases)",
    "groebner.buchberger.*, groebner.normal_form.*, groebner.s_polynomial.calls":
        "wall_s on hk-invariants, then linkage-oracle",
    "groebner.colength.busy_s": "wall_s on hk-invariants (staircase count)",
    "ideals.groebner.calls, ideals.groebner.hit_ratio": "wall_s on linkage-oracle",
    "ideals.intersect.*, ideals.colon.*": "wall_s on linkage-oracle only",
    "linkage.*.busy_s": "attribution within linkage-oracle and hk-invariants",
    "invariants.*": "wall_s on hk-invariants",
    "oracle.*": "wall_s and the failed share on linkage-oracle",
    "layer.<module>.self_s": "self time per package module, for attribution",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"attempted {result['attempted']} failed {result['failed']}", flush=True)
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False).stdout.strip()

    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "engine_commit": head or None,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "run_seconds": seconds,
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        with open(os.path.join(HERE, "out", f"{workload}-seed{TRACE_SEED}-trace1.json"),
                  encoding="utf-8") as handle:
            cases = json.load(handle)["cases"]
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                name: spread([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "cases": cases,
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
