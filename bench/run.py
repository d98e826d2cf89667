"""hkforge benchmark: seeded CLI workloads, timed end to end or traced.

    python3 bench/run.py --workload hk-invariants --seed 1 --seconds 60 --trace 0

One client in a closed loop: a single process runs ``hkforge.cli.main`` on
one case at a time, passes over the whole case list until ``--seconds`` is
spent, and checks every output, against identities and, for the seeds in
``bench/digests.json``, against the recorded stdout of every case.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics with
the tracing overhead.  The last line of stdout is one JSON object; run
artefacts (problem files, per-case digests, spans) go to ``bench/out/``.
BLAS runs on one thread, in the benchmark and in its import probes, so
neither numpy's start-up nor the oracle's matrices race for the cores.

The engine is imported from ``src/`` next to this directory and nowhere
else, so the benchmark always measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# Read by OpenBLAS when numpy loads, so set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import digests  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_p50_s": "s",
    "lengths_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, hkforge; "
    "print(time.perf_counter() - t)"
)


def time_import() -> float:
    """Seconds a fresh interpreter spends importing numpy and hkforge."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def write_cases(workload: str, seed: int):
    cases = workloads.build(workload, seed)
    return cases, workloads.write_problems(cases, os.path.join(OUT, f"{workload}-seed{seed}"))


def setup(workload: str, seed: int):
    """One set-up: a fresh import, then generating and writing the files."""
    imported = time_import()
    started = time.perf_counter()
    cases, paths = write_cases(workload, seed)
    return cases, paths, imported + time.perf_counter() - started


def load_engine():
    if not os.path.isfile(os.path.join(SRC, "hkforge", "__init__.py")):
        sys.exit(f"error: no hkforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import hkforge.cli

    if not os.path.abspath(hkforge.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported hkforge from {hkforge.cli.__file__}, not {SRC}")
    return hkforge.cli


class Runner:
    """Runs passes over the cases and keeps what every run produced."""

    def __init__(self, cli, cases, paths, expected):
        self.cli = cli
        self.cases = cases
        self.paths = paths
        # Case id -> recorded stdout digest, for the seeds digests.json holds.
        self.expected = expected
        self.pass_times: list[float] = []
        self.case_times: dict[str, list] = {case.id: [] for case in cases}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[str, tuple] = {}
        self.lengths_per_pass = 0

    def run_pass(self, tracer=None) -> float:
        total, lengths = 0.0, 0
        for index, case in enumerate(self.cases):
            if tracer is not None:
                tracer.current_case = index
            out, err = io.StringIO(), io.StringIO()
            argv = case.argv(self.paths[case.id])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                started = time.perf_counter()
                code = self.cli.main(argv)
                elapsed = time.perf_counter() - started
            total += elapsed
            self.case_times[case.id].append(elapsed)
            self.attempted += 1
            self.failed += code != 0
            stdout = out.getvalue()
            found, certified = checks.check_case(case, code, stdout)
            lengths += certified
            self.problems += [f"{case.id}: {p}" for p in found]
            record = (code, hashlib.sha256(stdout.encode()).hexdigest())
            if self.outputs.setdefault(case.id, record) != record:
                self.problems.append(f"{case.id}: output differs between passes")
            recorded = self.expected.get(case.id)
            if recorded is not None and not record[1].startswith(recorded):
                self.problems.append(f"{case.id}: stdout differs from the recorded output")
        self.pass_times.append(total)
        self.lengths_per_pass = lengths
        return total

    def run_for(self, seconds: float, between) -> list:
        """Run passes until the next one would end past ``seconds``, calling
        ``between`` after each pass; returns what the calls returned."""
        started = time.perf_counter()
        results: list = []
        while len(self.pass_times) < MIN_PASSES or (
            time.perf_counter() - started + statistics.median(self.pass_times) <= seconds
        ):
            self.run_pass()
            results.append(between())
        return results


def end_to_end(runner: Runner, setup_s: float) -> dict:
    wall = statistics.median(runner.pass_times)
    return {
        "wall_s": wall,
        "case_p50_s": statistics.median(t for ts in runner.case_times.values() for t in ts),
        "lengths_per_s": runner.lengths_per_pass / wall,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# Per-layer metrics: (metric, span name, statistic).  "calls" and "flagged"
# are counts of outermost spans, "busy" the union of the span's intervals,
# "self" its duration minus child coverage, "flag_ratio" flagged / calls.
PER_LAYER = [
    ("problem.load.busy_s", "problem.load", "busy"),
    ("poly.mul.calls", "poly.mul", "calls"),
    ("poly.mul.busy_s", "poly.mul", "busy"),
    ("poly.add.calls", "poly.add", "calls"),
    ("poly.add.busy_s", "poly.add", "busy"),
    ("poly.substitute_linear.busy_s", "poly.substitute_linear", "busy"),
    ("poly.multiply_monomial.calls", "poly.multiply_monomial", "calls"),
    ("groebner.buchberger.calls", "groebner.buchberger", "calls"),
    ("groebner.buchberger.busy_s", "groebner.buchberger", "busy"),
    ("groebner.buchberger.self_s", "groebner.buchberger", "self"),
    ("groebner.normal_form.calls", "groebner.normal_form", "calls"),
    ("groebner.normal_form.busy_s", "groebner.normal_form", "busy"),
    ("groebner.normal_form.zero_frac", "groebner.normal_form", "flag_ratio"),
    ("groebner.s_polynomial.calls", "groebner.s_polynomial", "calls"),
    ("groebner.colength.busy_s", "groebner.colength", "busy"),
    ("ideals.groebner.calls", "ideals.groebner", "calls"),
    ("ideals.intersect.calls", "ideals.intersect", "calls"),
    ("ideals.intersect.busy_s", "ideals.intersect", "busy"),
    ("ideals.colon.calls", "ideals.colon", "calls"),
    ("ideals.colon.busy_s", "ideals.colon", "busy"),
    ("linkage.link.busy_s", "linkage.link", "busy"),
    ("linkage.corner_power.busy_s", "linkage.corner_power", "busy"),
    ("linkage.hk_table.busy_s", "linkage.hk_table", "busy"),
    ("linkage.reciprocity_report.busy_s", "linkage.reciprocity_report", "busy"),
    ("invariants.group_closure.busy_s", "invariants.group_closure", "busy"),
    ("invariants.reynolds.calls", "invariants.reynolds", "calls"),
    ("invariants.reynolds.busy_s", "invariants.reynolds", "busy"),
    ("invariants.invariant_basis.busy_s", "invariants.invariant_basis", "busy"),
    ("oracle.colength_bruteforce.calls", "oracle.colength_bruteforce", "calls"),
    ("oracle.colength_bruteforce.busy_s", "oracle.colength_bruteforce", "busy"),
    ("oracle.uncertified", "oracle.colength_bruteforce", "flagged"),
    ("oracle.frames", "oracle.frame", "calls"),
    ("oracle.add_row.calls", "oracle.add_row", "calls"),
    ("oracle.add_row.useful_ratio", "oracle.add_row", "flag_ratio"),
]


def per_layer(summaries: list, hits: list, counts: list, overhead: float) -> dict:
    """Per-pass layer metrics: counts from the last traced pass (they repeat
    exactly), times as the median over the traced passes."""

    def stat(summary, span, kind):
        entry = summary.get(span, {})
        if kind in ("busy", "self"):
            return entry.get(f"{kind}_ns", 0) / 1e9
        if kind == "flag_ratio":
            return entry["flagged"] / entry["calls"] if entry.get("calls") else 0.0
        return entry.get(kind, 0)

    metrics = {}
    for name, span, kind in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = statistics.median(stat(s, span, kind) for s in summaries)
        else:
            metrics[name] = stat(summaries[-1], span, kind)
    calls = metrics["ideals.groebner.calls"]
    metrics["ideals.groebner.hit_ratio"] = hits[-1] / calls if calls else 0.0
    for layer in spans.LAYERS:
        metrics[f"layer.{layer}.self_s"] = statistics.median(
            sum(v["self_ns"] for k, v in s.items() if k.split(".")[0] == layer)
            for s in summaries) / 1e9
    metrics["trace.spans"] = counts[-1]
    metrics["trace.overhead_s"] = overhead
    return metrics


def run_traced(runner: Runner, seconds: float, workload: str, seed: int):
    """Pairs of one untraced and one traced pass, until ``seconds`` is spent;
    the overhead is the median over the pairs of traced minus untraced time.
    Spans of the last traced pass are saved."""
    tracer = spans.Tracer()
    summaries, hits, counts, overheads, last = [], [], [], [], {}
    started = time.perf_counter()
    while not overheads or time.perf_counter() - started + sum(runner.pass_times[-2:]) <= seconds:
        untraced = runner.run_pass()
        hooks = spans.instrument(tracer)
        try:
            traced = runner.run_pass(tracer)
        finally:
            hooks.restore()
        overheads.append(traced - untraced)
        last = tracer.columns()
        summaries.append(spans.summarize(tracer.names, last))
        hits.append(spans.groebner_hits(tracer.names, last))
        counts.append(len(last["name"]))
        tracer.clear()
    spans.save(os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"), tracer.names, last)
    untraced = statistics.median(runner.pass_times[0::2])
    traced = statistics.median(runner.pass_times[1::2])
    return per_layer(summaries, hits, counts, statistics.median(overheads)), untraced, traced


def unit_of(name: str) -> str:
    """Units of the per-layer metrics, read off their names."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def print_table(title: str, metrics: dict, units: dict):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_engine()
    expected, recorded = digests.expected(args.workload, args.seed)
    if args.trace:
        cases, paths = write_cases(args.workload, args.seed)
        runner = Runner(cli, cases, paths, expected)
        metrics, untraced, traced = run_traced(runner, args.seconds, args.workload, args.seed)
        units = {name: unit_of(name) for name in metrics}
    else:
        # Set-up is sampled once before the passes and once after each, so
        # it is timed across the same stretch of the run as the passes.
        cases, paths, first = setup(args.workload, args.seed)
        runner = Runner(cli, cases, paths, expected)
        samples = [first] + runner.run_for(
            args.seconds, lambda: setup(args.workload, args.seed)[2])
        metrics = end_to_end(runner, statistics.median(samples))
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_times": runner.pass_times,
        "case_times": runner.case_times,
        "cases": {cid: {"exit": code, "stdout_sha256": digest}
                  for cid, (code, digest) in runner.outputs.items()},
        "problems": runner.problems,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  cases {len(cases)}  "
          f"passes {len(runner.pass_times)}  attempted {runner.attempted}  "
          f"failed {runner.failed}")
    if not recorded:
        print(f"  no recorded outputs for seed {args.seed}: seeded cases get identity checks only")
    for cid, (code, digest) in runner.outputs.items():
        if code != 0:
            print(f"  exit {code}: {cid}")
    combined = hashlib.sha256("".join(d for _, d in runner.outputs.values()).encode())
    print(f"  stdout digest of all cases: {combined.hexdigest()}")
    for problem in runner.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    if args.trace:
        print(f"  untraced pass {untraced:.4f} s, traced pass {traced:.4f} s")
        print_table("per-layer metrics (per pass)", metrics, units)
    else:
        failed_frac = runner.failed / runner.attempted
        print_table("end-to-end metrics", dict(metrics, failed_frac=failed_frac),
                    dict(units, failed_frac="ratio"))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
