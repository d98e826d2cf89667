"""Recorded stdout of every case, so a run fails when a printed byte changes.

    python3 bench/digests.py

runs one untimed pass of every case family for each seed in ``SEEDS`` and
writes ``bench/digests.json``: per family, the sha256 prefix of each fixed
case's stdout (the same under every seed) and, per seed, those of the
seeded cases in generation order.  Known-defect cases are left out, so a fix
that makes them exit 0 is judged by their checks alone.  ``run.py`` fails
``correct`` when a case's stdout does not match its recorded digest.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "digests.json")
SEEDS = range(0, 64)
DIGEST_HEX = 16

sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _load() -> dict:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected(workload: str, seed: int) -> tuple[dict, bool]:
    """Case id -> recorded digest prefix, and whether the seed's seeded
    cases are recorded (fixed cases are, under every seed)."""
    families = _load()["families"]
    out, recorded = {}, True
    for family in workloads.WORKLOADS[workload]:
        record = families[family]
        out.update(record["fixed"])
        seeded = record["seeded"].get(str(seed))
        recorded = recorded and seeded is not None
        if seeded is not None:
            ids = [c.id for c in workloads.FAMILIES[family](seed) if c.id.startswith("seed/")]
            out.update(zip(ids, seeded.split()))
    return out, recorded


def main() -> int:
    import run

    cli = run.load_engine()
    record = {"seeds": [SEEDS.start, SEEDS.stop - 1], "families": {}}
    for family, generate in workloads.FAMILIES.items():
        fixed, seeded = {}, {}
        for seed in SEEDS:
            cases = generate(seed)
            paths = workloads.write_problems(cases, os.path.join(run.OUT, f"{family}-seed{seed}"))
            runner = run.Runner(cli, cases, paths, {})
            runner.run_pass()
            if runner.problems:
                sys.exit(f"{family} seed {seed}: {runner.problems}")
            digest = {cid: d[:DIGEST_HEX] for cid, (_, d) in runner.outputs.items()}
            for case in cases:
                if case.id.startswith("fixed/"):
                    if fixed.setdefault(case.id, digest[case.id]) != digest[case.id]:
                        sys.exit(f"{case.id}: stdout differs between seeds")
            seeded[str(seed)] = " ".join(
                digest[c.id] for c in cases if c.id.startswith("seed/"))
            print(f"{family} seed {seed}", flush=True)
        record["families"][family] = {"fixed": fixed, "seeded": seeded}
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
