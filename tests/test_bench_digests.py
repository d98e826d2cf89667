"""The CLI still prints every stdout that ``bench/digests.json`` records.

For seeds 0-7 of both benchmark workloads, each case with a recorded digest
runs through ``cli.main`` in process; it must exit 0 and print stdout whose
sha256 starts with the recorded prefix.  The case generator and the digests
are read from ``bench/``, and the problem files are written to a temporary
directory, so nothing under ``bench/`` changes.  A fixed case is the same
under every seed and runs once.
"""

import contextlib
import hashlib
import io
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
sys.path.insert(0, BENCH)

import digests  # noqa: E402
import workloads  # noqa: E402
from hkforge import cli  # noqa: E402

SEEDS = range(8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_recorded_stdout_is_printed(tmp_path, workload):
    cases, seen = [], set()
    for seed in SEEDS:
        recorded, complete = digests.expected(workload, seed)
        assert complete, f"digests.json records no seeded cases for seed {seed}"
        for case in workloads.build(workload, seed):
            if case.id in recorded and case.id not in seen:
                if case.id.startswith("fixed/"):
                    seen.add(case.id)
                cases.append((seed, case, recorded[case.id]))
    assert cases
    mismatches = []
    for seed, case, digest in cases:
        path = workloads.write_problems([case], str(tmp_path / f"seed{seed}"))[case.id]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(case.argv(path))
        printed = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or not printed.startswith(digest):
            mismatches.append(f"seed {seed} {case.id}: exit {code}, sha256 {printed[:16]}")
    assert not mismatches, mismatches
