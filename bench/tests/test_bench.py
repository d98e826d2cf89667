"""Tests of the benchmark's own code: generator, span arithmetic, checks.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import digests  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hkforge import cli  # noqa: E402


def _files(cases):
    return [(c.id, c.argv("P"), workloads.problem_bytes(c.problem)) for c in cases]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _files(workloads.build(workload, 3))
    assert first == _files(workloads.build(workload, 3))
    other = _files(workloads.build(workload, 4))
    assert [f[0] for f in first] == [f[0] for f in other]
    fixed = [(a, b) for a, b in zip(first, other) if not a[0].startswith("seed/")]
    seeded = [(a, b) for a, b in zip(first, other) if a[0].startswith("seed/")]
    assert fixed and all(a == b for a, b in fixed)
    assert seeded and any(a != b for a, b in seeded)


def test_written_files_match_generated_bytes(tmp_path):
    cases = workloads.build("linkage-oracle", 5)
    paths = workloads.write_problems(cases, str(tmp_path))
    for case in cases:
        with open(paths[case.id], "rb") as handle:
            assert handle.read() == workloads.problem_bytes(case.problem)


def test_diagonal_hilbert_matches_known_groups():
    # diag(-1, -1): invariants are the quadrics, colength 3 at degree 2;
    # diag(z, z^2) with z of order 3: e_hk = 5/3 (acceptance criterion 6).
    assert workloads.diagonal_hilbert(2, (1, 1)) == (3, 2)
    assert workloads.diagonal_hilbert(3, (1, 2))[0] == 5


def test_group_slots_have_the_stated_order():
    for slot in workloads.GROUP_SLOTS:
        gens, order, _ = workloads._group_slot(workloads._rng("t", 0), slot)
        assert workloads.group_order(slot[0], gens) == order


def _columns(rows):
    keys = ("name", "start", "end", "parent", "case", "flag")
    return {k: np.array([r[i] for r in rows], dtype=np.int64) for i, k in enumerate(keys)}


def test_self_time_is_duration_minus_child_coverage():
    names = ["cli.main", "poly.add", "groebner.normal_form"]
    cols = _columns([
        (0, 0, 100, -1, 0, 0),
        (1, 10, 40, 0, 0, 0),
        (1, 15, 25, 1, 0, 0),  # __sub__ calling __add__: nested, same name
        (2, 50, 90, 0, 0, 1),
        (1, 60, 70, 3, 0, 0),
    ])
    out = spans.summarize(names, cols)
    assert out["cli.main"] == {"calls": 1, "busy_ns": 100, "self_ns": 30, "flagged": 0}
    assert out["poly.add"] == {"calls": 2, "busy_ns": 40, "self_ns": 40, "flagged": 0}
    assert out["groebner.normal_form"] == {"calls": 1, "busy_ns": 40, "self_ns": 30, "flagged": 1}
    assert sum(v["self_ns"] for v in out.values()) == 100


def test_groebner_hits_count_calls_without_buchberger():
    names = ["ideals.groebner", "groebner.buchberger", "poly.add"]
    cols = _columns([
        (0, 0, 10, -1, 0, 0),
        (1, 1, 9, 0, 0, 0),
        (2, 2, 3, 1, 0, 0),
        (0, 20, 21, -1, 0, 0),
        (0, 30, 35, -1, 0, 0),
        (2, 31, 32, 4, 0, 0),
    ])
    assert spans.groebner_hits(names, cols) == 2


def _run(case, tmp_path):
    path = workloads.write_problems([case], str(tmp_path))[case.id]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case.argv(path))
    return code, out.getvalue()


def _case(family, prefix):
    return next(c for c in workloads.FAMILIES[family](1) if c.id.startswith(prefix))


def _tampered(stdout, edit):
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload)


def _bump_len_j(payload):
    # Keeps normalized_J consistent, so only the length identities notice.
    row = payload["rows"][1]
    row["len_J"] += row["q"] ** 2
    num, den = (int(x) for x in row["normalized_J"].split("/"))
    row["normalized_J"] = f"{num + den}/{den}"


@pytest.mark.parametrize("family, prefix, edit", [
    ("hk-bracket", "seed/flat-0", lambda p: p["rows"][1].update(length=p["rows"][1]["length"] + 1)),
    ("hk-bracket", "seed/flat-0", lambda p: p["rows"][2].update(normalized="1/1")),
    ("hk-bracket", "seed/sphere3-2", lambda p: p["rows"][1].update(length=1)),
    ("linkage-ci", "seed/free-0", lambda p: p["rows"][1].update(len_J=p["rows"][1]["len_J"] + 1)),
    ("linkage-ci", "seed/free-0", _bump_len_j),
    ("linkage-ci", "seed/node-0", lambda p: p["rows"][2].update(len_a=p["rows"][2]["len_a"] - 1)),
    ("oracle-check", "seed/colength-0", lambda p: p.update(oracle_colength=p["colength"] + 1)),
    ("invariants", "seed/cyclic-0", lambda p: p.update(colength=p["colength"] + 1)),
    ("invariants", "seed/cyclic-0", lambda p: p.update(d_stop=p["group_order"] + 1)),
])
def test_checks_reject_tampered_output(family, prefix, edit, tmp_path):
    case = _case(family, prefix)
    code, stdout = _run(case, tmp_path)
    assert code == 0
    assert checks.check_case(case, code, stdout)[0] == []
    assert checks.check_case(case, code, _tampered(stdout, edit))[0]


def test_known_defects_accept_only_their_exit_codes(tmp_path):
    case = _case("oracle-check", "defect/node-offorigin-oracle")
    code, stdout = _run(case, tmp_path)
    assert code == 5 and stdout == ""
    assert checks.check_case(case, 5, "")[0] == []
    assert checks.check_case(case, 3, "")[0]
    assert checks.check_case(case, 0, '{"colength": 2, "oracle_colength": 1}')[0]


def test_certified_length_counts():
    recip = _case("linkage-ci", "fixed/sphere-nmax3")
    stdout = json.dumps({"rows": [
        {"n": n, "q": 5**n, "len_I": i, "len_J": 2 * i, "len_a": 3 * i, "len_corner": i,
         "deviation": 0, "vraciu_ok": True, "smith_ok": True,
         "normalized_I": "2/1", "normalized_J": "4/1", "normalized_a": "6/1"}
        for n, i in enumerate([2, 50, 1250, 31250])], "verdicts": {"reciprocity_all_q": True}})
    assert checks.check_case(recip, 0, stdout) == ([], 16)


def test_tracing_keeps_outputs_and_restores_the_package(tmp_path):
    import hkforge.groebner
    import hkforge.ideals
    import hkforge.invariants
    import hkforge.poly

    case = _case("linkage-ci", "seed/free-0")
    plain = _run(case, tmp_path)
    original_add = vars(hkforge.poly.Polynomial)["__add__"]
    original_gb = hkforge.groebner.buchberger
    tracer = spans.Tracer()
    hooks = spans.instrument(tracer)
    try:
        # buchberger is imported by name into ideals and invariants.
        assert hkforge.groebner.buchberger is not original_gb
        assert hkforge.ideals.buchberger is hkforge.groebner.buchberger
        assert hkforge.invariants.buchberger is hkforge.groebner.buchberger
        traced = _run(case, tmp_path)
    finally:
        hooks.restore()
    assert traced == plain
    assert hkforge.ideals.buchberger is original_gb
    assert vars(hkforge.poly.Polynomial)["__add__"] is original_add
    assert vars(hkforge.poly.Polynomial)["__radd__"] is original_add
    summary = spans.summarize(tracer.names, tracer.columns())
    assert summary["linkage.reciprocity_report"]["calls"] == 1
    assert summary["ideals.colon"]["calls"] > 0
    assert summary["groebner.buchberger"]["calls"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    summary = {"x": {"calls": 0, "busy_ns": 0, "self_ns": 0, "flagged": 0}}
    layer = run.per_layer([summary], [0], [0], 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in layer
    }


def test_invariant_check_rejects_a_wrong_e_hk():
    case = _case("invariants", "fixed/signed-perm3-f5")
    payload = {"colength": 48, "d_stop": 10, "e_hk": "1/1", "group_order": 48}
    assert checks.check_case(case, 0, json.dumps(payload))[0] == []
    payload["e_hk"] = "47/48"
    assert checks.check_case(case, 0, json.dumps(payload))[0]


def test_runner_rejects_stdout_that_differs_from_the_record(tmp_path):
    case = _case("linkage-ci", "seed/free-0")
    paths = workloads.write_problems([case], str(tmp_path))
    recorded = run.Runner(cli, [case], paths, {})
    recorded.run_pass()
    digest = recorded.outputs[case.id][1]
    good = run.Runner(cli, [case], paths, {case.id: digest[:16]})
    good.run_pass()
    assert good.problems == []
    bad = run.Runner(cli, [case], paths, {case.id: "0" * 16})
    bad.run_pass()
    assert bad.problems == [f"{case.id}: stdout differs from the recorded output"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digests_cover_every_case_but_known_defects(workload):
    low, high = digests._load()["seeds"]
    for seed in (low, high):
        expected, recorded = digests.expected(workload, seed)
        assert recorded
        assert set(expected) == {c.id for c in workloads.build(workload, seed)
                                 if c.known_defect is None}
    expected, recorded = digests.expected(workload, high + 1)
    assert not recorded
    assert expected and all(cid.startswith("fixed/") for cid in expected)
