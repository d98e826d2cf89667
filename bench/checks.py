"""Output checks: every report is parsed and tested against values the
benchmark knows without trusting the engine.

``check_case`` returns ``(problems, lengths)``: a list of human-readable
failures (empty when the output is right) and the number of certified
lengths the report carries, which feeds ``lengths_per_s``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from workloads import Case


def _frac(text) -> Fraction:
    num, den = str(text).split("/")
    return Fraction(int(num), int(den))


def _check_hk(case: Case, payload, problems):
    p = case.problem["p"]
    nmax = int(case.args[case.args.index("--nmax") + 1])
    dim = len(case.problem["vars"]) - len(case.problem.get("quotient", []))
    if payload.get("dim") != dim:
        problems.append(f"dim {payload.get('dim')} != {dim}")
    rows = payload.get("rows", [])
    if [(r["n"], r["q"]) for r in rows] != [(n, p**n) for n in range(nmax + 1)]:
        problems.append("rows are not n = 0..nmax with q = p^n")
        return 0
    lengths = [r["length"] for r in rows]
    for r in rows:
        if _frac(r["normalized"]) != Fraction(r["length"], r["q"] ** dim):
            problems.append(f"normalized != length/q^dim at q={r['q']}")
    check = case.check
    if "lengths" in check and lengths != check["lengths"]:
        problems.append(f"lengths {lengths} != frozen {check['lengths']}")
    if "lower" in check:
        # m^[q] contains I^[q]; (x^aq, y^bq) is a parameter ideal inside it.
        # Loose bounds: for the seeds in digests.json the recorded stdout
        # pins the exact lengths.
        a, b = check["xy_powers"]
        for length, low, r in zip(lengths, check["lower"], rows):
            high = a * b * r["q"] ** 2 * check["degree"]
            if not low <= length <= high:
                problems.append(f"length {length} outside [{low}, {high}] at q={r['q']}")
    if "scaling" in check:
        n = check["scaling"]
        if any(length != lengths[0] * r["q"] ** n for length, r in zip(lengths, rows)):
            problems.append(f"len(R/I^[q]) != q^{n} len(R/I): {lengths}")
    return len(rows)


def _check_reciprocity(case: Case, payload, problems):
    p = case.problem["p"]
    nmax = int(case.args[case.args.index("--nmax") + 1])
    dim = len(case.problem["vars"]) - len(case.problem.get("quotient", []))
    rows = payload.get("rows", [])
    if [(r["n"], r["q"]) for r in rows] != [(n, p**n) for n in range(nmax + 1)]:
        problems.append("rows are not n = 0..nmax with q = p^n")
        return 0
    for r in rows:
        q = r["q"]
        if r["len_a"] != q**dim * rows[0]["len_a"]:
            problems.append(f"len_a(q) != q^dim len_a(1) at q={q}")
        if r["len_corner"] + r["len_J"] != r["len_a"] or not r["vraciu_ok"]:
            problems.append(f"len_corner + len_J != len_a at q={q}")
        if r["smith_ok"] != (r["len_I"] + r["len_J"] == r["len_a"]):
            problems.append(f"smith_ok disagrees with the lengths at q={q}")
        if r["deviation"] != r["len_I"] - r["len_corner"] or r["deviation"] < 0:
            problems.append(f"deviation != len_I - len_corner >= 0 at q={q}")
        for key, name in (("len_I", "I"), ("len_J", "J"), ("len_a", "a")):
            if _frac(r[f"normalized_{name}"]) != Fraction(r[key], q**dim):
                problems.append(f"normalized_{name} != {key}/q^dim at q={q}")
    if not rows[0]["smith_ok"]:
        problems.append("len_I + len_J != len_a at q = 1")
    verdicts = payload.get("verdicts", {})
    if verdicts.get("reciprocity_all_q") != all(r["smith_ok"] for r in rows):
        problems.append("reciprocity_all_q disagrees with the rows")
    frozen = case.check.get("len_I")
    if frozen is not None and [r["len_I"] for r in rows] != frozen:
        problems.append(f"len_I {[r['len_I'] for r in rows]} != frozen {frozen}")
    return 4 * len(rows)


def _check_colength(case: Case, payload, problems):
    value = payload.get("colength")
    if "--oracle" in case.args and payload.get("oracle_colength") != value:
        problems.append(f"engine {value} != oracle {payload.get('oracle_colength')}")
    if "box" in case.check:
        a, b = case.check["box"]
        if not isinstance(value, int) or not 1 <= value <= a * b:
            problems.append(f"colength {value} outside [1, {a * b}]")
    return 1


def _check_invariant(case: Case, payload, problems):
    n, order = case.check["n"], case.check["order"]
    colength = payload.get("colength")
    if payload.get("group_order") != order:
        problems.append(f"group order {payload.get('group_order')} != {order}")
        return 0
    e_hk = _frac(payload.get("e_hk", "0/1"))
    if e_hk != Fraction(colength, order):
        problems.append("e_hk != colength / |G|")
    # The coinvariant algebra has dimension at least |G| (Galois rank).
    if not 1 <= e_hk <= Fraction(comb(n - 1 + order, n), order):
        problems.append(f"e_hk {e_hk} outside [1, C(n-1+|G|, n)/|G|]")
    if not 1 <= payload.get("d_stop", 0) <= order:
        problems.append(f"d_stop {payload.get('d_stop')} outside [1, |G|]")
    for key in ("colength", "d_stop"):
        if key in case.check and payload.get(key) != case.check[key]:
            problems.append(f"{key} {payload.get(key)} != frozen {case.check[key]}")
    return 1


CHECKERS = {
    "hk": _check_hk,
    "reciprocity": _check_reciprocity,
    "colength": _check_colength,
    "invariant": _check_invariant,
}


def check_case(case: Case, code: int, stdout: str) -> tuple[list, int]:
    """Failures in one run's output, and the certified lengths it reports."""
    if case.known_defect is not None and code in case.known_defect:
        return ([] if stdout == "" else ["a failing run wrote to stdout"]), 0
    if code != 0:
        return [f"exit code {code}"], 0
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], 0
    problems: list = []
    try:
        lengths = CHECKERS[case.command](case, payload, problems)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"], 0
    return problems, lengths
