"""Command-line interface: subcommands over JSON problem files.

Reports are deterministic: JSON keys are sorted, rationals are rendered as
"num/den" strings, lengths are exact integers, and a colength of None (a
quotient of positive dimension) is the string "infinite".  Exit codes: 0
success, 2 precondition violation, 3 parse error, 4 resource cap, 5 internal
assertion failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import groebner, invariants
from .errors import HKForgeError, InternalError, PreconditionViolated, ResourceCap
from .invariants import group_closure, noether_bound_value, noether_ideal
from .linkage import (
    corner_power,
    gorenstein_parity_check,
    hk_table,
    link,
    reciprocity_report,
)
from .oracle import colength_bruteforce
from .poly import MonomialOrder
from .problem import load_problem
from .scalar import digit_limit_exceeded, render_rational


def _scalar(value):
    if isinstance(value, Fraction):
        return render_rational(value)
    if value is None:
        return "infinite"
    return value


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _tsv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(_scalar(value))


def _emit_tsv(header: list[str], rows: list[dict]):
    """The header, then the header's cells of each JSON row dict."""
    print("\t".join(header))
    for row in rows:
        print("\t".join(_tsv_cell(row[k]) for k in header))


def _oracle_check(label: str, ideal, engine_value, memo: dict):
    """Recompute a colength by Macaulay brute force and insist on agreement.

    The oracle sees the lift with repeated generators dropped, and memo, one
    per command, keeps its verdict on each generator set, so an ideal that
    recurs (a corner equal to I^[q], or whose lift repeats C) is certified
    once; every engine value is still compared.  An oracle that gives up
    without certifying a value is a resource cap, not a disagreement.  An
    engine colength of None has nothing to certify and comes back as is.
    """
    if engine_value is None:
        return None
    gens = tuple(dict.fromkeys(ideal.lift_gens))
    key = frozenset(gens)
    if key not in memo:
        memo[key] = colength_bruteforce(ideal.ring, gens)
    value = memo[key]
    if value is None:
        raise ResourceCap(f"oracle could not certify {label} (engine {engine_value})")
    if value != engine_value:
        raise InternalError(
            f"oracle disagrees on {label}: engine {engine_value}, oracle {value}"
        )
    return value


def _cmd_gb(args) -> None:
    ideal = load_problem(args.problem).ideal(args.ideal)
    if args.order:
        ring = ideal.ring.with_order(MonomialOrder.parse(args.order))
        basis = groebner.buchberger(ring, [ring.convert(g) for g in ideal.lift_gens])
    else:
        basis = ideal.groebner()
    _emit_json(
        {
            "basis": [str(g) for g in basis.basis],
            "order": basis.ring.order.name,
            "reduced": True,
        }
    )


def _cmd_colength(args) -> None:
    problem = load_problem(args.problem)
    ideal = problem.ideal(args.ideal)
    value = ideal.colength()
    payload = {"colength": _scalar(value)}
    if args.oracle:
        payload["oracle_colength"] = _scalar(_oracle_check(args.ideal, ideal, value, {}))
    _emit_json(payload)


def _cmd_dim(args) -> None:
    problem = load_problem(args.problem)
    _emit_json({"dim": problem.ideal(args.ideal).krull_dim()})


def _cmd_colon(args) -> None:
    problem = load_problem(args.problem)
    result = problem.ideal(args.ideal).colon(problem.ideal(args.by))
    _emit_json({"generators": result.reduced_generators()})


def _cmd_intersect(args) -> None:
    problem = load_problem(args.problem)
    left = problem.ideal(args.ideal)
    right = problem.ideal(args.other)
    _emit_json({"generators": left.intersect(right).reduced_generators()})


def _cmd_bracket(args) -> None:
    problem = load_problem(args.problem)
    result = problem.ideal(args.ideal).bracket_power(args.q)
    _emit_json({"generators": result.reduced_generators(), "q": args.q})


def _cmd_link(args) -> None:
    problem = load_problem(args.problem)
    datum = link(problem.ideal(args.ideal), problem.ideal(args.ci))
    _emit_json(
        {
            "J": datum.J.reduced_generators(),
            "degenerate": datum.degenerate,
            "double_link": True,
            "self_linked": datum.self_linked,
        }
    )


def _cmd_corner(args) -> None:
    problem = load_problem(args.problem)
    datum = link(problem.ideal(args.ideal), problem.ideal(args.ci))
    corner = corner_power(datum, args.q)
    _emit_json(
        {
            "generators": corner.reduced_generators(),
            "colength": _scalar(corner.colength()),
            "q": args.q,
        }
    )


def _cmd_hk(args) -> None:
    problem = load_problem(args.problem)
    ideal = problem.ideal(args.ideal)
    rows = hk_table(ideal, args.nmax)
    if args.oracle:
        memo: dict = {}
        for n, q, length, _ in rows:
            _oracle_check(f"{args.ideal}^[{q}]", ideal.bracket_power(q), length, memo)
    table = [
        {"n": n, "q": q, "length": length, "normalized": _scalar(norm)}
        for n, q, length, norm in rows
    ]
    if args.format == "tsv":
        _emit_tsv(["n", "q", "length", "normalized"], table)
    else:
        _emit_json({"dim": problem.presentation.dim, "rows": table})


RECIPROCITY_HEADER = [
    "n",
    "q",
    "len_I",
    "len_J",
    "len_a",
    "len_corner",
    "deviation",
    "vraciu_ok",
    "smith_ok",
]


def _cmd_reciprocity(args) -> None:
    problem = load_problem(args.problem)
    I = problem.ideal(args.ideal)
    a = problem.ideal(args.ci)
    report = reciprocity_report(I, a, args.nmax)
    L = report.linkage
    if args.oracle:
        memo: dict = {}
        for row in report.rows:
            _oracle_check(f"len_I(q={row.q})", L.I.bracket_power(row.q), row.len_i, memo)
            _oracle_check(f"len_J(q={row.q})", L.J.bracket_power(row.q), row.len_j, memo)
            _oracle_check(f"len_a(q={row.q})", L.a.bracket_power(row.q), row.len_a, memo)
            _oracle_check(f"corner(q={row.q})", row.corner, row.len_corner, memo)
    table = [
        {
            "n": r.n,
            "q": r.q,
            "len_I": r.len_i,
            "len_J": r.len_j,
            "len_a": r.len_a,
            "len_corner": r.len_corner,
            "deviation": r.deviation,
            "vraciu_ok": True,
            "smith_ok": r.smith_ok,
            "normalized_I": _scalar(r.normalized_i),
            "normalized_J": _scalar(r.normalized_j),
            "normalized_a": _scalar(r.normalized_a),
        }
        for r in report.rows
    ]
    if args.format == "tsv":
        _emit_tsv(RECIPROCITY_HEADER, table)
        return
    _emit_json(
        {
            "rows": table,
            "verdicts": {
                "smith_identity_at_1": True,
                "reciprocity_all_q": report.reciprocity_all_q,
                "pd_probe": report.pd_probe,
                "dim": problem.presentation.dim,
                "isolated_singularity": report.isolated_singularity,
                "full_ci": True,
                "m_primary": True,
                "degenerate": L.degenerate,
                "self_linked": L.self_linked,
            },
        }
    )


def _cmd_parity(args) -> None:
    problem = load_problem(args.problem)
    report = gorenstein_parity_check(problem.ideal(args.ideal))
    _emit_json(
        {
            "self_linked": report.self_linked,
            "even_certified": report.self_linked,
            "total_length": report.total_length,
        }
    )


def _cmd_invariant(args) -> None:
    problem = load_problem(args.problem)
    if not problem.group:
        raise PreconditionViolated("problem file declares no group")
    G = group_closure(problem.ring.p, problem.group)
    result = noether_ideal(problem.ring, G)
    _emit_json(
        {
            "colength": result.colength,
            "d_stop": result.d_stop,
            "e_hk": render_rational(result.e_hk),
            "group_order": result.group_order,
            "generators": [str(g) for g in result.generators],
        }
    )


def _cmd_bound(args) -> None:
    # The numerator is at least C(n - 1 + g, n)/g >= 2^(m - bitlen(g)) with
    # m = min(n, g - 1): over 4x the printing limit it has too many digits.
    limit = sys.get_int_max_str_digits()
    if limit and min(args.n, args.g - 1) - args.g.bit_length() >= 4 * limit:
        raise digit_limit_exceeded()
    values = noether_bound_value(args.n, args.g)
    payload = {"bound": render_rational(values.bound)}
    if values.two_var_bound is not None:
        payload["two_var_bound"] = render_rational(values.two_var_bound)
        payload["hs_bound"] = values.hs_bound
    _emit_json(payload)


def _add_common(sub, *, oracle=False, fmt=False):
    sub.add_argument("--in", dest="problem", required=True, metavar="PROBLEM_JSON")
    sub.add_argument("--max-pairs", type=int, default=None)
    sub.add_argument("--max-terms", type=int, default=None)
    if oracle:
        sub.add_argument("--oracle", action="store_true")
    if fmt:
        sub.add_argument("--format", choices=("json", "tsv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    in-process callers run `main` many times, and parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="hkforge",
        description="Exact lengths, linkage and invariant-ring multiplicities over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gb", help="reduced Groebner basis of an ideal")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--order", default=None, help="lex, grevlex or elim(k)")
    s.set_defaults(func=_cmd_gb)

    s = sub.add_parser("colength", help="number of standard monomials")
    _add_common(s, oracle=True)
    s.add_argument("--ideal", required=True)
    s.set_defaults(func=_cmd_colength)

    s = sub.add_parser("dim", help="Krull dimension of the quotient")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.set_defaults(func=_cmd_dim)

    s = sub.add_parser("colon", help="ideal quotient (I : J)")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--by", required=True)
    s.set_defaults(func=_cmd_colon)

    s = sub.add_parser("intersect", help="ideal intersection")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--with", dest="other", required=True)
    s.set_defaults(func=_cmd_intersect)

    s = sub.add_parser("bracket", help="Frobenius power I^[q]")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=_cmd_bracket)

    s = sub.add_parser("link", help="J = (a : I) with linkage checks")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--ci", required=True)
    s.set_defaults(func=_cmd_link)

    s = sub.add_parser("corner", help="corner power (a^[q] : J^[q])")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--ci", required=True)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=_cmd_corner)

    s = sub.add_parser("hk", help="Hilbert-Kunz table of an m-primary ideal")
    _add_common(s, oracle=True, fmt=True)
    s.add_argument("--ideal", required=True)
    s.add_argument("--nmax", type=int, required=True)
    s.set_defaults(func=_cmd_hk)

    s = sub.add_parser("reciprocity", help="length identities per q = p^n")
    _add_common(s, oracle=True, fmt=True)
    s.add_argument("--ideal", required=True)
    s.add_argument("--ci", required=True)
    s.add_argument("--nmax", type=int, required=True)
    s.set_defaults(func=_cmd_reciprocity)

    s = sub.add_parser("parity", help="self-linkage parity certificate")
    _add_common(s)
    s.add_argument("--ideal", required=True)
    s.set_defaults(func=_cmd_parity)

    s = sub.add_parser("invariant", help="invariant ideal and its multiplicity")
    _add_common(s)
    s.add_argument("--max-group", type=int, default=None)
    s.set_defaults(func=_cmd_invariant)

    s = sub.add_parser("bound", help="multiplicity bounds from n and |G|")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--g", type=int, required=True)
    s.set_defaults(func=_cmd_bound)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    saved = groebner.MAX_PAIRS, groebner.MAX_TERMS, invariants.MAX_GROUP
    if getattr(args, "max_pairs", None) is not None:
        groebner.MAX_PAIRS = args.max_pairs
    if getattr(args, "max_terms", None) is not None:
        groebner.MAX_TERMS = args.max_terms
    if getattr(args, "max_group", None) is not None:
        invariants.MAX_GROUP = args.max_group
    try:
        args.func(args)
        return 0
    except HKForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        groebner.MAX_PAIRS, groebner.MAX_TERMS, invariants.MAX_GROUP = saved


if __name__ == "__main__":
    sys.exit(main())
