"""Problem-file loading: JSON in, validated ring + presentation + ideals out.

Shape:

    {
      "p": 5,
      "vars": ["x", "y"],
      "order": "grevlex",
      "quotient": ["x*y"],
      "ideals": {"I": ["x", "y"], "a": ["x + y"]},
      "group": [[[4, 0], [0, 4]]]
    }

"order", "quotient", "ideals" and "group" are optional.  Structural problems
raise ParseError; a quotient list failing the complete-intersection dimension
check raises PreconditionViolated.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, PreconditionViolated
from .ideals import Ideal, QuotientPresentation
from .parsing import parse_polynomial
from .poly import MonomialOrder, PolyRing

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KNOWN_KEYS = {"p", "vars", "order", "quotient", "ideals", "group"}


@dataclass
class ProblemFile:
    ring: PolyRing
    presentation: QuotientPresentation
    ideals: dict[str, Ideal]
    group: Optional[list[list[list[int]]]]

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise ParseError(
                f"no ideal named {name!r}; available: {sorted(self.ideals) or 'none'}"
            )
        return self.ideals[name]


def problem_from_dict(data) -> ProblemFile:
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ParseError(f"unknown problem keys: {sorted(unknown)}")

    p = data.get("p")
    if not isinstance(p, int) or isinstance(p, bool):
        raise ParseError("'p' must be an integer prime")
    names = data.get("vars")
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(v, str) and _NAME_RE.fullmatch(v) for v in names)
    ):
        raise ParseError("'vars' must be a nonempty list of identifiers")

    order_text = data.get("order", "grevlex")
    if not isinstance(order_text, str):
        raise ParseError("'order' must be a string")
    try:
        order = MonomialOrder.parse(order_text)
    except PreconditionViolated as exc:
        raise ParseError(f"bad 'order': {exc}") from exc
    ring = PolyRing(p, tuple(names), order)

    quotient = data.get("quotient", [])
    if not isinstance(quotient, list) or not all(isinstance(s, str) for s in quotient):
        raise ParseError("'quotient' must be a list of polynomial strings")
    ci_gens = [parse_polynomial(s, ring) for s in quotient]
    presentation = QuotientPresentation(ring, ci_gens)

    raw_ideals = data.get("ideals", {})
    if not isinstance(raw_ideals, dict):
        raise ParseError("'ideals' must be an object of name -> generator list")
    ideals: dict[str, Ideal] = {}
    for name, gens in raw_ideals.items():
        if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
            raise ParseError(f"ideal {name!r} must be a list of polynomial strings")
        ideals[name] = presentation.ideal([parse_polynomial(s, ring) for s in gens])

    group = data.get("group")
    if group is not None:
        if not isinstance(group, list) or not group:
            raise ParseError("'group' must be a nonempty list of matrices")
        for m in group:
            if (
                not isinstance(m, list)
                or len(m) != ring.n
                or any(
                    not isinstance(row, list)
                    or len(row) != ring.n
                    or any(not isinstance(a, int) or isinstance(a, bool) for a in row)
                    for row in m
                )
            ):
                raise ParseError(f"group matrices must be {ring.n}x{ring.n} integer rows")

    return ProblemFile(ring=ring, presentation=presentation, ideals=ideals, group=group)


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"problem file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"JSON in {path} is nested too deeply") from None
    return problem_from_dict(data)
