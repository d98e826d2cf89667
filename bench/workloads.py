"""Seeded workloads: problem files plus the CLI runs that read them.

A workload is the cases of two case families.  Each case is one ``hkforge``
command line, its problem file and what the benchmark knows about the
correct answer.  Fixed cases are the same under every seed; seeded cases are
drawn from a ``random.Random`` keyed by the family name and the seed, so the
same seed always gives byte-identical problem files, whatever family a
workload pairs it with, and the engine never sees the seed.

Seeded families fix the shape of every slot (ring, exponents, support,
group) and let the seed draw coefficients and changes of coordinates, so a
seed changes the inputs but hardly their cost.  Every ideal vanishes only at
the origin, and every seeded answer is checkable without the engine: lengths
of monomial ideals in new coordinates are counted by the benchmark, links
satisfy identities, and groups have known orders and Hilbert ideals.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional

SPHERE5 = {"p": 5, "vars": ["x", "y", "z"], "quotient": ["x^2 + y^2 + z^2"]}
SPHERE3 = {"p": 3, "vars": ["x", "y", "z"], "quotient": ["x^2 + y^2 + z^2"]}
CUBIC7 = {"p": 7, "vars": ["x", "y", "z"], "quotient": ["x^3 + y^3 + z^3"]}
QUARTIC5 = {"p": 5, "vars": ["x", "y", "z", "w"], "quotient": ["x^4 + y^4 + z^4 + w^4"]}
NODE5 = {"p": 5, "vars": ["x", "y"], "quotient": ["x*y"]}



@dataclass
class Case:
    """One CLI run of ``command`` on ``problem``; ``check`` holds what the
    output checks know about the answer."""

    id: str
    command: str
    problem: dict
    args: list
    check: dict = field(default_factory=dict)
    # Exit codes a known defect may give; None means the case must exit 0.
    known_defect: Optional[tuple] = None

    def argv(self, path: str) -> list:
        return [self.command, "--in", path] + [str(a) for a in self.args]


def problem_bytes(problem: dict) -> bytes:
    return (json.dumps(problem, sort_keys=True, indent=2) + "\n").encode()


def _rng(family: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{family}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _mat_mul(p, a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _coefficients(rng, p, monomials) -> str:
    """The given monomials with random nonzero coefficients."""
    return " + ".join(f"{rng.randint(1, p - 1)}*{m}" for m in monomials)


def _dense_change(rng, p, n):
    """A random invertible matrix L*U with nonzero off-diagonal entries, so
    every seed gives an equally dense change of coordinates."""
    lower = [[1 if i == j else rng.randint(1, p - 1) if i > j else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(1, p - 1) if i < j else 0 for j in range(n)]
             for i in range(n)]
    return [list(row) for row in _mat_mul(p, lower, upper)]


# -- linkage-ci ---------------------------------------------------------------

# Each slot fixes the shape of a link, so every seed costs about the same;
# the seed draws the coefficients.  Shapes follow the light links of the
# acceptance suite: a monomial complete intersection in the free plane, a
# linear form on the node xy = 0, and (y, z^k) on the sphere.
FREE_SLOTS = [(1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2)]
NODE_SLOTS = [1, 1, 1, 1, 2, 2, 2, 2]
SPHERE_SLOTS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 2)]


def linkage_ci(seed: int) -> list[Case]:
    rng = _rng("linkage-ci", seed)
    cases = [
        Case(
            "fixed/sphere-nmax3",
            "reciprocity",
            dict(SPHERE5, ideals={"I": ["y", "z"], "a": ["y", "z^3"]}),
            ["--ideal", "I", "--ci", "a", "--nmax", 3],
            {"len_I": [2, 50, 1250, 31250]},
        )
    ]
    free = {"p": 5, "vars": ["x", "y"]}
    for k, (e1, e2, j) in enumerate(FREE_SLOTS):
        a = [f"x^{e1}", f"y^{e2}"]
        extra = f"x^{j}*y + {rng.randint(1, 4)}*x^{j}*y^2"
        cases.append(_link_case(f"seed/free-{k}", free, a, extra, 2))
    for k, j in enumerate(NODE_SLOTS):
        a = [f"x + {rng.randint(1, 4)}*y"]
        extra = f"x^{j} + {rng.randint(1, 4)}*y^{j + 1}"
        cases.append(_link_case(f"seed/node-{k}", NODE5, a, extra, 2))
    for k, (e, j) in enumerate(SPHERE_SLOTS):
        a = [f"y + {rng.randint(1, 4)}*z^2", f"z^{e}"]
        cases.append(_link_case(f"seed/sphere-{k}", SPHERE5, a, f"z^{j}", 1))
    return cases


def _link_case(case_id, ring, a, extra, nmax, oracle=False) -> Case:
    args = ["--ideal", "I", "--ci", "a", "--nmax", nmax] + (["--oracle"] if oracle else [])
    return Case(case_id, "reciprocity", dict(ring, ideals={"I": a + [extra], "a": a}), args)


# -- hk-bracket ---------------------------------------------------------------

# Hypersurface slots: (ring, pure-power exponent, monomials of the extra
# generator, nmax).  The seed draws the coefficients of the extra generator;
# the shape fixes the cost, which for random supports is heavy-tailed.
HYPER_SLOTS = [
    ("sphere3", 2, ["x*y", "z^2"], 2),
    ("sphere3", 2, ["x*y", "x*z", "y*z"], 2),
    ("sphere3", 2, ["x*y*z"], 2),
    ("sphere3", 3, ["x*y", "x*z", "y*z"], 2),
    ("sphere3", 3, ["x*y*z"], 2),
    ("sphere3", 3, ["x*y^2", "y*z"], 2),
    ("cubic7", 2, ["x*y", "y*z"], 1),
    ("cubic7", 2, ["x*y", "x*z", "y*z"], 1),
    ("cubic7", 2, ["x*y*z"], 1),
    ("cubic7", 3, ["x*y", "z^2"], 1),
    ("cubic7", 3, ["x*y^2", "y*z"], 1),
]
# Seeded hypersurfaces: (ring, degree, len(R/m^[q]) for q = 1, p, p^2).  The
# last is a lower bound for len(R/I^[q]) of every proper I, as I^[q] lies in
# m^[q]; the degree gives the upper bound checked in checks.py.
HYPERSURFACES = {"sphere3": (SPHERE3, 2, (1, 13, 121)), "cubic7": (CUBIC7, 3, (1, 109, 5401))}
# Polynomial-ring slots: (p, exponent vectors of a monomial ideal, nmax).
# The seed draws a linear change of coordinates, which keeps every length.
FLAT_SLOTS = [
    (5, [(3, 0), (0, 3), (1, 2)], 2),
    (3, [(3, 0), (0, 3), (1, 2)], 3),
    (7, [(3, 0), (0, 2), (2, 1)], 2),
    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 2),
    (2, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], 3),
    (5, [(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0)], 1),
]


def monomial_colength(mons) -> int:
    """Standard monomials of a monomial ideal that contains pure powers."""
    n = len(mons[0])
    box = [min(m[i] for m in mons if sum(m) == m[i] and m[i]) for i in range(n)]
    return sum(
        1
        for e in itertools.product(*(range(b) for b in box))
        if not any(all(x >= y for x, y in zip(e, m)) for m in mons)
    )


def _rotated(rng, p, names, mons) -> list[str]:
    """Images of the monomials under a random invertible linear substitution."""
    g = _dense_change(rng, p, len(names))
    forms = [
        " + ".join((f"{c}*" if c != 1 else "") + v for c, v in zip(row, names) if c)
        for row in g
    ]
    return [
        "*".join(f"({forms[j]})^{e}" if e > 1 else f"({forms[j]})" for j, e in enumerate(m) if e)
        for m in mons
    ]


def hk_bracket(seed: int) -> list[Case]:
    rng = _rng("hk-bracket", seed)
    cases = [
        Case(
            "fixed/cubic7-m",
            "hk",
            dict(CUBIC7, ideals={"m": ["x", "y", "z"]}),
            ["--ideal", "m", "--nmax", 2],
            {"lengths": [1, 109, 5401]},
        ),
        Case(
            "fixed/quartic5-m",
            "hk",
            dict(QUARTIC5, ideals={"m": ["x", "y", "z", "w"]}),
            ["--ideal", "m", "--nmax", 2],
            {"lengths": [1, 339, 43017]},
        ),
    ]
    for k, (name, power, support, nmax) in enumerate(HYPER_SLOTS):
        ring, degree, m_lengths = HYPERSURFACES[name]
        gens = [f"{v}^{power}" for v in ring["vars"]] + [_coefficients(rng, ring["p"], support)]
        cases.append(Case(
            f"seed/{name}-{k}", "hk", dict(ring, ideals={"I": gens}),
            ["--ideal", "I", "--nmax", nmax],
            {"lower": list(m_lengths[: nmax + 1]), "xy_powers": [power, power],
             "degree": degree},
        ))
    for k, (p, mons, nmax) in enumerate(FLAT_SLOTS):
        names = ["x", "y", "z"][: len(mons[0])]
        problem = {"p": p, "vars": names, "ideals": {"I": _rotated(rng, p, names, mons)}}
        base = monomial_colength(mons)
        cases.append(Case(
            f"seed/flat-{k}", "hk", problem, ["--ideal", "I", "--nmax", nmax],
            {"lengths": [base * p ** (n * len(names)) for n in range(nmax + 1)]},
        ))
    return cases


# -- oracle-check -------------------------------------------------------------


# Seeded oracle slots.  Colength: (p, pure powers, support of one more
# generator).  hk: a monomial ideal in random coordinates, whose lengths are
# known.  Links: (p, e1, e2) for a = (x^e1, y^e2) inside I = a + (xy + ...).
ORACLE_COLENGTH_SLOTS = [
    (3, (3, 3), ["x*y", "y^2"]),
    (5, (4, 3), ["x^2*y", "x*y^2"]),
    (7, (4, 4), ["x*y", "x^3"]),
    (3, (4, 2), ["x^2*y", "x^3"]),
    (5, (3, 4), ["x*y^2", "y^3"]),
    (7, (2, 4), ["x*y", "y^2"]),
    (3, (4, 4), ["x^2*y^2", "x*y^3"]),
    (5, (4, 4), ["x*y", "x^2*y^2"]),
    (7, (3, 3), ["x^2*y", "y^2"]),
    (3, (3, 4), ["x*y", "x^2"]),
    (5, (2, 3), ["x*y", "y^2"]),
    (7, (4, 3), ["x*y^2", "x^2*y"]),
]
ORACLE_HK_SLOTS = [
    (2, [(2, 0), (0, 2)]),
    (3, [(2, 0), (0, 2), (1, 1)]),
    (2, [(3, 0), (0, 2), (1, 1)]),
    (3, [(2, 0), (0, 3)]),
]
ORACLE_LINK_SLOTS = [(2, 2, 2), (3, 2, 1), (2, 1, 2), (3, 2, 2)]


def oracle_check(seed: int) -> list[Case]:
    rng = _rng("oracle-check", seed)
    cases = [
        Case(
            "fixed/sphere-nmax1-oracle",
            "reciprocity",
            dict(SPHERE5, ideals={"I": ["y", "z"], "a": ["y", "z^3"]}),
            ["--ideal", "I", "--ci", "a", "--nmax", 1, "--oracle"],
            {"len_I": [2, 50]},
        ),
        # Known defect: the oracle does not certify I^[125] by D = 64 and the
        # CLI reports that as an engine bug (exit 5) instead of a cap.
        Case(
            "defect/node-hk-nmax3-oracle",
            "hk",
            dict(NODE5, ideals={"I": ["x", "y"]}),
            ["--ideal", "I", "--nmax", 3, "--oracle"],
            {"lengths": [1, 9, 49, 249]},
            known_defect=(4, 5),
        ),
        # Known defect: (x^2 - x, y) also vanishes at (1, 0); the engine
        # counts the global length 2, the oracle the local length 1.
        Case(
            "defect/node-offorigin-oracle",
            "colength",
            dict(NODE5, ideals={"I": ["x^2 - x", "y"]}),
            ["--ideal", "I", "--oracle"],
            {},
            known_defect=(2, 4, 5),
        ),
    ]
    for k, (p, (e1, e2), support) in enumerate(ORACLE_COLENGTH_SLOTS):
        gens = [f"x^{e1}", f"y^{e2}", _coefficients(rng, p, support)]
        problem = {"p": p, "vars": ["x", "y"], "ideals": {"I": gens}}
        cases.append(Case(f"seed/colength-{k}", "colength", problem,
                          ["--ideal", "I", "--oracle"], {"box": [e1, e2]}))
    for k, (p, mons) in enumerate(ORACLE_HK_SLOTS):
        problem = {"p": p, "vars": ["x", "y"], "ideals": {"I": _rotated(rng, p, ["x", "y"], mons)}}
        base = monomial_colength(mons)
        cases.append(Case(f"seed/hk-{k}", "hk", problem,
                          ["--ideal", "I", "--nmax", 1, "--oracle"],
                          {"lengths": [base, base * p**2]}))
    for k, (p, e1, e2) in enumerate(ORACLE_LINK_SLOTS):
        extra = f"x*y + {_coefficients(rng, p, [f'x^{e1 - 1}*y^{e2}'])}" if e1 > 1 else "x*y"
        cases.append(_link_case(f"seed/link-{k}", {"p": p, "vars": ["x", "y"]},
                                [f"x^{e1}", f"y^{e2}"], extra, 1, oracle=True))
    return cases


# -- invariants ---------------------------------------------------------------


def group_order(p: int, gens) -> int:
    """Order of the group the matrices generate, by breadth-first closure."""
    n = len(gens[0])
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [b for b in {_mat_mul(p, a, g) for a in frontier for g in gens}
                    if b not in seen]
        seen.update(frontier)
    return len(seen)


def _inverse(p, g):
    """Gauss-Jordan inverse of an invertible matrix mod p."""
    n = len(g)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(g)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] % p)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _root_of_unity(p, k):
    """The smallest element of exact multiplicative order k in F_p."""
    return next(z for z in range(2, p)
                if pow(z, k, p) == 1 and all(pow(z, e, p) != 1 for e in range(1, k)))


def _conjugate(rng, p, gens):
    """g M g^-1 for a random invertible g: the same group in new coordinates."""
    g = _dense_change(rng, p, len(gens[0]))
    g_inv = _inverse(p, g)
    return [[list(row) for row in _mat_mul(p, _mat_mul(p, g, m), g_inv)] for m in gens]


def diagonal_hilbert(k, weights):
    """(colength, d_stop) of the ideal generated by the positive-degree
    invariants of the cyclic group diag(z^w_1, .., z^w_n), z of order k.

    Its invariants are spanned by the monomials x^e with sum w_i e_i = 0 mod
    k, so the ideal is monomial and both numbers are counts in the box k^n.
    """
    n = len(weights)
    box = list(itertools.product(range(k + 1), repeat=n))
    invariant = [e for e in box if any(e) and sum(w * x for w, x in zip(weights, e)) % k == 0]

    def standard(e):
        return not any(all(f[i] <= e[i] for i in range(n)) for f in invariant)

    colength = sum(1 for e in box if max(e) < k and standard(e))
    d_stop = next(
        d for d in range(1, n * k + 1)
        if not any(standard(e) for e in box if sum(e) == d)
    )
    return colength, d_stop


def _signed_perms(p, n, even):
    """Generators of G(2,1,n) (all sign changes) or G(2,2,n) (even ones)."""
    gens = []
    for i in range(n - 1):
        swap = [[int(r == c) for c in range(n)] for r in range(n)]
        swap[i][i] = swap[i + 1][i + 1] = 0
        swap[i][i + 1] = swap[i + 1][i] = 1
        gens.append(swap)
    sign = [[int(r == c) for c in range(n)] for r in range(n)]
    sign[0][0] = p - 1
    if even:
        sign[1][1] = p - 1
    gens.append(sign)
    return gens


# Seeded group slots (p, kind, ...).  Each fixes the group, its representation
# and the prime; the seed draws the root of unity and a dense change of
# coordinates, which keeps colength, d_stop and e_hk, so every answer is
# known exactly:
#   ("cyclic", k, weights): diag(z^w) of order k, counted by diagonal_hilbert;
#   ("dihedral", k): diag(z, 1/z) and the swap, a reflection group of order
#     2k with invariants xy, x^k + y^k, so colength 2k and d_stop k + 1;
#   ("signed", n): even sign changes and permutations, G(2,2,n); a
#     reflection group, so colength |G| and d_stop = sum(degree - 1) + 1.
GROUP_SLOTS = [
    (7, "cyclic", 3, (1, 1)),
    (13, "cyclic", 3, (1, 2)),
    (5, "cyclic", 4, (1, 3)),
    (13, "cyclic", 6, (1, 1)),
    # One shape over five primes, so the median case is one of equals.
    (11, "dihedral", 5),
    (31, "dihedral", 5),
    (41, "dihedral", 5),
    (61, "dihedral", 5),
    (71, "dihedral", 5),
    (13, "cyclic", 4, (1, 1, 2)),
    (17, "dihedral", 8),
    (13, "dihedral", 12),
    (7, "signed", 3),
]


def _group_slot(rng, slot):
    p, kind, k = slot[:3]
    if kind == "signed":
        gens = _signed_perms(p, k, even=True)
        order = 2 ** (k - 1) * math.factorial(k)
        # Invariants e_1..e_{k-1} of the squares and x_1..x_k.
        degrees = [2 * i for i in range(1, k)] + [k]
        return gens, order, {"colength": order, "d_stop": sum(d - 1 for d in degrees) + 1}
    z = pow(_root_of_unity(p, k), rng.choice([e for e in range(1, k) if math.gcd(e, k) == 1]), p)
    if kind == "cyclic":
        weights = slot[3]
        gens = [[[pow(z, w, p) if i == j else 0 for j in range(len(weights))]
                 for i, w in enumerate(weights)]]
        colength, d_stop = diagonal_hilbert(k, weights)
        return gens, k, {"colength": colength, "d_stop": d_stop}
    gens = [[[z, 0], [0, pow(z, p - 2, p)]], [[0, 1], [1, 0]]]
    return gens, 2 * k, {"colength": 2 * k, "d_stop": k + 1}


def invariants(seed: int) -> list[Case]:
    rng = _rng("invariants", seed)
    cases = [
        Case(
            "fixed/signed-perm3-f5",
            "invariant",
            {"p": 5, "vars": ["x", "y", "z"], "group": _signed_perms(5, 3, even=False)},
            [],
            {"n": 3, "order": 48, "colength": 48, "d_stop": 10},
        )
    ]
    for k, slot in enumerate(GROUP_SLOTS):
        p = slot[0]
        gens, order, expected = _group_slot(rng, slot)
        gens = _conjugate(rng, p, gens)
        if group_order(p, gens) != order:
            raise AssertionError(f"group slot {slot} has the wrong order")
        n = len(gens[0])
        problem = {"p": p, "vars": ["x", "y", "z"][:n], "group": gens}
        cases.append(Case(f"seed/{slot[1]}-{k}", "invariant", problem, [],
                          dict(expected, n=n, order=order)))
    return cases


FAMILIES = {
    "linkage-ci": linkage_ci,
    "hk-bracket": hk_bracket,
    "oracle-check": oracle_check,
    "invariants": invariants,
}

# Two workloads rather than one per family: the host's speed swings by about
# 1.5x over tens of seconds, so a run must be long to give a steady median,
# and the time for all runs allows two workloads of that length.  The pairs
# keep a workload that loads ideals.colon and the oracle and one that
# bypasses both.
WORKLOADS = {
    "linkage-oracle": ("linkage-ci", "oracle-check"),
    "hk-invariants": ("hk-bracket", "invariants"),
}


def build(workload: str, seed: int) -> list[Case]:
    return [case for family in WORKLOADS[workload] for case in FAMILIES[family](seed)]


def write_problems(cases: list[Case], directory: str) -> dict:
    """Write one problem file per case; returns case id -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for case in cases:
        path = os.path.join(directory, case.id.replace("/", "__") + ".json")
        with open(path, "wb") as handle:
            handle.write(problem_bytes(case.problem))
        paths[case.id] = path
    return paths
