"""hkforge: exact Hilbert-Kunz, linkage and invariant-ring computations
over prime fields."""

from .errors import (
    DoubleLinkFailed,
    EmptyVariety,
    HKForgeError,
    IdentityViolation,
    InternalError,
    ModularCase,
    NoetherBoundViolated,
    NotAPowerOfP,
    ParseError,
    PreconditionViolated,
    ResourceCap,
    RingMismatch,
    UnknownVariable,
)
from .groebner import GroebnerBasis, buchberger, normal_form, s_polynomial
from .ideals import Ideal, QuotientPresentation
from .invariants import (
    MatrixGroup,
    group_closure,
    invariant_basis,
    noether_bound_value,
    noether_ideal,
    reynolds,
)
from .linkage import (
    LinkageDatum,
    ReciprocityReport,
    corner_power,
    gorenstein_parity_check,
    hk_table,
    link,
    reciprocity_report,
)
from .oracle import colength_bruteforce
from .parsing import parse_polynomial
from .poly import MonomialOrder, Polynomial, PolyRing
from .problem import ProblemFile, load_problem, problem_from_dict
from .scalar import render_rational

__version__ = "0.1.0"

__all__ = [
    "DoubleLinkFailed",
    "EmptyVariety",
    "GroebnerBasis",
    "HKForgeError",
    "IdentityViolation",
    "Ideal",
    "InternalError",
    "LinkageDatum",
    "MatrixGroup",
    "ModularCase",
    "MonomialOrder",
    "NoetherBoundViolated",
    "NotAPowerOfP",
    "ParseError",
    "Polynomial",
    "PolyRing",
    "PreconditionViolated",
    "ProblemFile",
    "QuotientPresentation",
    "ReciprocityReport",
    "ResourceCap",
    "RingMismatch",
    "UnknownVariable",
    "buchberger",
    "colength_bruteforce",
    "corner_power",
    "gorenstein_parity_check",
    "group_closure",
    "hk_table",
    "invariant_basis",
    "link",
    "load_problem",
    "noether_bound_value",
    "noether_ideal",
    "normal_form",
    "parse_polynomial",
    "problem_from_dict",
    "reciprocity_report",
    "render_rational",
    "reynolds",
    "s_polynomial",
]
