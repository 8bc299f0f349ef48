"""Exact computation of mu-stabilizers of curve branches at infinity.

Given a linear algebraic group over an exact field and a branch centered
at infinity, the package computes the stabilizer of the branch's
infinitesimal tube by two independent algorithms (reparameterization
ansatz and flat degeneration) and cross-checks the results, together with
the supporting exact machinery: scalar fields, Groebner bases, truncated
Puiseux series, matrix group schemes, and Newton-polygon places.
"""

from .branches import Branch, certified_dim, implicitize, is_centered_at_infinity, validate_branch
from .degeneration import identity_component, stab_degeneration
from .exponents import Exponent, exp
from .fields import QQ, FieldSpec, Scalar
from .groups import GroupElement, GroupScheme, KPoint, iwasawa
from .ideals import (
    Budgets,
    Ideal,
    eliminate,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    krull_dim,
    spoly_budget,
)
from .factor import uni_factor
from .newton import PlaneCurveInput, places_at_infinity
from .pipeline import StabilizerRun, compute_stabilizer, halevi_lift_check, lift_residue_point
from .poly import Poly, PolyRing
from .series import PuiseuxSeries, parse_series
from .stabilizer import mu_correct, mu_reduce, stab_reparam
from .subgroups import SubgroupDesc, TubeCertificate, conjugate_stab, is_solvable, verify_subgroup

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Budgets",
    "Exponent",
    "FieldSpec",
    "GroupElement",
    "GroupScheme",
    "Ideal",
    "KPoint",
    "PlaneCurveInput",
    "Poly",
    "PolyRing",
    "PuiseuxSeries",
    "QQ",
    "Scalar",
    "StabilizerRun",
    "SubgroupDesc",
    "TubeCertificate",
    "certified_dim",
    "compute_stabilizer",
    "conjugate_stab",
    "eliminate",
    "exp",
    "groebner_basis",
    "halevi_lift_check",
    "ideal",
    "ideal_equal",
    "ideal_member",
    "identity_component",
    "implicitize",
    "is_centered_at_infinity",
    "is_solvable",
    "iwasawa",
    "krull_dim",
    "lift_residue_point",
    "mu_correct",
    "mu_reduce",
    "parse_series",
    "places_at_infinity",
    "spoly_budget",
    "stab_degeneration",
    "stab_reparam",
    "uni_factor",
    "validate_branch",
    "verify_subgroup",
]
