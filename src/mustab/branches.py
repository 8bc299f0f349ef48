"""Curve branches: validated parameterizations, boundedness, and the
degree-bounded Zariski closure (implicitization) with its Krull dimension.

Implicitization is exact linear algebra on the series expansions of all
coordinate monomials up to a degree bound.  For exact (Laurent-polynomial)
entries the computed relations are certain; for truncated entries a
window-stability check guards against spurious relations and raises
PrecisionInsufficient instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PrecisionInsufficient
from .exponents import Exponent
from .groups import GroupElement, GroupScheme
from .ideals import Ideal, _dim_from_leading_monomials, groebner_basis
from .linalg import nullspace
from .poly import PolyRing, monomials_up_to
from .series import PuiseuxSeries, ScalarDomain


@dataclass
class Branch:
    """A parameterized curve germ a(t) on a group scheme."""

    element: GroupElement
    ramification: int
    trusted_irreducible: bool = False
    notes: tuple[str, ...] = ()

    @property
    def scheme(self) -> GroupScheme:
        return self.element.scheme

    @property
    def field(self):
        return self.element.scheme.field

    def translate(self, g) -> Branch:
        """Left-translate by a k-point g."""
        moved = g.to_series().mul(self.element)
        return Branch(moved, self.ramification, self.trusted_irreducible, self.notes)

    def __str__(self):
        return f"branch {self.element} (ram {self.ramification})"


def validate_branch(scheme: GroupScheme, entries, y=None) -> Branch:
    """Check the entries against the scheme equations and infer ramification.

    Raises NotOnGroup with the offending equation and residual term.
    """
    element = GroupElement(scheme, entries, y=y, check=True)
    return Branch(element, math.lcm(*(s.ramification() for s in element.entries_flat())))


def is_centered_at_infinity(branch: Branch) -> bool:
    """Unbounded exactly when some coordinate has negative valuation."""
    return not branch.element.is_integral()


def _relation_kernel(branch: Branch, degree_bound: int):
    """The monomials of degree <= degree_bound in the coordinates, in
    ascending deglex order, and a basis of the linear relations among
    their series a(t)^m, one coefficient vector per relation."""
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    field = branch.field
    series_list = branch.element.flat()

    monos = sorted(monomials_up_to(len(series_list), degree_bound), key=lambda m: (sum(m), m))

    # a(t)^m = a(t)^(m - e_i) * a_i(t) for the last variable i of m; the
    # parent has lower degree, so it comes earlier in monos
    by_mono = {}
    for m in monos:
        if any(m):
            i = max(j for j, e in enumerate(m) if e)
            by_mono[m] = by_mono[m[:i] + (m[i] - 1,) + m[i + 1 :]] * series_list[i]
        else:
            by_mono[m] = PuiseuxSeries.one(ScalarDomain(field))
    evaluated = [by_mono[m] for m in monos]

    hi: Exponent | None = None
    exact = True
    for s in evaluated:
        if s.precision is not None:
            exact = False
            if hi is None or s.precision < hi:
                hi = s.precision
    slots = sorted(
        {e for s in evaluated for e, _ in s.terms if hi is None or e < hi},
        key=lambda e: e,
    )
    if not exact and (hi is None or len(slots) < 2):
        raise PrecisionInsufficient("too few known exponent slots for implicitization")

    def kernel(active_slots):
        rows = [[s.coefficient(e) for s in evaluated] for e in active_slots]
        return nullspace(rows, len(monos), field)

    basis = kernel(slots)
    if not exact:
        drop = max(1, len(slots) // 5)
        smaller = kernel(slots[:-drop])
        if len(smaller) != len(basis):
            raise PrecisionInsufficient(
                f"relations unstable under window shrink ({len(smaller)} vs {len(basis)}); raise precision"
            )
    return monos, basis


def implicitize(branch: Branch, degree_bound: int) -> Ideal:
    """Reduced Groebner basis of all polynomial relations of total degree
    <= degree_bound among the coordinates of a(t)."""
    monos, basis = _relation_kernel(branch, degree_bound)
    ring = PolyRing(branch.field, branch.scheme.coordinates())
    gens = []
    for vec in basis:
        p = ring.zero()
        for c, m in zip(vec, monos):
            if not c.is_zero():
                p = p + ring.monomial(m, c)
        if not p.is_zero():
            gens.append(p)
    return groebner_basis(Ideal(ring, tuple(gens))) if gens else Ideal(ring, ())


def type_dimension(branch: Branch, degree_bound: int) -> tuple[int, int]:
    """Krull dimension of the degree-bounded closure; an upper bound for the
    true dimension, certified at the stated degree."""
    monos, basis = _relation_kernel(branch, degree_bound)
    # the kernel of an ascending-ordered matrix has one basis vector per free
    # column, led by that column (its last nonzero entry): these leading
    # monomials are the degree-<=D slice of the leading-term ideal, which is
    # all the dimension count needs
    leads = [[m for c, m in zip(vec, monos) if not c.is_zero()][-1] for vec in basis]
    return _dim_from_leading_monomials(leads, len(branch.scheme.coordinates())), degree_bound
