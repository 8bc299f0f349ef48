"""Limited univariate factorization over the supported exact fields.

Over finite fields the factorization is complete (square-free split,
distinct-degree, then equal-degree splitting).  Over Q and Q(sqrt d) we do
square-free decomposition, rational-root extraction (Q), and exact
handling of factors of degree <= 2; anything beyond that is returned
unfactored and flagged, which is a legitimate partial result.  Two inputs
are their own factorization and skip the square-free loop: a linear
a c + b, and a monomial u c^k (only a monomial: a c-content split off a
larger polynomial would leave a cofactor that the loop treats otherwise).

Inside this module a polynomial is dense: a list of Scalars, lowest degree
first, whose last entry is nonzero ([] is zero), so its degree is its
length minus one.  Polys are read and written only at the public entry
points `uni_factor` and `scalar_roots`, and factors come back as Polys in
the caller's ring and variable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import CoefficientFieldTooSmall
from .fields import Scalar
from .poly import Poly, PolyRing
from .records import Record


class Factorization(Record):
    __slots__ = ("ring", "unit", "factors", "unfactored")

    def __init__(self, ring: PolyRing, unit: Scalar, factors: list[tuple[Poly, int]], unfactored: list[tuple[Poly, int]]):
        self.ring = ring  # the factored polynomial's ring
        self.unit = unit
        self.factors = factors  # monic, irreducible over the field
        self.unfactored = unfactored  # monic, square-free, degree certified > 2, not split

    @property
    def complete(self) -> bool:
        return not self.unfactored

    def roots(self) -> list[tuple[Scalar, int]]:
        """Roots in the base field from the linear factors x - r."""
        return [(-f.constant_coefficient(), m) for f, m in self.factors if f.total_degree() == 1]


def _dense(f: Poly) -> tuple[list[Scalar], int]:
    """The dense coefficients of a univariate f and the index of its
    variable (0 for a constant)."""
    used = {i for m in f.terms for i, e in enumerate(m) if e}
    if len(used) > 1:
        raise ValueError(f"{f} is not univariate")
    i = used.pop() if used else 0
    out = [f.ring.field.zero()] * (max((m[i] for m in f.terms), default=-1) + 1)
    for m, c in f.terms.items():
        out[m[i]] = c
    return out, i


def _poly(a: list[Scalar], ring: PolyRing, i: int) -> Poly:
    zeros = (0,) * ring.nvars
    return Poly._trusted(ring, {zeros[:i] + (e,) + zeros[i + 1 :]: c for e, c in enumerate(a) if not c.is_zero()})


# -- dense arithmetic ---------------------------------------------------------

def _trim(a: list[Scalar]) -> list[Scalar]:
    while a and a[-1].is_zero():
        a.pop()
    return a


def _add(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + a[len(b) :])


def _sub(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    return _add(a, [-c for c in b])


def _mul(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    if not a or not b:
        return []
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out  # the top entry is a product of two nonzero leads


def _divmod(a: list[Scalar], b: list[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """Quotient and remainder of a by a nonzero b; each step clears the top
    entry of the remainder."""
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv = b[-1].inv()
    r = list(a)
    q = [None] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv
        if not c.is_zero():
            for j in range(db):
                r[k + j] = r[k + j] - c * b[j]
    return q, _trim(r[:db])


def _monic(a: list[Scalar]) -> list[Scalar]:
    if a[-1].is_one():
        return a
    inv = a[-1].inv()
    return [c * inv for c in a]


def _gcd(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    """The monic gcd; [] when both are zero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a) if a else a


def _derivative(a: list[Scalar]) -> list[Scalar]:
    return _trim([a[e] * a[e].field.from_int(e) for e in range(1, len(a))])


def _powmod(base: list[Scalar], e: int, mod: list[Scalar]) -> list[Scalar]:
    """base^e modulo mod, by pow_by_squaring's loop: the base is not squared
    again after the last bit of e."""
    result = [mod[-1].field.one()]
    b = _divmod(base, mod)[1]
    while True:
        if e & 1:
            result = _divmod(_mul(result, b), mod)[1]
        e >>= 1
        if not e:
            return result
        b = _divmod(_mul(b, b), mod)[1]


# -- factorization ------------------------------------------------------------

def uni_factor(f: Poly) -> Factorization:
    """Factor a nonzero univariate polynomial; see module docstring for the
    supported fragment."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.is_constant():
        return Factorization(f.ring, f.constant_coefficient(), [], [])
    a, i = _dense(f)
    if len(a) == 2 or all(c.is_zero() for c in a[:-1]):
        # a c + b or u c^k: (c + b/a)^1 or c^k, without the square-free loop
        fs, un = [(_monic([a[0], a[-1]]), len(a) - 1)], []
    else:
        fs, un = _factor_monic(_monic(a))
    factors = sorted(((_poly(h, f.ring, i), m) for h, m in fs), key=lambda t: (t[0].total_degree(), str(t[0])))
    return Factorization(f.ring, a[-1], factors, [(_poly(h, f.ring, i), m) for h, m in un])


def _factor_monic(f: list[Scalar]) -> tuple[list[tuple[list[Scalar], int]], list[tuple[list[Scalar], int]]]:
    """(factors, unfactored) with multiplicities of a monic nonconstant f:
    each square-free part split over its field."""
    char0 = f[-1].field.char == 0
    factors, unfactored = [], []
    for part, mult in _squarefree(f):
        fs, un = _split_char0(part) if char0 else (_split_charp(part), [])
        factors += [(h, mult) for h in fs]
        unfactored += [(h, mult) for h in un]
    return factors, unfactored


def _squarefree(f: list[Scalar]) -> list[tuple[list[Scalar], int]]:
    """(part, multiplicity) for a monic nonconstant f: pairwise coprime
    monic square-free parts, in increasing multiplicity within each p-th
    root level.  What gcd(f, f') leaves over is a p-th power in
    characteristic p, and 1 in characteristic 0."""
    p = f[-1].field.char
    out: list[tuple[list[Scalar], int]] = []
    mult = 1
    while True:
        c = _gcd(f, _derivative(f))
        w = _divmod(f, c)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, c)
            z = _divmod(w, y)[0]
            if len(z) > 1:
                out.append((z, i * mult))
            w, c = y, _divmod(c, y)[0]
            i += 1
        if len(c) == 1:
            return out
        f, mult = _pth_root(c), mult * p


def _pth_root(f: list[Scalar]) -> list[Scalar]:
    """g with f = g^p, for f = sum a_i x^(p i) over a finite field F_(p^n):
    the coefficients a_i^(p^(n-1)) at x^i."""
    field = f[-1].field
    p, n = field.char, field.extension_degree
    return [c ** (p ** (n - 1)) for c in f[::p]] if n > 1 else f[::p]


def _split_char0(f: list[Scalar]) -> tuple[list[list[Scalar]], list[list[Scalar]]]:
    """Split a monic square-free polynomial over Q or Q(sqrt d)."""
    field = f[-1].field
    factors: list[list[Scalar]] = []
    rest = f
    if field.kind == "Q":
        while len(rest) > 1:
            root = _rational_root(rest)
            if root is None:
                break
            lin = [-root, field.one()]
            factors.append(lin)
            rest = _divmod(rest, lin)[0]
    if len(rest) > 3:
        return factors, [rest]
    if len(rest) == 3:
        factors += _quadratic_split(rest)  # irreducibility certified by the discriminant
    elif len(rest) == 2:
        factors.append(rest)
    return factors, []


def _quadratic_split(f: list[Scalar]) -> list[list[Scalar]]:
    """The two linear factors of a monic quadratic, or [f] if it has no
    root in the field."""
    c, b, _ = f
    r = (b * b - c * c.field.from_int(4)).sqrt()
    if r is None:
        return [f]
    half = c.field.from_int(2).inv()
    return [[(b - r) * half, c.field.one()], [(b + r) * half, c.field.one()]]


def _rational_root(f: list[Scalar]) -> Scalar | None:
    """Rational-root theorem on the denominator-cleared polynomial; gives up
    (returning None) when the divisor enumeration would be unreasonable."""
    field = f[-1].field
    ints = [c.as_fraction() for c in f]
    denom = math.lcm(*(c.denominator for c in ints))
    a0, an = ints[0] * denom, ints[-1] * denom
    if a0 == 0:
        return field.zero()
    if abs(int(a0)) > 10**12 or abs(int(an)) > 10**12:
        return None
    for pnum in _divisors(abs(int(a0))):
        for pden in _divisors(abs(int(an))):
            for sign in (1, -1):
                cand = field.from_fraction(Fraction(sign * pnum, pden))
                value = field.zero()
                for c in reversed(f):
                    value = value * cand + c
                if value.is_zero():
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _split_charp(f: list[Scalar]) -> list[list[Scalar]]:
    """Complete factorization of a monic square-free f over a finite field."""
    field = f[-1].field
    x = [field.zero(), field.one()]
    out: list[list[Scalar]] = []
    rest = f
    d = 1
    # distinct-degree: gcd with x^(q^d) - x
    h = x
    while len(rest) > 2 * d:
        h = _powmod(h, field.order, rest)
        g = _gcd(_sub(h, x), rest)
        if len(g) > 1:
            out += _equal_degree(g, d)
            rest = _divmod(rest, g)[0]
            h = _divmod(h, rest)[1]
        d += 1
    if len(rest) > 1:
        out.append(rest)
    return out


def _equal_degree(f: list[Scalar], d: int) -> list[list[Scalar]]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles.
    The draws are seeded by the coefficients and d, so they do not depend
    on string hashing."""
    if len(f) == d + 1:
        return [f]
    field = f[-1].field
    q = field.order
    rng = random.Random(str(([str(c) for c in f], d)))
    while True:
        r = _trim([field.element(rng.randrange(q)) for _ in range(len(f) - 1)])
        if len(r) < 2:
            continue
        g = _gcd(r, f)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d) + _equal_degree(_divmod(f, g)[0], d)
        if q % 2 == 1:
            s = _sub(_powmod(r, (q**d - 1) // 2, f), [field.one()])
        else:
            s, t = [], r
            for _ in range(d * field.extension_degree):
                s = _add(s, t)
                t = _divmod(_mul(t, t), f)[1]
        g = _gcd(s, f)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d) + _equal_degree(_divmod(f, g)[0], d)


def scalar_roots(f: Poly) -> list[Scalar]:
    """All roots of f in its coefficient field, with multiplicity collapsed.

    Raises CoefficientFieldTooSmall when nonlinear unfactored parts remain
    that could hide roots outside the certified fragment.
    """
    fac = uni_factor(f)
    roots = [r for r, _ in fac.roots()]
    if fac.unfactored:
        raise CoefficientFieldTooSmall(
            f"cannot certify roots of degree-{max(g.total_degree() for g, _ in fac.unfactored)} remainder over {f.ring.field}"
        )
    return roots
