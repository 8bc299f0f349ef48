"""Limited univariate factorization over the supported exact fields.

Over finite fields the factorization is complete (square-free split,
distinct-degree, then equal-degree splitting).  Over Q and Q(sqrt d) we do
square-free decomposition, rational-root extraction (Q), and exact
handling of factors of degree <= 2; anything beyond that is returned
unfactored and flagged, which is a legitimate partial result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CoefficientFieldTooSmall
from .fields import Scalar
from .poly import Poly, PolyRing


@dataclass
class Factorization:
    unit: Scalar
    factors: list[tuple[Poly, int]]      # irreducible over the field
    unfactored: list[tuple[Poly, int]]   # square-free, degree certified > 2, not split

    @property
    def complete(self) -> bool:
        return not self.unfactored

    def product(self) -> Poly:
        ring = (self.factors + self.unfactored)[0][0].ring if (self.factors or self.unfactored) else None
        if ring is None:
            raise ValueError("empty factorization")
        acc = ring.from_scalar(self.unit)
        for f, m in self.factors + self.unfactored:
            acc = acc * f**m
        return acc

    def roots(self) -> list[tuple[Scalar, int]]:
        """Roots in the base field from the linear factors."""
        out = []
        for f, m in self.factors:
            if f.total_degree() == 1:
                a = _uni_coeff(f, 1)
                b = _uni_coeff(f, 0)
                out.append((-b / a, m))
        return out


def _uni_var_index(f: Poly) -> int:
    used = [i for i in range(f.ring.nvars) if any(m[i] for m in f.terms)]
    if len(used) > 1:
        raise ValueError(f"{f} is not univariate")
    return used[0] if used else 0


def _uni_coeff(f: Poly, e: int) -> Scalar:
    i = _uni_var_index(f)
    for m, c in f.terms.items():
        if m[i] == e:
            return c
    return f.ring.field.zero()


def _uni_deg(f: Poly) -> int:
    i = _uni_var_index(f)
    return max((m[i] for m in f.terms), default=0)


def _uni_mono(ring: PolyRing, i: int, e: int, c: Scalar) -> Poly:
    mono = tuple(e if j == i else 0 for j in range(ring.nvars))
    return ring.monomial(mono, c)


def uni_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    i = _uni_var_index(g if not g.is_constant() else f)
    ring = f.ring
    q = ring.zero()
    r = f
    dg = _uni_deg(g)
    lg = _uni_coeff(g, dg)
    while not r.is_zero() and _uni_deg(r) >= dg and not (r.is_constant() and dg > 0):
        dr = _uni_deg(r)
        lr = _uni_coeff(r, dr)
        t = _uni_mono(ring, i, dr - dg, lr / lg)
        q = q + t
        r = r - t * g
        if not r.is_zero() and _uni_deg(r) == dr and _uni_coeff(r, dr) == lr:
            raise RuntimeError("division stalled")
    return q, r


def uni_gcd(f: Poly, g: Poly) -> Poly:
    a, b = f, g
    while not b.is_zero():
        a, b = b, uni_divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.scale(_uni_coeff(a, _uni_deg(a)).inv())


def uni_derivative(f: Poly) -> Poly:
    i = _uni_var_index(f)
    ring = f.ring
    out = ring.zero()
    for m, c in f.terms.items():
        e = m[i]
        if e:
            out = out + _uni_mono(ring, i, e - 1, c * ring.field.from_int(e))
    return out


def uni_factor(f: Poly) -> Factorization:
    """Factor a nonzero univariate polynomial; see module docstring for the
    supported fragment."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = f.ring.field
    if f.is_constant():
        return Factorization(f.constant_coefficient(), [], [])
    lead = _uni_coeff(f, _uni_deg(f))
    monic = f.scale(lead.inv())
    if field.char == 0:
        sq = _squarefree_char0(monic)
    else:
        sq = _squarefree_charp(monic)
    factors: list[tuple[Poly, int]] = []
    unfactored: list[tuple[Poly, int]] = []
    for part, mult in sq:
        if field.char == 0:
            fs, un = _split_char0(part)
        else:
            fs, un = _split_charp(part), []
        factors += [(h, mult) for h in fs]
        unfactored += [(h, mult) for h in un]
    factors.sort(key=lambda t: (t[0].total_degree(), str(t[0])))
    return Factorization(lead, factors, unfactored)


def _squarefree_char0(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm; input monic."""
    out: list[tuple[Poly, int]] = []
    df = uni_derivative(f)
    a = uni_gcd(f, df)
    b = uni_divmod(f, a)[0]
    c = uni_divmod(df, a)[0]
    d = c - uni_derivative(b)
    i = 1
    while _uni_deg(b) > 0:
        a = uni_gcd(b, d)
        if _uni_deg(a) > 0:
            out.append((a, i))
        b2 = uni_divmod(b, a)[0]
        c = uni_divmod(d, a)[0]
        d = c - uni_derivative(b2)
        b = b2
        i += 1
    return out


def _squarefree_charp(f: Poly) -> list[tuple[Poly, int]]:
    p = f.ring.field.char
    out: list[tuple[Poly, int]] = []

    def rec(g: Poly, mult: int):
        if g.is_constant():
            return
        dg = uni_derivative(g)
        if dg.is_zero():
            rec(_pth_root(g), mult * p)
            return
        c = uni_gcd(g, dg)
        w = uni_divmod(g, c)[0]
        i = 1
        while _uni_deg(w) > 0:
            y = uni_gcd(w, c)
            z = uni_divmod(w, y)[0]
            if _uni_deg(z) > 0:
                out.append((z, i * mult))
            w = y
            c = uni_divmod(c, y)[0]
            i += 1
        if _uni_deg(c) > 0:
            rec(_pth_root(c), mult * p)

    rec(f, 1)
    return out


def _pth_root(f: Poly) -> Poly:
    """Write f = g(x^p) and return g with p-th roots of coefficients."""
    field = f.ring.field
    p = field.char
    i = _uni_var_index(f)
    out = f.ring.zero()
    n = field.extension_degree
    for m, c in f.terms.items():
        assert m[i] % p == 0
        root = c ** (p ** (n - 1)) if n > 1 else c
        out = out + _uni_mono(f.ring, i, m[i] // p, root)
    return out


def _split_char0(f: Poly) -> tuple[list[Poly], list[Poly]]:
    """Split a monic square-free polynomial over Q or Q(sqrt d)."""
    field = f.ring.field
    factors: list[Poly] = []
    rest = f
    if field.kind == "Q":
        while _uni_deg(rest) > 0:
            root = _rational_root(rest)
            if root is None:
                break
            i = _uni_var_index(f)
            lin = _uni_mono(f.ring, i, 1, field.one()) - f.ring.from_scalar(root)
            factors.append(lin)
            rest = uni_divmod(rest, lin)[0]
    deg = _uni_deg(rest)
    if deg == 0:
        return factors, []
    if deg == 1:
        return factors + [rest], []
    if deg == 2:
        split = _quadratic_split(rest)
        if split is None:
            return factors + [rest], []  # irreducibility certified by discriminant
        return factors + split, []
    return factors, [rest]


def _quadratic_split(f: Poly) -> list[Poly] | None:
    """Roots of a monic quadratic via the discriminant; None if irreducible."""
    field = f.ring.field
    if field.char == 2:
        return None
    i = _uni_var_index(f)
    a = _uni_coeff(f, 2)
    b = _uni_coeff(f, 1)
    c = _uni_coeff(f, 0)
    disc = b * b - field.from_int(4) * a * c
    r = disc.sqrt()
    if r is None:
        return None
    two_a = (a + a).inv()
    x = _uni_mono(f.ring, i, 1, field.one())
    r1 = (-b + r) * two_a
    r2 = (-b - r) * two_a
    return [x - f.ring.from_scalar(r1), x - f.ring.from_scalar(r2)]


def _rational_root(f: Poly) -> Scalar | None:
    """Rational-root theorem on the denominator-cleared polynomial; gives up
    (returning None) when the divisor enumeration would be unreasonable."""
    field = f.ring.field
    i = _uni_var_index(f)
    denom = math.lcm(*(c.as_fraction().denominator for c in f.terms.values()))
    ints = {m[i]: c.as_fraction() * denom for m, c in f.terms.items()}
    deg = max(ints)
    a0 = ints.get(0, Fraction(0))
    if a0 == 0:
        return field.zero()
    an = ints[deg]
    if abs(int(a0)) > 10**12 or abs(int(an)) > 10**12:
        return None
    for pnum in _divisors(abs(int(a0))):
        for pden in _divisors(abs(int(an))):
            for sign in (1, -1):
                cand = field.from_fraction(Fraction(sign * pnum, pden))
                if f.eval_scalars({f.ring.variables[i]: cand}).is_zero():
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


def _split_charp(f: Poly) -> list[Poly]:
    """Complete factorization of a monic square-free f over a finite field."""
    q = f.ring.field.order
    i = _uni_var_index(f)
    ring = f.ring
    x = _uni_mono(ring, i, 1, ring.field.one())
    out: list[Poly] = []
    rest = f
    d = 1
    # distinct-degree: gcd with x^(q^d) - x
    h = x
    while _uni_deg(rest) >= 2 * d:
        h = _powmod(h, q, rest)
        g = uni_gcd(h - x, rest)
        if _uni_deg(g) > 0:
            out += _equal_degree(g, d)
            rest = uni_divmod(rest, g)[0]
            h = uni_divmod(h, rest)[1] if _uni_deg(rest) > 0 else ring.zero()
        d += 1
    if _uni_deg(rest) > 0:
        out.append(rest)
    return out


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e modulo mod, by pow_by_squaring's loop: the base is not squared
    again after the last bit of e."""
    result = base.ring.one()
    b = uni_divmod(base, mod)[1]
    while True:
        if e & 1:
            result = uni_divmod(result * b, mod)[1]
        e >>= 1
        if not e:
            return result
        b = uni_divmod(b * b, mod)[1]


def _equal_degree(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    if _uni_deg(f) == d:
        return [f]
    field = f.ring.field
    q = field.order
    i = _uni_var_index(f)
    rng = random.Random(hash((frozenset((m[i], str(c)) for m, c in f.terms.items()), d)) & 0xFFFFFFFF)
    one = f.ring.one()
    while True:
        r = _random_poly(f.ring, i, _uni_deg(f) - 1, rng)
        if r.is_constant():
            continue
        g = uni_gcd(r, f)
        if 0 < _uni_deg(g) < _uni_deg(f):
            return _equal_degree(g, d) + _equal_degree(uni_divmod(f, g)[0], d)
        if q % 2 == 1:
            s = _powmod(r, (q**d - 1) // 2, f) - one
        else:
            s = f.ring.zero()
            t = r
            for _ in range(d * field.extension_degree):
                s = s + t
                t = uni_divmod(t * t, f)[1]
        g = uni_gcd(s, f)
        if 0 < _uni_deg(g) < _uni_deg(f):
            return _equal_degree(g, d) + _equal_degree(uni_divmod(f, g)[0], d)


def _random_poly(ring: PolyRing, i: int, deg: int, rng: random.Random) -> Poly:
    field = ring.field
    out = ring.zero()
    for e in range(deg + 1):
        out = out + _uni_mono(ring, i, e, field.element(rng.randrange(field.order)))
    return out


def scalar_roots(f: Poly) -> list[Scalar]:
    """All roots of f in its coefficient field, with multiplicity collapsed.

    Raises CoefficientFieldTooSmall when nonlinear unfactored parts remain
    that could hide roots outside the certified fragment.
    """
    fac = uni_factor(f)
    roots = [r for r, _ in fac.roots()]
    if fac.unfactored:
        raise CoefficientFieldTooSmall(
            f"cannot certify roots of degree-{max(_uni_deg(g) for g, _ in fac.unfactored)} remainder over {f.ring.field}"
        )
    return roots
