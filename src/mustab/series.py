"""Truncated generalized Puiseux series with explicit precision.

A series is a finite ascending list of (Exponent, coefficient) terms plus
a precision bound: coefficients at exponents >= precision are unknown.
precision None means the series is exact (all omitted coefficients are
genuinely zero), which is the common case for Laurent-polynomial branch
data and keeps implicitization sound.

The public constructor `PuiseuxSeries(dom, terms, precision)` accepts terms
in any order: it drops zero coefficients, sorts, rejects duplicate
exponents and drops the terms at or above the precision.  The arithmetic
here knows its results are already in that form and builds them with the
private `PuiseuxSeries._ordered`, which checks nothing: `+` is a linear
merge of the two ordered term lists, `*`, substitution and the binomial
expansion collect their terms in one dict keyed by exponent and sort once,
and negation, `scale`, `shift` and `truncate` keep the order of their
input.

Every power s^gamma of a series s = lead t^v (1 + w) comes from one
`SeriesPowers`: the lists of w's powers, lead^gamma and, for the
stabilizer ansatz, a bounded memo of s^gamma.  Its `subst` loop, which
applies the precision rule for truncated f, serves `ser_subst`, the
ansatz and the tube certificate's eps, and `PuiseuxSeries.inv` is s^-1.

A series' `dom` is its coefficient ring: a FieldSpec for Scalar
coefficients, or a PolyRing for the polynomial coefficients of the
stabilizer ansatz.  The ring gives `zero()`, `one()` and `char`, and its
field (the ring itself, or a PolyRing's `field`) the binomial coefficients
by `from_fraction(q)`; coefficients give `+`, `-`, `*` and `is_zero()`.
Only Scalar coefficients are inverted (`c.inv()`): the leading
coefficient of s in `SeriesPowers.of`.

Scale, don't lift: a series over a PolyRing R takes a series over R's
field as the right operand of `+` and `*`.  A product scales the
R-coefficients by the scalars (`Poly.scale`), as do the substitution of a
series over the field into powers over R and the binomial coefficients;
only a sum lifts the scalar terms into R.  Over a field, and over a
polynomial ring, a product of nonzero coefficients is nonzero, so a
product with a one-term factor is a shift and a scaling, with nothing to
collect or sort.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import itemgetter, mul

from .errors import (
    FieldMismatch,
    IrrationalExponentInSubstitution,
    LeadingTermUnknown,
    NegativeValuation,
    PrecisionInsufficient,
    WildRamification,
    ZeroLeadingTerm,
)
from .exponents import EXP_ZERO, Exponent, exp
from .fields import FieldSpec, Scalar, pow_by_squaring
from .poly import Poly, PolyRing, parse_scalar

DEFAULT_PRECISION = Exponent(Fraction(12))
EXP_MINUS_ONE = Exponent(Fraction(-1))


_new = object.__new__
_exponent_of = itemgetter(0)


def _times(dom: FieldSpec | PolyRing, other: FieldSpec | PolyRing):
    """(c1, c2) -> c1 * c2 for coefficients c1 over dom and c2 over other:
    Poly.scale when other is the field of the PolyRing dom."""
    return Poly.scale if dom.__class__ is PolyRing and other.__class__ is not PolyRing else mul


def _min_prec(p: Exponent | None, q: Exponent | None) -> Exponent | None:
    if p is None:
        return q
    if q is None:
        return p
    return p if p <= q else q


def _add_prec(p: Exponent | None, e: Exponent | None) -> Exponent | None:
    if p is None or e is None:
        return None
    return p + e


class PuiseuxSeries:
    """Immutable truncated series over a coefficient ring (FieldSpec or PolyRing)."""

    __slots__ = ("dom", "terms", "precision")

    def __init__(self, dom: FieldSpec | PolyRing, terms, precision: Exponent | None):
        clean = [(e, c) for e, c in terms if not c.is_zero()]
        clean.sort(key=_exponent_of)
        for i in range(1, len(clean)):
            if not clean[i - 1][0] < clean[i][0]:
                raise ValueError("duplicate or unordered exponents")
        if precision is not None:
            clean = [(e, c) for e, c in clean if e < precision]
        self.dom = dom
        self.terms = tuple(clean)
        self.precision = precision

    @staticmethod
    def _ordered(dom: FieldSpec | PolyRing, terms: tuple, precision: Exponent | None) -> PuiseuxSeries:
        """The series of `terms`, which must already be ascending, nonzero
        and below `precision`; nothing is sorted or checked."""
        s = _new(PuiseuxSeries)
        s.dom = dom
        s.terms = terms
        s.precision = precision
        return s

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero(dom: FieldSpec | PolyRing, precision: Exponent | None = None) -> PuiseuxSeries:
        return PuiseuxSeries(dom, (), precision)

    @staticmethod
    def one(dom: FieldSpec | PolyRing) -> PuiseuxSeries:
        return PuiseuxSeries(dom, ((EXP_ZERO, dom.one()),), None)

    @staticmethod
    def monomial(dom: FieldSpec | PolyRing, e, coeff=None, precision: Exponent | None = None) -> PuiseuxSeries:
        c = coeff if coeff is not None else dom.one()
        return PuiseuxSeries(dom, ((exp(e), c),), precision)

    @staticmethod
    def constant(dom: FieldSpec | PolyRing, c) -> PuiseuxSeries:
        return PuiseuxSeries(dom, ((EXP_ZERO, c),), None)

    def _check(self, other: PuiseuxSeries):
        """other's ring is self's, or the field of self's PolyRing."""
        dom, odom = self.dom, other.dom
        if dom is odom or dom.__class__ is PolyRing and dom.field is odom:
            return
        if dom != odom and not (dom.__class__ is PolyRing and dom.field == odom):
            raise FieldMismatch(f"series rings differ: {self.dom} vs {other.dom}")

    # -- inspection ------------------------------------------------------------
    def is_zero(self) -> bool:
        """No known nonzero term (exact zero when also precision is None)."""
        return not self.terms

    def is_exact(self) -> bool:
        return self.precision is None

    def val_bound(self) -> Exponent | None:
        """Least known exponent; None means 'no term below precision',
        i.e. valuation at least the precision (infinite for exact zero)."""
        if self.terms:
            return self.terms[0][0]
        return self.precision

    def coefficient(self, e: Exponent):
        for ee, c in self.terms:
            if ee == e:
                return c
        return self.dom.zero()

    def ramification(self) -> int:
        """LCM of rational-exponent denominators (1 for the zero series)."""
        return math.lcm(*(e.as_fraction().denominator for e, _ in self.terms if e.is_rational()))

    def has_irrational_exponent(self) -> bool:
        return any(not e.is_rational() for e, _ in self.terms)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: PuiseuxSeries) -> PuiseuxSeries:
        if other.dom is not self.dom:
            self._check(other)
        prec = _min_prec(self.precision, other.precision)
        xs, ys = self.terms, other.terms
        if self.dom.__class__ is PolyRing and other.dom.__class__ is not PolyRing:
            lift = self.dom.from_scalar
            ys = [(e, lift(c)) for e, c in ys]
        out = []
        i = j = 0
        while i < len(xs) and j < len(ys):
            ex, cx = xs[i]
            ey, cy = ys[j]
            if ex == ey:
                c = cx + cy
                if not c.is_zero():
                    out.append((ex, c))
                i += 1
                j += 1
            elif ex < ey:
                out.append(xs[i])
                i += 1
            else:
                out.append(ys[j])
                j += 1
        out += xs[i:]
        out += ys[j:]
        if prec is not None:
            while out and not out[-1][0] < prec:
                out.pop()
        return PuiseuxSeries._ordered(self.dom, tuple(out), prec)

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries._ordered(self.dom, tuple((e, -c) for e, c in self.terms), self.precision)

    def __sub__(self, other: PuiseuxSeries) -> PuiseuxSeries:
        return self + (-other)

    def __mul__(self, other: PuiseuxSeries) -> PuiseuxSeries:
        return self.mul_below(other, None)

    def mul_below(self, other: PuiseuxSeries, bound: Exponent | None) -> PuiseuxSeries:
        """(self * other).truncate(bound), without forming the pairs of
        terms at or above bound (None: no bound)."""
        times = mul
        if other.dom is not self.dom:
            self._check(other)
            times = _times(self.dom, other.dom)
        xs, ys = self.terms, other.terms
        # known below each precision plus the other factor's valuation bound
        prec = bound
        if self.precision is not None and (ys or other.precision is not None):
            prec = _min_prec(self.precision + (ys[0][0] if ys else other.precision), prec)
        if other.precision is not None and (xs or self.precision is not None):
            prec = _min_prec(other.precision + (xs[0][0] if xs else self.precision), prec)
        if len(xs) == 1 or len(ys) == 1:
            # a shift and a scaling: ascending, and no product is zero
            out = []
            for (e1, c1), (e2, c2) in product(xs, ys):
                e = e1 + e2
                if prec is not None and not e < prec:
                    break
                out.append((e, times(c1, c2)))
            return PuiseuxSeries._ordered(self.dom, tuple(out), prec)
        acc: dict = {}
        for e1, c1 in xs:
            for e2, c2 in ys:
                e = e1 + e2
                if prec is not None and not e < prec:
                    break  # the exponents of other ascend: so do the rest
                c = times(c1, c2)
                old = acc.get(e)
                acc[e] = c if old is None else old + c
        return _collected(self.dom, acc, prec)

    def scale(self, c) -> PuiseuxSeries:
        if c.is_zero():
            return PuiseuxSeries.zero(self.dom, self.precision)
        terms = ((e, co * c) for e, co in self.terms)
        return PuiseuxSeries._ordered(self.dom, tuple(t for t in terms if not t[1].is_zero()), self.precision)

    def shift(self, e) -> PuiseuxSeries:
        """Multiply by t^e."""
        e = exp(e)
        return PuiseuxSeries._ordered(
            self.dom,
            tuple((ee + e, c) for ee, c in self.terms),
            _add_prec(self.precision, e),
        )

    def truncate(self, prec: Exponent | None) -> PuiseuxSeries:
        prec = _min_prec(self.precision, prec)
        terms = self.terms
        k = len(terms)
        if prec is not None:
            while k and not terms[k - 1][0] < prec:
                k -= 1
        return PuiseuxSeries._ordered(self.dom, terms[:k], prec)

    def __pow__(self, k: int) -> PuiseuxSeries:
        if k < 0:
            return self.inv() ** (-k)
        return pow_by_squaring(self, k, PuiseuxSeries.one(self.dom))

    def inv(self, prec: Exponent | None = None) -> PuiseuxSeries:
        """Inverse as s^-1 for s = c t^v (1 + w), its leading term c t^v;
        (1 + w)^-1 runs to the lower of prec and the precision of w, to
        either one that is known, else to DEFAULT_PRECISION."""
        if not self.terms:
            if self.precision is not None:
                raise LeadingTermUnknown(f"no term of the series is known below t^({self.precision})")
            raise ZeroLeadingTerm("cannot invert a series with no known nonzero term")
        powers = SeriesPowers.of(self)
        w = powers.w
        if w.is_zero() and w.is_exact():
            return powers.power(EXP_MINUS_ONE, None, None)
        target = DEFAULT_PRECISION if prec is None and w.precision is None else _min_prec(prec, w.precision)
        return powers.power(EXP_MINUS_ONE, target - powers.v, target)

    # -- valuation data ----------------------------------------------------
    def val(self) -> Exponent:
        if not self.terms:
            raise PrecisionInsufficient("series has no known nonzero term")
        return self.terms[0][0]

    def res(self):
        """Residue: coefficient at exponent 0; requires valuation >= 0."""
        v = self.val_bound()
        if self.terms:
            if self.terms[0][0].sign() < 0:
                raise NegativeValuation(f"residue undefined at valuation {self.terms[0][0]}")
            return self.coefficient(EXP_ZERO)
        if v is not None and not EXP_ZERO < v:
            raise PrecisionInsufficient("coefficient at exponent 0 is below the precision bound")
        return self.dom.zero()

    # -- io -------------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.terms:
                cs = str(c)
                if e.is_zero():
                    parts.append(cs)
                else:
                    es = str(e)
                    tpow = "t" if es == "1" else f"t^({es})" if ("/" in es or "-" in es or "+" in es or "sqrt" in es) else f"t^{es}"
                    if cs == "1":
                        parts.append(tpow)
                    elif cs == "-1":
                        parts.append(f"-{tpow}")
                    else:
                        coeff = cs if ("+" not in cs[1:] and "-" not in cs[1:] and " " not in cs) else f"({cs})"
                        parts.append(f"{coeff}*{tpow}")
            body = parts[0]
            for p in parts[1:]:
                body += " - " + p[1:] if p.startswith("-") else " + " + p
        if self.precision is not None:
            body += f" + O(t^({self.precision}))"
        return body

    def __repr__(self):
        return f"PuiseuxSeries({self})"

    def __eq__(self, other):
        return (
            isinstance(other, PuiseuxSeries)
            and self.dom == other.dom
            and self.terms == other.terms
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.dom, self.terms, self.precision))


def _rational_lower_bound(e: Exponent) -> Fraction:
    """A rational q <= e, used for conservative precision scaling."""
    if e.b == 0:
        return e.a
    # d is no square, so ceil(sqrt(d)) = isqrt(d) + 1
    return e.a + e.b * (math.isqrt(e.d) + 1 if e.b < 0 else 0)


def ser_subst(f: PuiseuxSeries, s: PuiseuxSeries, prec: Exponent | None = None, lead_root=None) -> PuiseuxSeries:
    """Compose f(s) for val(s) > 0 using generalized binomial expansion.

    All exponents of f must be rational; in characteristic p their
    denominators (and every binomial denominator met along the way) must be
    coprime to p.  `lead_root` optionally supplies c^gamma for the leading
    coefficient c of s when fractional powers of it are needed.  The
    precision rule is SeriesPowers.subst's.
    """
    if f.has_irrational_exponent():
        raise IrrationalExponentInSubstitution(f"cannot substitute into {f}")
    if not s.terms:
        raise ZeroLeadingTerm("substitution by a series with no known term")
    s._check(f)
    powers = SeriesPowers.of(s, lead_root)
    if not EXP_ZERO < powers.v:
        raise ValueError(f"substitution requires positive valuation, got val = {powers.v}")
    return powers.subst(f, prec)


def _collected(dom: FieldSpec | PolyRing, acc: dict, prec: Exponent | None) -> PuiseuxSeries:
    """The series of acc, a dict exponent -> coefficient whose exponents
    all lie below prec, known below prec."""
    terms = sorted(((e, c) for e, c in acc.items() if not c.is_zero()), key=_exponent_of)
    return PuiseuxSeries._ordered(dom, tuple(terms), prec)


class PowerList:
    """The powers w^0, w^1, ... of one series w of positive valuation (val
    None: w is exactly 0), truncated at prec (None: exact) and built on
    demand, so every (1 + w)^gamma read from the list shares its products."""

    def __init__(self, w: PuiseuxSeries, prec: Exponent | None):
        self.w, self.prec, self.val = w, prec, w.val_bound()
        if self.val is not None and not EXP_ZERO < self.val:
            if w.terms:
                raise ValueError("binomial expansion requires positive valuation")
            raise PrecisionInsufficient("tail precision too low for binomial expansion")
        self._powers = [PuiseuxSeries.one(w.dom)]

    def __getitem__(self, k: int) -> PuiseuxSeries:
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1].mul_below(self.w, self.prec))
        return self._powers[k]


class SeriesPowers:
    """The powers s^gamma, gamma rational, of one series s = lead * t^v *
    (1 + w), w of positive valuation or exactly 0, over the ring dom: the
    lists of w's powers by reach and lead^gamma = lead_root(gamma), with
    lead_root None when lead is 1 and no factor is applied.  With
    `entries` set, each s^gamma known below a bound is kept too, keyed
    (bound, gamma): any list reaching bound - v gamma gives the same
    s^gamma.  The memo, lists included, is emptied when it holds `entries`
    values; an expansion that raises is not kept."""

    __slots__ = ("dom", "v", "w", "lead_root", "entries", "_memo")

    def __init__(self, dom: FieldSpec | PolyRing, v: Exponent, w: PuiseuxSeries, lead_root, entries: int | None = None):
        self.dom, self.v, self.w, self.lead_root, self.entries = dom, v, w, lead_root, entries
        self._memo: dict = {}

    @staticmethod
    def of(s: PuiseuxSeries, lead_root=None) -> SeriesPowers:
        """The powers of s, whose leading term c t^v is known and c
        invertible; w = s / (c t^v) - 1 is known below s.precision - v.
        Without lead_root, c^gamma is a power of c or of a root of it."""
        v, c = s.terms[0]
        cinv = c.inv()
        w = s.shift(-v).scale(cinv) - PuiseuxSeries.one(s.dom)

        def scalar_root(gamma: Fraction):
            num, den = gamma.numerator, gamma.denominator
            if den == 1:
                return c**num if num >= 0 else cinv ** (-num)
            if isinstance(c, Scalar):
                root = c.kth_root(den)
                return root**num if num >= 0 else root.inv() ** (-num)
            raise ValueError("fractional power of a non-scalar leading coefficient needs lead_root")

        if lead_root is None and c == s.dom.one():
            return SeriesPowers(s.dom, v, w, None)  # every c^gamma is 1
        return SeriesPowers(s.dom, v, w, lead_root or scalar_root)

    def _kept(self, key, make):
        value = self._memo.get(key)
        if value is None:
            value = make()
            if self.entries is not None and len(self._memo) >= self.entries:
                self._memo.clear()
            self._memo[key] = value
        return value

    def power(self, e: Exponent, bound: Exponent | None, reach: Exponent | None) -> PuiseuxSeries:
        """s^e = lead^e t^(v e) (1 + w)^e known below bound (None: exact),
        from the list of w's powers below reach >= bound - v e."""

        def expand():
            powers = self._kept(reach, lambda: PowerList(self.w, reach))
            # an integer exponent stays an int: no Fraction is built for it,
            # and the binomial series below runs on int gamma - k
            gamma = e.p if e.n == 1 and e.is_rational() else e.as_fraction()
            char = self.dom.char
            if char and gamma.denominator % char == 0:
                raise WildRamification(f"exponent denominator divisible by characteristic {char}")
            shift = self.v.scale(gamma)
            x = _binomial_power(powers, gamma, None if bound is None else bound - shift)
            if self.lead_root is None:
                return PuiseuxSeries._ordered(self.dom, tuple((ee + shift, c) for ee, c in x.terms), bound)
            lead = self.lead_root(gamma)
            return PuiseuxSeries._ordered(self.dom, tuple((ee + shift, c * lead) for ee, c in x.terms), bound)

        return expand() if self.entries is None else self._kept((bound, e), expand)

    def subst(self, f: PuiseuxSeries, prec: Exponent | None = None, reach: Exponent | None = None) -> PuiseuxSeries:
        """f(s) = sum a_e s^e for f = sum a_e t^e with rational exponents,
        known below the target: prec, lowered to v times a rational bound
        of f's precision and to v e_0 + prec(w) for f's lowest exponent
        e_0; with no bound at all, an infinite expansion (a fractional or
        negative e, w not exactly 0) runs to DEFAULT_PRECISION.  Each s^e
        is known below it, w^k being known below prec(w) + (k - 1) val(w).
        Every s^e reads the list of w's powers below reach, by default
        target - v e_0, which the lowest term needs."""
        v, w = self.v, self.w
        target = prec
        if f.precision is not None:
            target = _min_prec(target, v.scale(_rational_lower_bound(f.precision)))
        if f.terms:
            e0 = f.terms[0][0]
            if w.precision is not None:
                target = _min_prec(target, v.scale(e0.as_fraction()) + w.precision)
            if target is None and not (w.is_zero() and w.is_exact()) and any(e.n != 1 or e.sign() < 0 for e, _ in f.terms):
                target = DEFAULT_PRECISION
            if reach is None and target is not None:
                reach = target - v.scale(e0.as_fraction())
        one, times = f.dom.one(), _times(self.dom, f.dom)
        if len(f.terms) == 1:
            # one power, scaled: no term to collect
            (e, a), = f.terms
            x = self.power(e, target, reach)
            if a == one:
                return x
            return PuiseuxSeries._ordered(self.dom, tuple((te, times(c, a)) for te, c in x.terms), target)
        acc: dict = {}
        for e, a in f.terms:
            unit = a == one
            for te, x in self.power(e, target, reach).terms:
                if not unit:
                    x = times(x, a)
                old = acc.get(te)
                acc[te] = x if old is None else old + x
        return _collected(self.dom, acc, target)


def _binomial_power(powers: PowerList, gamma: Fraction, local_prec: Exponent | None) -> PuiseuxSeries:
    """(1 + w)^gamma = sum_k binom(gamma, k) w^k from the powers of w, known
    below local_prec.  The sum stops where binom(gamma, k) = 0, so integer
    gamma >= 0 allows local_prec None (exact), or where k * val(w) reaches
    local_prec.  A binomial coefficient whose denominator vanishes in the
    characteristic raises WildRamification."""
    if powers.val is None:
        return powers[0]
    if local_prec is None and (gamma.denominator != 1 or gamma < 0):
        raise PrecisionInsufficient("infinite binomial expansion needs a precision target")
    dom = powers.w.dom
    # the binomial coefficients are scalars, which scale a PolyRing's terms
    field = dom.field if dom.__class__ is PolyRing else dom
    times, char = _times(dom, field), dom.char
    acc = dict(powers[0].truncate(local_prec).terms)
    known = local_prec
    bc = Fraction(1)
    k = 0
    bound = EXP_ZERO
    while True:
        bc = bc * (gamma - k) / (k + 1)
        k += 1
        bound = bound + powers.val
        if bc == 0 or (local_prec is not None and not bound < local_prec):
            return _collected(dom, acc, local_prec).truncate(known)
        if char and bc.denominator % char == 0:
            raise WildRamification(f"denominator {bc.denominator} vanishes in characteristic {char}")
        c = field.from_fraction(bc)
        wk = powers[k]
        known = _min_prec(known, wk.precision)
        for e, x in wk.terms:
            if local_prec is not None and not e < local_prec:
                break
            x = times(x, c)
            old = acc.get(e)
            acc[e] = x if old is None else old + x


def parse_series(data: dict | list, field: FieldSpec, d: int | None = None) -> PuiseuxSeries:
    """JSON literal: {"terms": [[exponent, coefficient], ...], "prec": e}
    with exponent strings as Exponent.parse reads them and scalar
    coefficient strings; a bare list is shorthand for exact terms."""
    if isinstance(data, list):
        items, prec = data, None
    else:
        items = data.get("terms", [])
        prec = data.get("prec")
    terms = []
    for e_str, c_str in items:
        e = Exponent.parse(str(e_str), d)
        c = parse_scalar(str(c_str), field)
        terms.append((e, c))
    precision = None if prec is None else Exponent.parse(str(prec), d)
    return PuiseuxSeries(field, terms, precision)


def series_to_json(s: PuiseuxSeries) -> dict:
    out = {"terms": [[str(e), str(c)] for e, c in s.terms]}
    if s.precision is not None:
        out["prec"] = str(s.precision)
    return out
